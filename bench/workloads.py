"""The benchmark's workloads: seeded inputs, the timed call and the oracle.

A check is one verdict request.  Input ``index`` of a run is made from the
benchmark seed and the index alone, when the runner first needs it, so a run
never sends the same input twice (cli-mix's ``hilbert`` request, which has
no input, is the one exception).  ``call`` is the only timed part; ``judge``
compares the verdict with the paper's prediction for the input, which is
known from how the input was built.  Generation and ``judge`` run outside
the timers and outside the traced calls, so the per-layer counts hold only
the checks' own calls into the package.

Every package function is reached through its module attribute at call
time (``self.hl.intertwine.solve_intertwiner_space``), so the traced run
sees the wrapped binding.
"""

from __future__ import annotations

import json
from itertools import count
from pathlib import Path

# Outcomes of a check.  ``judge`` returns None for a verdict that matches
# the prediction, otherwise (WRONG or REFUSED, detail).
OK, WRONG, REFUSED, CRASHED = "ok", "wrong", "refused", "crashed"

# Set-up warms up on input 0 of this seed in every run, so set-up time does
# not depend on which input the run's own seed happens to put first.
WARMUP_SEED = 0


def input_seed(seed: int, index: int) -> int:
    """Seed of input ``index`` of a run; runs with different seeds share no inputs."""
    return seed * 1_000_003 + index


def planted_pairs(u) -> int:
    """Exact conjugate pairs among the zeros of ``u``: the generators plant them this way."""
    zeros = list(u.zeros)
    return sum(w == z.conjugate() for i, z in enumerate(zeros) for w in zeros[i + 1 :])


# Minimum distance between any two zeros of a product, and between a zero
# and the conjugate of another (exact planted pairs excepted).
SEPARATION = 0.1


def separated(zeros) -> bool:
    """Whether ``zeros`` meet the SEPARATION property.

    A zero and its own conjugate count as two zeros, so no zero without an
    exact conjugate partner lies within SEPARATION / 2 of the real line.
    """
    zeros = list(zeros)
    for i, z in enumerate(zeros):
        if abs(z - z.conjugate()) < SEPARATION:
            return False
        for w in zeros[i + 1 :]:
            if abs(z - w) < SEPARATION:
                return False
            if w != z.conjugate() and abs(z - w.conjugate()) < SEPARATION:
                return False
    return True


def separated_blaschke(bl, seed: int, **kwargs):
    """``random_blaschke(seed, **kwargs)`` conditioned on ``separated`` zeros.

    The first draw is the acceptance battery's and fixes the degree and
    whether a pair is planted; while its zeros are not separated, draws from
    ``[seed, 1]``, ``[seed, 2]``, ... with the same planting replace it until
    one of that degree is.  So the degree and planting shares are the
    battery's, and only where the zeros lie is conditioned.

    Without it, about 1 battery draw in 1100 at max_degree=5, radius=0.8 has
    zeros that cluster, or sit near the real line or near another zero's
    conjugate, and ``solve_intertwiner_space(u, 64)`` refuses it with
    AmbiguousRank: a near-solution with a singular value of 2e-7 to 1.5e-6
    lies within the factor-100 gap of the 2e-8 cut.
    ``random_blaschke(202001404, max_degree=5, radius=0.8)`` is one.
    """
    u = bl.random_blaschke(seed, **kwargs)
    degree, plant = u.degree, planted_pairs(u) > 0
    for attempt in count(1):
        if u.degree == degree and separated(u.zeros):
            return u
        u = bl.random_blaschke([seed, attempt], **{**kwargs, "plant_pair": plant})


class Workload:
    name = ""
    trace_checks = 32  # checks in the traced run: inputs 0, 1, ...
    repeats = 0  # inputs 0, 1, ... sent again after the timed loop

    def __init__(self, hl, seed: int, workdir: Path):
        self.hl = hl
        self.seed = seed
        self.workdir = workdir

    def item(self, index: int, seed: int | None = None):
        """Input ``index`` of the run with ``seed`` (the benchmark seed by default)."""
        return self.make_item(index, input_seed(self.seed if seed is None else seed, index))

    def make_item(self, index: int, seed: int):
        raise NotImplementedError

    def call(self, item):
        raise NotImplementedError

    def judge(self, item, result):
        raise NotImplementedError


class Dichotomy(Workload):
    """Criterion 1: the intertwiner space of S* X = X S on Q_u at order 64.

    Products are ``random_blaschke(seed, max_degree=5, radius=0.8)`` as the
    acceptance battery draws them, conditioned on ``separated`` zeros: a
    coin flip plants a conjugate pair, so deg theta is 2 for about half the
    inputs and 0 for the rest.  Predicted: deg theta as planted,
    solution_dim == deg theta, gap >= 100.

    The unplanted half solves in 1-6 ms and the planted half in 15-250 ms
    (2-core Xeon), so the median check sits on the edge between the two and
    jumps with the share the seed happens to plant: check_p50_ms read 7.8,
    7.8, 8.0, 8.6 and 16.0 ms over seeds 11-15.  That is the traffic's
    property; BENCHMARK.json gates the mean rate (checks_per_s) instead.
    """

    name = "dichotomy"
    trace_checks = 40

    def make_item(self, index, seed):
        u = separated_blaschke(self.hl.blaschke, seed, max_degree=5, radius=0.8)
        return u, 2 * planted_pairs(u)

    def call(self, item):
        return self.hl.intertwine.solve_intertwiner_space(item[0], 64)

    def judge(self, item, report):
        theta_degree = item[1]
        if report.theta.degree != theta_degree or report.solution_dim != theta_degree:
            return WRONG, (
                f"{item[0].text()}: deg theta {report.theta.degree}, "
                f"dim {report.solution_dim}, predicted {theta_degree}"
            )
        if report.gap.gap < 100.0:
            return WRONG, f"{item[0].text()}: gap {report.gap.gap:.3g} < 100"
        return None


# (check, symbol built from the model space of theta rather than of the
# reflection, symbol inside the model space, planted conjugate pair):
# criteria 4 and 5 of the acceptance battery, in its proportions of 100
# invariance trials (in-model and off-model in turn) to 50 reducing trials
# (its three kinds in turn).
_INVARIANCE_KINDS = (
    ("invariance", False, True, None),
    ("invariance", False, False, None),
) * 3 + (
    ("reducing", True, True, True),
    ("reducing", True, False, True),
    ("reducing", True, False, False),
)


class Invariance(Workload):
    """Criteria 4/5: one ``resolve_trial`` of check_invariance or check_reducing.

    Products and symbols are built as the acceptance battery builds them
    (``random_blaschke(seed, max_degree=4, radius=0.7)``, n0 = 64), the
    products conditioned on ``separated`` zeros.
    Predicted: resolved, the three conditions agree, and the verdict equals
    the construction (in-model holds, off-model fails).
    """

    name = "invariance"
    trace_checks = 36  # four cycles of the nine kinds

    def make_item(self, index, seed):
        check, use_theta, in_model, planted = _INVARIANCE_KINDS[index % len(_INVARIANCE_KINDS)]
        u = separated_blaschke(self.hl.blaschke, seed, max_degree=4, radius=0.7, plant_pair=planted)
        return check, use_theta, in_model, u, seed

    def call(self, item):
        check, use_theta, in_model, u, seed = item
        sub = self.hl.subspaces
        v = self.hl.intertwine.gcd_symbol_theta(u) if use_theta else self.hl.blaschke.conj_reflect(u)
        if in_model:
            def phi_at(n):
                return sub.random_symbol_in_model(v, seed, n // 2)
        else:
            phi0 = sub.random_symbol_outside_model(v, seed, 64)

            def phi_at(n):
                return phi0
        fn = sub.check_invariance if check == "invariance" else sub.check_reducing
        return sub.resolve_trial(fn, u, phi_at, 64)

    def judge(self, item, outcome):
        check, _, in_model, u, _ = item
        if not outcome.resolved:
            return REFUSED, f"{check} {u.text()}: indecisive after {outcome.doublings} doublings"
        if not outcome.report.agreement:
            return WRONG, f"{check} {u.text()}: conditions disagree"
        if outcome.report.verdict != in_model:
            return WRONG, f"{check} {u.text()}: verdict {outcome.report.verdict}, built {in_model}"
        return None


HIGH_DEGREE_RADIUS = 0.6


def high_degree_zeros(rng, degree: int, pairs: int) -> list:
    """``pairs`` exact conjugate pairs plus free zeros, all in |z| <= 0.6.

    The zeros are ``separated``, so gcd{u, reflected u} is exactly the
    planted pairs.
    """
    for _ in range(256):
        zeros = []
        for _ in range(4096):
            if len(zeros) == degree:
                return zeros
            z = complex(*rng.uniform(-HIGH_DEGREE_RADIUS, HIGH_DEGREE_RADIUS, 2))
            new = [z, z.conjugate()] if len(zeros) < 2 * pairs else [z]
            if abs(z) <= HIGH_DEGREE_RADIUS and separated(zeros + new):
                zeros += new
    raise RuntimeError(f"no separated configuration of degree {degree}")


class HighDegree(Workload):
    """Products of degree 12-20: the intertwiner and fixed-point solves at order 64.

    Predicted: solution_dim == deg theta == 2 * planted pairs, and the
    fixed-point space is trivial.  Kronecker systems have 144-400 unknowns.

    Known defect, counted and not filtered: of the 64 inputs of seeds 1 and 2,
    34 are correct, 27 end in an AmbiguousRank refusal and 3 in a silent wrong
    verdict.  Seed 1, input 3 reproduces one: degree 19 with a single planted
    pair gives solution_dim 9 at gap 262, where 2 is predicted.  Every run
    therefore reports correct = false, which is why BENCHMARK.json does not
    list this workload.
    """

    name = "high-degree"
    trace_checks = 12

    def make_item(self, index, seed):
        import numpy as np  # not at module level: the runner pins BLAS threads first

        rng = np.random.default_rng(seed)
        degree = int(rng.integers(12, 21))
        pairs = int(rng.integers(0, degree // 2 + 1))
        return self.hl.blaschke.make_blaschke(high_degree_zeros(rng, degree, pairs)), pairs

    def call(self, item):
        u = item[0]
        return (
            self.hl.intertwine.solve_intertwiner_space(u, 64),
            self.hl.intertwine.solve_toeplitz_fixed_space(u, 64),
        )

    def judge(self, item, reports):
        u, pairs = item
        lift, fixed = reports
        if not (lift.theta.degree == lift.solution_dim == 2 * pairs) or fixed.solution_dim:
            return WRONG, (
                f"degree {u.degree}, {pairs} pairs: deg theta {lift.theta.degree}, "
                f"dim {lift.solution_dim} (gap {lift.gap.gap:.3g}), fixed dim {fixed.solution_dim}"
            )
        return None


# The eight non-suite commands, one request each in turn.
CLI_CYCLE = ("gcd", "intertwine", "lift-check", "invariance", "reduce", "kernel", "toeplitz-fixed", "hilbert")
# Configs sent a second time after the timed loop, whose canonical JSON
# must repeat byte for byte: the first cycle.
CLI_REPEATS = len(CLI_CYCLE)


def _zeros_arg(u) -> str:
    # the "=" form keeps argparse from reading a leading minus sign as a flag
    return "--zeros=" + ";".join(f"{z.real!r},{z.imag!r}" for z in u.zeros)


class CliMix(Workload):
    """Requests over the eight non-suite commands through ``cli.main`` in-process.

    Request ``index`` runs ``CLI_CYCLE[index % 8]``.  Products come from
    ``separated_blaschke``, whose coin flip plants a conjugate pair; ``reduce``
    always plants one, as criterion 5 does.  ``invariance`` and ``reduce``
    alternate between an in-model and an off-model symbol from one cycle to
    the next.  Symbol files are exact Laurent polynomials: in-model symbols
    use zeros with |z| <= 0.4 at window 32, where the truncation error
    (< 1e-12) is far below the decisive band.  ``hilbert`` runs at order 512
    and has no input, so it is the same request every time.

    About half the requests (gcd, kernel, toeplitz-fixed and the theta = 1
    intertwine and lift-check requests) take 1-12 ms and the rest 12-130 ms
    (2-core Xeon), so the median request sits on the edge between the two:
    interleaved on one process, seeds 101, 104, 105 and 106 read
    check_p50_ms 13.3, 10.3, 13.5 and 12.9 ms at the same mean latency.
    """

    name = "cli-mix"
    trace_checks = 48
    repeats = CLI_REPEATS

    def __init__(self, hl, seed, workdir):
        super().__init__(hl, seed, workdir)
        self.first_bytes = {}

    def make_item(self, index, seed):
        command = CLI_CYCLE[index % len(CLI_CYCLE)]
        bl, sub = self.hl.blaschke, self.hl.subspaces
        argv = ["--command", command]
        if command == "hilbert":
            argv += ["--order", "512"]
            flag = False
        elif command in ("invariance", "reduce"):
            reduce = command == "reduce"
            flag = index // len(CLI_CYCLE) % 2 == 0  # in-model symbol
            u = separated_blaschke(bl, seed, max_degree=4 if reduce else 3, radius=0.4, plant_pair=reduce or None)
            v = self.hl.intertwine.gcd_symbol_theta(u) if reduce else bl.conj_reflect(u)
            if flag:
                phi = sub.random_symbol_in_model(v, seed, 32)
            else:
                phi = sub.random_symbol_outside_model(v, seed, 64)
            coeffs = phi.laurent[phi.window :]
            path = self.workdir / f"symbol-{seed}.json"
            path.write_text(json.dumps([[k, c.real, c.imag] for k, c in enumerate(coeffs)]))
            argv += [_zeros_arg(u), "--symbol-coeffs", str(path)]
        else:
            top = {"gcd": 5, "toeplitz-fixed": 6}.get(command, 4)
            u = separated_blaschke(bl, seed, max_degree=top, radius=0.7)
            flag = planted_pairs(u) > 0
            argv += [_zeros_arg(u)]
        out = self.workdir / f"report-{seed}.json"
        expect = {"command": command, "flag": flag}
        return index, argv + ["--out", str(out)], out, expect

    def call(self, item):
        return self.hl.cli.main(item[1])

    def judge(self, item, code):
        index, argv, out, expect = item
        label = f"{expect['command']} #{index}"
        if code not in (0, 3):
            return WRONG, f"{label}: exit code {code}"
        if not out.exists():
            # exit 3 without a report: a refusal raised outside run_experiment
            return (REFUSED if code == 3 else WRONG), f"{label}: exit code {code}, no report"
        text = out.read_bytes()
        out.unlink()
        if code == 3:
            error = json.loads(text)["error"]
            return REFUSED, f"{label}: {error['type']}: {error['message']}"
        if index < CLI_REPEATS:
            first = self.first_bytes.setdefault(out.name, text)
            if text != first:
                return WRONG, f"{label}: canonical JSON differs from the first run of this config"
        problem = _cli_expectation(expect, json.loads(text))
        return None if problem is None else (WRONG, f"{label}: {problem}")


def _cli_expectation(expect, report):
    """The predicted checks and payload of one CLI report, or a description of the miss."""
    command, flag = expect["command"], expect["flag"]
    payload, checks = report["payload"], report["checks"]
    passed = [c["passed"] for c in checks]
    if command == "gcd":
        if payload["theta_degree"] != 2 * flag or passed != [flag]:
            return f"theta degree {payload['theta_degree']}, planted {flag}"
    elif command == "intertwine":
        if not (payload["solution_dim"] == payload["theta_degree"] == 2 * flag) or passed != [True]:
            return f"solution dim {payload['solution_dim']}, theta degree {payload['theta_degree']}"
    elif command == "lift-check":
        if flag and passed != [True]:
            return f"block lift residual {checks[0]['value'] if checks else None}"
        if not flag and not payload.get("gcd_trivial"):
            return "gcd reported nontrivial"
    elif command in ("invariance", "reduce"):
        if passed != [flag] * len(passed) or not all(c["decisive"] for c in checks):
            return f"conditions {passed}, decisive {[c['decisive'] for c in checks]}, in-model {flag}"
    elif not all(passed) or not passed:
        return f"checks {passed}"
    return None


WORKLOADS = {cls.name: cls for cls in (Dichotomy, Invariance, HighDegree, CliMix)}
