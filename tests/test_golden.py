"""Golden canonical-JSON reports: the CLI's output bytes, locked per config.

Each file ``tests/golden/<case>.json`` is the report ``hankellift`` writes
for the config of that case.  Regenerate them with
``PYTHONPATH=src python tests/test_golden.py``, and only in a change that
means to alter the report output.  Regeneration writes nothing when an exit
code or any verdict or error of an existing report would change.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from hankellift import cli
from hankellift.suite import CriterionResult

GOLDEN = Path(__file__).parent / "golden"
SYMBOL_Z = str(GOLDEN / "symbol-z.json")  # the symbol z: [[1, 1.0, 0.0]]
SYMBOL_OFF = str(GOLDEN / "symbol-off-model.json")  # 0.3+0.1i, (-0.2+0.4i) z, 0.1 z^2
# random_symbol_in_model(gcd_symbol_theta(u), 3, 32) for u with zeros 0.2 +- 0.3i
SYMBOL_IN = str(GOLDEN / "symbol-in-model.json")

# the suite command runs on these fixed results, not on the real battery
FIXED_SUITE = [
    CriterionResult(index=1, name="x", passed=True, details="held", seconds=0.0),
    CriterionResult(index=2, name="y", passed=False, details="missed", seconds=0.0),
]

# case -> (argv, expected exit code)
CASES = {
    "gcd-conjugate-pair": (["--command", "gcd", "--zeros", "0,0.5;0,-0.5"], 0),
    "intertwine-conjugate-pair": (["--command", "intertwine", "--zeros", "0,0.5;0,-0.5"], 0),
    "intertwine-single-zero": (["--command", "intertwine", "--zeros", "0,0.5"], 0),
    "lift-check-conjugate-pair": (["--command", "lift-check", "--zeros", "0,0.5;0,-0.5"], 0),
    "lift-check-single-zero": (["--command", "lift-check", "--zeros", "0,0.5"], 0),
    "invariance-hilbert": (
        ["--command", "invariance", "--zeros", "0,0;0,0", "--generator", "hilbert"],
        0,
    ),
    "invariance-symbol-file": (
        ["--command", "invariance", "--zeros", "0,0;0,0", "--symbol-coeffs", SYMBOL_Z],
        0,
    ),
    "reduce-symbol-file": (
        ["--command", "reduce", "--zeros", "0,0;0,0", "--symbol-coeffs", SYMBOL_Z],
        0,
    ),
    "kernel-real-zero": (["--command", "kernel", "--zeros", "0.5,0"], 0),
    "toeplitz-fixed-real-zero": (["--command", "toeplitz-fixed", "--zeros", "0.5,0"], 0),
    "toeplitz-fixed-refusal": (
        ["--command", "toeplitz-fixed", "--zeros", "0.5,0", "--rank-tol", "0.075"],
        3,
    ),
    "hilbert-128": (["--command", "hilbert", "--order", "128"], 0),
    # the basis tail forces the order from 16 up to 256
    "intertwine-doubling": (
        ["--command", "intertwine", "--zeros", "0.8,0;0,-0.8;0.75,0", "--order", "16"],
        0,
    ),
    "lift-check-doubling": (
        ["--command", "lift-check", "--zeros", "0.3,0.6;0.3,-0.6;0.8,0", "--order", "16"],
        0,
    ),
    "toeplitz-fixed-doubling": (
        ["--command", "toeplitz-fixed", "--zeros", "0.8,0;0,-0.7", "--order", "16"],
        0,
    ),
    "kernel-three-zeros": (["--command", "kernel", "--zeros", "0.3,0.5;0.3,-0.5;0.6,0"], 0),
    "invariance-off-model": (
        ["--command", "invariance", "--zeros", "0.3,0.5;0.3,-0.5;0.2,0", "--symbol-coeffs", SYMBOL_OFF],
        0,
    ),
    "reduce-off-model": (
        ["--command", "reduce", "--zeros", "0.3,0.5;0.3,-0.5", "--symbol-coeffs", SYMBOL_OFF],
        0,
    ),
    "invariance-in-model": (
        ["--command", "invariance", "--zeros", "0.2,0.3;0.2,-0.3", "--symbol-coeffs", SYMBOL_IN],
        0,
    ),
    "reduce-in-model": (
        ["--command", "reduce", "--zeros", "0.2,0.3;0.2,-0.3", "--symbol-coeffs", SYMBOL_IN],
        0,
    ),
    "suite-fixed-results": (["--command", "suite"], 1),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_golden(case, tmp_path, monkeypatch):
    argv, code = CASES[case]
    monkeypatch.setattr(cli, "run_suite", lambda: FIXED_SUITE)
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / f"{case}.json").read_bytes()


def test_hilbert_report_does_not_depend_on_blas_threads():
    # the definiteness certificate is a closed form, so a single-threaded
    # BLAS writes the same bytes as the multi-threaded run that made the golden
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    argv, _ = CASES["hilbert-128"]
    run = subprocess.run(
        [sys.executable, "-m", "hankellift.cli", *argv], env=env, capture_output=True, check=True
    )
    assert run.stdout == (GOLDEN / "hilbert-128.json").read_bytes()


# report keys that hold a verdict or an error, at any depth
VERDICT_KEYS = {"passed", "decisive", "cond1", "cond2", "cond3", "verdicts", "agreement", "error"}


def _verdicts(node, path=""):
    """(path, value) of every verdict key in a parsed report."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in VERDICT_KEYS:
                yield f"{path}/{key}", value
            yield from _verdicts(value, f"{path}/{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _verdicts(value, f"{path}/{i}")


def _verdict_changes(case, old: bytes, new: bytes) -> list:
    before, after = dict(_verdicts(json.loads(old))), dict(_verdicts(json.loads(new)))
    return [
        f"{case}: {path} {before.get(path)!r} -> {after.get(path)!r}"
        for path in sorted(before.keys() | after.keys())
        if before.get(path) != after.get(path)
    ]


def test_regeneration_guard_sees_only_verdict_changes():
    old = (GOLDEN / "reduce-off-model.json").read_bytes()
    report = json.loads(old)
    report["payload"]["forward"]["residuals"][0] *= 2.0
    report["payload"]["forward"]["k_range"] = [0, 99]
    assert _verdict_changes("case", old, json.dumps(report).encode()) == []
    report["checks"][0]["decisive"] = not report["checks"][0]["decisive"]
    report["payload"]["verdicts"][2] = True
    assert _verdict_changes("case", old, json.dumps(report).encode()) == [
        "case: /checks/0/decisive True -> False",
        "case: /payload/verdicts [False, False, False] -> [False, False, True]",
    ]


if __name__ == "__main__":
    cli.run_suite = lambda: FIXED_SUITE
    reports, problems = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for case, (argv, code) in sorted(CASES.items()):
            out = Path(tmp) / f"{case}.json"
            got = cli.main(argv + ["--out", str(out)])
            if got != code:
                problems.append(f"{case}: exit code {got}, expected {code}")
                continue
            reports[case] = out.read_bytes()
            golden = GOLDEN / f"{case}.json"
            if golden.exists():
                problems += _verdict_changes(case, golden.read_bytes(), reports[case])
    if problems:
        sys.exit("refusing to regenerate the goldens:\n" + "\n".join(problems))
    for case, data in reports.items():
        (GOLDEN / f"{case}.json").write_bytes(data)
