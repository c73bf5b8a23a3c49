"""Command-line front end: experiment configs in, machine-readable reports out.

Exit codes: 0 computed, 1 suite criterion failed, 2 bad configuration,
3 numerical refusal (ambiguous rank, tail bound, no convergence or
ambiguous matching).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .blaschke import make_blaschke
from .errors import (
    AmbiguousMatching,
    AmbiguousRank,
    ConfigInvalid,
    HankelLiftError,
    NoConvergence,
    NonUnimodularConstant,
    TailBoundExceeded,
    UnsupportedFormat,
    ZeroOutsideDisk,
)
from .fourier import materialize, symbol_from_laurent
from .intertwine import (
    gcd_symbol_theta,
    lifting_symbol,
    solve_intertwiner_space,
    solve_toeplitz_fixed_space,
    verify_block_lift,
)
from .model_space import tm_basis
from .operators import hilbert_generator, hilbert_hankel, hilbert_log10_minors, operator_norm
from .subspaces import check_invariance, check_reducing, verify_kernel_identity
from .suite import run_suite

# Largest --order accepted: there the real Hilbert section takes 134 MB and
# the other commands' (4097 x 4097) complex sections 268 MB.
MAX_ORDER = 4096

REFUSALS = (AmbiguousRank, TailBoundExceeded, NoConvergence, AmbiguousMatching)


@dataclass
class ExperimentConfig:
    command: str
    zeros: list = field(default_factory=list)
    constant: complex = 1.0 + 0.0j
    symbol_pairs: Optional[list] = None  # [(index, complex)] Laurent data
    generator: Optional[str] = None
    order: int = 64
    rank_tol: float = 1e-8
    residual_tol: float = 1e-8
    out: Optional[str] = None
    format: str = "json"

    def echo(self) -> dict:
        return {
            "command": self.command,
            "zeros": [[z.real, z.imag] for z in self.zeros],
            "constant": [self.constant.real, self.constant.imag],
            "symbol_coeffs": (
                None
                if self.symbol_pairs is None
                else [[k, v.real, v.imag] for k, v in self.symbol_pairs]
            ),
            "generator": self.generator,
            "order": self.order,
            "rank_tol": self.rank_tol,
            "residual_tol": self.residual_tol,
            "format": self.format,
        }


@dataclass
class Report:
    command: str
    config: dict
    payload: dict
    checks: list
    error: Optional[dict]
    wall_time: float

    def to_jsonable(self) -> dict:
        # wall time deliberately excluded: identical configs must produce
        # byte-identical canonical reports
        return {
            "command": self.command,
            "config": self.config,
            "payload": self.payload,
            "checks": self.checks,
            "error": self.error,
            "provenance": {"version": __version__},
        }


def _parse_complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigInvalid(f"expected 're,im', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ConfigInvalid(f"cannot parse complex pair {text!r}")


def _parse_zeros(text: str) -> list:
    text = text.strip()
    if not text:
        return []
    return [_parse_complex_pair(chunk) for chunk in text.split(";") if chunk.strip()]


_CASTS = {"order": int, "rank_tol": float, "residual_tol": float, "out": str, "format": str}
# the JSON values each cast accepts: an order or a symbol index must be an
# integer, a tolerance or a real or imaginary part any number; a bool, though
# an int in Python, is neither
_ACCEPTS = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}


def _json_value(value, cast, what):
    """``cast(value)``, refused unless ``value`` is the JSON kind ``_ACCEPTS`` names.

    A number must also be finite: JSON ``NaN`` and ``Infinity`` are refused.
    """
    types, kind = _ACCEPTS[cast]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigInvalid(f"bad config value: {what} = {value!r} is not {kind}")
    try:
        result = cast(value)
    except OverflowError:  # an integer too large for a float
        raise ConfigInvalid(f"bad config value: {what} = {value!r} is out of range")
    if cast is float and not math.isfinite(result):
        raise ConfigInvalid(f"bad config value: {what} = {value!r} is not finite")
    return result


def _config_pair(p) -> complex:
    """A config-file [re, im] pair; any other length is refused, not truncated."""
    if not isinstance(p, list) or len(p) != 2:
        raise ConfigInvalid(f"expected a [re, im] pair, got {p!r}")
    return complex(_json_value(p[0], float, "[re, im] part"), _json_value(p[1], float, "[re, im] part"))


def _symbol_pairs(data) -> list:
    """[index, re, im] triples, from a symbol file or a config file, as (index, complex)."""
    if not isinstance(data, list) or not all(isinstance(t, list) and len(t) == 3 for t in data):
        raise ConfigInvalid("symbol entries must be [index, re, im] triples")
    return [
        (
            _json_value(k, int, "symbol index"),
            complex(_json_value(re, float, "symbol part"), _json_value(im, float, "symbol part")),
        )
        for k, re, im in data
    ]


def _load_symbol_file(path: str) -> list:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot read symbol file {path}: {exc}")
    return _symbol_pairs(data)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankellift",
        description="Numerical checks for Hankel lifts, invariant subspaces, and kernels "
        "on finite-Blaschke model spaces.",
    )
    parser.add_argument("--command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config file; wins over flags on conflict")
    parser.add_argument("--zeros", help="Blaschke zeros as 're,im;re,im;...'")
    parser.add_argument("--constant", help="unimodular constant as 're,im'")
    parser.add_argument("--symbol-coeffs", help="JSON file of [index, re, im] triples")
    parser.add_argument("--generator", choices=["hilbert"], help="named coefficient rule")
    parser.add_argument("--order", type=int, help="truncation order N (default 64)")
    parser.add_argument("--rank-tol", type=float, help="relative rank cut (default 1e-8)")
    parser.add_argument("--residual-tol", type=float, help="residual tolerance (default 1e-8)")
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    parser.add_argument("--format", choices=["json", "csv-summary", "text"])
    return parser


def load_config(argv) -> ExperimentConfig:
    values = vars(build_parser().parse_args(argv))
    config_path = values.pop("config")
    if config_path:
        try:
            with open(config_path) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config file {config_path}: {exc}")
        if not isinstance(file_values, dict):
            raise ConfigInvalid("config file must hold a JSON object")
        for key in file_values:
            if key not in values:
                raise ConfigInvalid(f"unknown config key {key!r}")
        for key, file_val in file_values.items():
            if values[key] is not None and values[key] != file_val:
                print(
                    f"warning: config file overrides --{key.replace('_', '-')}",
                    file=sys.stderr,
                )
            values[key] = file_val

    if not values["command"]:
        raise ConfigInvalid("no command given (use --command or a config file)")
    if values["command"] not in COMMANDS:
        raise ConfigInvalid(f"unknown command {values['command']!r}")

    cfg = ExperimentConfig(command=values["command"])
    raw_zeros, raw_const, raw_sym = values["zeros"], values["constant"], values["symbol_coeffs"]
    try:
        if isinstance(raw_zeros, str):
            cfg.zeros = _parse_zeros(raw_zeros)
        elif raw_zeros is not None:
            cfg.zeros = [_config_pair(p) for p in raw_zeros]
        if isinstance(raw_const, str):
            cfg.constant = _parse_complex_pair(raw_const)
        elif raw_const is not None:
            cfg.constant = _config_pair(raw_const)
    except TypeError as exc:  # zeros that are not a list
        raise ConfigInvalid(f"bad config value: {exc}")
    for key, cast in _CASTS.items():
        value = values[key]
        if value is not None:
            setattr(cfg, key, _json_value(value, cast, key))
    if isinstance(raw_sym, str):
        cfg.symbol_pairs = _load_symbol_file(raw_sym)
    elif raw_sym is not None:
        cfg.symbol_pairs = _symbol_pairs(raw_sym)
    if values["generator"] is not None:
        if values["generator"] != "hilbert":
            raise ConfigInvalid(f"unknown generator {values['generator']!r}")
        cfg.generator = values["generator"]

    if not 1 <= cfg.order <= MAX_ORDER:
        raise ConfigInvalid(f"order must be between 1 and {MAX_ORDER}")
    if not (0 < cfg.rank_tol < math.inf and 0 < cfg.residual_tol < math.inf):
        raise ConfigInvalid("tolerances must be positive and finite")
    if cfg.format not in ("json", "csv-summary", "text"):
        raise ConfigInvalid(f"unknown format {cfg.format!r}")
    return cfg


def _require_u(cfg: ExperimentConfig):
    if not cfg.zeros:
        raise ConfigInvalid(f"command {cfg.command!r} needs --zeros")
    try:
        return make_blaschke(cfg.zeros, cfg.constant)
    except (ZeroOutsideDisk, NonUnimodularConstant) as exc:
        raise ConfigInvalid(str(exc))


def _require_symbol(cfg: ExperimentConfig, default_window: int):
    if cfg.symbol_pairs is not None:
        return symbol_from_laurent(cfg.symbol_pairs)
    if cfg.generator == "hilbert":
        return materialize(hilbert_generator(), default_window)
    raise ConfigInvalid(
        f"command {cfg.command!r} needs --symbol-coeffs or --generator"
    )


def _check(name, passed, value, tolerance) -> dict:
    return {"name": name, "passed": passed, "value": value, "tolerance": tolerance}


def _condition_check(cond, prefix="") -> dict:
    check = _check(prefix + cond.name, cond.holds, cond.residual, cond.tolerance)
    check["decisive"] = cond.decisive
    return check


def _gap_pair(gap) -> list:
    """The singular values on either side of the rank cut (None for no value above)."""
    return [gap.sv_below, None if math.isinf(gap.sv_above) else gap.sv_above]


def _invariance_payload(rep) -> dict:
    """Verdicts, residuals, tolerances and tested range of an InvarianceReport."""
    return {
        "u": rep.u.text(),
        "symbol_window": rep.symbol_window,
        "cond1": rep.invariant.holds,
        "cond2": rep.kernel.holds,
        "cond3": rep.symbol.holds,
        "residuals": [c.residual for c in rep.conditions],
        "N": rep.order,
        "tol": [c.tolerance for c in rep.conditions],
        "k_range": list(rep.k_range),
        "decisive": rep.decisive,
        "agreement": rep.agreement,
    }


# Each runner maps a config to the report's (payload, checks).


def _run_gcd(cfg):
    u = _require_u(cfg)
    theta = gcd_symbol_theta(u)
    payload = {
        "u": u.text(),
        "theta": theta.text(),
        "theta_degree": theta.degree,
        "theta_zeros": [[z.real, z.imag] for z in theta.zeros],
    }
    return payload, [_check("gcd nontrivial", theta.degree > 0, float(theta.degree), 0.0)]


def _run_intertwine(cfg):
    rep = solve_intertwiner_space(_require_u(cfg), cfg.order, rank_tol=cfg.rank_tol)
    payload = {
        "u": rep.u.text(),
        "theta": rep.theta.text(),
        "theta_degree": rep.theta.degree,
        "solution_dim": rep.solution_dim,
        "residual_max": rep.residual_max,
        "norm_X": rep.norm_x,
        "norm_H": rep.norm_h,
        "gap": _gap_pair(rep.gap),
        "hankel_structure_dev": rep.hankel_structure_dev,
        "gcd_solution_residual": rep.gcd_solution_residual,
        "order": rep.order,
    }
    passed = rep.solution_dim == rep.theta.degree
    return payload, [_check("existence dichotomy", passed, float(rep.solution_dim), 0.0)]


def _run_lift_check(cfg):
    u = _require_u(cfg)
    basis = tm_basis(u, cfg.order)
    if cfg.symbol_pairs is not None or cfg.generator is not None:
        phi = _require_symbol(cfg, 2 * basis.order)
    else:
        phi = lifting_symbol(u, 2 * basis.order)
        if phi is None:
            return {"u": u.text(), "gcd_trivial": True}, []
    rec = verify_block_lift(phi, basis)
    payload = {
        "u": u.text(),
        "off_diagonal_max": rec.off_diagonal_max,
        "norm_H": rec.norm_h,
        "norm_X": rec.norm_x,
        "norm_gap": rec.norm_gap,
        "order": rec.order,
    }
    tol = cfg.residual_tol
    passed = rec.off_diagonal_max <= tol and rec.norm_gap <= tol
    return payload, [_check("block lift", passed, max(rec.off_diagonal_max, rec.norm_gap), tol)]


def _run_invariance(cfg):
    u = _require_u(cfg)
    rep = check_invariance(u, _require_symbol(cfg, cfg.order // 2), cfg.order, cfg.residual_tol)
    return _invariance_payload(rep), [_condition_check(c) for c in rep.conditions]


def _run_reduce(cfg):
    u = _require_u(cfg)
    rep = check_reducing(u, _require_symbol(cfg, cfg.order // 2), cfg.order, cfg.residual_tol)
    payload = {
        "u": rep.u.text(),
        "theta": rep.theta.text(),
        "forward": _invariance_payload(rep.forward),
        "adjoint": _invariance_payload(rep.adjoint),
        "verdicts": list(rep.verdicts),
        "agreement": rep.agreement,
        "decisive": rep.decisive,
    }
    checks = (
        [_condition_check(c, "forward ") for c in rep.forward.conditions]
        + [_condition_check(c, "adjoint ") for c in rep.adjoint.conditions]
        + [_condition_check(rep.gcd_membership)]
    )
    return payload, checks


def _run_kernel(cfg):
    rep = verify_kernel_identity(_require_u(cfg), cfg.order)
    payload = {
        "u": rep.u.text(),
        "inclusion_residual": rep.inclusion_residual,
        "inclusion_tolerance": rep.inclusion_tolerance,
        "restricted_sigma_min": rep.restricted_sigma_min,
        "k_range": list(rep.k_range),
        "order": rep.order,
    }
    sigma = rep.restricted_sigma_min
    checks = [
        _check("kernel inclusion", rep.inclusion_holds, rep.inclusion_residual, rep.inclusion_tolerance),
        _check("no kernel in model space", sigma > 0.05, sigma, 0.05),
    ]
    return payload, checks


def _run_toeplitz_fixed(cfg):
    rep = solve_toeplitz_fixed_space(_require_u(cfg), cfg.order, rank_tol=cfg.rank_tol)
    payload = {
        "u": rep.u.text(),
        "solution_dim": rep.solution_dim,
        "gap": _gap_pair(rep.gap),
        "order": rep.order,
    }
    dim = rep.solution_dim
    return payload, [_check("fixed-point triviality", dim == 0, float(dim), 0.0)]


def _run_hilbert(cfg):
    norm = operator_norm(hilbert_hankel(cfg.order))
    minors = hilbert_log10_minors(cfg.order)
    # Sylvester: positive definite iff every leading minor is positive; each
    # is a positive product, so its logarithm is finite
    positive = float(sum(math.isfinite(v) for v in minors))
    payload = {"order": cfg.order, "norm": norm, "log10_det": minors[-1]}
    checks = [
        _check("norm below pi", bool(norm < np.pi), norm, float(np.pi)),
        _check("positive definite section", positive == len(minors), positive, float(len(minors))),
    ]
    return payload, checks


def _run_suite(cfg):
    results = run_suite()
    payload = {
        "criteria": [
            {"index": r.index, "name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    checks = [
        _check(f"criterion {r.index}: {r.name}", r.passed, 1.0 if r.passed else 0.0, 1.0)
        for r in results
    ]
    return payload, checks


RUNNERS = {
    "gcd": _run_gcd,
    "intertwine": _run_intertwine,
    "lift-check": _run_lift_check,
    "invariance": _run_invariance,
    "reduce": _run_reduce,
    "kernel": _run_kernel,
    "toeplitz-fixed": _run_toeplitz_fixed,
    "hilbert": _run_hilbert,
    "suite": _run_suite,
}
COMMANDS = tuple(RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Dispatch one experiment; computational refusals become error payloads."""
    t0 = time.perf_counter()
    payload: dict = {}
    checks: list = []
    error = None
    try:
        payload, checks = RUNNERS[cfg.command](cfg)
    except REFUSALS as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
    return Report(
        command=cfg.command,
        config=cfg.echo(),
        payload=payload,
        checks=checks,
        error=error,
        wall_time=time.perf_counter() - t0,
    )


# check names -> the classical statement they exercise, for the text format
_CHECK_NOTES = {
    "gcd nontrivial": "nonzero intertwiner exists iff gcd{u, reflected u} != 1",
    "existence dichotomy": "solution space has dimension deg gcd{u, reflected u}",
    "block lift": "H = diag(X, 0) on Q_u + uH^2 with equal norms",
    "invariant": "uH^2 invariant under the Hankel operator",
    "kernel": "uH^2 inside ker of the Hankel operator",
    "symbol": "P_+ of the symbol lies in the model space of the reflection",
    "gcd-orthogonal": "P_+ of the symbol orthogonal to gcd{u, reflected u} H^2",
    "kernel inclusion": "uH^2 inside ker H for the kernel symbol",
    "no kernel in model space": "restriction of H to Q_u is injective",
    "fixed-point triviality": "S* X S = X forces X = 0 (Brown-Halmos + Coburn)",
    "norm below pi": "Hilbert matrix sections stay below the sharp bound pi",
    "positive definite section": "every leading minor of the Hilbert section is positive",
}


def emit_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_jsonable(), sort_keys=True, indent=2) + "\n"
    if fmt == "csv-summary":
        lines = ["check,passed,value,tolerance"]
        for chk in report.checks:
            name = chk["name"].replace('"', "'")
            lines.append(
                f"\"{name}\",{str(chk['passed']).lower()},{chk['value']:.12g},{chk['tolerance']:.12g}"
            )
        if report.error:
            lines.append(f"\"error: {report.error['type']}\",false,nan,nan")
        return "\n".join(lines) + "\n"
    if fmt == "text":
        lines = [f"hankellift {__version__} -- command: {report.command}"]
        if report.error:
            lines.append(f"REFUSED: {report.error['type']}: {report.error['message']}")
        for chk in report.checks:
            status = "ok" if chk["passed"] else "FAIL"
            note = _CHECK_NOTES.get(chk["name"], "")
            lines.append(
                f"  [{status}] {chk['name']}: value {chk['value']:.6g} "
                f"(tolerance {chk['tolerance']:.6g})" + (f" -- {note}" if note else "")
            )
        for key, value in sorted(report.payload.items()):
            if isinstance(value, (str, int, float, bool)):
                lines.append(f"  {key} = {value}")
        lines.append(f"  wall time: {report.wall_time:.2f}s")
        return "\n".join(lines) + "\n"
    raise UnsupportedFormat(f"unknown format {fmt!r}")


def main(argv=None) -> int:
    try:
        cfg = load_config(argv if argv is not None else sys.argv[1:])
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse errors
        return 2 if exc.code not in (0, None) else 0
    try:
        report = run_experiment(cfg)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HankelLiftError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    text = emit_report(report, cfg.format)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if report.error is not None:
        return 3
    if cfg.command == "suite" and not report.payload.get("all_passed", False):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
