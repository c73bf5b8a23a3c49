"""The package functions the traced run wraps, grouped into per-layer metrics.

Each layer reports ``.calls`` (exact) and ``.self_ms`` (span time minus the
time its child spans cover), plus the counts listed in ``LAYERS``.  Counts
are computed from the arguments and results of each call, outside the code
under test.
"""

from __future__ import annotations

from tracing import Target


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _tail_counts(args, kwargs, result, exc):
    # series_tail_bound(zeros, n, szego_alpha=None, scale=1.0, grid=64)
    zeros = _arg(args, kwargs, 0, "zeros")
    alpha = _arg(args, kwargs, 2, "szego_alpha")
    grid = _arg(args, kwargs, 4, "grid", 64)
    moduli = [abs(a) for a in zeros] + ([abs(alpha)] if alpha is not None else [])
    # an all-zero product without a kernel factor returns before the radius grid
    return {"factor_evals": grid * len(moduli) if max(moduli, default=0.0) > 0.0 else 0}


def _null_space_counts(args, kwargs, result, exc):
    m = _arg(args, kwargs, 0, "m")
    entries = getattr(m, "entries", m)
    refused = exc is not None and type(exc).__name__ == "AmbiguousRank"
    return {"matrix_elems": int(entries.size), "refusals": int(refused)}


def _tm_basis_counts(args, kwargs, result, exc):
    if result is None:
        return {}
    requested, doublings = _arg(args, kwargs, 1, "n"), 0
    while requested < result.order:
        requested *= 2
        doublings += 1
    return {"order_doublings": doublings}


def _shifted_columns_counts(args, kwargs, result, exc):
    if result is None:
        return {}
    u, n = _arg(args, kwargs, 0, "u"), _arg(args, kwargs, 1, "n")
    columns = result[0].shape[1]
    return {"columns": columns, "distinct": (u, n, columns - 1)}


def _intertwiner_counts(args, kwargs, result, exc):
    return {"kron_unknowns": _arg(args, kwargs, 0, "u").degree ** 2}


def _resolve_trial_counts(args, kwargs, result, exc):
    return {} if result is None else {"doublings": result.doublings}


def _report_bytes(args, kwargs, result, exc):
    return {} if result is None else {"cli.report_bytes": len(result.encode())}


# (layer, extra metrics beyond .calls/.self_ms, [(module, function)], counts)
LAYERS = (
    ("blaschke.series_tail_bound", ("factor_evals",), [("blaschke", "series_tail_bound")], _tail_counts),
    ("blaschke.taylor_coefficients", (), [("blaschke", "taylor_coefficients")], None),
    ("blaschke.gcd", (), [("blaschke", "gcd_inner"), ("blaschke", "divide")], None),
    (
        "fourier.symbols",
        (),
        [
            ("fourier", "analytic_symbol"),
            ("fourier", "symbol_from_laurent"),
            ("fourier", "materialize"),
            ("fourier", "conj_flip_symbol"),
        ],
        None,
    ),
    (
        "operators.sections",
        (),
        [("operators", "hankel_matrix"), ("operators", "toeplitz_matrix"), ("operators", "hilbert_hankel")],
        None,
    ),
    ("operators.null_space", ("matrix_elems", "refusals"), [("operators", "null_space")], _null_space_counts),
    ("operators.operator_norm", (), [("operators", "operator_norm")], None),
    ("model_space.tm_basis", ("order_doublings",), [("model_space", "tm_basis")], _tm_basis_counts),
    (
        "model_space.shifted_inner_columns",
        ("columns", "distinct_ratio"),
        [("model_space", "shifted_inner_columns")],
        _shifted_columns_counts,
    ),
    ("model_space.beurling_basis", (), [("model_space", "beurling_basis")], None),
    ("model_space.compress", (), [("model_space", "compress"), ("model_space", "compressed_shift")], None),
    (
        "intertwine.solve_intertwiner_space",
        ("kron_unknowns",),
        [("intertwine", "solve_intertwiner_space")],
        _intertwiner_counts,
    ),
    ("intertwine.solve_toeplitz_fixed_space", (), [("intertwine", "solve_toeplitz_fixed_space")], None),
    ("intertwine.verify_block_lift", (), [("intertwine", "verify_block_lift")], None),
    ("intertwine.intertwiner_from_symbol", (), [("intertwine", "intertwiner_from_symbol")], None),
    ("intertwine.gcd_symbol_theta", (), [("intertwine", "gcd_symbol_theta")], None),
    ("subspaces.check_invariance", (), [("subspaces", "check_invariance")], None),
    ("subspaces.check_reducing", (), [("subspaces", "check_reducing")], None),
    ("subspaces.resolve_trial", ("doublings",), [("subspaces", "resolve_trial")], _resolve_trial_counts),
    ("subspaces.verify_kernel_identity", (), [("subspaces", "verify_kernel_identity")], None),
    (
        "subspaces.random_symbol",
        (),
        [("subspaces", "random_symbol_in_model"), ("subspaces", "random_symbol_outside_model")],
        None,
    ),
    ("cli.load_config", (), [("cli", "load_config")], None),
    ("cli.run_experiment", (), [("cli", "run_experiment")], None),
    ("cli.emit_report", ("cli.report_bytes",), [("cli", "emit_report")], _report_bytes),
)


def targets():
    return [
        Target(module, function, layer, counts)
        for layer, _, functions, counts in LAYERS
        for module, function in functions
    ]


def layer_extras():
    """(layer, extras) pairs for ``Tracer.layer_metrics``."""
    return [(layer, extras) for layer, extras, _, _ in LAYERS]
