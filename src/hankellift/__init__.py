"""Numerical verification of Hankel lifting and invariant-subspace identities
on model spaces of finite Blaschke products."""

__version__ = "0.1.0"

from .blaschke import (
    BlaschkeProduct,
    conj_reflect,
    divide,
    gcd_inner,
    make_blaschke,
    monomial,
    random_blaschke,
    taylor_coefficients,
)
from .fourier import (
    Symbol,
    analytic_symbol,
    conj_flip_symbol,
    materialize,
    symbol_from_laurent,
)
from .operators import (
    hankel_matrix,
    hilbert_generator,
    hilbert_hankel,
    null_space,
    operator_norm,
    toeplitz_matrix,
)
from .model_space import (
    ModelSpaceBasis,
    beurling_basis,
    compress,
    compressed_shift,
    tm_basis,
)
from .intertwine import (
    IntertwinerReport,
    gcd_symbol_theta,
    intertwiner_from_symbol,
    lifting_symbol,
    solve_intertwiner_space,
    solve_toeplitz_fixed_space,
    verify_block_lift,
)
from .subspaces import (
    InvarianceReport,
    ReducingReport,
    check_invariance,
    check_reducing,
    kernel_symbol,
    random_symbol_in_model,
    verify_kernel_identity,
)
from .suite import run_suite
