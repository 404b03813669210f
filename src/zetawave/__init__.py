"""Numerical laboratory for a dilation-operator spectral construction.

Special functions on the critical strip, half-line quadrature, the
squeezed wave-function chain with its boundary integrals and limits,
critical-line zero scans, and brute-force oracles, behind a deterministic
CLI (`zetawave`).
"""

from .errors import (
    DomainError,
    NonConvergenceError,
    OverflowRangeError,
    StepSizeError,
    ZetawaveError,
)
from .oracles import apply_bk_operator, apply_number_operator, eta_naive, quad_naive
from .quad import (
    QuadratureSpec,
    QuadResult,
    default_spec,
    integrate_halfline,
    integrate_singular_log,
    tail_cutoff_for,
)
from .specfun import (
    bessel_i0_scaled,
    chi,
    eta,
    eta_grid,
    gamma_complex,
    laguerre,
    zeta,
)
from .spectra import (
    ConvergenceRecord,
    ConvergenceStudy,
    ZeroRecord,
    convergence_study,
    scan_zeros,
)
from .verify import CheckResult, check_names, run_checks
from .waveform import (
    MehlerSeriesResult,
    QuantumNumber,
    SqueezeParameter,
    TildeExpansion,
    WaveSample,
    mehler_closed,
    mehler_series,
    overlap_s1,
    phi_confined,
    phi_s,
    psi_boundary,
    psi_boundary_batch,
    psi_boundary_limit,
    psi_full,
    squeeze_apply,
    tilde_expansion_check,
    varphi_zero,
)

__version__ = "0.1.0"
