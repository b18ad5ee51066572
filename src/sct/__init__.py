"""Semiclassical thermodynamics of a particle in an attractive central
potential: one-loop partition functions built from closed Euclidean
trajectories and fluctuation determinants, with classical and
Bohr-Sommerfeld references, in reduced units hbar = m = omega = k_B = 1."""

from .errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    PoleError,
    QuadratureError,
    RouteMismatchError,
    SctError,
    SingularMatrixError,
    TruncationError,
)
from .paths import (
    CanonicalPair,
    QuarticPath,
    RadialPotential,
    ReducedParams,
    canonical_longitudinal,
    canonical_transverse,
    harmonic_action,
    harmonic_canonical_pair,
    harmonic_trajectory,
    harmonic_well,
    invert_endpoint,
    q_theta_max,
    quartic_action,
    quartic_path_from_qt,
    quartic_well,
    shoot_radial_path,
)
from .fluctuations import (
    FlowMatrices,
    GreenTable,
    OmegaKernel,
    RadialTrajectory,
    det_general,
    det_longitudinal,
    det_transverse,
    flow_matrices,
    green_central,
    green_general,
    green_table_central,
    green_table_general,
    jacobi_commutator,
    omega_kernel,
    radial_trajectory,
    wick_moment,
)
from .thermo import (
    ThermoCurve,
    WkbSpectrum,
    jacobian_dq0_dqt,
    ln_z2_quartic,
    ln_z_classical,
    ln_z_harmonic,
    ln_z_wkb,
    specific_heat,
    stencil_thetas,
    thermo_curve,
    wkb_levels,
    wkb_spectrum,
    z2_harmonic_integral,
    z2_quartic,
    z_classical,
    z_harmonic,
    z_wkb,
)

__version__ = "0.1.0"
