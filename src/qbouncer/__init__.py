"""qbouncer: a quantum particle bouncing on a mirror in uniform gravity,
described three ways - exact classical bounce, spectral evolution in the
Airy eigenbasis, and semiclassical moment dynamics - with cross-validation
between them.
"""

from .classical import BounceSpec, bounce_fourier, bounce_trajectory, free_fall
from .errors import (
    ConfigError,
    DomainError,
    InsufficientBasisError,
    NumericalError,
)
from .moments import (
    MomentState,
    MomentTrajectory,
    PolynomialPotential,
    SaturatedIC,
    closed_form_linear,
    effective_hamiltonian,
    envelope,
    initial_state,
    integrate,
    moment_eom,
    saturated_ic,
    uncertainty_product,
)
from .quantum import (
    Eigenbasis,
    PacketSpec,
    SpectralState,
    build_basis,
    evolve,
    expectation_x,
    expectation_x_evolution,
    expectation_x_series,
    project_packet,
    variance_x,
    variance_x_evolution,
)
from .scaling import (
    UnitSystem,
    make_units,
    natural_units,
    neutron_units,
)
from .specfun import (
    AiryValue,
    airy,
    airy_ai,
    airy_ai_prime,
    airy_zero,
    airy_zero_asymptotic,
    integrate_1d,
)

__version__ = "0.1.0"
