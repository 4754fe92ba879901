"""Monte Carlo simulation of a tagged particle in a dilute gas.

The package builds up, layer by layer, the stochastic jump process whose
velocity distribution follows the spatially inhomogeneous Boltzmann
dynamics against a prescribed background density:

* :mod:`boltzgas.geometry` -- scattering kinematics and frame alignment,
* :mod:`boltzgas.kernels` -- collision kernels and angular measures,
* :mod:`boltzgas.truncation` -- velocity-space cutoffs with bounded rates,
* :mod:`boltzgas.densities` -- background density models and certified bounds,
* :mod:`boltzgas.quadrature` -- the deterministic integration toolbox,
* :mod:`boltzgas.engine` -- the exact-thinning jump-process simulator,
* :mod:`boltzgas.picard` -- iteration of trajectories on frozen noise,
* :mod:`boltzgas.particles` -- interacting ensembles with mollified rates,
* :mod:`boltzgas.diagnostics` -- weak-form residuals, moments and entropy,
* :mod:`boltzgas.config` -- validated run configurations,
* :mod:`boltzgas.runio` -- deterministic file formats for run outputs,
* :mod:`boltzgas.cli` -- the ``boltzgas`` command-line runner.
"""

from types import ModuleType as _ModuleType

from .geometry import (
    Frame,
    deflection_alpha,
    gamma,
    orthonormal_frame,
    post_collision,
    tanaka_rotation,
)
from .kernels import (
    HARD_SPHERE,
    POWER_LAW,
    KernelSpec,
    angular_mass,
    angular_weighted_mass,
    sample_theta,
    sigma,
    theta_first_moment,
)
from .truncation import alpha_j, energy_defect, project_j
from .densities import (
    BKWModel,
    BoxMaxwellianModel,
    CertificationReport,
    DensityModel,
    GaussianProductModel,
    MollifiedEmpiricalModel,
    bkw_fourth_moment,
    bkw_relaxation_rate,
    certify_hypotheses,
    maxwell_abs_moment,
)
from .rng import stream
from .engine import (
    CandidateRecord,
    Envelope,
    EnvelopeError,
    EventLog,
    SimConfig,
    Trajectory,
    simulate,
    simulate_ensemble,
)
from .picard import (
    ContractionReport,
    FrozenNoise,
    PicardPath,
    contraction_profile,
    frozen_noise,
    initial_iterate,
    picard_iterates,
    picard_pass,
    supremum_distance,
)
from .particles import (
    ParticleEnsemble,
    default_bandwidths,
    ensemble_energy_rate,
    evolve_ensemble,
    maxwellian_ensemble,
    step_ensemble,
)
from .diagnostics import (
    CompactBump,
    Constant,
    Energy,
    EntropyReport,
    ExitReport,
    LinearMomentum,
    MomentTable,
    Quadratic,
    ResidualReport,
    TestFunction,
    collision_action,
    collision_invariant_residual,
    collision_symmetry_gap,
    energy_flow_values,
    energy_rhs_report,
    entropy_bias_budget,
    exit_statistics,
    gaussian_kl,
    moment_report,
    relative_entropy_kde,
    weak_residual,
)

__version__ = "0.1.0"

# the names imported above are the public ones; submodules stay attributes
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
