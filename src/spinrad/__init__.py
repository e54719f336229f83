"""Radiation, friction and stochastic rotation of dispersive bodies spinning in vacuum."""

from .errors import (
    BoseDivergenceError,
    ConfigError,
    ConvergenceError,
    DomainError,
    NumericDomainError,
    ResonanceError,
    SpinradError,
    StepSizeError,
    TableFormatError,
)
from .material import (
    ConstantEpsilon,
    Drude,
    Lorentz,
    TabulatedEpsilon,
    ThermalState,
    Vacuum,
    bose_occupation,
    sphere_polarizability,
)
from .scattering import (
    CylinderTable,
    DiskTable,
    SphereTable,
    UserTable,
    cylinder_flux_block,
    cylinder_smatrix_block,
    disk_interior_frequency,
    disk_smatrix,
    disk_smatrix_smallvel,
    load_channel_table,
    sphere_flux_dipole,
    sphere_smatrix_dipole,
)
from .radiation import (
    MSumPolicy,
    RadiationResult,
    integrate_power,
    kirchhoff_power,
    mode_flux,
)
from .photonstats import (
    EntropyReport,
    counting_distribution,
    cumulant,
    entropy_generation,
    mode_entropy_rate,
    total_mode_entropy,
)
from .rotor import (
    FP_DIFFUSION_SCALE,
    RotorEnsemble,
    TorqueLaw,
    fokker_planck_stationary,
    langevin_step,
    simulate_ensemble,
    tabulate_torque_law,
    torque_law_from_radiation,
    uncertainty,
)
from .scattering import disk_flux
from .testbody import (
    TwoBodyConfig,
    tangential_force_3d,
    torque_on_test_2d,
    torque_on_test_3d,
)
from .units import UnitSystem, si_conductivity_to_gaussian

__version__ = "0.1.0"
