"""Thermodynamics with finite reservoirs on the energy-entropy diagram.

Fix one finite-level Hamiltonian. Many-copy states collapse to
macrostates (average energy, entropy, amount); this package provides the
geometry of their diagram and cone, the finite-reservoir work/heat
formulas built on chord slopes of the thermal curve, optimal conversion
rates by two independent algorithms, and a desk-scale classical
implementation of the entropy-conversion protocol with its
energy-preserving dilation.
"""

from .cone import RateResult, cone_contains, dominates, edge_monotones, r_max
from .diagram import (
    DecompositionWeights,
    FacetSlack,
    Verdict,
    athermality,
    combine_macrostates,
    decompose,
    diagram_contains,
    facet_check,
    max_entropy_at_energy,
    w_max,
)
from .dilation import DilationReport, build_energy_preserving_dilation
from .errors import DomainError, ThermoconeError, ValidationError
from .exchange import (
    EnginePerformance,
    ExchangeResult,
    ExchangeSpec,
    ReservoirSizing,
    beta_eff,
    engine_efficiencies,
    erasure_work,
    reservoir_ratio,
    reservoir_size_for_epsilon,
    work_heat,
)
from .numerics import Bracket, eigvals_hermitian, minimize_scalar, solve_root_bracketed
from .protocol import (
    CoarseGrainMap,
    Distribution,
    ProtocolReport,
    RenyiReport,
    TypeClass,
    TypicalSet,
    build_coarse_graining,
    renyi,
    run_entropy_protocol,
    typical_set,
)
from .sumsets import LevelSet, SumsetGrowthReport, find_doubling_k, k_fold, minkowski_diff, minkowski_sum
from .system import (
    ConePoint,
    HamiltonianSpec,
    Macrostate,
    QuantumState,
    cone_point_of,
    hamiltonian_from_json,
    macrostate_of,
    state_from_json,
    validate_state,
)
from .thermal import ThermalPoint, beta_cap, beta_from_energy, beta_from_entropy, energy_variance, thermal_point
from .thermal import thermal_points

__version__ = "0.1.0"
