"""Conditional loss distributions on a constant-sum hyperplane and the
capital allocations derived from them."""

__version__ = "0.1.0"

from .errors import AllocLabError
from .models import (
    DispersionMatrix,
    EllipticalJoint,
    Empirical,
    EmpiricalJoint,
    IndependenceCopula,
    Lomax,
    MarginCopula,
    Normal,
    NormalGen,
    ParetoI,
    StudentT,
    StudentTCopula,
    StudentTGen,
    empirical_es,
    empirical_var,
    model_from_config,
)
from .conditional import (
    ConditionalTarget,
    ShiftedSimplex,
    conditional_support,
    elliptical_condition,
)
from .samplers import (
    ChainDiagnostics,
    HMCConfig,
    MHConfig,
    Polytope,
    SlabConfig,
    chain_diagnostics,
    hmc_reflect_chain,
    mh_chain,
    slab_sample,
)
from .modes import MeanShiftConfig, ModeSet, mean_shift_modes, scenario_weights
from .allocation import (
    Allocation,
    ScenarioSet,
    core_polytope,
    euler_allocation,
    multimodality_adjust,
)
