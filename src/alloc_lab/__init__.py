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
    HomotheticModel,
    ShiftedSimplex,
    comonotone_allocation,
    complete_mix_dirichlet,
    conditional_support,
    countermonotone_pair_sampler,
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
    mla,
    mla_with_constants,
    multimodality_adjust,
)
from .diagnostics import (
    GridSpec,
    MRVReport,
    mrv_exponent,
    mtp2_check,
    mtp2_conditional_inheritance,
    s_concavity_check,
    superlevel_components,
)
