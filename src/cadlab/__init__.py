"""cadlab: exact cadlag path algebra, Skorohod-style moduli, first-passage
time changes, subordinator samplers, martingale array constructors and a
reproducible Monte Carlo verification harness.
"""

from .paths import (
    CadlagPath,
    PathDomainError,
    TimeGrid,
    combine,
    compose,
    constant_path,
    identity_path,
    piecewise_linear,
    step_path,
)
from .skorohod import (
    CompositionVerdict,
    ModulusReport,
    TripleKind,
    composition_condition,
    empirical_tightness,
    modulus,
    oscillation,
    triple,
)
from .timechange import (
    InsufficientHorizonError,
    InversePair,
    inverse,
)
from .levy import (
    CompositeSpec,
    CompoundPoissonSpec,
    DriftSpec,
    GammaSpec,
    InverseGaussianSpec,
    RngStream,
    StableSpec,
    SubordinatorSpec,
    linnik_cf,
    rescaling_check,
    sample_subordinator,
    spec_from_dict,
    weighted_gamma_subordinated_cf,
)
from .arrays import (
    ArrayRealization,
    ArraySpec,
    DriftedArray,
    LindebergArray,
    LinnikArray,
    PolyaArray,
    SubordinatorArray,
    TransformArray,
    WeightSpec,
    array_from_dict,
    check_hyp_c,
    check_hyp_d,
    check_jump_decomposition,
    check_lindeberg,
    check_mcleish,
    deterministic_profile,
    lindeberg_statistic,
    marginal_samples,
    random_walk_profile,
    realize,
)
from .convtest import (
    CheckEntry,
    ConvergenceReport,
    ecf_distance,
    fdd_test,
    ks_critical_value,
    ks_two_sample,
    lenglart_check,
    standardization_test,
    transform_cf_test,
)

__version__ = "0.1.0"
