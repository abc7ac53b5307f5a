"""Time-ordered simulation of spacelike-separated quantum measurements.

The package answers three questions mechanically, at desk scale:

- do the outcome *distributions* of two spacelike-separated measurements
  depend on which one is treated as first? (no - checked exactly);
- can the realized *outcomes*, driven by one shared file of stored random
  numbers, be made order-independent? (no - ordering-consistent response
  tables collapse to local models, and local models stay under the CHSH
  bound of 2 while two-qubit states reach 2*sqrt(2));
- does a toy spontaneous-localization flash process show the same split?
  (yes - hit-order-invariant distributions, order-dependent realizations).
"""

from .chronology import (
    Chronology,
    CovarianceReport,
    TrialResult,
    distribution_covariance_check,
    estimate_table,
    realization_divergence,
    run_trial,
    sample_first,
    sample_second,
)
from .errors import (
    CapacityError,
    ChronobellError,
    EmptyFileError,
    ImpossibleFlashError,
    ImpossibleOutcomeError,
    InvalidStateError,
    LambdaFormatError,
    NotReducibleError,
    OracleDisagreementError,
    SearchSpaceError,
    StreamExhaustedError,
)
from .flash import (
    FlashEnsemble,
    FlashHistory,
    FlashRecord,
    GridWavefunction,
    HitKernel,
    OrderingReport,
    apply_hit,
    flash_distribution,
    make_entangled_pair,
    make_hit_kernel,
    make_localized,
    make_uniform,
    ordering_invariance_exact,
    run_flash_process,
    run_flash_processes,
    sample_flash_pair,
    sample_hit_center,
)
from .lambdafile import (
    DEFAULT_BLOCK,
    LambdaFile,
    LambdaStream,
    generate_lambda_file,
)
from .localpolytope import (
    BehaviorVector,
    ConstraintReport,
    ConstraintViolation,
    FacetCheck,
    LocalModel,
    MembershipResult,
    SearchResult,
    StrategyQuadruple,
    behavior_of,
    check_covariance_constraints,
    chsh_facet_check,
    enumerate_deterministic_strategies,
    exhaustive_nogo_search,
    local_membership_lp,
    quantum_behavior,
    reduce_to_local,
)
from .quantum import (
    LOCAL_BOUND,
    OUTCOMES,
    TSIRELSON_BOUND,
    BlochSetting,
    CorrelationTable,
    JointDistribution,
    Party,
    TwoQubitState,
    born_marginal,
    chsh_value,
    collapse,
    exact_table,
    joint_distribution,
    make_product_state,
    make_singlet,
    random_pure_state,
    random_setting,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
