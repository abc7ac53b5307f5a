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

The namespace is lazy (PEP 562): ``import chronobell`` loads neither numpy
nor any submodule. `_EXPORTS` names the submodule that defines each public
name. The module ``__getattr__`` imports that submodule when one of its
names is looked up and returns the submodule's own attribute, so a name
always reads what its defining module holds; a submodule's name resolves to
the submodule. ``__all__`` and ``dir()`` list every public name before any
is loaded, and ``from chronobell import *`` loads them all.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "chronology": """CovarianceReport TrialResult distribution_covariance_check
        estimate_table realization_divergence run_trial sample_first sample_second""",
    "errors": """CapacityError ChronobellError EmptyFileError ImpossibleFlashError
        ImpossibleOutcomeError InvalidStateError LambdaFormatError NotReducibleError
        OracleDisagreementError SearchSpaceError StreamExhaustedError""",
    "flash": """FlashEnsemble FlashHistory FlashRecord GridWavefunction HitKernel
        OrderingReport apply_hit flash_distribution make_entangled_pair make_hit_kernel
        ordering_invariance_exact run_flash_process run_flash_processes sample_flash_pair
        sample_hit_center""",
    "lambdafile": "DEFAULT_BLOCK LambdaFile LambdaStream generate_lambda_file",
    "localpolytope": """BehaviorVector FacetCheck MembershipResult SearchResult
        chsh_facet_check exhaustive_nogo_search local_membership_lp quantum_behavior""",
    "quantum": """LOCAL_BOUND OUTCOMES TSIRELSON_BOUND BlochSetting Chronology
        CorrelationTable JointDistribution Party TwoQubitState born_marginal chsh_value
        collapse exact_table joint_distribution make_product_state make_singlet""",
    "simplex": "",
    "strategies": """ConstraintReport ConstraintViolation LocalModel StrategyQuadruple
        behavior_of check_covariance_constraints reduce_to_local""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

# the names `strategies` defines are public; the module, like `cli`, is not listed
__all__ = sorted([*_MODULE_OF, *_EXPORTS.keys() - {"strategies"}])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
