"""Model-agnostic explanation toolkit.

Explains individual predictions of any black-box predictor through
contextual importance (how much can this feature move the output here?),
contextual utility (is the current value favorable?), and a signed
influence score comparable with Shapley-style attributions. Ships with
sampled Shapley values, a local linear surrogate, permutation importance,
a stability benchmark harness, CSV ingestion with a bagged tree ensemble,
and deterministic SVG/text rendering (``ciukit.render``).
"""

from types import ModuleType as _ModuleType

from .core import (
    ConfigError,
    DataFormatError,
    DegenerateRangeError,
    ExplainerError,
    FeatureSpace,
    FeatureSpec,
    FunctionPredictor,
    Instance,
    OutputSpec,
    OutputUtility,
    Predictor,
    Rows,
    SingularSystemError,
    builtin_model,
    load_config,
)
from .sampling import SeededRng, uniform_instances
from .engine import (
    CpCurve,
    Explanation,
    ceteris_paribus_curve,
    explain_instance,
    resolve_utility,
)
from .baselines import (
    METHOD_INFLUENCE,
    METHOD_LIME,
    METHOD_SHAPLEY,
    AttributionVector,
    lime_surrogate,
    permutation_importance,
    shapley_mc,
)
from .global_importance import (
    GlobalImportance,
    global_ci,
    global_mean_abs_shapley,
    run_global,
)
from .stability import (
    ALL_METHODS,
    Budgets,
    StabilityReport,
    run_stability,
)
from .tabular import (
    Dataset,
    TreeEnsemble,
    TreeParams,
    accuracy,
    holdout_split,
    load_csv,
    load_model,
    save_model,
    train_ensemble,
)

__version__ = "0.1.0"

# Every public name imported above, and no submodule.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
