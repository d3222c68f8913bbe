"""liftlab: exact finite models of lifting dynamics over circles and roses."""

from .ultrametric import Distance, Valuation
from .profinite import (
    GluePrecisionError,
    IncompatibleOperands,
    PrefixCodeHomeo,
    TruncatedPadic,
    default_glue,
    glue_backward,
    glue_forward,
    padic_add,
    padic_distance,
    padic_neg,
    padic_project,
    padic_scale,
    padic_sub,
    padic_valuation,
    rigidity_witness,
)
from .symdyn import (
    CentralWord,
    StrictTower,
    SubshiftSample,
    equicontinuity_modulus,
    factor_language,
    mt_doubling,
    mt_substitution,
    omega0,
    shift,
    word_metric,
)
from .lifting import (
    MonodromySystem,
    RoseBase,
    TowerModel,
    deck_search,
    lift_word,
    orbit_partition,
    tower_strictness_check,
)

__version__ = "0.1.0"
