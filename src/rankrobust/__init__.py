"""Rank-dependent evaluation of risky and ambiguous prospects.

Per-state lotteries are valued by a distorted expectation of utility; the
state-level profile is then aggregated by a penalized worst case over
priors.  The package also ships the associated distortion risk measures
(VaR, expected shortfall, weighted VaR), a utility-scale mixture algebra,
stochastic-dominance and ambiguity-aversion checkers, the dual penalty
bracket, and a mean-risk portfolio optimizer.
"""

__version__ = "0.1.0"

from .ambiguity import (
    AmbiguityIndex,
    CMinBracket,
    Entropic,
    Gini,
    MaxminSet,
    Prior,
    Tabulated,
    c_min_exact,
    parse_penalty,
    parse_prior,
    simplex_grid,
)
from .distortion import (
    Distortion,
    choquet,
    dual_power,
    es_tail,
    expected_shortfall,
    identity,
    parse_distortion,
    piecewise_linear,
    power,
    prelec,
    tversky_kahneman,
    value_at_risk,
    var_step,
    weighted_var,
)
from .distribution import (
    DiscreteDistribution,
    DominanceReport,
    TwoStageVariable,
    comonotonic,
    dominance,
)
from .errors import (
    BudgetError,
    ConfigError,
    DomainError,
    ImageOverflowError,
    ScenarioError,
    ShapeError,
    SolverError,
    SpecStringError,
    UnknownPriorError,
)
from .evaluator import (
    BatterySpec,
    Evaluation,
    Preference,
    ambiguity_aversion_check,
    battery_reports,
    ellsberg_demo,
    ellsberg_preference,
    ellsberg_variables,
    evaluate,
    inner_rdu,
    is_more_ambiguity_averse,
)
from .portfolio import (
    OptimizeResult,
    ScenarioPanel,
    Weights,
    mean_risk_components,
    optimize,
)
from .utility import (
    Interval,
    UtilityFn,
    add_variables,
    affine,
    exponential,
    identity_utility,
    mix_variables,
    parse_utility,
    piecewise_linear_utility,
    power_utility,
    preference_double,
    subjective_add,
    subjective_mix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
