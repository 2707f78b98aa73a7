"""popnetgen: seed-driven generator of attributed multiplex social networks.

A discrete Bayesian network describes agent attributes and per-type required
link counts; matching networks and transitivity rules then weave the agents
into a multiplex graph.  See the plan module for the input format and the
cli module for the end-to-end pipeline.
"""
from .bn import (
    BayesianNetwork,
    BnCycleError,
    BnError,
    BnSyntaxError,
    BnValidationError,
    Cpt,
    Variable,
    Violation,
    load_bn,
    parse_bn,
    serialize_bn,
    topological_order,
    validate,
)
from .inference import Engine, ZeroEvidenceError
from .matching import (
    HomophilyRule,
    RuleReport,
    load_matching_bn,
    run_homophily_rule,
)
from .metrics import (
    ErrorReport,
    NetworkStats,
    build_error_report,
    graph_statistics,
    matching_error,
)
from .plan import GenerationPlan, load_plan, parse_plan, validate_plan
from .population import (
    LinkType,
    PopulationStore,
    generate_population,
    learn_marginals,
)
from .sampling import substream
from .transitivity import TransitivityRule, open_triads, run_transitivity_rule

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
