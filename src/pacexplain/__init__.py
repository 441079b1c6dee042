"""PAC explanations of black-box classifiers.

Given a classifier, a class of interest, and a query region, the engine
searches a grammar-bounded family of DNF formulas for one that, with
probability at least 1 - delta, disagrees with the classifier on at most an
epsilon fraction of the query region under a chosen input distribution.
"""

__version__ = "0.1.0"

from .formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolAtom,
    ConstFalse,
    ConstTrue,
    Formula,
    FormulaError,
    FormulaParseError,
    Not,
    Or,
    compare,
    disjunct_count,
    equivalent_on_grid,
    evaluate,
    evaluate_mask,
    features_of,
    order_key,
    parse,
    render,
    size,
)
from .query import (
    CosineBall,
    FormulaQuery,
    Query,
    QueryError,
    TrueQuery,
    cosine_distance,
    load_query,
    query_from_json,
)
from .model import (
    Dataset,
    DatasetFormatError,
    DecisionTreeModel,
    MlpModel,
    Model,
    ModelFormatError,
    TableModel,
    accuracy_on,
    load_dataset,
    load_manifest,
    load_model,
    model_from_json,
    save_manifest,
    save_model,
)
from .distribution import (
    Distribution,
    DistributionError,
    Empirical,
    ProductPerFeature,
    UniformBox,
    default_distribution,
    distribution_from_json,
)
from .synthesizer import (
    Grammar,
    GrammarError,
    GrammarFeature,
    InconsistentSampleError,
    Sample,
    SynthesisDeadlineError,
    default_grammar,
    enumerate_formulas,
    export_sygus_if,
    is_consistent,
    synthesize,
    synthesize_general,
)
from .verifier import (
    Draws,
    VerifierOutcome,
    estimate_query_accuracy,
    test_suite_size,
    verify,
    violation_label,
)
from .engine import (
    EngineError,
    EngineInvariantError,
    IterationRecord,
    LowQueryCoverageWarning,
    OUTCOME_BUDGET_ITERATIONS,
    OUTCOME_BUDGET_TIMEOUT,
    OUTCOME_EXPLANATION,
    OUTCOME_NO_EXPLANATION,
    ReplayError,
    ReplayMismatchError,
    RunConfig,
    RunResult,
    RunStats,
    check_run_invariants,
    config_from_report,
    explain,
    replay,
    run_report,
    stable_report,
    write_report,
)
