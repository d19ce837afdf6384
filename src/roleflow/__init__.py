"""roleflow: organizations as colored nets, decomposed into adaptive message-passing agents.

A library plus CLI for building an organization (roles, communication
links, a role-annotated task net), splitting it into per-agent tasks whose
cross-agent flows become message channels, running the result under an
adaptive loop that can pause, coherently evolve its own model, and resume
accomplished work from saved markings.
"""

from .adaptation import (
    AdaptationOp,
    AdaptationRequest,
    OP_KINDS,
    PlanImpact,
    apply_op,
    diff_models,
    evolve,
    validate_op,
)
from .cpn import (
    Binding,
    ColorSet,
    Expr,
    Firing,
    InputArc,
    Marking,
    Multiset,
    Net,
    OutputArc,
    Place,
    ProcedureDef,
    ReceiveEvent,
    ReceivedMessage,
    RunResult,
    SendEvent,
    SentMessage,
    StepFired,
    StepQuiescent,
    Transition,
    Value,
    Variable,
    enabled_bindings,
    eval_expr,
    fire,
    first_binding,
    iter_bindings,
    run_to_quiescence,
    step,
    type_check_net,
    value_of,
)
from .decomposition import (
    AgentModel,
    Channel,
    MultiAgentModel,
    check_equivalence,
    decompose,
    project_marking,
    recompose,
    synthesize,
    validate_model,
)
from .errors import (
    CoherenceError,
    ContextCorrupt,
    FormatError,
    ImpactMismatch,
    IncoherentOrganization,
    IncompatiblePlace,
    InconsistentChannels,
    InvalidModel,
    ModelSyntaxError,
    NotEnabled,
    PartialAssignment,
    ProcedureFailure,
    ResolutionError,
    RoleflowError,
    SaturationWarning,
    TypeMismatch,
    UnboundVariable,
    UnknownOp,
    UnknownTransition,
    ValidationReport,
    VersionMismatch,
    Violation,
)
from .marking_codec import restore_marking, save_marking
from .modelio import (
    ModelDocument,
    ScenarioDocument,
    canonical_net_text,
    parse_model,
    parse_ops_text,
    parse_scenario,
    read_context,
    render_report,
    render_trace,
    serialize_model,
    write_context,
)
from .organization import (
    CommLink,
    Organization,
    Role,
    communication_structure,
    validate_organization,
)
from .runtime import (
    ADAPT_CHANNEL,
    AdaptationNeeded,
    Context,
    Delivered,
    FinalReport,
    Progressed,
    QuiescentPass,
    RunnableSystem,
    Scenario,
    TraceEntry,
    Trigger,
    adaptive_loop,
    go,
    resume_context,
    run_concurrent,
    save_context,
    system_ended,
)

__version__ = "0.1.0"
