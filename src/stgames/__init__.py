"""Binary session types, event-structure semantics and contract games."""

from .denote import (
    DEFAULT_UNROLL_DEPTH,
    DenoteError,
    denote,
    denote_par,
)
from .estructure import (
    EMPTY_ES,
    Event,
    EventStructureGen,
    canonical_key,
    conflict_free,
    enabled,
    es_leq,
    es_to_json,
    ets,
    ets_to_dot,
    make_es,
    playable,
    remainder,
)
from .game import (
    Contract,
    EagerStrategy,
    ExplicitStrategy,
    GameVerdict,
    StateLimitError,
    compose_session_contracts,
    conforms,
    eager_winning,
    find_winning_strategy,
    innocent,
    is_fair,
    is_play,
    prescribed,
    winning_play,
)
from .harness import (
    CorpusSpec,
    CorpusSummary,
    CorrespondenceReport,
    bisim,
    contract_ets,
    corpus_pair,
    dual,
    random_session_type,
    run_corpus,
    correspondence_check,
    truncate,
    turn_lts,
)
from .lts import Lts
from .opsem import (
    ComplianceVerdict,
    Configuration,
    check_compliance,
    check_compliance_turn,
    explore,
    step_reduce,
    step_turn,
)
from .syntax import (
    TICK,
    ActionLabel,
    Buffer,
    ExternalChoice,
    InternalChoice,
    ParseError,
    Rec,
    SessionType,
    Success,
    Term0,
    Var,
    Violation,
    free_vars,
    inp,
    out,
    parse,
    pretty,
    substitute,
    unfold,
    validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
