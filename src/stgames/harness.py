"""Executable checks of the compliance/winning correspondence results.

The harness relates three semantics of a composed pair: the reduction
semantics (compliance), the turn-based semantics (its reformulation and
the action-labelled system), and the event-structure game.  It checks, on
fixtures and on reproducible random corpora:

* the two compliance checkers agree;
* the turn-based system and the event-labelled system of the composed
  denotation are strongly bisimilar;
* compliance holds exactly when the eager strategy wins, and compliant
  pairs admit a winning strategy.

Recursive pairs are handled at a bound: the game side uses the depth-d
denotation, and the compliance side of the correspondence is taken on the
d-times unfolded types, each unfolding ending in a stuck empty choice,
which is the protocol the approximant denotes.  So recursive pairs are
compared exactly, through their truncations: the turn-based system of the
truncated types is strongly bisimilar to the event-labelled system of the
depth-d denotation.

Bisimilarity is decided by worklist partition refinement (Kanellakis and
Smolka, Inf. Comput. 1990; Paige and Tarjan, SIAM J. Comput. 1987).
Block ids stay stable across rounds, so after the first round only the
predecessors of states that changed block are signed again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate, product

from .denote import DEFAULT_UNROLL_DEPTH
from .estructure import ets
from .game import (
    Contract,
    GameVerdict,
    StateLimitError,
    compose_session_contracts,
    eager_winning,
    find_winning_strategy,
)
from .lts import Lts
from .opsem import (
    DEFAULT_STATE_LIMIT,
    ComplianceVerdict,
    Configuration,
    check_compliance,
    check_compliance_turn,
    explore,
)
from .syntax import (
    IDENT_RE,
    SUCCESS,
    ExternalChoice,
    InternalChoice,
    Rec,
    SessionType,
    Success,
    Term0,
    Var,
    free_vars,
    inp,
    is_recursive,
    out,
    pretty,
)


# ---------------------------------------------------------------------------
# Bisimulation
# ---------------------------------------------------------------------------

def bisim(a: Lts, b: Lts) -> bool:
    """Strong bisimilarity of two finite LTSs by worklist partition refinement.

    Round ``k`` splits the states by their signature, the set of
    ``(label, block)`` pairs of their successors over the partition of
    round ``k - 1``, starting from one block (Kanellakis and Smolka's
    naive method).  Block ids are kept across rounds: when a block splits,
    its largest part keeps the id.  A state none of whose successors
    changed id since it was last signed has the same signature as then, so
    a round after the first re-signs only the predecessors of the states
    that moved in the round before, and regroups only their blocks; round
    ``k`` is still exactly the ``k``-th approximant of the bisimulation
    fixpoint.  Refinement stops when no block splits.

    Completely disjoint label alphabets are rejected: that is the signature
    of comparing an event-labelled system that was never relabelled to
    actions.
    """
    labels_a, labels_b = a.labels, b.labels
    if labels_a and labels_b and not (labels_a & labels_b):
        raise ValueError(
            "edge label alphabets are disjoint; relabel event-identified edges to actions first"
        )
    number_a = {s: i for i, s in enumerate(a.states)}
    number_b = {s: i for i, s in enumerate(b.states, len(number_a))}
    size = len(number_a) + len(number_b)
    successors: list[list[tuple[str, int]]] = [[] for _ in range(size)]
    predecessors: list[list[int]] = [[] for _ in range(size)]
    for number, lts in ((number_a, a), (number_b, b)):
        for src, label, dst in lts.edges:
            successors[number[src]].append((label, number[dst]))
            predecessors[number[dst]].append(number[src])
    block = [0] * size
    members = [list(range(size))]
    signature: list[frozenset] = [frozenset()] * size
    dirty = range(size)
    while dirty:
        touched = set()
        for state in dirty:
            signature[state] = frozenset([(label, block[dst]) for label, dst in successors[state]])
            touched.add(block[state])
        moved: list[int] = []
        for old in touched:
            parts: dict[frozenset, list[int]] = {}
            for state in members[old]:
                parts.setdefault(signature[state], []).append(state)
            if len(parts) == 1:
                continue
            keep = max(parts.values(), key=len)
            members[old] = keep
            for part in parts.values():
                if part is not keep:
                    for state in part:
                        block[state] = len(members)
                    members.append(part)
                    moved += part
        dirty = {pred for state in moved for pred in predecessors[state]}
    return block[number_a[a.initial]] == block[number_b[b.initial]]


def turn_lts(p: SessionType, q: SessionType,
             state_limit: int = DEFAULT_STATE_LIMIT) -> Lts:
    """The action-labelled turn-based system of ``p ∥ q``."""
    return explore(Configuration(p, q), state_limit, semantics="turn")


def contract_ets(contract: Contract) -> Lts:
    """The event-labelled system of the arena the contract's games read, relabelled to actions."""
    return ets(contract.es, DEFAULT_STATE_LIMIT, relabel=True)


# ---------------------------------------------------------------------------
# Depth truncation of recursive types
# ---------------------------------------------------------------------------

# where a truncation cuts a recursion: stuck under both semantics, and
# neither ``1`` nor the ``0`` a side reaches after ``✓``
_CUT = InternalChoice(())


def truncate(term: SessionType, depth: int) -> SessionType:
    """Unfold every recursion ``depth`` times, ending in a stuck empty choice.

    The denotation of the result is the depth-``depth`` approximant of the
    original type's denotation, so this is the protocol that bounded game
    verdicts actually speak about.  Both compliance checkers can judge it
    (with ``validate_inputs=False``, as an empty choice is not user syntax).
    The empty choice prints as nothing at the top and as ``()`` below a
    prefix, never as ``0``, so a cut never shares a state with a side that
    has terminated.
    """

    def tr(t: SessionType, env: dict[str, SessionType]) -> SessionType:
        cls = t.__class__
        if cls is InternalChoice or cls is ExternalChoice:
            # a loop, not a generator: one frame per nesting level
            branches = []
            for label, cont in t.branches:
                branches.append((label, tr(cont, env)))
            return cls(tuple(branches))
        if cls is Var:
            return env[t.name]
        if cls is Rec:
            approximant = _CUT
            for _ in range(depth):
                approximant = tr(t.body, {**env, t.var: approximant})
            return approximant
        if cls is Success or cls is Term0:
            return t
        raise TypeError(f"not a session type: {t!r}")

    return tr(term, {})


# ---------------------------------------------------------------------------
# Random corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusSpec:
    """Reproducible corpus parameters; generation is a pure function of these.

    ``actions`` is the alphabet the generator draws action names from: at
    least one name, no name twice, and each an identifier (a letter, then
    letters, digits or ``_``), so every pair it draws validates and prints
    as text that parses back.  ``unroll_depth`` is the bound recursive pairs
    are checked at; ``stgames corpus`` takes its defaults from here.
    """

    seed: int
    count: int
    max_depth: int = 3
    max_branch: int = 3
    allow_recursion: bool = False
    unroll_depth: int = 4
    actions: tuple[str, ...] = ("a", "b", "c", "d")

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"corpus count must be at least 0, got {self.count}")
        if self.max_depth < 0:
            raise ValueError(f"corpus max depth must be at least 0, got {self.max_depth}")
        if self.max_branch < 1:
            raise ValueError(f"corpus max branch must be at least 1, got {self.max_branch}")
        if self.unroll_depth < 0:
            raise ValueError(f"corpus unroll depth must be at least 0, got {self.unroll_depth}")
        if not self.actions:
            raise ValueError("corpus actions must name at least one action")
        if len(set(self.actions)) != len(self.actions):
            raise ValueError(f"corpus actions must be distinct, got {self.actions}")
        for name in self.actions:
            if not IDENT_RE.fullmatch(name):
                raise ValueError(f"corpus action {name!r} is not an identifier")


def _kind_table() -> dict[tuple[str, bool, bool, bool], tuple[tuple[str, ...], tuple[int, ...]]]:
    """The node kinds the generator may draw and their cumulative weights,
    keyed by (role, budget left, rec allowed, guarded variable in scope)."""
    table = {}
    for role, has_budget, rec, var in product(("client", "server"), *[(False, True)] * 3):
        kinds, weights = ["success"], [2]
        if has_budget:
            kinds += ["internal", "external"]
            weights += (5, 3) if role == "client" else (3, 5)
            if rec:
                kinds.append("rec")
                weights.append(2)
        if var:
            kinds.append("var")
            weights.append(3)
        table[role, has_budget, rec, var] = (tuple(kinds), tuple(accumulate(weights)))
    return table


_KINDS = _kind_table()


def _gen_type(rng: random.Random, spec: CorpusSpec, role: str, budget: int,
              scope: dict[str, bool], rec_budget: int) -> SessionType:
    # cumulative weights draw exactly as the weights they accumulate
    kinds, cum_weights = _KINDS[role, budget > 0, rec_budget > 0 and budget > 1, True in scope.values()]
    kind = rng.choices(kinds, cum_weights=cum_weights)[0]
    if kind == "success":
        return SUCCESS
    if kind == "var":
        return Var(rng.choice(sorted(name for name, ok in scope.items() if ok)))
    if kind == "rec":
        name = f"x{len(scope)}"
        inner = dict(scope)  # a binder is not a prefix: outer guard status persists
        inner[name] = False
        body = _gen_type(rng, spec, role, budget - 1, inner, rec_budget - 1)
        return Rec(name, body) if name in free_vars(body) else body
    width = rng.randint(1, min(spec.max_branch, budget))
    names = rng.sample(spec.actions, min(width, len(spec.actions)))
    make_label = out if kind == "internal" else inp
    deeper = dict.fromkeys(scope, True)
    branches = tuple(
        (make_label(name), _gen_type(rng, spec, role, budget - 1, deeper, rec_budget))
        for name in sorted(names)
    )
    return InternalChoice(branches) if kind == "internal" else ExternalChoice(branches)


def _subterms(term: SessionType, path: tuple = ()):
    """Every ``(path, subterm)`` of ``term`` in pre-order; a path step is a
    branch index, or ``"r"`` into a ``Rec`` body."""
    yield path, term
    if isinstance(term, (InternalChoice, ExternalChoice)):
        for i, (_, cont) in enumerate(term.branches):
            yield from _subterms(cont, path + (i,))
    elif isinstance(term, Rec):
        yield from _subterms(term.body, path + ("r",))


def _replace(term: SessionType, path: tuple, edit) -> SessionType:
    """``term`` with the subterm at ``path`` replaced by ``edit`` of it;
    only the nodes on the path are rebuilt."""
    if not path:
        return edit(term)
    step, rest = path[0], path[1:]
    if step == "r":
        return Rec(term.var, _replace(term.body, rest, edit))
    branches = list(term.branches)
    label, cont = branches[step]
    branches[step] = (label, _replace(cont, rest, edit))
    return type(term)(tuple(branches))


def _ensure_recursive(term: SessionType, rng: random.Random) -> SessionType:
    """Wrap a non-recursive term in a loop by redirecting one success leaf."""
    if is_recursive(term):
        return term
    fresh = "loop"
    slots = sorted(path for path, t in _subterms(term) if path and isinstance(t, Success))
    if not slots:
        return Rec(fresh, InternalChoice(((out("a"), Var(fresh)),)))
    return Rec(fresh, _replace(term, rng.choice(slots), lambda _: Var(fresh)))


def random_session_type(spec: CorpusSpec, role: str, index: int = 0) -> SessionType:
    """Deterministic well-formed generator.

    ``role`` is ``client`` or ``server`` and only biases the mix of
    internal versus external choices.  Identical arguments always produce
    the same term; every output validates cleanly.  With recursion allowed
    the client stream is guaranteed recursive.

    Each node's kind is drawn from a fixed table of kinds and cumulative
    weights, keyed by the role, whether budget is left, whether a ``rec``
    is allowed and whether a guarded variable is in scope.
    ``random.choices`` accumulates plain weights into exactly those
    cumulative weights, so the draws are the ones the weights give.  Action
    labels come from ``out`` and ``inp``, one object per name and polarity.
    """
    if role not in ("client", "server"):
        raise ValueError("role must be 'client' or 'server'")
    rng = random.Random(f"{spec.seed}/{role}/{index}/v1")
    rec_budget = 2 if spec.allow_recursion else 0
    term = _gen_type(rng, spec, role, spec.max_depth, {}, rec_budget)
    if spec.allow_recursion and role == "client":
        term = _ensure_recursive(term, rng)
    return term


def dual(term: SessionType) -> SessionType:
    """Swap choice flavours and action polarities; the canonical partner."""
    cls = term.__class__
    if cls is InternalChoice or cls is ExternalChoice:
        flipped = ExternalChoice if cls is InternalChoice else InternalChoice
        # a loop, not a generator: one frame per nesting level
        branches = []
        for label, cont in term.branches:
            branches.append((label.co(), dual(cont)))
        return flipped(tuple(branches))
    if cls is Rec:
        return Rec(term.var, dual(term.body))
    if cls is Success or cls is Term0 or cls is Var:
        return term
    raise TypeError(f"not a session type: {term!r}")


def _perturb(term: SessionType, rng: random.Random, spec: CorpusSpec) -> SessionType:
    """A small deterministic edit at one random choice node; keeps the term
    well-formed.  ``cut`` ends any branch in success; ``drop`` and ``widen``
    remove or add an input branch, so they only edit external choices."""
    kind = rng.choice(["none", "drop", "widen", "cut"])
    if kind == "none":
        return term
    nodes = sorted((path for path, t in _subterms(term)
                    if isinstance(t, (InternalChoice, ExternalChoice))), key=str)
    if not nodes:
        return term

    def edit(t: SessionType) -> SessionType:
        branches = list(t.branches)
        external = isinstance(t, ExternalChoice)
        if kind == "cut":
            i = rng.randrange(len(branches))
            branches[i] = (branches[i][0], SUCCESS)
        elif kind == "drop" and external and len(branches) >= 2:
            branches.pop(rng.randrange(len(branches)))
        elif kind == "widen" and external:
            used = {label.name for label, _ in branches}
            unused = [name for name in spec.actions if name not in used]
            if not unused:
                return t
            branches.append((inp(rng.choice(unused)), SUCCESS))
        else:
            return t
        return type(t)(tuple(branches))

    return _replace(term, rng.choice(nodes), edit)


def corpus_pair(spec: CorpusSpec, index: int) -> tuple[SessionType, SessionType]:
    """The ``index``-th client/server pair of the corpus.

    Half the servers are perturbed duals of the client, so the corpus
    contains both compliant and non-compliant interactions; the rest are
    independent draws.
    """
    client = random_session_type(spec, "client", index)
    rng = random.Random(f"{spec.seed}/pair/{index}/v1")
    if rng.random() < 0.5:
        server = _perturb(dual(client), rng, spec)
    else:
        server = random_session_type(spec, "server", index)
    return client, server


# ---------------------------------------------------------------------------
# Theorem checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrespondenceReport:
    """One pair's verdicts; ``contract`` is the composed game, kept for reuse.

    ``compliance`` is the turn-based verdict on the types, truncated when
    ``bounded``; its ``lts`` is the turn-based system of the contract's
    pair, so it is what the contract's event-labelled system is compared with.
    """

    compliance: ComplianceVerdict
    eager: GameVerdict
    agree: bool
    bounded: bool
    contract: Contract
    strategy_found: bool | None = None


def correspondence_check(p: SessionType, q: SessionType,
                   unroll_depth: int = DEFAULT_UNROLL_DEPTH) -> CorrespondenceReport:
    """Compare compliance with eager winning on one pair.

    The client ``p`` belongs to participant A and the server ``q`` to B.
    For finite pairs the comparison is exact.  For recursive pairs both
    sides are taken at the same bound: the game on the depth-``d``
    denotation, compliance on the ``d``-times unfolded types.  Compliance
    is judged by the turn-based checker, whose whole system is kept on the
    verdict, also past a witness, as the bisimulation check reads all of it.
    A compliant pair is also searched for a winning strategy of A
    (the corollary); ``strategy_found`` is ``None`` for the others.
    A game arena cut short by the state limit raises :class:`StateLimitError`.
    """
    # composing validates both types, so the compliance checks do not again
    contract = compose_session_contracts(p, "A", q, "B", unroll_depth)
    eager = eager_winning(contract, "A")
    bounded = contract.bounded_depth is not None
    if bounded:
        p, q = truncate(p, unroll_depth), truncate(q, unroll_depth)
    compliance = check_compliance_turn(p, q, DEFAULT_STATE_LIMIT, validate_inputs=False,
                                       whole_system=True)
    agree = (
        compliance.status != "indeterminate"
        and compliance.is_compliant == eager.winning
    )
    strategy_found = (
        find_winning_strategy(contract, "A") is not None if compliance.is_compliant else None
    )
    return CorrespondenceReport(compliance, eager, agree, bounded, contract, strategy_found)


@dataclass
class CorpusSummary:
    spec: CorpusSpec
    pairs: int = 0
    correspondence_agreements: int = 0
    checker_agreements: int = 0
    bisim_agreements: int = 0
    strategy_exists_checked: int = 0
    strategy_exists_agreements: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "seed": self.spec.seed,
            "count": self.spec.count,
            "recursive": self.spec.allow_recursion,
            "unroll_depth": self.spec.unroll_depth,
            "pairs": self.pairs,
            "correspondence_agreements": self.correspondence_agreements,
            "checker_agreements": self.checker_agreements,
            "bisim_agreements": self.bisim_agreements,
            "strategy_exists_checked": self.strategy_exists_checked,
            "strategy_exists_agreements": self.strategy_exists_agreements,
            "failures": self.failures,
        }


def run_corpus(spec: CorpusSpec) -> CorpusSummary:
    """Assert the correspondence results over every pair of one corpus.

    Every disagreement is recorded with the pair that produced it; the
    expectation is zero failures.  A pair whose explorations stop at
    ``DEFAULT_STATE_LIMIT`` gets one ``state-limit`` failure and no other check.
    """
    summary = CorpusSummary(spec)
    for index in range(spec.count):
        p, q = corpus_pair(spec, index)
        summary.pairs += 1

        def fail(check: str, detail: str) -> None:
            summary.failures.append({
                "pair": index,
                "client": pretty(p),
                "server": pretty(q),
                "check": check,
                "detail": detail,
            })

        # correspondence_check validates both types as it composes them
        try:
            report = correspondence_check(p, q, spec.unroll_depth)
        except StateLimitError as exc:
            fail("state-limit", f"indeterminate: {exc}")
            continue
        reduction = check_compliance(p, q, DEFAULT_STATE_LIMIT, validate_inputs=False)
        # an unbounded report already holds the untruncated turn-based verdict
        turn = (check_compliance_turn(p, q, DEFAULT_STATE_LIMIT, validate_inputs=False)
                if report.bounded else report.compliance)
        es_lts = contract_ets(report.contract)
        stopped = ", ".join(name for name, truncated in (
            ("reduction", reduction.truncated),
            ("turn-based", turn.truncated or report.compliance.truncated),
            ("event-labelled", es_lts.truncated)) if truncated)
        if stopped:
            fail("state-limit", f"indeterminate: stopped at the state limit of {DEFAULT_STATE_LIMIT}: {stopped}")
            continue
        if reduction.status == turn.status:
            summary.checker_agreements += 1
        else:
            fail("compliance-checkers", f"reduction says {reduction.status}, turn-based says {turn.status}")

        if report.agree:
            summary.correspondence_agreements += 1
        else:
            fail("compliance-vs-eager",
                 f"compliance={report.compliance.status} eager_winning={report.eager.winning}")
        if report.strategy_found is not None:
            summary.strategy_exists_checked += 1
            if report.strategy_found:
                summary.strategy_exists_agreements += 1
            else:
                fail("winning-strategy-existence", "compliant pair without a winning strategy")

        # the turn-based system of the pair the contract denotes
        if bisim(report.compliance.lts, es_lts):
            summary.bisim_agreements += 1
        else:
            fail("bisimulation", "turn-based and event-labelled systems not strong bisimilar")
    return summary
