"""Executable checks of the compliance/winning correspondence results.

The harness relates three semantics of a composed pair: the reduction
semantics (compliance), the turn-based semantics (its reformulation and
the action-labelled system), and the event-structure game.  It checks, on
fixtures and on reproducible random corpora:

* the two compliance checkers agree;
* the turn-based system and the event-labelled system of the composed
  denotation are strongly bisimilar (n-step bisimilar for recursive pairs,
  whose denotations are finite approximants);
* compliance holds exactly when the eager strategy wins, and compliant
  pairs admit a winning strategy.

Recursive pairs are handled at a bound: the game side uses the depth-d
denotation, and the compliance side of the correspondence is taken on the
d-times unfolded types with the recursion tail replaced by the dead
process ``0``, which is the protocol the approximant denotes.

Bisimilarity is decided by worklist partition refinement (Kanellakis and
Smolka, Inf. Comput. 1990; Paige and Tarjan, SIAM J. Comput. 1987).
Block ids stay stable across rounds, so after the first round only the
predecessors of states that changed block are signed again: every other
state's signature is unchanged, so round ``k`` is still the ``k``-th
approximant of the fixpoint, which is what a bounded check compares at.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .denote import DEFAULT_UNROLL_DEPTH
from .estructure import ets
from .game import (
    Contract,
    GameVerdict,
    approximant_depth,
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
    TERM0,
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
    min_loop_guard,
    out,
    pretty,
)


# ---------------------------------------------------------------------------
# Bisimulation
# ---------------------------------------------------------------------------

def bisim(a: Lts, b: Lts, bound: int | None = None) -> bool:
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

    With ``bound`` set, stops after that many rounds and so decides
    ``bound``-step bisimilarity, which is what a truncated system can
    honestly be compared at; ``bound=0`` relates every pair.  Completely
    disjoint label alphabets are rejected: that is the signature of
    comparing an event-labelled system that was never relabelled to
    actions.
    """
    if bound is not None and bound < 0:
        raise ValueError("bisimulation bound must be non-negative")
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
    rounds = 0
    while dirty and (bound is None or rounds < bound):
        rounds += 1
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


def contract_ets(contract: Contract, step_bound: int = DEFAULT_STATE_LIMIT) -> Lts:
    """The event-labelled system of a contract's structure, relabelled to actions."""
    return ets(contract.es, step_bound=step_bound, relabel=True)


def bounded_bisim_depth(p: SessionType, q: SessionType,
                        unroll_depth: int = DEFAULT_UNROLL_DEPTH) -> int | None:
    """How many steps the truncated denotation provably tracks the real system.

    ``None`` means the denotations are exact (no recursion is cut, see
    :func:`~stgames.game.approximant_depth`) and so is the comparison.  A
    deviation needs one side to fire more events than its approximant
    holds, which takes more than ``unroll_depth * guard`` own events; since
    no side can fire more than half the steps plus one, twice that bound
    minus two is safe.  At depth 0 no event of a recursion is denoted at
    all, so the bound is 0.  Above depth 0 a recursion is cut exactly when
    its variable is used, which is when its loop guard exists, so each
    type's guard is found once and decides both.
    """
    if unroll_depth == 0:
        return None if approximant_depth(p, q, 0) is None else 0
    guards = [g for g in (min_loop_guard(p), min_loop_guard(q)) if g is not None]
    return max(1, 2 * unroll_depth * min(guards) - 2) if guards else None


# ---------------------------------------------------------------------------
# Depth truncation of recursive types
# ---------------------------------------------------------------------------

def truncate(term: SessionType, depth: int) -> SessionType:
    """Unfold every recursion ``depth`` times, ending in the dead process ``0``.

    The denotation of the result is the depth-``depth`` approximant of the
    original type's denotation, so this is the protocol that bounded game
    verdicts actually speak about.
    """

    def tr(t: SessionType, env: dict[str, SessionType]) -> SessionType:
        if isinstance(t, (Success, Term0)):
            return t
        if isinstance(t, Var):
            return env[t.name]
        if isinstance(t, (InternalChoice, ExternalChoice)):
            return type(t)(tuple((label, tr(cont, env)) for label, cont in t.branches))
        if isinstance(t, Rec):
            def approximant(k: int) -> SessionType:
                if k >= depth:
                    return TERM0
                inner = dict(env)
                inner[t.var] = approximant(k + 1)
                return tr(t.body, inner)

            return approximant(0)
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


def _gen_type(rng: random.Random, spec: CorpusSpec, role: str, budget: int,
              scope: dict[str, bool], rec_budget: int) -> SessionType:
    guarded = sorted(name for name, ok in scope.items() if ok)
    choices: list[str] = ["success"]
    weights: list[int] = [2]
    if budget > 0:
        internal_weight, external_weight = (5, 3) if role == "client" else (3, 5)
        choices += ["internal", "external"]
        weights += [internal_weight, external_weight]
        if rec_budget > 0 and budget > 1:
            choices.append("rec")
            weights.append(2)
    if guarded:
        choices.append("var")
        weights.append(3)
    kind = rng.choices(choices, weights)[0]
    if kind == "success":
        return SUCCESS
    if kind == "var":
        return Var(rng.choice(guarded))
    if kind == "rec":
        name = f"x{len(scope)}"
        inner = dict(scope)  # a binder is not a prefix: outer guard status persists
        inner[name] = False
        body = _gen_type(rng, spec, role, budget - 1, inner, rec_budget - 1)
        return Rec(name, body) if name in free_vars(body) else body
    width = rng.randint(1, min(spec.max_branch, budget))
    names = rng.sample(spec.actions, min(width, len(spec.actions)))
    make = out if kind == "internal" else inp
    deeper = dict.fromkeys(scope, True)
    branches = tuple(
        (make(name), _gen_type(rng, spec, role, budget - 1, deeper, rec_budget))
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
    if isinstance(term, (Success, Term0, Var)):
        return term
    if isinstance(term, Rec):
        return Rec(term.var, dual(term.body))
    if isinstance(term, InternalChoice):
        return ExternalChoice(tuple((label.co(), dual(cont)) for label, cont in term.branches))
    if isinstance(term, ExternalChoice):
        return InternalChoice(tuple((label.co(), dual(cont)) for label, cont in term.branches))
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
    """One pair's verdicts; ``contract`` is the composed game, kept for reuse."""

    compliance: ComplianceVerdict
    eager: GameVerdict
    agree: bool
    bounded: bool
    contract: Contract
    strategy_found: bool | None = None


def correspondence_check(p: SessionType, q: SessionType,
                   unroll_depth: int = DEFAULT_UNROLL_DEPTH,
                   state_limit: int = DEFAULT_STATE_LIMIT) -> CorrespondenceReport:
    """Compare compliance with eager winning on one pair.

    The client ``p`` belongs to participant A and the server ``q`` to B.
    For finite pairs the comparison is exact.  For recursive pairs both
    sides are taken at the same bound: the game on the depth-``d``
    denotation, compliance on the ``d``-times unfolded types.  A compliant
    pair is also searched for a winning strategy of A (the corollary);
    ``strategy_found`` is ``None`` for the others.
    """
    # composing validates both types, so the compliance checks do not again
    contract = compose_session_contracts(p, "A", q, "B", unroll_depth)
    eager = eager_winning(contract, "A")
    bounded = contract.bounded_depth is not None
    if bounded:
        p, q = truncate(p, unroll_depth), truncate(q, unroll_depth)
    compliance = check_compliance(p, q, state_limit, validate_inputs=False)
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


def run_corpus(spec: CorpusSpec, state_limit: int = DEFAULT_STATE_LIMIT) -> CorpusSummary:
    """Assert the correspondence results over every pair of one corpus.

    Every disagreement is recorded with the pair that produced it; the
    expectation everywhere is zero failures.
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
        report = correspondence_check(p, q, spec.unroll_depth, state_limit=state_limit)
        # an unbounded report already holds the untruncated reduction verdict
        reduction = (check_compliance(p, q, state_limit, validate_inputs=False)
                     if report.bounded else report.compliance)
        turn = check_compliance_turn(p, q, state_limit, validate_inputs=False)
        if reduction.status == turn.status and reduction.status != "indeterminate":
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

        ts = turn.lts
        es_lts = contract_ets(report.contract, state_limit)
        bound = bounded_bisim_depth(p, q, spec.unroll_depth)
        if ts.truncated or es_lts.truncated:
            fail("bisimulation", "state limit hit; systems not fully explored")
        elif bisim(ts, es_lts, bound):
            summary.bisim_agreements += 1
        else:
            kind = "strong" if bound is None else f"{bound}-step"
            fail("bisimulation", f"turn-based and event-labelled systems not {kind} bisimilar")
    return summary
