"""Two operational semantics for composed session types, and compliance.

The reduction semantics lets each side commit internal choices and unfold
recursion on its own, and synchronises a committed output with a matching
input; all composite steps are internal.  The turn-based semantics makes
every step visible as an action: an internal choice fires an output into a
one-position buffer, an external choice consumes a matching buffered
output, and a side at ``1`` fires ``✓`` once, terminating at ``0``.
Recursion unfolds tacitly inside turn-based rule application.

Compliance asks that every reachable stuck configuration leaves the client
(left) side at ``1`` (reduction semantics) or at ``0`` (turn-based).
Cycles never make a pair non-compliant: only stuck states are constrained,
so livelocks count as compliant and the verdict says so.  Every step of a
pair without ``rec`` consumes a prefix, a branch or a buffer, so only a
recursive pair is searched for a cycle.

An exploration keeps one table, keyed by ``state_key``: the printed form
``left || right`` of each reached state, mapped to its breadth-first
parent and edge label.  A stuck state also keeps its left term, which is
all the verdict reads.  Terms keep their printed forms and unfoldings
(see ``syntax``), so every distinct term object is printed and unfolded
once, across explorations.  A commit's one-branch choice and a written
buffer are new terms: ``state_key`` prints each when it first names it,
and its continuation only if that keeps no form yet.  The step relations
dispatch on a term's constructor once and read each label's kept text.

A compliance check stops early, the on-the-fly idea of Courcoubetis,
Vardi, Wolper and Yannakakis (FMSD 1992): one bad stuck state settles
"no".  Each state's moves are computed once, when it is discovered, so a
stuck state is known as soon as it is reached.  The search ends when the
level being expanded is finished and one of the states it discovered is a
bad stuck one.  Every state at that depth is then known with its parent,
so the least witness (by length, then by labels) is the one the whole
search gives, and the states at the witness's level are never expanded.
``explore`` still explores everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .lts import DEFAULT_STATE_LIMIT, Lts
from .syntax import (
    TERM0,
    TICK,
    Buffer,
    ExternalChoice,
    InternalChoice,
    Rec,
    SessionType,
    Success,
    Term0,
    _pretty,
    assert_valid,
    is_recursive,
    unfold,
    unfold_top,
)

# one step of ``left ∥ right``: (tag or printed action, left', right')
Step = tuple[str, SessionType, SessionType]


def state_key(left: SessionType, right: SessionType) -> str:
    """The name of the state ``left ∥ right``: its printed form ``left || right``."""
    return _pretty(left, True) + " || " + _pretty(right, True)


@dataclass(frozen=True)
class Configuration:
    """A composition ``left ∥ right``; the left side plays the client."""

    left: SessionType
    right: SessionType

    def key(self) -> str:
        return state_key(self.left, self.right)


# ---------------------------------------------------------------------------
# Reduction (commit/sync) semantics
# ---------------------------------------------------------------------------

def _component_steps(term: SessionType, side: str):
    """Internal and labelled moves of one side, ``side`` naming it in tags.

    Internal moves are ``(tag, successor)`` pairs and labelled moves are the
    ``(label, continuation)`` branches that can synchronise.  Committing is
    only a move for choices with at least two branches; a one-branch
    internal choice is already committed and can only fire its output.
    Buffers do not exist in this semantics; ``1``, ``0`` and an empty
    choice (where a depth-truncated type cuts a recursion) are stuck.
    """
    cls = term.__class__
    if cls is InternalChoice:
        if len(term.branches) == 1:
            return (), term.branches
        return [("commit " + label.text + side, InternalChoice(((label, cont),)))
                for label, cont in term.branches], ()
    if cls is ExternalChoice:
        return (), term.branches
    if cls is Rec:
        return [("unfold" + side, unfold(term))], ()
    if cls is Buffer:
        raise ValueError("buffers do not occur under the reduction semantics")
    return (), ()


def step_reduce(left: SessionType, right: SessionType) -> list[Step]:
    """Reduction steps of ``left ∥ right`` as ``(tag, left', right')``.

    All steps are internal; the tag names the rule that fired (``commit !a
    (left)``, ``unfold (right)``, ``sync a``) so that witness paths read
    well.  An empty list means the state is stuck.  It expects valid terms
    (see ``syntax.validate``), so no choice offers ``✓``.
    """
    left_internal, left_labelled = _component_steps(left, " (left)")
    right_internal, right_labelled = _component_steps(right, " (right)")
    moves = [(tag, successor, right) for tag, successor in left_internal]
    moves += [(tag, left, successor) for tag, successor in right_internal]
    for llabel, lcont in left_labelled:
        for rlabel, rcont in right_labelled:
            # rlabel == llabel.co(), without building the co-action
            if llabel.name == rlabel.name and llabel.polarity != rlabel.polarity:
                moves.append(("sync " + llabel.name, lcont, rcont))
    return moves


# ---------------------------------------------------------------------------
# Turn-based semantics
# ---------------------------------------------------------------------------

def _turn_side_steps(own: SessionType, other: SessionType):
    """Moves of one side against the other side's current term.

    Returns (label, own', other') triples; recursion is unfolded on the fly
    and never shows up as a step.  On valid terms a ``rec`` never unfolds
    to a buffer and a buffer holds an output, so a read needs no more.
    """
    if own.__class__ is Rec:
        own = unfold_top(own)
    cls = own.__class__
    if cls is InternalChoice:
        return [(label, Buffer(label, cont), other) for label, cont in own.branches]
    if cls is ExternalChoice:
        if other.__class__ is not Buffer:
            return ()
        name, rest = other.action.name, other.cont
        return [(label, cont, rest) for label, cont in own.branches if label.name == name]
    if cls is Success:
        return ((TICK, TERM0, other),)
    return ()


def step_turn(left: SessionType, right: SessionType) -> list[Step]:
    """Turn-based steps of ``left ∥ right`` as ``(action, left', right')``,
    the fired action printed (``!a``, ``?a``, ``✓``); the left side's first.
    It expects valid terms (see ``syntax.validate``)."""
    moves = [(label.text, nleft, nright) for label, nleft, nright in _turn_side_steps(left, right)]
    moves += [(label.text, nleft, nright) for label, nright, nleft in _turn_side_steps(right, left)]
    return moves


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

_MOVES = {"reduction": step_reduce, "turn": step_turn}
# the constructor of the client's term at a stuck state that satisfies it
_CLIENT_DONE = {"reduction": Success, "turn": Term0}
_LABEL_AND_KEY = itemgetter(0, 1)


@dataclass(frozen=True)
class _Exploration:
    lts: Lts
    stuck: dict[str, SessionType]  # stuck state -> its left term
    # state -> (parent state, edge label), None at the start; its keys are the states
    parents: dict[str, tuple[str, str] | None]


def _explore(config: Configuration, semantics: str, state_limit: int,
             stop_at_witness: bool = False) -> _Exploration:
    if state_limit <= 0:
        raise ValueError("state limit must be positive")
    if semantics not in _MOVES:
        raise ValueError(f"unknown semantics {semantics!r}")
    moves = _MOVES[semantics]
    done = _CLIENT_DONE[semantics]
    start = state_key(config.left, config.right)
    parents: dict[str, tuple[str, str] | None] = {start: None}
    edges: set[tuple[str, str, str]] = set()
    stuck: dict[str, SessionType] = {}
    truncated = found_bad = False
    # each state's moves are computed once, as it is discovered; a stuck
    # state is recorded then, and a level is queued with its states' moves
    steps = moves(config.left, config.right)
    if not steps:
        stuck[start] = config.left
    level = [(start, steps)]
    while level:
        discovered: list[tuple[str, list[Step]]] = []
        for state, steps in level:
            successors = [(label, state_key(left, right), left, right) for label, left, right in steps]
            if len(successors) > 1:
                # terms are not orderable: sort on (label, printed form) only
                successors.sort(key=_LABEL_AND_KEY)
            for label, nkey, left, right in successors:
                if nkey not in parents:
                    if len(parents) >= state_limit:
                        truncated = True
                        continue
                    parents[nkey] = (state, label)
                    nsteps = moves(left, right)
                    if nsteps:
                        discovered.append((nkey, nsteps))
                    else:
                        stuck[nkey] = left
                        if left.__class__ is not done:
                            found_bad = True
                edges.add((state, label, nkey))
        if stop_at_witness and found_bad:
            # every state of the level just discovered is known with its
            # parent, and the least witness leads to one of them
            break
        level = discovered
    lts = Lts(frozenset(parents), start, frozenset(edges), truncated)
    return _Exploration(lts, stuck, parents)


def explore(config: Configuration, state_limit: int = DEFAULT_STATE_LIMIT,
            semantics: str = "reduction") -> Lts:
    """Breadth-first closure of the chosen step relation from ``config``.

    States are named and deduplicated by ``state_key``, their printed form;
    hitting the state limit sets the truncation flag rather than failing.
    """
    return _explore(config, semantics, state_limit).lts


# ---------------------------------------------------------------------------
# Compliance
# ---------------------------------------------------------------------------

LIVELOCK_NOTE = "cycles count as compliant: only stuck states are constrained"


@dataclass(frozen=True)
class ComplianceVerdict:
    """A compliance verdict.

    ``truncated`` says whether the state limit cut the search the verdict
    rests on: for a non-compliant verdict, whether it cut a state at or
    above the witness's depth; otherwise, whether it cut the reachable
    system.  ``lts`` is the system explored, kept for reuse, not in the
    JSON: for a non-compliant verdict, the states down to the witness's
    depth and the edges out of the shallower ones (``whole_system`` on
    ``check_compliance_turn`` asks for all of it).
    """

    status: str  # "compliant" | "non-compliant" | "indeterminate"
    semantics: str  # "reduction" | "turn"
    witness: tuple[str, ...] | None = None
    truncated: bool = False
    note: str | None = None
    lts: Lts | None = field(default=None, compare=False, repr=False)

    @property
    def is_compliant(self) -> bool:
        return self.status == "compliant"

    def to_json(self) -> dict:
        return {
            "verdict": self.status,
            "semantics": self.semantics,
            "witness": list(self.witness) if self.witness is not None else None,
            "truncated": self.truncated,
            "note": self.note,
        }


def _witness_path(parents: dict[str, tuple[str, str] | None], target: str) -> tuple[str, ...]:
    path: list[str] = []
    step = parents[target]
    while step is not None:
        node, label = step
        path.append(label)
        step = parents[node]
    return tuple(reversed(path))


def _check(p: SessionType, q: SessionType, semantics: str, state_limit: int,
           validate_inputs: bool = True, whole_system: bool = False) -> ComplianceVerdict:
    if validate_inputs:
        assert_valid(p, "client type")
        assert_valid(q, "server type")
    exploration = _explore(Configuration(p, q), semantics, state_limit,
                           stop_at_witness=not whole_system)
    lts = exploration.lts
    done = _CLIENT_DONE[semantics]
    bad = [key for key, left in exploration.stuck.items() if left.__class__ is not done]
    if bad:
        # each parent chain is a shortest path, as BFS found it; pick the
        # lexicographically first among the shortest, all of which the
        # search has reached when it stops at the first bad level
        witness = min((_witness_path(exploration.parents, key) for key in bad),
                      key=lambda w: (len(w), w))
        return ComplianceVerdict("non-compliant", semantics, witness, lts.truncated, lts=lts)
    if lts.truncated:
        return ComplianceVerdict(
            "indeterminate", semantics, None, True,
            note="state limit hit before the reachable set was exhausted", lts=lts,
        )
    # only a recursive pair can have a cycle (see the module docstring)
    cyclic = (is_recursive(p) or is_recursive(q)) and lts.has_cycle()
    note = LIVELOCK_NOTE if cyclic else None
    return ComplianceVerdict("compliant", semantics, None, False, note, lts)


def check_compliance(p: SessionType, q: SessionType,
                     state_limit: int = DEFAULT_STATE_LIMIT,
                     validate_inputs: bool = True) -> ComplianceVerdict:
    """Decide compliance of ``p`` with ``q`` under the reduction semantics."""
    return _check(p, q, "reduction", state_limit, validate_inputs)


def check_compliance_turn(p: SessionType, q: SessionType,
                          state_limit: int = DEFAULT_STATE_LIMIT,
                          validate_inputs: bool = True,
                          whole_system: bool = False) -> ComplianceVerdict:
    """Decide compliance via the turn-based reformulation (stuck left side is 0).

    ``whole_system`` explores every reachable state, up to the limit, also
    past a witness, so that ``lts`` is the whole turn-based system.
    """
    return _check(p, q, "turn", state_limit, validate_inputs, whole_system)
