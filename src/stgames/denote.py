"""Compiling session types to event structures.

Sequential compilation gives every action prefix and every success position
one event.  One walk of the term accumulates the events, conflicts and
generators of the whole structure, which is built and validated once at
the end.  The walk passes down the premise of the events a subterm can
start with: empty at the top, the prefix event below a prefix.  So each
branch compiles to a causal chain; the branches of one choice conflict
pairwise on their first events.  Recursion is compiled as a finite
approximant of the fixpoint: the body is unfolded a bounded number of
times, the variable mapping to the next (deeper) copy and finally to the
empty structure, and the walk records whether it cut a recursion.

Event ids are deterministic.  Positions of the original term are numbered
in pre-order, odd for the left participant and even for the right.  Each
unfolding copy of a recursion body is identified by the chain of variable
occurrences that reached it, and its events carry one ``@k`` suffix per
hop (``k`` numbering the occurrence); the walk carries the suffix string
itself down the copy chain.  Distinct occurrences of a variable
therefore get disjoint copies, the outermost copy keeps bare ids, and
deepening the bound only adds events, so approximants form an increasing
chain.

Parallel composition has one partner rule.  The partners of an event are
the other side's events with the complementary label at the same per-label
position along their own causal chain; a success event has none, as no
input is labelled ``✓``.  Each enabling of one side needs a partner for
every premise event and, when its target is an input, for the target
itself (the output it consumes).  The position pins each handshake to one
partner per repetition while still allowing alternatives across
incompatible branches.  The composite keeps one enabling per component
enabling, with the partners of each needed event as one partner set: a
single partner joins the premise, and an event with none drops the
enabling.  So the product of the partner sets, one generator per choice,
is never built.  Partners are not filtered for conflict-freeness; choices
drawing from mutually exclusive branches are inert.

:func:`denote_par` composes a pair of types with one compile walk each:
the walk counts each label along the causal chain as it makes the events,
so each event's position comes with it, and only the composite structure
is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .estructure import Enabling, Event, EventStructureGen
from .syntax import (
    INPUT,
    OUTPUT,
    TICK,
    ActionLabel,
    ExternalChoice,
    InternalChoice,
    Rec,
    SessionType,
    Success,
    Term0,
    Var,
    _walk,
    pretty,
    validate,
)

DEFAULT_UNROLL_DEPTH = 6

_CO_POLARITY = {OUTPUT: INPUT, INPUT: OUTPUT}

PARITY_START = {"odd": 1, "even": 2}

# the partner sets of a plain enabling: none
_PLAIN: frozenset[frozenset[str]] = frozenset()


class DenoteError(ValueError):
    pass


def _event_count(term: SessionType) -> int:
    """The event positions of ``term``: its success leaves and branches."""
    count = 0
    for t, _, _ in _walk(term):
        cls = t.__class__
        if cls is Success:
            count += 1
        elif cls is InternalChoice or cls is ExternalChoice:
            count += len(t.branches)
    return count


@dataclass
class _Compiler:
    """One walk of a term, accumulating the events, conflicts and (plain)
    enablings of its structure, and the occurrence of each event.

    ``under`` is the premise of the events a subterm can start with: empty
    at the top, the prefix event below a prefix.  ``suffix`` is the ``@k…``
    copy chain of the events being compiled.  ``env`` maps each variable in
    scope to its recursion binding ``(rec, env, depth, ordinal,
    var_ordinal)``: the ``rec`` term, its binder's environment, the
    unrollings left and the ordinals its body starts at; each use compiles
    one more copy of the body in place, under its own copy chain.
    ``chain`` counts the events of each label (by printed form) on the
    causal chain being compiled, which is the stack of prefixes whose
    continuation the walk is in, so an event's occurrence is its label's
    count there plus one.

    ``ordinal`` and ``var_ordinal`` number the next event position and
    variable occurrence in pre-order; a copy restarts at its binder body's.
    So ids need no check for reuse: the ordinal is unique within one copy
    of a body, and the suffix names the copy by its chain of occurrences.
    ``cut`` is set where the walk stops short of the fixpoint: a ``rec``
    body skipped at depth 0, or a binding used with no depth left.
    """

    who: str
    start: int
    depth: int
    events: list[Event] = field(default_factory=list)
    conflicts: set[frozenset[str]] = field(default_factory=set)
    enablings: set[Enabling] = field(default_factory=set)
    occurrences: dict[str, int] = field(default_factory=dict)
    chain: dict[str, int] = field(default_factory=dict)
    ordinal: int = 0
    var_ordinal: int = 0
    cut: bool = False

    def add_initial(self, suffix: str, label: ActionLabel, under: frozenset[str]) -> str:
        event_id = f"e{self.start + 2 * self.ordinal}{suffix}"
        self.ordinal += 1
        self.events.append(Event(event_id, self.who, label))
        self.occurrences[event_id] = self.chain.get(label.text, 0) + 1
        self.enablings.add((under, _PLAIN, event_id))
        return event_id

    def compile(self, term: SessionType, suffix: str, env: dict, under: frozenset[str]) -> None:
        cls = term.__class__
        if cls is InternalChoice or cls is ExternalChoice:
            # each branch starts with its prefix event alone, so the branches
            # conflict pairwise on those
            firsts = []
            chain = self.chain
            for label, cont in term.branches:
                first = self.add_initial(suffix, label, under)
                count = chain[label.text] = self.occurrences[first]
                self.compile(cont, suffix, env, frozenset({first}))
                chain[label.text] = count - 1
                firsts.append(first)
            self.conflicts.update(frozenset(pair) for pair in combinations(firsts, 2))
        elif cls is Success:
            self.add_initial(suffix, TICK, under)
        elif cls is Var:
            # validate has rejected free variables, so the binding exists
            rec, rec_env, depth, ordinal, var_ordinal = env[term.name]
            resume = self.ordinal, self.var_ordinal + 1
            if depth:
                copy = f"{suffix}@{self.var_ordinal}"
                inner = {**rec_env, rec.var: (rec, rec_env, depth - 1, ordinal, var_ordinal)}
                self.ordinal, self.var_ordinal = ordinal, var_ordinal
                self.compile(rec.body, copy, inner, under)
            else:
                self.cut = True
            self.ordinal, self.var_ordinal = resume
        elif cls is Rec:
            if self.depth:
                binding = (term, env, self.depth - 1, self.ordinal, self.var_ordinal)
                self.compile(term.body, suffix, {**env, term.var: binding}, under)
            else:
                self.ordinal += _event_count(term.body)
                self.cut = True
        elif cls is not Term0:
            raise DenoteError(f"cannot compile {term!r}")

    def structure(self) -> EventStructureGen:
        return EventStructureGen(
            frozenset(self.events), frozenset(self.conflicts), frozenset(self.enablings)
        )


def _check(term: SessionType) -> None:
    """Raise :class:`DenoteError` unless ``term`` compiles: it may hold
    ``0`` and empty choices, which ``harness.truncate`` leaves, but must
    otherwise be valid."""
    problems = [v for v in validate(term) if v.rule not in ("runtime-only-term", "empty-choice")]
    if problems:
        raise DenoteError(f"cannot compile invalid type {pretty(term)}: "
                          + "; ".join(str(v) for v in problems))


def _compile(term: SessionType, who: str, unroll_depth: int, parity: str) -> _Compiler:
    """The finished walk of a checked ``term``; see :func:`denote`."""
    if unroll_depth < 0:
        raise DenoteError("unroll depth must be non-negative")
    compiler = _Compiler(who, PARITY_START[parity], unroll_depth)
    compiler.compile(term, "", {}, frozenset())
    return compiler


def denote(term: SessionType, who: str, unroll_depth: int = DEFAULT_UNROLL_DEPTH,
           parity: str = "odd") -> EventStructureGen:
    """Compile one participant's closed session type to its event structure.

    ``parity`` picks the id stream: ``odd`` (e1, e3, ...) for the first
    participant and ``even`` (e2, e4, ...) for the second.  ``unroll_depth``
    bounds every recursion; the result at a deeper bound extends the result
    at a shallower one.  A free variable is a :class:`DenoteError`; ``0``
    and empty choices, which ``harness.truncate`` leaves, denote no event.
    """
    _check(term)
    return _compile(term, who, unroll_depth, parity).structure()


# ---------------------------------------------------------------------------
# Parallel composition
# ---------------------------------------------------------------------------

def _par(left: _Compiler, right: _Compiler) -> EventStructureGen:
    """The partner rule on two finished walks of opposite parities, whose
    enablings are plain and whose ``occurrences`` give each event's."""
    enablings: set[Enabling] = set()
    for side, other in ((left, right), (right, left)):
        table: dict[tuple[str, str, int], set[str]] = {}
        occurrence = other.occurrences
        for event in other.events:
            label = event.label
            table.setdefault((label.name, label.polarity, occurrence[event.id]), set()).add(event.id)
        # one frozenset per key, shared by every enabling that needs it
        table = {key: frozenset(ids) for key, ids in table.items()}
        partners: dict[str, frozenset[str]] = {}
        outputs: set[str] = set()
        occurrence = side.occurrences
        for event in side.events:
            label = event.label
            key = (label.name, _CO_POLARITY[label.polarity], occurrence[event.id])
            partners[event.id] = table.get(key, frozenset())
            if label.is_output:
                outputs.add(event.id)
        for premise, _, target in side.enablings:
            needs = premise if target in outputs else (*premise, target)
            partner_sets = []
            for eid in needs:
                found = partners[eid]
                if not found:
                    break  # no choice of partners: the enabling stands for no generator
                if len(found) == 1:
                    premise = premise | found
                else:
                    partner_sets.append(found)
            else:
                enablings.add((premise, frozenset(partner_sets) if partner_sets else _PLAIN, target))
    return EventStructureGen(
        frozenset(left.events) | frozenset(right.events),
        frozenset(left.conflicts) | frozenset(right.conflicts),
        frozenset(enablings),
    )


def denote_par(client: SessionType, a: str, server: SessionType, b: str,
               unroll_depth: int = DEFAULT_UNROLL_DEPTH) -> EventStructureGen:
    """``denote(client, a, d, "odd")`` composed with ``denote(server, b, d,
    "even")`` at ``d = unroll_depth`` under the partner rule, from one
    compile walk per type.  Each type is checked as :func:`denote` checks
    it; ``game.compose_session_contracts`` composes the same two walks and
    also reads whether either cut a recursion.
    """
    _check(client)
    _check(server)
    return _par(_compile(client, a, unroll_depth, "odd"), _compile(server, b, unroll_depth, "even"))
