"""Compiling session types to event structures.

Sequential compilation gives every action prefix and every success position
one event.  One walk of the term accumulates the events, conflicts and
generators of the whole structure, which is built and validated once at
the end.  The walk passes down the premise of the events a subterm can
start with: empty at the top, the prefix event below a prefix.  So each
branch compiles to a causal chain; the branches of one choice conflict
pairwise on their first events.  Recursion is compiled as a finite approximant of the
fixpoint: the body is unfolded a bounded number of times, the variable
mapping to the next (deeper) copy and finally to the empty structure.

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
position along their own causal chain; a success event has none.  Each
enabling of one side needs a partner for every premise event and, when its
target is an input, for the target itself (the output it consumes).  The
position pins each handshake to one partner per repetition while still
allowing alternatives across incompatible branches.  Premises are not
filtered for conflict-freeness; combinations drawing from mutually
exclusive branches are inert.

The rule has two callers.  :func:`denote_par_terms` composes a pair of
valid session types: the compile walk counts each label along the causal
chain as it makes the events, so each event's position comes with it, and
only the composite structure is built.  :func:`denote_par` composes two
given structures, hand-built ones included, and reads the positions off
them with :func:`occurrence_index`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

from .estructure import Event, EventStructureGen
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
    pretty,
    validate,
)

DEFAULT_UNROLL_DEPTH = 6

_CO_POLARITY = {OUTPUT: INPUT, INPUT: OUTPUT}

PARITY_START = {"odd": 1, "even": 2}


class DenoteError(ValueError):
    pass


def _positions(term: SessionType) -> tuple[dict[tuple, int], dict[tuple, int]]:
    """Pre-order ordinals for event positions and for variable occurrences."""
    events: dict[tuple, int] = {}
    variables: dict[tuple, int] = {}
    counter = 0
    var_counter = 0

    def walk(t: SessionType, path: tuple) -> None:
        nonlocal counter, var_counter
        if isinstance(t, Success):
            events[path] = counter
            counter += 1
        elif isinstance(t, (InternalChoice, ExternalChoice)):
            for i, (_, cont) in enumerate(t.branches):
                events[path + (i,)] = counter
                counter += 1
                walk(cont, path + (i, "c"))
        elif isinstance(t, Rec):
            walk(t.body, path + ("r",))
        elif isinstance(t, Var):
            variables[path] = var_counter
            var_counter += 1
        # Term0 owns no events

    walk(term, ())
    return events, variables


@dataclass
class _Compiler:
    """One walk of a term, accumulating the events, conflicts and generators
    of its structure, and the occurrence of each event.

    ``under`` is the premise of the events a subterm can start with: empty
    at the top, the prefix event below a prefix.  ``suffix`` is the ``@k…``
    copy chain of the events being compiled.  ``env`` maps each variable in
    scope to its recursion binding ``(var, body, body_path, env, depth)``;
    :meth:`fix` unrolls it at the binder and at each use.  ``chain`` counts
    the events of each label (by printed form) on the causal chain being
    compiled, which is the stack of prefixes whose continuation the walk is
    in, so an event's occurrence is its label's count there plus one.
    """

    who: str
    positions: dict[tuple, int]
    var_positions: dict[tuple, int]
    start: int
    depth: int
    step: int = 2
    events: list[Event] = field(default_factory=list)
    conflicts: set[frozenset[str]] = field(default_factory=set)
    gens: set[tuple[frozenset[str], str]] = field(default_factory=set)
    occurrences: dict[str, int] = field(default_factory=dict)
    chain: dict[str, int] = field(default_factory=dict)

    def add_initial(self, path: tuple, suffix: str, label: ActionLabel, under: frozenset[str]) -> str:
        event_id = f"e{self.start + self.step * self.positions[path]}{suffix}"
        if event_id in self.occurrences:
            raise DenoteError(f"event id {event_id} already used")
        self.events.append(Event(event_id, self.who, label))
        self.occurrences[event_id] = self.chain.get(label.text, 0) + 1
        self.gens.add((under, event_id))
        return event_id

    def compile(self, term: SessionType, path: tuple, suffix: str,
                env: dict, under: frozenset[str]) -> None:
        if isinstance(term, Success):
            self.add_initial(path, suffix, TICK, under)
        elif isinstance(term, Term0):
            pass
        elif isinstance(term, Var):
            # validate has rejected free variables, so the binding exists
            self.fix(env[term.name], f"{suffix}@{self.var_positions[path]}", under)
        elif isinstance(term, (InternalChoice, ExternalChoice)):
            # each branch starts with its prefix event alone, so the branches
            # conflict pairwise on those
            firsts = []
            chain = self.chain
            for i, (label, cont) in enumerate(term.branches):
                first = self.add_initial(path + (i,), suffix, label, under)
                count = chain[label.text] = self.occurrences[first]
                self.compile(cont, path + (i, "c"), suffix, env, frozenset({first}))
                chain[label.text] = count - 1
                firsts.append(first)
            self.conflicts.update(frozenset(pair) for pair in combinations(firsts, 2))
        elif isinstance(term, Rec):
            self.fix((term.var, term.body, path + ("r",), env, self.depth), suffix, under)
        else:
            raise DenoteError(f"cannot compile {term!r}")

    def fix(self, binding: tuple, suffix: str, under: frozenset[str]) -> None:
        """Unroll a recursion binding once more, if its depth allows.

        The variable maps to the next, shallower binding, resolved in the
        environment of the binder.  Each use site passes its own copy
        chain, so copies reached along different occurrences never share
        events.
        """
        var, body, body_path, env, depth = binding
        if depth <= 0:
            return
        inner = dict(env)
        inner[var] = (var, body, body_path, env, depth - 1)
        self.compile(body, body_path, suffix, inner, under)

    def structure(self) -> EventStructureGen:
        return EventStructureGen(
            frozenset(self.events), frozenset(self.conflicts), frozenset(self.gens)
        )


def _compile(term: SessionType, who: str, unroll_depth: int, parity: str) -> _Compiler:
    """The finished walk of a valid ``term``; see :func:`denote`."""
    if unroll_depth < 0:
        raise DenoteError("unroll depth must be non-negative")
    positions, var_positions = _positions(term)
    compiler = _Compiler(who, positions, var_positions, PARITY_START[parity], unroll_depth)
    compiler.compile(term, (), "", {}, frozenset())
    return compiler


def denote(term: SessionType, who: str, unroll_depth: int = DEFAULT_UNROLL_DEPTH,
           parity: str = "odd") -> EventStructureGen:
    """Compile one participant's closed session type to its event structure.

    ``parity`` picks the id stream: ``odd`` (e1, e3, ...) for the first
    participant and ``even`` (e2, e4, ...) for the second.  ``unroll_depth``
    bounds every recursion; the result at a deeper bound extends the result
    at a shallower one.  A free variable is a :class:`DenoteError`.
    """
    problems = [v for v in validate(term) if v.rule != "runtime-only-term"]
    if problems:
        raise DenoteError(f"cannot compile invalid type {pretty(term)}: "
                          + "; ".join(str(v) for v in problems))
    return _compile(term, who, unroll_depth, parity).structure()


def fix_approx(var: str, body: SessionType, who: str,
               depth: int = DEFAULT_UNROLL_DEPTH, parity: str = "odd") -> EventStructureGen:
    """The ``depth``-th approximant of the recursion operator for ``rec var . body``.

    Depth 0 is the empty structure; depth n+1 compiles the body with the
    variable bound to the depth-n approximant, placed one unrolling deeper.
    ``rec var . body`` must be closed.
    """
    return denote(Rec(var, body), who, depth, parity)


# ---------------------------------------------------------------------------
# Parallel composition
# ---------------------------------------------------------------------------

def occurrence_index(es: EventStructureGen) -> dict[str, int]:
    """Position of each event among same-labelled events on its causal chain.

    Ancestors are the transitive closure of generator premises, so a member
    of a generator cycle is its own ancestor.  Sequential denotations are
    forests, so this is the occurrence count along the unique path from the
    root; the index aligns the k-th repetition of an action with the k-th
    complementary event on the other side.  :func:`denote_par` reads it off
    the structures it is given; :func:`denote_par_terms` has the compiler
    record the same counts as it makes each event, with no walk up.

    Each event's ancestors are found by a walk up its premises that stops at
    events whose ancestors are already known and takes those in whole; a
    known set is the full closure, so the result does not depend on the
    order of ``es.events``.
    """
    ancestors: dict[str, set[str]] = {}
    for event in es.events:
        found: set[str] = set()
        stack = [event.id]
        while stack:
            for premise in es.premises_of(stack.pop()):
                for parent in premise - found:
                    found.add(parent)
                    known = ancestors.get(parent)
                    if known is None:
                        stack.append(parent)
                    else:
                        found |= known
        ancestors[event.id] = found
    labelled: dict[ActionLabel, set[str]] = {}
    for event in es.events:
        labelled.setdefault(event.label, set()).add(event.id)
    return {event.id: 1 + len(ancestors[event.id] & labelled[event.label]) for event in es.events}


def _par(left, right, occurrence: dict[str, int]) -> EventStructureGen:
    """The partner rule on two sides with disjoint event ids.

    Each side has ``events`` (:class:`Event` objects), ``conflicts`` and
    ``gens``: a structure or a finished :class:`_Compiler`.  ``occurrence``
    maps every event of both sides to its occurrence.
    """
    gens: set[tuple[frozenset[str], str]] = set()
    for side, other in ((left, right), (right, left)):
        table: dict[tuple[str, str, int], list[str]] = {}
        for event in other.events:
            label = event.label
            table.setdefault((label.name, label.polarity, occurrence[event.id]), []).append(event.id)
        partners: dict[str, list[str]] = {}
        outputs: set[str] = set()
        for event in side.events:
            label = event.label
            partners[event.id] = [] if label.is_tick else table.get(
                (label.name, _CO_POLARITY[label.polarity], occurrence[event.id]), [])
            if label.is_output:
                outputs.add(event.id)
        for premise, target in side.gens:
            needs = premise if target in outputs else (*premise, target)
            for choice in product(*[partners[eid] for eid in needs]):
                gens.add((premise.union(choice), target))
    return EventStructureGen(
        frozenset(left.events) | frozenset(right.events),
        frozenset(left.conflicts) | frozenset(right.conflicts),
        frozenset(gens),
    )


def denote_par(left: EventStructureGen, right: EventStructureGen) -> EventStructureGen:
    """Compose the event structures of two interacting participants.

    Events, conflicts and labels are unions.  The partners of an event are
    the other side's events with the complementary label at the same
    occurrence (:func:`occurrence_index`, computed here from each given
    structure); a ``✓`` event has none.  A component enabling ``(X, e)``
    needs a partner for each member of ``X`` and, when ``e`` is an input,
    for ``e`` itself (the output it consumes); one composite enabling
    ``(X ∪ choice, e)`` is emitted per choice of partners, so a needed event
    without partners kills the enabling.  Duplicates collapse; premises are
    kept even when not conflict-free (such enablings never fire).  This is
    the path for any two structures, hand-built ones included; a pair of
    session types is composed by :func:`denote_par_terms`.
    """
    overlap = left.event_ids & right.event_ids
    if overlap:
        raise ValueError(f"component event sets overlap: {sorted(overlap)}")
    return _par(left, right, {**occurrence_index(left), **occurrence_index(right)})


def denote_par_terms(client: SessionType, a: str, server: SessionType, b: str,
                     unroll_depth: int = DEFAULT_UNROLL_DEPTH) -> EventStructureGen:
    """``denote_par(denote(client, a, d, "odd"), denote(server, b, d, "even"))``
    at ``d = unroll_depth``, from one compile walk per type.

    Both types must already be valid (:func:`~stgames.syntax.validate`);
    ``compose_session_contracts`` checks them.  Each side's occurrences are
    the ones its compiler recorded, and only the composite structure is
    built, so it is the one validated.  A negative depth is a
    :class:`DenoteError`.
    """
    left = _compile(client, a, unroll_depth, "odd")
    right = _compile(server, b, unroll_depth, "even")
    return _par(left, right, {**left.occurrences, **right.occurrences})
