"""Contracts over event structures and the multi-player obligation game.

A contract pairs an event structure with a payoff assignment; the only
built-in payoff is success: a finite play pays a participant when it
contains one of their ``✓`` events (infinite plays always pay, but finite
structures only admit finite plays).  Plays are sequences of distinct
events, each one playable after its predecessors.  A strategy maps each
play to a set of the owner's playable events; the eager strategy prescribes
all of them.

A finite play is fair for a strategy exactly when the final prescription is
empty, so the game engine treats every empty-prescription point as a
possible stop, including stops where other participants still have enabled
events; whoever still has a playable event at a stop is culpable there.

The engine's play state is the configuration reached, a bitmask over the
original structure (:class:`~stgames.estructure.PlayIndex`), and its memo is
keyed on that configuration alone: what is left to play depends only on
the set of fired events, not on their order, and the owner has succeeded
exactly when the configuration holds one of their ``✓`` events.  Each
configuration travels with its playable events, updated per fired event by
:meth:`~stgames.estructure.PlayIndex.step`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .denote import DEFAULT_UNROLL_DEPTH, denote_par_terms
from .estructure import EventStructureGen, PlayIndex, id_sort_key, playable
from .syntax import SessionType, assert_valid, is_recursive, min_loop_guard

SUCCESS_PAYOFF = "success"


@dataclass(frozen=True)
class Contract:
    """An event structure plus a payoff kind per participant.

    Every participant who could ever be obliged (owns the target of some
    enabling) must have a payoff.  ``bounded_depth`` records that the
    structure is a recursion approximant, so verdicts derived from it are
    only exact up to that unrolling bound.
    """

    es: EventStructureGen
    payoffs: dict[str, str] = field(default_factory=dict)
    bounded_depth: int | None = None

    def __post_init__(self) -> None:
        for kind in self.payoffs.values():
            if kind != SUCCESS_PAYOFF:
                raise ValueError(f"unknown payoff kind {kind!r}")
        obliged = {e.participant for e in self.es.events if self.es.premises_of(e.id)}
        missing = obliged - self.payoffs.keys()
        if missing:
            raise ValueError(f"participants with obligations but no payoff: {sorted(missing)}")

    def participants(self) -> frozenset[str]:
        return self.es.participants() | frozenset(self.payoffs)


def composable(first: Contract, second: Contract) -> bool:
    """Contracts compose only when no participant gets paid by both."""
    return not (first.payoffs.keys() & second.payoffs.keys())


def compose_contracts_union(first: Contract, second: Contract) -> Contract:
    """Plain componentwise union of two composable contracts.

    This is the literal composition on contracts; it introduces no
    synchronisation between the two event structures and is exposed for
    diagnosis.  Session types are composed with
    :func:`compose_session_contracts` instead, which builds the interaction
    enablings.
    """
    if not composable(first, second):
        raise ValueError("contracts assign payoffs to a common participant")
    overlap = first.es.event_ids & second.es.event_ids
    if overlap:
        raise ValueError(f"contracts share events {sorted(overlap)}")
    es = EventStructureGen(
        first.es.events | second.es.events,
        first.es.conflicts | second.es.conflicts,
        first.es.gens | second.es.gens,
    )
    payoffs = dict(first.payoffs)
    payoffs.update(second.payoffs)
    bounded = _merge_bounds(first.bounded_depth, second.bounded_depth)
    return Contract(es, payoffs, bounded)


def _merge_bounds(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def approximant_depth(p: SessionType, q: SessionType, unroll_depth: int) -> int | None:
    """``unroll_depth`` when the depth-``unroll_depth`` denotations of ``p``
    and ``q`` are only approximants, else ``None``.  Unrolling cuts a
    recursion whose variable is used; depth 0 drops every recursion body."""
    if unroll_depth == 0:
        cut = is_recursive(p) or is_recursive(q)
    else:
        cut = min_loop_guard(p) is not None or min_loop_guard(q) is not None
    return unroll_depth if cut else None


def compose_session_contracts(p: SessionType, a: str, q: SessionType, b: str,
                              unroll_depth: int = DEFAULT_UNROLL_DEPTH) -> Contract:
    """The game arena for a client type ``p`` of ``a`` against server ``q`` of ``b``.

    The event structure is the parallel composition of the two denotations
    (:func:`~stgames.denote.denote_par_terms`); each type is validated once,
    here.  Each participant gets the success payoff.  The result carries the
    unrolling bound when the denotations are approximants
    (:func:`approximant_depth`).
    """
    if a == b:
        raise ValueError("the two endpoints must belong to distinct participants")
    assert_valid(p, "client type")
    assert_valid(q, "server type")
    es = denote_par_terms(p, a, q, b, unroll_depth)
    return Contract(es, {a: SUCCESS_PAYOFF, b: SUCCESS_PAYOFF}, approximant_depth(p, q, unroll_depth))


# ---------------------------------------------------------------------------
# Plays
# ---------------------------------------------------------------------------

def is_play(es: EventStructureGen, sequence) -> bool:
    """True when each event is playable after its predecessors."""
    history: set[str] = set()
    for event_id in sequence:
        if event_id not in playable(es, history):
            return False
        history.add(event_id)
    return True


def assert_play(es: EventStructureGen, sequence) -> tuple[str, ...]:
    seq = tuple(sequence)
    if not is_play(es, seq):
        raise ValueError(f"not a play: {seq}")
    return seq


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EagerStrategy:
    """Prescribe every playable own event."""

    participant: str


@dataclass(frozen=True)
class ExplicitStrategy:
    """A finite table from play prefixes to prescribed events; empty elsewhere."""

    participant: str
    table: dict[tuple[str, ...], frozenset[str]] = field(default_factory=dict)

    def to_json(self) -> list[dict]:
        return [
            {"prefix": list(prefix), "prescribe": sorted(events, key=id_sort_key)}
            for prefix, events in sorted(self.table.items())
        ]


Strategy = EagerStrategy | ExplicitStrategy


def prescribed(strategy: Strategy, contract: Contract, play) -> frozenset[str]:
    """The events the strategy tells its owner to offer after ``play``."""
    seq = assert_play(contract.es, play)
    if isinstance(strategy, EagerStrategy):
        own = contract.es.events_of(strategy.participant)
        return frozenset(playable(contract.es, seq)) & own
    prescription = strategy.table.get(seq, frozenset())
    legal = playable(contract.es, seq) & contract.es.events_of(strategy.participant)
    illegal = prescription - legal
    if illegal:
        raise ValueError(f"strategy prescribes unplayable events {sorted(illegal)} after {seq}")
    return prescription


def conforms(play, strategy: Strategy, contract: Contract) -> bool:
    """Every event of the strategy's owner was prescribed at its prefix."""
    seq = assert_play(contract.es, play)
    own = contract.es.events_of(strategy.participant)
    for i, event_id in enumerate(seq):
        if event_id in own and event_id not in prescribed(strategy, contract, seq[:i]):
            return False
    return True


def is_fair(play, strategy: Strategy, contract: Contract) -> bool:
    """Direct evaluation of fairness on a finite play.

    An event prescribed at every point from some position to the end must
    occur at or after that position.  On finite plays this is equivalent to
    the final prescription being empty.
    """
    seq = assert_play(contract.es, play)
    prescriptions = [prescribed(strategy, contract, seq[:i]) for i in range(len(seq) + 1)]
    for i in range(len(seq) + 1):
        persistent = frozenset.intersection(*prescriptions[i:])
        for event_id in persistent:
            if event_id not in seq[i:]:
                return False
    return True


# ---------------------------------------------------------------------------
# Innocence, winning
# ---------------------------------------------------------------------------

def innocent(play, participant: str, es: EventStructureGen) -> bool:
    """No obligation of the participant arises and stays undischarged.

    Evaluated prefix by prefix: an own event whose premise is met, which
    has not already fired or been conflicted, must occur or be conflicted
    later in the play.
    """
    seq = assert_play(es, play)
    own = es.events_of(participant)
    for i in range(len(seq) + 1):
        for event_id in playable(es, seq[:i]) & own:
            rest = seq[i:]
            discharged = any(
                later == event_id or es.in_conflict(later, event_id) for later in rest
            )
            if not discharged:
                return False
    return True


def culpable_at_end(play, participant: str, es: EventStructureGen) -> bool:
    """Final-state characterisation: culpable iff some own event is playable
    at the end of the play.  Agrees with :func:`innocent` on saturated
    structures because satisfied premises stay satisfied as history grows."""
    seq = assert_play(es, play)
    return bool(playable(es, seq) & es.events_of(participant))


def payoff_holds(contract: Contract, participant: str, play) -> bool:
    if participant not in contract.payoffs:
        raise ValueError(f"no payoff defined for {participant}")
    history = set(play)
    return any(
        event.id in history and event.label.is_tick
        for event in contract.es.events
        if event.participant == participant
    )


def winning_play(play, participant: str, contract: Contract) -> bool:
    """Win with a payoff when everyone is innocent, or by being innocent
    while someone else is culpable."""
    seq = assert_play(contract.es, play)
    if participant not in contract.payoffs:
        raise ValueError(f"no payoff defined for {participant}")
    everyone = sorted(contract.participants())
    guilty = [p for p in everyone if not innocent(seq, p, contract.es)]
    if not guilty:
        return payoff_holds(contract, participant, seq)
    return participant not in guilty


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GameVerdict:
    participant: str
    strategy: str  # "eager" | "synthesized"
    winning: bool
    counterexample: tuple[str, ...] | None = None
    bounded_depth: int | None = None

    def to_json(self) -> dict:
        return {
            "participant": self.participant,
            "strategy": self.strategy,
            "winning": self.winning,
            "counterexample": list(self.counterexample) if self.counterexample is not None else None,
            "bounded_depth": self.bounded_depth,
        }


def _arena(contract: Contract, participant: str) -> tuple[PlayIndex, int, int]:
    """The structure's play index and the masks of the owner's events and
    of the owner's ``✓`` events."""
    if participant not in contract.payoffs:
        raise ValueError(f"no payoff defined for {participant}")
    es = contract.es
    index = es.play_index
    own = index.mask(es.events_of(participant))
    ticks = index.mask(e.id for e in es.events if e.participant == participant and e.label.is_tick)
    return index, own, ticks


def eager_winning(contract: Contract, participant: str) -> GameVerdict:
    """Does playing every enabled own event win every fair play?

    Explores all plays (every play conforms to the eager strategy); at each
    point where the owner has nothing playable, the play may fairly stop
    and must then be winning.  Returns the first losing stopping point as a
    counterexample, found depth-first in sorted event order, the owner's
    moves first.
    """
    index, own, ticks = _arena(contract, participant)
    safe: set[int] = set()

    def search(fired: int, moves: int, trail: tuple[str, ...]):
        # with no own move the play may stop; anyone with a move is then
        # culpable, so only a maximal play without the payoff loses
        if not moves and not fired & ticks:
            return trail
        for move in index.members(moves & own) + index.members(moves & ~own):
            bit = index.bit[move]
            nxt = fired | bit
            if nxt in safe:
                continue
            failure = search(nxt, index.step(fired, moves, bit), trail + (move,))
            if failure is not None:
                return failure
        safe.add(fired)
        return None

    failure = search(0, index.initial, ())
    return GameVerdict(
        participant, "eager",
        winning=failure is None,
        counterexample=failure,
        bounded_depth=contract.bounded_depth,
    )


def strategy_failures(contract: Contract, strategy: Strategy):
    """The first fair conforming play the strategy's owner loses, as a
    one-element list; empty when the strategy wins.

    Walks the conforming play tree literally (prescriptions may depend on
    the whole prefix), stopping wherever the prescription is empty.
    """
    participant = strategy.participant
    failures: list[tuple[str, ...]] = []

    def walk(prefix: tuple[str, ...]) -> None:
        if failures:
            return
        prescription = prescribed(strategy, contract, prefix)
        others = sorted(
            frozenset(playable(contract.es, prefix))
            - contract.es.events_of(participant),
            key=id_sort_key,
        )
        if not prescription and not winning_play(prefix, participant, contract):
            failures.append(prefix)
            return
        for move in sorted(prescription, key=id_sort_key) + others:
            walk(prefix + (move,))

    walk(())
    return failures


def find_winning_strategy(contract: Contract, participant: str) -> ExplicitStrategy | None:
    """Search all strategies for a winning one.

    At each state the owner either stops (legal only if the stop wins) or
    prescribes one playable event; every opposing move must stay winning
    regardless.  A single prescribed event per state suffices: prescribing
    more only adds proof obligations.  Memoisation is on the configuration
    reached, which fixes everything the win predicates depend on.
    """
    index, own, ticks = _arena(contract, participant)
    memo: dict[int, str | None] = {}

    def win_after(fired: int, moves: int, move: str) -> str | None:
        """:func:`win` at the configuration ``move`` leads to."""
        bit = index.bit[move]
        nxt = fired | bit
        if nxt in memo:
            return memo[nxt]
        return win(nxt, index.step(fired, moves, bit))

    def win(fired: int, moves: int) -> str | None:
        """None when the owner loses, else the winning move ('' = stop)."""
        result = None
        if all(win_after(fired, moves, move) is not None for move in index.members(moves & ~own)):
            # a stop wins when someone else is culpable or the play is
            # maximal with the owner's payoff
            if not moves & own and (moves or fired & ticks):
                result = ""
            else:
                result = next(
                    (move for move in index.members(moves & own)
                     if win_after(fired, moves, move) is not None),
                    None,
                )
        memo[fired] = result
        return result

    if win(0, index.initial) is None:
        return None

    # replay the winning policy over every conforming play to print a table;
    # a won configuration's opponent moves and chosen move were all decided
    table: dict[tuple[str, ...], frozenset[str]] = {}

    def replay(fired: int, moves: int, prefix: tuple[str, ...]) -> None:
        choice = memo[fired]
        prescription = [choice] if choice else []
        table[prefix] = frozenset(prescription)
        for move in prescription + index.members(moves & ~own):
            bit = index.bit[move]
            replay(fired | bit, index.step(fired, moves, bit), prefix + (move,))

    replay(0, index.initial, ())
    return ExplicitStrategy(participant, table)
