"""Contracts over event structures and the multi-player obligation game.

A contract pairs an event structure with its participants, each paid by
success: a finite play pays a participant when it contains one of their
``✓`` events (infinite plays always pay, but finite structures only admit
finite plays).  Plays are sequences of distinct events, each one playable
after its predecessors.  A strategy maps each play to a set of the
owner's playable events; the eager strategy prescribes all of them.

A finite play is fair for a strategy exactly when the final prescription is
empty, so the game engine treats every empty-prescription point as a
possible stop, including stops where other participants still have enabled
events; whoever still has a playable event at a stop is culpable there.

The engine's play state is the configuration reached, a bitmask over the
original structure (:class:`~stgames.estructure.PlayIndex`): what is left
to play depends only on the fired events, and the owner has succeeded
exactly when one of their ``✓`` events fired.  Both games are backward
passes over the structure's :class:`~stgames.estructure.Arena` at
``DEFAULT_STATE_LIMIT``, which ``ets`` also reads.  On a truncated arena
only a losing stop inside it is exact; else :class:`StateLimitError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .denote import DEFAULT_UNROLL_DEPTH, _compile, _par
from .estructure import Arena, EventStructureGen, id_sort_key, playable
from .lts import DEFAULT_STATE_LIMIT
from .syntax import SessionType, assert_valid


@dataclass(frozen=True)
class Contract:
    """An event structure plus the participants its success payoff pays.

    Every participant who could ever be obliged (owns the target of some
    enabling) must be named.  ``bounded_depth`` is the unrolling bound
    when the compile walk cut a recursion: the structure is then only an
    approximant, and verdicts derived from it are exact up to that bound.
    """

    es: EventStructureGen
    participants: frozenset[str] = frozenset()
    bounded_depth: int | None = None

    def __post_init__(self) -> None:
        obliged = {self.es.event(target).participant for _, _, target in self.es.enablings}
        missing = obliged - self.participants
        if missing:
            raise ValueError(f"participants with obligations but no payoff: {sorted(missing)}")


def compose_session_contracts(p: SessionType, a: str, q: SessionType, b: str,
                              unroll_depth: int = DEFAULT_UNROLL_DEPTH) -> Contract:
    """The game arena for a client type ``p`` of ``a`` against server ``q`` of ``b``.

    The event structure is :func:`~stgames.denote.denote_par` of the two
    types, from the same two compile walks and one composition; each type
    is validated once, here.  The result carries the unrolling bound when
    either walk cut a recursion, which is when the denotations are only
    approximants.
    """
    if a == b:
        raise ValueError("the two endpoints must belong to distinct participants")
    assert_valid(p, "client type")
    assert_valid(q, "server type")
    left = _compile(p, a, unroll_depth, "odd")
    right = _compile(q, b, unroll_depth, "even")
    bounded = unroll_depth if left.cut or right.cut else None
    return Contract(_par(left, right), frozenset({a, b}), bounded)


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
        """The rows by prefix, each compared id by id in :func:`id_sort_key` order."""
        return [
            {"prefix": list(prefix), "prescribe": sorted(events, key=id_sort_key)}
            for prefix, events in sorted(self.table.items(),
                                         key=lambda row: tuple(map(id_sort_key, row[0])))
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
    if participant not in contract.participants:
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
    if participant not in contract.participants:
        raise ValueError(f"no payoff defined for {participant}")
    everyone = sorted(contract.es.participants() | contract.participants)
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
    winning: bool
    counterexample: tuple[str, ...] | None = None
    bounded_depth: int | None = None

    def to_json(self) -> dict:
        return {
            "participant": self.participant,
            "strategy": "eager",  # `agree --strategy search` writes its own payload
            "winning": self.winning,
            "counterexample": list(self.counterexample) if self.counterexample is not None else None,
            "bounded_depth": self.bounded_depth,
        }


class StateLimitError(ValueError):
    """The game arena reached the state limit before a verdict was exact."""

    def __init__(self, limit: int) -> None:
        super().__init__(f"the game arena exceeds the state limit of {limit} configurations")


def _explored(contract: Contract, participant: str) -> tuple[Arena, dict[str, int], int, int]:
    """The contract's arena at ``DEFAULT_STATE_LIMIT``, each event's bit and
    the masks of the owner's events and of the owner's ``✓`` events."""
    if participant not in contract.participants:
        raise ValueError(f"no payoff defined for {participant}")
    es = contract.es
    index = es.play_index
    bit = index.bit
    own = ticks = 0
    for event in es.events:
        if event.participant == participant:
            own |= bit[event.id]
            if event.label.is_tick:
                ticks |= bit[event.id]
    return es.arena(DEFAULT_STATE_LIMIT), bit, own, ticks


def eager_winning(contract: Contract, participant: str) -> GameVerdict:
    """Does playing every enabled own event win every fair play?

    Every play conforms to the eager strategy, and may stop wherever the
    owner has no move; anyone with a move is then culpable, so only a
    maximal configuration without the payoff loses.  The pass marks where
    such a stop can be reached; the counterexample takes the first marked
    move, the owner's first and each group in sorted order.
    """
    arena, bit, own, ticks = _explored(contract, participant)
    fired, moves, successors = arena.fired, arena.moves, arena.successors
    lost = [False] * len(fired)
    for i in range(len(fired) - 1, -1, -1):
        lost[i] = any(lost[j] for _, j in successors[i]) if moves[i] else not fired[i] & ticks
    if arena.truncated and not lost[0]:
        raise StateLimitError(DEFAULT_STATE_LIMIT)
    trail, i = [], 0
    while lost[i] and moves[i]:  # a marked configuration without moves is a losing stop
        # a stable sort puts the owner's moves first, each group in order
        owner_first = sorted(successors[i], key=lambda edge: not bit[edge[0]] & own)
        move, i = next(edge for edge in owner_first if lost[edge[1]])
        trail.append(move)
    return GameVerdict(participant, not lost[0], tuple(trail) if lost[0] else None,
                       contract.bounded_depth)


def strategy_failures(contract: Contract, strategy: Strategy):
    """The first fair conforming play the strategy's owner loses, as a
    one-element list; empty when the strategy wins.

    Walks the conforming play tree literally (prescriptions may depend on
    the whole prefix), depth-first in prescription-then-sorted order,
    stopping wherever the prescription is empty.
    """
    participant = strategy.participant
    stack: list[tuple[str, ...]] = [()]
    while stack:
        prefix = stack.pop()
        prescription = prescribed(strategy, contract, prefix)
        if not prescription and not winning_play(prefix, participant, contract):
            return [prefix]
        others = sorted(playable(contract.es, prefix) - contract.es.events_of(participant), key=id_sort_key)
        moves = sorted(prescription, key=id_sort_key) + others
        stack.extend(prefix + (move,) for move in reversed(moves))
    return []


def find_winning_strategy(contract: Contract, participant: str) -> ExplicitStrategy | None:
    """Search all strategies for a winning one.

    At each state the owner either stops (legal only if the stop wins) or
    prescribes one playable event; every opposing move must stay winning
    regardless.  A single prescribed event per state suffices: prescribing
    more only adds proof obligations.  The configuration reached fixes all
    the win predicates read, so one backward pass over a complete arena
    decides every choice; a truncated arena is a :class:`StateLimitError`.
    """
    arena, bit, own, ticks = _explored(contract, participant)
    if arena.truncated:
        raise StateLimitError(DEFAULT_STATE_LIMIT)
    fired, moves, successors = arena.fired, arena.moves, arena.successors
    # None where the owner loses, else the winning move ('' = stop)
    choice: list[str | None] = [None] * len(fired)
    for i in range(len(fired) - 1, -1, -1):
        won = None  # the first own move to a won configuration
        for move, j in successors[i]:
            if bit[move] & own:
                if won is None and choice[j] is not None:
                    won = move
            elif choice[j] is None:
                break  # an opponent move leads to a loss
        else:
            # a stop wins when someone else is culpable or the play is
            # maximal with the owner's payoff
            choice[i] = "" if not moves[i] & own and (moves[i] or fired[i] & ticks) else won
    if choice[0] is None:
        return None

    # replay the winning policy over every conforming play to print a table;
    # a won configuration's opponent moves and chosen move all lead to won ones
    table: dict[tuple[str, ...], frozenset[str]] = {}
    stack: list[tuple[int, tuple[str, ...]]] = [(0, ())]
    while stack:
        i, prefix = stack.pop()
        chosen = choice[i]
        table[prefix] = frozenset([chosen] if chosen else ())
        for move, j in successors[i]:
            if move == chosen or not bit[move] & own:
                stack.append((j, prefix + (move,)))
    return ExplicitStrategy(participant, table)
