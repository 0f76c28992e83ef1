"""Shared fixtures and independent oracles.

The oracles here recompute the library's answers from first principles:
the enabling relation is materialised as an explicit set, the remainder
and ordering are evaluated on those sets, and the game search is replayed
over raw play trees without memoisation.  Tests freeze expected values
computed by these oracles; the oracles never call the code paths they
check.  The reference game engine plays on rebuilt remainders memoised by
canonical key, the design the configuration-indexed engine replaced.  The
depth-first eager search and strategy search, each memoised on the
configuration, and the breadth-first ``ets`` each explore the
configurations on their own, the design the shared arena and its backward
passes replaced.  The
reference compiler builds and validates a structure at every syntax node
and numbers positions by path in a walk of its own, the designs the
single-walk compiler and its running ordinals replaced.  The reference composition
treats output and input targets in separate loops, the design the one
partner rule replaced.  The reference playability
rule scans every generator of every event, the design the per-event
update replaced.  The reference explorer prints every successor
configuration from scratch with its own printer, the design that printed
forms kept on the terms replaced, over the step relations as they were
before they dispatched on constructors and printed the terms they build,
and keeps a configuration per state, the design the explorer's one state
table replaced.
The reference JSON writer orders with
``id_sort_key`` inside every sort and encodes with ``json.dumps(indent=2)``,
the design the rank table and the fixed-layout writer replaced.  The
reference bisimulation re-signs every state in every refinement round,
the design the worklist refinement replaced.  The reference parser
tokenizes the whole text with a per-character loop into ``(kind, value,
position)`` tuples and wraps every prefix in a one-branch choice before a
choice unwraps it, the design the string-token descent replaced.  The
reference truncation unrolls a recursion through a nested closure, one
call per approximant, the design the loop replaced, and ends it in its own
empty choice.  The reference term
folds (validation, free variables and event counts) each
descend recursively with a scope of their own, the design the one scoped
walk replaced.  The reference corpus generator builds each node's kind and
weight lists afresh and makes a label per branch, and the reference dual a
co-label per branch, the design the kind table and the one label per name
and polarity that ``out`` and ``inp`` return replaced.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product

import pytest

from stgames.estructure import (
    EMPTY_ES,
    Event,
    EventStructureGen,
    canonical_key,
    id_sort_key,
    make_es,
    remainder,
)
from stgames.opsem import Configuration, _Exploration
from stgames.syntax import (
    IDENT_RE,
    INPUT,
    OUTPUT,
    SUCCESS,
    TICK,
    TICK_NAME,
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
)

# ---------------------------------------------------------------------------
# Worked-example fixtures
# ---------------------------------------------------------------------------

EXAMPLE_CLIENT = "!a (+) !b.!a"
EXAMPLE_SERVER = "?a.?b + ?b.?a + ?c"
PAYCASH_P = "!payCash (+) !payCC"
PAYCASH_Q = "?payCash"
COUNTER_P = "!a.!c (+) !b"
COUNTER_Q = "?a + ?b"

# The recursive families of the deep-unroll benchmark, each up to the deepest
# unroll depth it is run at there.
DEEP_FAMILIES = (
    ("rec x . (!a.!b.x (+) !c)", 12),
    ("rec x . (!a.(?b.x + ?c) (+) !d)", 12),
    ("rec x . !a.x", 12),
    ("rec x . (!a.x (+) !b.x)", 6),
)


# ---------------------------------------------------------------------------
# Saturation oracle
# ---------------------------------------------------------------------------

def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def conflict_free_raw(conflicts: frozenset[frozenset[str]], ids) -> bool:
    ids = list(ids)
    return not any(frozenset((a, b)) in conflicts for a, b in combinations(ids, 2))


def saturate(es: EventStructureGen) -> frozenset[tuple[frozenset[str], str]]:
    """Materialise the saturated enabling relation as an explicit set.

    Contains (X, e) for every conflict-free X ⊆ events such that some
    generator premise for e is inside X.  Exponential; small inputs only.
    """
    ids = sorted(e.id for e in es.events)
    out_set = set()
    for subset in powerset(ids):
        x = frozenset(subset)
        if not conflict_free_raw(es.conflicts, x):
            continue
        for premise, target in es.gens:
            if premise <= x:
                out_set.add((x, target))
    return frozenset(out_set)


def remainder_on_saturated(es: EventStructureGen, event_id: str):
    """The remainder construction applied literally to the materialised
    relation; returns (ids, conflicts, saturated enablings, labels)."""
    sat = saturate(es)
    dead = {event_id} | {other for other in es.event_ids if es.in_conflict(other, event_id)}
    ids = frozenset(es.event_ids) - dead
    conflicts = frozenset(pair for pair in es.conflicts if pair <= ids)
    kept = set()
    for x, target in sat:
        if target == event_id or es.in_conflict(target, event_id):
            continue
        if not conflict_free_raw(es.conflicts, x | {event_id}):
            continue
        kept.add((x - {event_id}, target))
    labels = {eid: es.label_of(eid) for eid in ids}
    return ids, conflicts, frozenset(kept), labels


def es_leq_oracle(small: EventStructureGen, big: EventStructureGen) -> bool:
    """The ordering evaluated literally on materialised relations."""
    small_ids = frozenset(small.event_ids)
    if not small_ids <= frozenset(big.event_ids):
        return False
    for eid in small_ids:
        a, b = small.event(eid), big.event(eid)
        if a.label != b.label or a.participant != b.participant:
            return False
    if not small.conflicts <= big.conflicts:
        return False
    for pair in big.conflicts:
        if pair <= small_ids and pair not in small.conflicts:
            return False
    sat_small, sat_big = saturate(small), saturate(big)
    if not sat_small <= sat_big:
        return False
    for x, target in sat_big:
        if target in small_ids and x <= small_ids and (x, target) not in sat_small:
            return False
    return True


# ---------------------------------------------------------------------------
# Small event-structure families
# ---------------------------------------------------------------------------

_LABEL_POOL = (out("a"), inp("a"), out("b"), inp("b"), TICK)


def exhaustive_tiny_structures():
    """Every event structure over two fixed events (all conflict and
    generator choices); the one-event and empty cases come for free."""
    events = (Event("e1", "A", out("a")), Event("e2", "B", inp("a")))
    ids = tuple(e.id for e in events)
    all_premises = [frozenset(s) for s in powerset(ids)]
    possible_gens = [(premise, target) for premise in all_premises for target in ids]
    structures = [make_es(())]
    for conflict in ((), (("e1", "e2"),)):
        for gen_subset in powerset(possible_gens):
            structures.append(make_es(events, conflict, gen_subset))
    return structures


def random_structure(rng: random.Random, max_events: int = 6) -> EventStructureGen:
    count = rng.randint(1, max_events)
    events = []
    for i in range(count):
        participant = "A" if i % 2 == 0 else "B"
        events.append(Event(f"e{i + 1}", participant, rng.choice(_LABEL_POOL)))
    ids = [e.id for e in events]
    conflicts = set()
    for a, b in combinations(ids, 2):
        if rng.random() < 0.25:
            conflicts.add((a, b))
    gens = set()
    for target in ids:
        for _ in range(rng.randint(0, 2)):
            size = rng.randint(0, min(3, count - 1))
            premise = frozenset(rng.sample([i for i in ids if i != target], size))
            gens.add((premise, target))
    return make_es(events, conflicts, gens)


def random_partner_structure(rng: random.Random, max_events: int = 6) -> EventStructureGen:
    """A structure built with :class:`EventStructureGen` directly, whose
    enablings carry one to three partner sets each: members are drawn from
    every event but the target, one member may repeat a premise event, and
    two members of a set may be made to conflict.  Plain enablings, ``e1``'s
    with an empty premise, start the plays."""
    events = [Event(f"e{i}", "AB"[(i - 1) % 2], rng.choice(_LABEL_POOL))
              for i in range(1, rng.randint(3, max_events) + 1)]
    ids = [e.id for e in events]
    conflicts = {frozenset(pair) for pair in combinations(ids, 2) if rng.random() < 0.15}
    enablings = set()
    for target in ids:
        others = [eid for eid in ids if eid != target]
        if target == "e1" or rng.random() < 0.4:
            enablings.add((frozenset(rng.sample(others, rng.randint(0, target != "e1"))), frozenset(), target))
        for _ in range(rng.randint(0, 2)):
            premise = frozenset(rng.sample(others, rng.randint(0, 2)))
            partner_sets = set()
            for _ in range(rng.randint(1, 3)):
                members = rng.sample(others, rng.randint(2, min(3, len(others))))
                if premise and rng.random() < 0.5:
                    members.append(rng.choice(sorted(premise)))
                if rng.random() < 0.3:
                    conflicts.add(frozenset(members[:2]))
                partner_sets.add(frozenset(members))
            enablings.add((premise, frozenset(partner_sets), target))
    return EventStructureGen(frozenset(events), frozenset(conflicts), frozenset(enablings))


def partner_structures(count: int = 200) -> list[EventStructureGen]:
    """The first ``count`` of one seeded sequence of :func:`random_partner_structure`."""
    rng = random.Random(7310)
    return [random_partner_structure(rng) for _ in range(count)]


@pytest.fixture(scope="session")
def small_structures():
    """The exhaustive two-event family plus a seeded sample up to six events."""
    rng = random.Random(20240)
    sampled = [random_structure(rng) for _ in range(300)]
    return exhaustive_tiny_structures() + sampled


def frame_depth() -> int:
    """The number of frames on the stack, this call's own included."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def acceptance_spec(family: str):
    """The first 100 seed-42 finite pairs or the first 20 seed-42 recursive
    pairs at unroll depth 4."""
    from stgames.harness import CorpusSpec

    if family == "finite":
        return CorpusSpec(seed=42, count=100)
    return CorpusSpec(seed=42, count=20, allow_recursion=True, unroll_depth=4)


@lru_cache(maxsize=None)
def acceptance_pairs(family: str):
    from stgames.harness import corpus_pair

    spec = acceptance_spec(family)
    return tuple(corpus_pair(spec, index) for index in range(spec.count))


# nested recursion; at unroll depth 3 its pair 115 expands to 81,072,114
# generators, too many for the reference composition
def nested_spec(count: int = 150):
    from stgames.harness import CorpusSpec

    return CorpusSpec(seed=1001, count=count, max_depth=5, allow_recursion=True, unroll_depth=2)


def oracle_cases(kind: str, count: int = 150):
    """``(client, server, unroll depth)`` triples: both seed-42 acceptance
    corpora in full (``finite``, ``recursive``), every ``DEEP_FAMILIES``
    member against its dual at each depth up to its deepest (``families``),
    or the first ``count`` seed-1001 nested-recursion pairs (``nested``)."""
    from stgames.harness import CorpusSpec, corpus_pair, dual

    if kind == "families":
        for source, deepest in DEEP_FAMILIES:
            client = parse(source)
            for depth in range(deepest + 1):
                yield client, dual(client), depth
        return
    spec = {
        "finite": CorpusSpec(seed=42, count=500, max_depth=3, max_branch=3),
        "recursive": CorpusSpec(seed=42, count=100, max_depth=3, max_branch=3,
                                allow_recursion=True, unroll_depth=4),
        "nested": nested_spec(count),
    }[kind]
    for index in range(spec.count):
        yield *corpus_pair(spec, index), spec.unroll_depth


@lru_cache(maxsize=None)
def large_pairs():
    """Pairs in the style of the check-large benchmark: generated types of up
    to 3k characters, up to 643 states, against their duals and against a corpus partner, which
    is a perturbed dual half of the time."""
    from stgames.harness import CorpusSpec, corpus_pair, dual

    pairs = []
    for recursive in (False, True):
        spec = CorpusSpec(seed=5, count=4, max_depth=8, max_branch=4,
                          allow_recursion=recursive, actions=tuple("abcdef"))
        for index in range(spec.count):
            client, server = corpus_pair(spec, index)
            pairs += [(client, server), (client, dual(client))]
    return tuple(pairs)


@lru_cache(maxsize=None)
def acceptance_contracts(family: str):
    """The composed contracts of ``acceptance_pairs(family)``."""
    from stgames.game import compose_session_contracts

    depth = acceptance_spec(family).unroll_depth
    return tuple(compose_session_contracts(p, "A", q, "B", depth) for p, q in acceptance_pairs(family))


# ---------------------------------------------------------------------------
# Reference JSON writer: id_sort_key in every sort, then json.dumps
# ---------------------------------------------------------------------------

def reference_es_to_json(es: EventStructureGen) -> str:
    data = {
        "events": [
            {"id": e.id, "participant": e.participant, "label": str(e.label)}
            for e in sorted(es.events, key=lambda e: id_sort_key(e.id))
        ],
        "conflicts": sorted(sorted(pair, key=id_sort_key) for pair in es.conflicts),
        "enablings": sorted(
            (
                {"premise": sorted(premise, key=id_sort_key), "target": target}
                for premise, target in es.gens
            ),
            key=lambda g: (id_sort_key(g["target"]), g["premise"]),
        ),
    }
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False)


# ---------------------------------------------------------------------------
# Reference playability: scan every generator
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _scan_rules(es: EventStructureGen):
    """(bit, bit | conflict mask, premise masks) for every event with a
    generator, over ``es.play_index``'s bits; an event without a generator
    is never playable."""
    index = es.play_index
    return tuple(
        (
            index.bit[eid],
            index.bit[eid] | index.mask(es.conflicts_of(eid)),
            tuple(index.mask(premise) for premise in es.premises_of(eid)),
        )
        for eid in index.ids
        if es.premises_of(eid)
    )


def reference_playable(es: EventStructureGen, fired: int) -> int:
    """The playable events at configuration ``fired`` by a full scan: an
    event can extend it when it has not fired, conflicts with nothing fired,
    and some generator premise of it has fully fired."""
    out_mask = 0
    for bit, blocked, premises in _scan_rules(es):
        if not fired & blocked and any(not premise & ~fired for premise in premises):
            out_mask |= bit
    return out_mask


# ---------------------------------------------------------------------------
# Game oracles
# ---------------------------------------------------------------------------

def all_plays(es: EventStructureGen, prefix=()):
    """Every play of a finite structure, by raw playability."""
    from stgames.estructure import playable

    yield tuple(prefix)
    for event_id in sorted(playable(es, prefix)):
        yield from all_plays(es, tuple(prefix) + (event_id,))


def brute_force_agreement(contract, participant) -> bool:
    """Winning-strategy existence decided on the literal play tree.

    No memoisation and no remainder states: at each play prefix the owner
    either stops (the stop must then be a winning play) or commits to one
    playable own event, and every opposing extension must stay winnable.
    """
    from stgames.estructure import playable
    from stgames.game import winning_play

    es = contract.es
    own_ids = es.events_of(participant)

    def win(prefix: tuple[str, ...]) -> bool:
        moves = playable(es, prefix)
        opponent_moves = sorted(moves - own_ids)
        if not all(win(prefix + (move,)) for move in opponent_moves):
            return False
        if winning_play(prefix, participant, contract):
            return True
        return any(win(prefix + (move,)) for move in sorted(moves & own_ids))

    return win(())


# ---------------------------------------------------------------------------
# Reference game engine: remainder states memoised by canonical key
# ---------------------------------------------------------------------------

def _reference_arena(contract, participant):
    """Owner moves, opponent moves and the stop-win check on a remainder.

    A remainder's initial events are the targets of its empty premises, so
    this never calls ``playable``."""
    own = contract.es.events_of(participant)
    ticks = frozenset(
        e.id for e in contract.es.events if e.participant == participant and e.label.is_tick
    )

    def moves(es):
        ready = frozenset(target for premise, target in es.gens if not premise)
        return sorted(ready & own, key=id_sort_key), sorted(ready - own, key=id_sort_key)

    def stop_wins(es, succeeded):
        mine, others = moves(es)
        return not mine and (bool(others) or succeeded)

    return ticks, moves, stop_wins


def reference_eager_winning(contract, participant):
    from stgames.game import GameVerdict

    ticks, moves, stop_wins = _reference_arena(contract, participant)
    safe = set()

    def search(es, succeeded, trail):
        key = (canonical_key(es), succeeded)
        if key in safe:
            return None
        mine, others = moves(es)
        if not mine and not stop_wins(es, succeeded):
            return trail
        for move in mine + others:
            failure = search(remainder(es, move), succeeded or move in ticks, trail + (move,))
            if failure is not None:
                return failure
        safe.add(key)
        return None

    failure = search(contract.es, False, ())
    return GameVerdict(participant, failure is None, failure, contract.bounded_depth)


def reference_find_winning_strategy(contract, participant):
    from stgames.game import ExplicitStrategy

    ticks, moves, stop_wins = _reference_arena(contract, participant)
    memo = {}

    def win(es, succeeded):
        """False, or the winning move ('' = stop)."""
        key = (canonical_key(es), succeeded)
        if key not in memo:
            mine, others = moves(es)
            result = False
            if all(win(remainder(es, move), succeeded) is not False for move in others):
                if stop_wins(es, succeeded):
                    result = ""
                else:
                    result = next(
                        (move for move in mine
                         if win(remainder(es, move), succeeded or move in ticks) is not False),
                        False,
                    )
            memo[key] = result
        return memo[key]

    if win(contract.es, False) is False:
        return None
    table = {}

    def replay(es, succeeded, prefix):
        choice = win(es, succeeded)
        prescription = [choice] if choice else []
        table[prefix] = frozenset(prescription)
        for move in prescription + moves(es)[1]:
            replay(remainder(es, move), succeeded or move in ticks, prefix + (move,))

    replay(contract.es, False, ())
    return ExplicitStrategy(participant, table)


# ---------------------------------------------------------------------------
# Per-engine explorations: depth-first games and a breadth-first ets
# ---------------------------------------------------------------------------

def _dfs_masks(contract, participant):
    if participant not in contract.participants:
        raise ValueError(f"no payoff defined for {participant}")
    es = contract.es
    index = es.play_index
    own = index.mask(es.events_of(participant))
    ticks = index.mask(e.id for e in es.events if e.participant == participant and e.label.is_tick)
    return index, own, ticks


def dfs_eager_winning(contract, participant):
    """Eager checking as a memoised depth-first search of the plays from the
    empty configuration, the owner's moves first, each group in sorted
    order; the first losing stop found is the counterexample."""
    from stgames.game import GameVerdict

    index, own, ticks = _dfs_masks(contract, participant)
    safe: set[int] = set()

    def search(fired, moves, trail):
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
    return GameVerdict(participant, failure is None, failure, contract.bounded_depth)


def dfs_find_winning_strategy(contract, participant):
    """Strategy search as a depth-first recursion memoised on the
    configuration, then a recursive replay of the choices into a table."""
    from stgames.game import ExplicitStrategy

    index, own, ticks = _dfs_masks(contract, participant)
    memo: dict[int, str | None] = {}

    def win_after(fired, moves, move):
        bit = index.bit[move]
        nxt = fired | bit
        if nxt in memo:
            return memo[nxt]
        return win(nxt, index.step(fired, moves, bit))

    def win(fired, moves):
        result = None
        if all(win_after(fired, moves, move) is not None for move in index.members(moves & ~own)):
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
    table = {}

    def replay(fired, moves, prefix):
        choice = memo[fired]
        prescription = [choice] if choice else []
        table[prefix] = frozenset(prescription)
        for move in prescription + index.members(moves & ~own):
            bit = index.bit[move]
            replay(fired | bit, index.step(fired, moves, bit), prefix + (move,))

    replay(0, index.initial, ())
    return ExplicitStrategy(participant, table)


def bfs_ets(es, step_bound=10**5, relabel=False):
    """The event-labelled system by a breadth-first search of its own,
    naming each configuration as it is discovered."""
    from collections import deque

    from stgames.lts import Lts

    index = es.play_index
    labels = {eid: str(es.label_of(eid)) if relabel else eid for eid in index.ids}
    names = {0: "{}"}
    edges = set()
    truncated = False
    queue = deque([(0, index.initial)])
    while queue:
        fired, moves = queue.popleft()
        for event_id in index.members(moves):
            bit = index.bit[event_id]
            nxt = fired | bit
            if nxt not in names:
                if len(names) >= step_bound:
                    truncated = True
                    continue
                names[nxt] = "{" + ",".join(index.members(nxt)) + "}"
                queue.append((nxt, index.step(fired, moves, bit)))
            edges.add((names[fired], labels[event_id], names[nxt]))
    return Lts(frozenset(names.values()), "{}", frozenset(edges), truncated)


# ---------------------------------------------------------------------------
# Reference parser: a character loop into token tuples, every prefix wrapped
# ---------------------------------------------------------------------------

def reference_parse(text: str) -> SessionType:
    return _ReferenceParser(text).parse()


def choice(kind: str, branches) -> SessionType:
    cls = InternalChoice if kind == OUTPUT else ExternalChoice
    return cls(tuple(branches))


def _reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        if text.startswith("(+)", i):
            tokens.append(("iop", "(+)", i))
            i += 3
            continue
        ch = text[i]
        if ch == "(":
            tokens.append(("lpar", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(("rpar", ch, i))
            i += 1
        elif ch == "+":
            tokens.append(("eop", ch, i))
            i += 1
        elif ch == ".":
            tokens.append(("dot", ch, i))
            i += 1
        elif ch == "!":
            tokens.append(("bang", ch, i))
            i += 1
        elif ch == "?":
            tokens.append(("query", ch, i))
            i += 1
        elif ch == "1":
            tokens.append(("one", ch, i))
            i += 1
        else:
            m = IDENT_RE.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {ch!r}", i)
            tokens.append(("ident", m.group(), i))
            i = m.end()
    tokens.append(("eof", "", n))
    return tokens


class _ReferenceParser:
    """Recursive descent over the grammar.

    ``rec x . P`` takes the longest possible body; prefix continuations bind
    tightly (a choice or rec continuation must be parenthesised); a choice
    level is homogeneous, so mixing ``(+)`` and ``+`` is a parse error.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _reference_tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> SessionType:
        term = self.parse_term()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return term

    def parse_term(self) -> SessionType:
        kind, value, at = self.peek()
        if kind == "ident" and value == "rec":
            self.next()
            var = self.expect("ident")[1]
            self.expect("dot")
            body = self.parse_term()
            return Rec(var, body)
        return self.parse_choice()

    def parse_choice(self) -> SessionType:
        first_at = self.peek()[2]
        first = self.parse_atom()
        op: str | None = None
        parts = [first]
        while self.peek()[0] in ("iop", "eop"):
            kind, value, at = self.next()
            if op is None:
                op = kind
            elif op != kind:
                raise ParseError("cannot mix '(+)' and '+' in one choice", at)
            parts.append(self.parse_atom())
        if op is None:
            return first
        polarity = OUTPUT if op == "iop" else INPUT
        branches: list[tuple[ActionLabel, SessionType]] = []
        for part in parts:
            branch = _reference_as_branch(part, polarity)
            if branch is None:
                raise ParseError(
                    "choice branches must be action prefixes of matching polarity", first_at
                )
            branches.append(branch)
        return choice(polarity, branches)

    def parse_atom(self) -> SessionType:
        kind, value, at = self.next()
        if kind == "one":
            return SUCCESS
        if kind == "lpar":
            inner = self.parse_term()
            self.expect("rpar")
            return inner
        if kind in ("bang", "query"):
            polarity = OUTPUT if kind == "bang" else INPUT
            name = self.expect("ident")[1]
            cont: SessionType = SUCCESS
            if self.peek()[0] == "dot":
                self.next()
                cont = self.parse_atom()
            return choice(polarity, [(ActionLabel(name, polarity), cont)])
        if kind == "ident":
            if value == "rec":
                raise ParseError("'rec' must start a term (parenthesise it here)", at)
            return Var(value)
        raise ParseError(f"unexpected token {value!r}", at)


def _reference_as_branch(term: SessionType, polarity: str) -> tuple[ActionLabel, SessionType] | None:
    """A choice operand must be a one-branch choice of the same polarity."""
    cls = InternalChoice if polarity == OUTPUT else ExternalChoice
    if isinstance(term, cls) and len(term.branches) == 1:
        return term.branches[0]
    return None


# ---------------------------------------------------------------------------
# Reference compiler: one structure per syntax node
# ---------------------------------------------------------------------------

def reference_positions(term):
    """Pre-order ordinals for event positions and for variable occurrences,
    keyed by the path from the root: the numbering the compile walk now
    keeps as it goes."""
    events, variables = {}, {}
    counter = var_counter = 0

    def walk(t, path):
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

    walk(term, ())
    return events, variables


def reference_denote(term, who, unroll_depth=6, parity="odd"):
    """Compile as the per-node compiler did: each prefix copies its compiled
    continuation, each choice unions its branches, and a recursion variable
    is a closure that unrolls one copy deeper.  Event positions are numbered
    by path (:func:`reference_positions`)."""
    from stgames.denote import PARITY_START, DenoteError

    positions, var_positions = reference_positions(term)
    start = PARITY_START[parity]

    def event_id(path, copy):
        return f"e{start + 2 * positions[path]}" + "".join(f"@{k}" for k in copy)

    def prefix(event, cont):
        if event.id in cont.event_ids:
            raise DenoteError(f"event id {event.id} already used")
        gens = {(frozenset(), event.id)} | {
            (premise or frozenset({event.id}), target) for premise, target in cont.gens
        }
        return make_es(cont.events | {event}, cont.conflicts, gens)

    def choice(branches):
        ids, events, conflicts, gens = set(), set(), set(), set()
        for es in branches:
            if ids & es.event_ids:
                raise DenoteError("branches share event ids")
            ids |= es.event_ids
            events |= es.events
            conflicts |= es.conflicts
            gens |= es.gens
        initials = [{t for p, t in es.gens if not p} for es in branches]
        for i, first in enumerate(initials):
            for second in initials[i + 1:]:
                conflicts |= {frozenset({a, b}) for a in first for b in second}
        return make_es(events, conflicts, gens)

    def fix(var, body, body_path, copy, env, depth):
        if depth <= 0:
            return EMPTY_ES
        inner = dict(env)
        inner[var] = lambda occurrence, at: fix(var, body, body_path, at + (occurrence,), env, depth - 1)
        return compile_(body, body_path, copy, inner)

    def compile_(t, path, copy, env):
        if isinstance(t, Success):
            eid = event_id(path, copy)
            return make_es([Event(eid, who, TICK)], (), [((), eid)])
        if isinstance(t, Term0):
            return EMPTY_ES
        if isinstance(t, Var):
            return env[t.name](var_positions[path], copy)
        if isinstance(t, (InternalChoice, ExternalChoice)):
            return choice([
                prefix(Event(event_id(path + (i,), copy), who, label),
                       compile_(cont, path + (i, "c"), copy, env))
                for i, (label, cont) in enumerate(t.branches)
            ])
        assert isinstance(t, Rec)
        return fix(t.var, t.body, path + ("r",), copy, env, unroll_depth)

    return compile_(term, (), (), {})


def reference_truncate(term: SessionType, depth: int) -> SessionType:
    """Truncate as the nested closure did: the k-th approximant of a
    recursion is its body with the variable bound to the (k+1)-th, and the
    ``depth``-th is a stuck empty choice."""

    def tr(t, env):
        if isinstance(t, (Success, Term0)):
            return t
        if isinstance(t, Var):
            return env[t.name]
        if isinstance(t, (InternalChoice, ExternalChoice)):
            return type(t)(tuple((label, tr(cont, env)) for label, cont in t.branches))
        assert isinstance(t, Rec)

        def approximant(k):
            if k >= depth:
                return InternalChoice(())
            return tr(t.body, {**env, t.var: approximant(k + 1)})

        return approximant(0)

    return tr(term, {})


# ---------------------------------------------------------------------------
# Reference term folds: one recursive descent each
# ---------------------------------------------------------------------------

def reference_validate(term: SessionType) -> list[Violation]:
    report: list[Violation] = []
    _reference_validate(term, {}, report)
    return report


def _reference_validate(term: SessionType, guarded: dict[str, bool], report: list[Violation]) -> None:
    # guarded maps in-scope variables to "an action prefix separates us from
    # the binder"; a Var is only legal when its entry exists and is True.
    if isinstance(term, (Success, Term0)):
        if isinstance(term, Term0):
            report.append(Violation("runtime-only-term", pretty(term), "0 is not user syntax"))
        return
    if isinstance(term, Buffer):
        report.append(Violation("runtime-only-term", pretty(term), "buffers are not user syntax"))
        _reference_validate(term.cont, guarded, report)
        return
    if isinstance(term, Var):
        if term.name not in guarded:
            report.append(Violation("free-variable", term.name, f"{term.name} is not bound"))
        elif not guarded[term.name]:
            report.append(
                Violation("unguarded-recursion", term.name,
                          f"{term.name} occurs with no action prefix below its binder")
            )
        return
    if isinstance(term, Rec):
        inner = dict(guarded)
        inner[term.var] = False
        _reference_validate(term.body, inner, report)
        return
    assert isinstance(term, (InternalChoice, ExternalChoice))
    want = OUTPUT if isinstance(term, InternalChoice) else INPUT
    if not term.branches:
        report.append(Violation("empty-choice", pretty(term), "choice has no branches"))
    seen: set[str] = set()
    for label, cont in term.branches:
        if label.polarity != want or label.is_tick:
            report.append(
                Violation("wrong-polarity", pretty(term), f"branch action {label} has the wrong polarity")
            )
        if label.name in seen:
            report.append(Violation("duplicate-action", pretty(term), f"action {label} appears twice"))
        seen.add(label.name)
        _reference_validate(cont, dict.fromkeys(guarded, True), report)


def reference_free_vars(term: SessionType) -> frozenset[str]:
    if isinstance(term, Var):
        return frozenset({term.name})
    if isinstance(term, Rec):
        return reference_free_vars(term.body) - {term.var}
    if isinstance(term, (InternalChoice, ExternalChoice)):
        found: frozenset[str] = frozenset()
        for _, cont in term.branches:
            found |= reference_free_vars(cont)
        return found
    if isinstance(term, Buffer):
        return reference_free_vars(term.cont)
    return frozenset()


def reference_event_count(term: SessionType) -> int:
    """Success leaves plus choice branches; a buffer's continuation is not counted."""
    if isinstance(term, Success):
        return 1
    if isinstance(term, Rec):
        return reference_event_count(term.body)
    count = 0
    if isinstance(term, (InternalChoice, ExternalChoice)):
        for _, cont in term.branches:
            count += 1 + reference_event_count(cont)
    return count


# ---------------------------------------------------------------------------
# Reference composition: separate output and input cases
# ---------------------------------------------------------------------------

def reference_occurrence_index(es: EventStructureGen) -> dict[str, int]:
    """Position of each event among same-labelled events on its causal chain.

    Ancestors are the transitive closure of generator premises, computed as
    a fixpoint: each round adds the ancestors of every known ancestor, until
    nothing changes.  A member of a generator cycle is its own ancestor.
    """
    parents = {eid: set().union(*es.premises_of(eid)) for eid in es.event_ids}
    ancestors = {eid: set(direct) for eid, direct in parents.items()}
    changed = True
    while changed:
        changed = False
        for found in ancestors.values():
            grown = found.union(*(parents[a] for a in found))
            if grown != found:
                found |= grown
                changed = True
    return {
        eid: 1 + sum(1 for a in found if es.label_of(a) == es.label_of(eid))
        for eid, found in ancestors.items()
    }


def reference_denote_par(left: EventStructureGen, right: EventStructureGen) -> EventStructureGen:
    """Compose as the output/input split composition did: a partner per
    premise event, a ``dead`` flag on the first premise without one, and a
    separate synchroniser loop for input targets.

    Events, conflicts and labels are unions.  For a component enabling
    ``(X, e)``: when ``e`` is an output or success, one composite enabling
    ``(X ∪ Y, e)`` is emitted per choice of acknowledgement function
    mapping each member of ``X`` to a complementary same-occurrence event
    of the other side; when ``e`` is an input, a synchronising output
    (complementary label, same occurrence) is additionally added to the
    premise, one enabling per choice.  A premise event labelled ``✓`` has
    no complement and kills the enabling.  Duplicates collapse; premises
    are kept even when not conflict-free (such enablings never fire).
    """
    overlap = left.event_ids & right.event_ids
    if overlap:
        raise ValueError(f"component event sets overlap: {sorted(overlap)}")
    occ = {}
    occ.update(reference_occurrence_index(left))
    occ.update(reference_occurrence_index(right))

    def buckets(es: EventStructureGen) -> dict:
        table: dict[tuple, list[str]] = {}
        for event in sorted(es.events, key=lambda e: id_sort_key(e.id)):
            table.setdefault((event.label, occ[event.id]), []).append(event.id)
        return table

    complements = {id(left): buckets(right), id(right): buckets(left)}
    gens: set[tuple[frozenset[str], str]] = set()
    for side in (left, right):
        matching = complements[id(side)]
        for premise, target in side.gens:
            target_label = side.label_of(target)
            candidate_lists: list[list[str]] = []
            dead = False
            for pid in sorted(premise, key=id_sort_key):
                plabel = side.label_of(pid)
                if plabel.is_tick:
                    dead = True
                    break
                matchers = matching.get((plabel.co(), occ[pid]), [])
                if not matchers:
                    dead = True
                    break
                candidate_lists.append(matchers)
            if dead:
                continue
            if target_label.is_output:
                for assignment in product(*candidate_lists):
                    gens.add((premise | frozenset(assignment), target))
            else:
                synchronisers = matching.get((target_label.co(), occ[target]), [])
                for sync in synchronisers:
                    for assignment in product(*candidate_lists):
                        gens.add((premise | frozenset(assignment) | {sync}, target))
    return make_es(left.events | right.events, left.conflicts | right.conflicts, gens)


# ---------------------------------------------------------------------------
# Reference explorer: every successor printed afresh
# ---------------------------------------------------------------------------

def reference_pretty(term, top=True):
    """The printer without stored forms: every call prints the whole term."""
    grouped = False
    if isinstance(term, Success):
        text = "1"
    elif isinstance(term, Term0):
        text = "0"
    elif isinstance(term, Var):
        text = term.name
    elif isinstance(term, Rec):
        text, grouped = f"rec {term.var} . {reference_pretty(term.body)}", True
    elif isinstance(term, Buffer):
        text = f"[{term.action}]{reference_pretty(term.cont, False)}"
    elif isinstance(term, (InternalChoice, ExternalChoice)):
        sep = " (+) " if isinstance(term, InternalChoice) else " + "
        text = sep.join(f"{label.polarity}{label.name}"
                        + ("" if isinstance(cont, Success) else "." + reference_pretty(cont, False))
                        for label, cont in term.branches)
        grouped = len(term.branches) != 1
    else:
        raise TypeError(f"not a session type: {term!r}")
    return f"({text})" if grouped and not top else text


def reference_key(config):
    return f"{reference_pretty(config.left)} || {reference_pretty(config.right)}"


def reference_is_tick(label: ActionLabel) -> bool:
    return label.polarity == OUTPUT and label.name == TICK_NAME


def reference_label_text(label: ActionLabel) -> str:
    """``str(label)`` from the label's two fields."""
    return TICK_NAME if reference_is_tick(label) else f"{label.polarity}{label.name}"


def reference_component_steps(term):
    """Internal ``(tag, successor)`` and labelled ``(label, continuation)``
    moves of one side under the reduction semantics, by ``isinstance``
    tests; a committed choice is built bare and printed when it is read."""
    from stgames.syntax import unfold

    if isinstance(term, Buffer):
        raise ValueError("buffers do not occur under the reduction semantics")
    internal = []
    labelled = []
    if isinstance(term, InternalChoice):
        if len(term.branches) >= 2:
            for label, cont in term.branches:
                internal.append((f"commit {reference_label_text(label)}", InternalChoice(((label, cont),))))
        else:
            labelled.append(term.branches[0])
    elif isinstance(term, ExternalChoice):
        labelled.extend(term.branches)
    elif isinstance(term, Rec):
        internal.append(("unfold", unfold(term)))
    return internal, labelled


def reference_reduce_moves(left, right):
    """Reduction steps of ``left ∥ right`` as ``(tag, left', right')``."""
    left_internal, left_labelled = reference_component_steps(left)
    right_internal, right_labelled = reference_component_steps(right)
    moves = [(f"{tag} (left)", successor, right) for tag, successor in left_internal]
    moves.extend((f"{tag} (right)", left, successor) for tag, successor in right_internal)
    for llabel, lcont in left_labelled:
        for rlabel, rcont in right_labelled:
            if (not reference_is_tick(llabel) and not reference_is_tick(rlabel)
                    and llabel.name == rlabel.name and llabel.polarity != rlabel.polarity):
                moves.append((f"sync {llabel.name}", lcont, rcont))
    return moves


def reference_turn_side_steps(own, other):
    """Turn-based moves of one side as ``(label, own', other')``; a written
    buffer is built bare and printed when it is read."""
    from stgames.syntax import TERM0, unfold_top

    own = unfold_top(own)
    moves = []
    if isinstance(own, InternalChoice):
        for label, cont in own.branches:
            moves.append((label, Buffer(label, cont), other))
    elif isinstance(own, ExternalChoice):
        peer = unfold_top(other)
        if isinstance(peer, Buffer) and not reference_is_tick(peer.action):
            pending = peer.action
            for label, cont in own.branches:
                if label.name == pending.name and label.polarity != pending.polarity:
                    moves.append((label, cont, peer.cont))
    elif isinstance(own, Success):
        moves.append((TICK, TERM0, other))
    return moves


def reference_turn_moves_named(left, right):
    """Turn-based steps of ``left ∥ right`` as ``(label text, left', right')``,
    the left side's first."""
    moves = [(label, "left", nleft, nright)
             for label, nleft, nright in reference_turn_side_steps(left, right)]
    moves.extend((label, "right", nleft, nright)
                 for label, nright, nleft in reference_turn_side_steps(right, left))
    return [(reference_label_text(label), nleft, nright) for label, _, nleft, nright in moves]


REFERENCE_MOVES = {"reduction": reference_reduce_moves, "turn": reference_turn_moves_named}


@dataclass(frozen=True)
class ReferenceExploration(_Exploration):
    """The library's exploration record, plus every reached configuration
    by key, which the library no longer keeps."""

    configs: dict


def reference_explore(config, semantics, state_limit):
    """Breadth-first exploration as the string-keyed explorer did it: the
    reference step relations, and ``reference_key`` on every successor,
    with a ``Configuration`` kept per state.  Returns the library's
    ``_Exploration`` record with those configurations added."""
    from collections import deque

    from stgames.lts import Lts

    if state_limit <= 0:
        raise ValueError("state limit must be positive")
    if semantics not in REFERENCE_MOVES:
        raise ValueError(f"unknown semantics {semantics!r}")
    moves = REFERENCE_MOVES[semantics]

    def successors_of(cfg):
        steps = {(label, Configuration(left, right)) for label, left, right in moves(cfg.left, cfg.right)}
        return sorted(((label, reference_key(nxt), nxt) for label, nxt in steps), key=lambda s: s[:2])

    start = reference_key(config)
    seen = {start: config}
    parents, edges, stuck = {start: None}, set(), {}
    truncated = False
    queue = deque([start])
    while queue:
        key = queue.popleft()
        successors = successors_of(seen[key])
        if not successors:
            stuck[key] = seen[key].left
        for label, nkey, nxt in successors:
            if nkey not in seen:
                if len(seen) >= state_limit:
                    truncated = True
                    continue
                seen[nkey] = nxt
                parents[nkey] = (key, label)
                queue.append(nkey)
            edges.add((key, label, nkey))
    lts = Lts(frozenset(seen), start, frozenset(edges), truncated)
    return ReferenceExploration(lts, stuck, parents, seen)


# ---------------------------------------------------------------------------
# Reference bisimulation: every state re-signed in every round
# ---------------------------------------------------------------------------

def reference_bisim(a, b):
    """Partition refinement as the whole-partition loop did it: each round
    signs every state over the previous round's blocks and numbers the
    blocks afresh, until the block count stops growing."""
    if a.labels and b.labels and not (a.labels & b.labels):
        raise ValueError(
            "edge label alphabets are disjoint; relabel event-identified edges to actions first"
        )
    states = [("a", s) for s in a.states] + [("b", s) for s in b.states]
    successors = {s: [] for s in states}
    for tag, lts in (("a", a), ("b", b)):
        for src, label, dst in lts.edges:
            successors[(tag, src)].append((label, (tag, dst)))
    block = dict.fromkeys(states, 0)
    while True:
        groups = {}
        new_block = {}
        for state in states:
            signature = frozenset((label, block[dst]) for label, dst in successors[state])
            new_block[state] = groups.setdefault(signature, len(groups))
        stable = len(set(new_block.values())) == len(set(block.values()))
        block = new_block
        if stable:
            break
    return block[("a", a.initial)] == block[("b", b.initial)]


# ---------------------------------------------------------------------------
# Reference corpus generator: weight lists per node, a label per branch
# ---------------------------------------------------------------------------

def reference_gen_type(rng: random.Random, spec, role: str, budget: int,
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
        inner = dict(scope)
        inner[name] = False
        body = reference_gen_type(rng, spec, role, budget - 1, inner, rec_budget - 1)
        return Rec(name, body) if name in free_vars(body) else body
    width = rng.randint(1, min(spec.max_branch, budget))
    names = rng.sample(spec.actions, min(width, len(spec.actions)))
    make = out if kind == "internal" else inp
    deeper = dict.fromkeys(scope, True)
    branches = tuple(
        (make(name), reference_gen_type(rng, spec, role, budget - 1, deeper, rec_budget))
        for name in sorted(names)
    )
    return InternalChoice(branches) if kind == "internal" else ExternalChoice(branches)


def reference_dual(term: SessionType) -> SessionType:
    if isinstance(term, (Success, Term0, Var)):
        return term
    if isinstance(term, Rec):
        return Rec(term.var, reference_dual(term.body))
    if isinstance(term, InternalChoice):
        return ExternalChoice(tuple((label.co(), reference_dual(cont)) for label, cont in term.branches))
    if isinstance(term, ExternalChoice):
        return InternalChoice(tuple((label.co(), reference_dual(cont)) for label, cont in term.branches))
    raise TypeError(f"not a session type: {term!r}")


def reference_corpus_pair(spec, index: int) -> tuple[SessionType, SessionType]:
    """``corpus_pair`` over the reference generator and dual; the loop
    wrapping and the perturbation are the harness's own."""
    from stgames.harness import _ensure_recursive, _perturb

    def draw(role: str) -> SessionType:
        rng = random.Random(f"{spec.seed}/{role}/{index}/v1")
        term = reference_gen_type(rng, spec, role, spec.max_depth, {}, 2 if spec.allow_recursion else 0)
        return _ensure_recursive(term, rng) if spec.allow_recursion and role == "client" else term

    client = draw("client")
    rng = random.Random(f"{spec.seed}/pair/{index}/v1")
    if rng.random() < 0.5:
        return client, _perturb(reference_dual(client), rng, spec)
    return client, draw("server")
