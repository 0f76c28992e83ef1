"""Event structures with conflict and a finitely generated enabling relation.

An event structure is stored as a finite set of participant-tagged,
action-labelled events, a symmetric irreflexive conflict relation, and a
finite set of enablings ``(X, P, e)``.  An enabling stands for the
generators ``(X ∪ C, e)``, one for every choice ``C`` of one event from
each *partner set* in ``P``; an enabling with no partner sets is one plain
generator.  The full enabling relation is the saturation of the
generators: ``Y ⊢ e`` holds for every finite conflict-free ``Y`` that
contains some generator premise for ``e``.  Neither the saturation nor the
generator product is materialised for playing: ``Y`` contains a generator
premise of ``(X, P, e)`` exactly when it contains ``X`` and meets every
partner set.  Only :attr:`EventStructureGen.gens`,
:meth:`EventStructureGen.premises_of` and the JSON writer expand the
product, the writer one target at a time.

Generators whose premise is not conflict-free are tolerated.  They can
never fire (a conflict-free history cannot contain them); the parallel
composition of denotations has partner sets whose members conflict, so
pruning the combinations they make would change printed artifacts without
changing behaviour.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, product
from json.encoder import encode_basestring

from .lts import DEFAULT_STATE_LIMIT, Lts
from .syntax import ActionLabel

Generator = tuple[frozenset[str], str]
# (premise, partner sets, target)
Enabling = tuple[frozenset[str], frozenset[frozenset[str]], str]


@dataclass(frozen=True)
class Event:
    """An occurrence of an action, owned by one participant."""

    id: str
    participant: str
    label: ActionLabel


_ID_RE = re.compile(r"^e(\d+)((?:@\d+)*)$")


@lru_cache(maxsize=None)
def id_sort_key(event_id: str) -> tuple:
    """Numeric-aware ordering for ids of the form ``e<n>[@<k>...]``."""
    match = _ID_RE.match(event_id)
    if match:
        suffix = tuple(int(part) for part in match.group(2).split("@")[1:]) if match.group(2) else ()
        return (0, int(match.group(1)), suffix, event_id)
    return (1, 0, (), event_id)


def _expand(enablings) -> set[frozenset[str]]:
    """The generator premises of ``enablings``: each premise joined with
    every choice of one event per partner set."""
    premises = set()
    for premise, partner_sets, _ in enablings:
        if partner_sets:
            premises.update(premise.union(choice) for choice in product(*partner_sets))
        else:
            premises.add(premise)
    return premises


@dataclass(frozen=True)
class EventStructureGen:
    """Events, conflicts and enablings ``(premise, partner sets, target)``,
    each partner set of two or more events.

    Equality and hashing compare events, conflicts and enablings as
    stored, so two structures whose enablings expand to the same
    generators but are factored differently are unequal; compare
    :attr:`gens` to compare generators.
    """

    events: frozenset[Event]
    conflicts: frozenset[frozenset[str]]
    enablings: frozenset[Enabling]
    _by_id: dict = field(init=False, compare=False, repr=False, hash=False)
    _by_target: dict = field(init=False, compare=False, repr=False, hash=False)
    _conflict_sets: dict = field(init=False, compare=False, repr=False, hash=False)

    def __post_init__(self) -> None:
        by_id = {}
        for event in self.events:
            if event.id in by_id:
                raise ValueError(f"duplicate event id {event.id}")
            by_id[event.id] = event
        for pair in self.conflicts:
            if len(pair) != 2:
                raise ValueError(f"conflict must relate two distinct events: {sorted(pair)}")
            for eid in pair:
                if eid not in by_id:
                    raise ValueError(f"conflict mentions unknown event {eid}")
        by_target: dict[str, list[Enabling]] = {}
        known = by_id.keys()
        for enabling in self.enablings:
            premise, partner_sets, target = enabling
            if target not in by_id:
                raise ValueError(f"enabling targets unknown event {target}")
            if not known >= premise:
                raise ValueError(f"enabling premise mentions unknown events {sorted(premise - known)}")
            for partners in partner_sets:
                if not known >= partners:
                    raise ValueError(f"enabling partner set mentions unknown events {sorted(partners - known)}")
                # one event would belong in the premise, none in no generator
                if len(partners) < 2:
                    raise ValueError(f"enabling partner set must hold two or more events: {sorted(partners)}")
            by_target.setdefault(target, []).append(enabling)
        conflict_sets: dict[str, set[str]] = {eid: set() for eid in by_id}
        for pair in self.conflicts:
            first, second = tuple(pair)
            conflict_sets[first].add(second)
            conflict_sets[second].add(first)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_by_target", by_target)
        object.__setattr__(self, "_conflict_sets", conflict_sets)

    @cached_property
    def gens(self) -> frozenset[Generator]:
        """The generators ``(premise, target)``: every enabling expanded."""
        return frozenset(
            (premise, target) for target, enablings in self._by_target.items() for premise in _expand(enablings)
        )

    @cached_property
    def play_index(self) -> PlayIndex:
        """The bitmask view used to play the structure, built on first use:
        most structures ``denote`` builds are never played."""
        return PlayIndex(self)

    def arena(self, limit: int) -> Arena:
        """The :class:`Arena` of at most ``limit`` configurations, explored
        on first use at that limit and kept, as :attr:`play_index` is."""
        arenas = self.__dict__.setdefault("_arenas", {})
        if limit not in arenas:
            arenas[limit] = Arena(self.play_index, limit)
        return arenas[limit]

    # -- lookups ------------------------------------------------------------

    @property
    def event_ids(self) -> frozenset[str]:
        return frozenset(self._by_id)

    def event(self, event_id: str) -> Event:
        try:
            return self._by_id[event_id]
        except KeyError:
            raise KeyError(f"unknown event {event_id}") from None

    def label_of(self, event_id: str) -> ActionLabel:
        return self.event(event_id).label

    def participants(self) -> frozenset[str]:
        return frozenset(event.participant for event in self.events)

    def events_of(self, participant: str) -> frozenset[str]:
        return frozenset(e.id for e in self.events if e.participant == participant)

    def premises_of(self, event_id: str) -> tuple[frozenset[str], ...]:
        """The generator premises of the event, from its enablings alone."""
        return tuple(_expand(self._by_target.get(event_id, ())))

    def in_conflict(self, a: str, b: str) -> bool:
        return b in self._conflict_sets.get(a, ())

    def conflicts_of(self, event_id: str) -> frozenset[str]:
        return frozenset(self._conflict_sets.get(event_id, ()))


class PlayIndex:
    """Configurations of one structure as bitmasks, and the playability rule.

    Bit ``i`` stands for ``ids[i]``, in :func:`id_sort_key` order, so
    walking a mask from its lowest bit lists events in sorted order.  An
    event can extend a configuration when it has not fired, conflicts with
    nothing fired, and one of its enablings holds: its premise has fully
    fired and each of its partner sets meets the fired set, which is when
    some generator the enabling stands for has fully fired.

    The rule is :attr:`initial`, the events playable before anything fires
    (the targets of enablings with an empty premise and no partner sets),
    plus :meth:`step`, which updates a playable set as one event fires.
    Firing ``e`` can remove only ``e`` and the events in conflict with it.
    Whether an enabling holds only grows with the fired set, and firing
    ``e`` changes it only when ``e`` is in its premise or in one of its
    partner sets: any other enabling that holds after ``e`` held before,
    and its target was then already playable unless ``e`` blocks it.  So
    the update, which checks the enablings woken under ``e``, is exact
    from any configuration.  Every enabling is kept, inert ones included,
    to answer as the set-based definition does, and each costs one rule,
    woken under each event of its premise and of its partner sets.

    The masks are built once, by ORing bits straight from the structure:
    an event's kill mask (its bit and its conflicts') over its conflict
    set, an enabling's premise mask and one mask per partner set over
    their ids.  Each rule is filed under the set bits of its premise mask
    ORed with its partner masks.
    """

    __slots__ = ("ids", "bit", "initial", "_keep", "_woken")

    def __init__(self, es: EventStructureGen) -> None:
        self.ids = ids = tuple(sorted(es.event_ids, key=id_sort_key))
        self.bit = bit = {eid: 1 << i for i, eid in enumerate(ids)}
        # an event's bit plus its conflict mask: what firing it rules out
        kill = {}
        for eid, others in es._conflict_sets.items():
            mask = bit[eid]
            for other in others:
                mask |= bit[other]
            kill[eid] = mask
        self._keep = [~kill[eid] for eid in ids]
        # per bit position, the (target bit, target's kill mask, premise
        # mask, partner masks) rules of the enablings that event can help
        self._woken: list[list[tuple[int, int, int, tuple[int, ...]]]] = [[] for _ in ids]
        self.initial = 0
        for premise, partner_sets, target in es.enablings:
            if not premise and not partner_sets:
                self.initial |= bit[target]
                continue
            needed = 0
            for eid in premise:
                needed |= bit[eid]
            partners = []
            woken = needed
            for partner_set in partner_sets:
                mask = 0
                for eid in partner_set:
                    mask |= bit[eid]
                partners.append(mask)
                woken |= mask
            rule = (bit[target], kill[target], needed, tuple(partners))
            # file the rule under each event of its premise and partner sets
            while woken:
                low = woken & -woken
                self._woken[low.bit_length() - 1].append(rule)
                woken ^= low

    def mask(self, ids) -> int:
        """The configuration holding ``ids``; an id of no event is a ``KeyError``."""
        out = 0
        for eid in ids:
            try:
                out |= self.bit[eid]
            except KeyError:
                raise KeyError(f"unknown event {eid}") from None
        return out

    def members(self, mask: int) -> list[str]:
        """The event ids in ``mask``, in sorted order."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.ids[low.bit_length() - 1])
            mask ^= low
        return out

    def step(self, fired: int, moves: int, bit: int) -> int:
        """The events playable after event ``bit`` fires from configuration
        ``fired``, whose playable events are ``moves``."""
        position = bit.bit_length() - 1
        fired |= bit
        unfired = ~fired
        moves &= self._keep[position]
        for target, blocked, premise, partners in self._woken[position]:
            if fired & blocked or premise & unfired:
                continue
            for partner in partners:
                if not partner & fired:
                    break
            else:
                moves |= target
        return moves


class Arena:
    """The reachable configurations, numbered breadth-first from the empty
    one: ``i`` has fired mask ``fired[i]``, playable mask ``moves[i]`` and an
    ``(event id, successor)`` pair per move in ``successors[i]``, sorted.  An
    edge fires one event, so reverse numbering is reverse topological.  At
    ``limit`` configurations, a move to a new one sets ``truncated`` instead.

    Each configuration's moves are walked bit by bit, lowest first, so the
    successors come in sorted order; a move's id is read off its bit's
    position in the index's ``ids``."""

    __slots__ = ("fired", "moves", "successors", "truncated")

    def __init__(self, index: PlayIndex, limit: int) -> None:
        self.fired = fired_masks = [0]
        self.moves = move_masks = [index.initial]
        self.successors: list[list[tuple[str, int]]] = []
        self.truncated = False
        ids, step = index.ids, index.step
        number = {0: 0}
        # the two lists grow as the loop reads them: they are the queue
        for fired, moves in zip(fired_masks, move_masks):
            out = []
            rest = moves
            while rest:  # lowest bit first: the moves in sorted order
                bit = rest & -rest
                rest ^= bit
                nxt = fired | bit
                successor = number.get(nxt)
                if successor is None:
                    if len(fired_masks) >= limit:
                        self.truncated = True
                        continue
                    successor = number[nxt] = len(fired_masks)
                    fired_masks.append(nxt)
                    move_masks.append(step(fired, moves, bit))
                out.append((ids[bit.bit_length() - 1], successor))
            self.successors.append(out)


def make_es(events, conflicts=(), gens=()) -> EventStructureGen:
    """Normalising constructor: conflicts as id pairs, gens as (premise,
    target), each a plain enabling (one with no partner sets)."""
    conflict_set = frozenset(frozenset(pair) for pair in conflicts)
    enablings = frozenset((frozenset(premise), frozenset(), target) for premise, target in gens)
    return EventStructureGen(frozenset(events), conflict_set, enablings)


EMPTY_ES = make_es(())


# ---------------------------------------------------------------------------
# Core queries
# ---------------------------------------------------------------------------

def conflict_free(es: EventStructureGen, ids) -> bool:
    """True when no two members of ``ids`` are in conflict."""
    members = list(ids)
    for eid in members:
        es.event(eid)  # unknown events are an error, not "not conflict-free"
    return not any(es.in_conflict(a, b) for a, b in combinations(members, 2))


def enabled(es: EventStructureGen, history, event_id: str) -> bool:
    """Saturated enabling: some generator premise for the event sits inside
    the (conflict-free) history."""
    hist = frozenset(history)
    if not conflict_free(es, hist):
        return False
    return any(premise <= hist for premise in es.premises_of(event_id))


def playable(es: EventStructureGen, history) -> frozenset[str]:
    """Events that can extend a play with the given conflict-free past:
    enabled, not yet fired and not conflicted by anything fired.  An id of
    no event is a ``KeyError``, as in :func:`enabled`."""
    index = es.play_index
    fired, moves = 0, index.initial
    for event_id in index.members(index.mask(history)):
        bit = index.bit[event_id]
        moves = index.step(fired, moves, bit)
        fired |= bit
    return frozenset(index.members(moves))


# ---------------------------------------------------------------------------
# Remainder
# ---------------------------------------------------------------------------

def remainder(es: EventStructureGen, event_id: str) -> EventStructureGen:
    """The event structure left after executing one event.

    The event and everything in conflict with it disappear, conflicts are
    restricted to the survivors, and each surviving enabling loses the
    fired event from its premise.  An enabling is dropped when its target
    dies or when its premise cannot coexist with the fired event.
    """
    es.event(event_id)
    dead = {event_id} | set(es.conflicts_of(event_id))
    survivors = frozenset(e for e in es.events if e.id not in dead)
    survivor_ids = frozenset(e.id for e in survivors)
    conflicts = frozenset(pair for pair in es.conflicts if pair <= survivor_ids)
    conflict_sets = es._conflict_sets
    gens = set()
    for premise, target in es.gens:
        if target in dead:
            continue
        # keep only premises that can coexist with the fired event
        if any(p in conflict_sets[event_id] for p in premise):
            continue
        if any(b in conflict_sets[a] for a, b in combinations(premise, 2)):
            continue
        gens.add((premise - {event_id}, target))
    return make_es(survivors, conflicts, gens)


# ---------------------------------------------------------------------------
# Canonical form and the event-labelled transition system
# ---------------------------------------------------------------------------

def canonical_key(es: EventStructureGen) -> str:
    events = sorted(es.events, key=lambda e: id_sort_key(e.id))
    parts = ["E:" + ",".join(f"{e.id}:{e.participant}:{e.label}" for e in events)]
    parts.append("#:" + ",".join(sorted("|".join(sorted(pair, key=id_sort_key)) for pair in es.conflicts)))
    gen_keys = sorted(
        ("{" + ",".join(sorted(premise, key=id_sort_key)) + "}>" + target)
        for premise, target in es.gens
    )
    parts.append("G:" + ",".join(gen_keys))
    return ";".join(parts)


def ets(es: EventStructureGen, step_bound: int = DEFAULT_STATE_LIMIT, relabel: bool = False) -> Lts:
    """The transition system whose states are the reachable configurations
    and whose edges fire one playable event.

    A state is named by its fired event ids in sorted order, such as
    ``{e1,e5}``; the initial state is ``{}``.  Edge labels are event ids,
    or the events' action labels when ``relabel`` is set.  ``step_bound``
    caps the states of ``es.arena(step_bound)``, setting the truncation flag.

    States are named from the arena's fired masks and edges read off its
    successors, whose moves it walked bit by bit; each event's label text
    is read once, into one table the edges share.
    """
    if step_bound <= 0:
        raise ValueError("state limit must be positive")
    arena = es.arena(step_bound)
    index = es.play_index
    labels = {eid: es._by_id[eid].label.text if relabel else eid for eid in index.ids}
    names = ["{" + ",".join(index.members(fired)) + "}" for fired in arena.fired]
    edges = {(names[i], labels[eid], names[j]) for i, out in enumerate(arena.successors) for eid, j in out}
    return Lts(frozenset(names), "{}", frozenset(edges), arena.truncated)


# ---------------------------------------------------------------------------
# Approximation order
# ---------------------------------------------------------------------------

def es_leq(small: EventStructureGen, big: EventStructureGen) -> bool:
    """The approximation order used for recursion.

    Containment of events, conflicts and (saturated) enablings with label
    agreement, plus reflection: on the small structure's events, the big
    structure may not add conflicts or enablings.  The saturated relations
    are compared through generators, which is sound because conflicts agree
    on common events.
    """
    small_ids = small.event_ids
    for event in small.events:
        other = big._by_id.get(event.id)
        if other is None or other.label != event.label or other.participant != event.participant:
            return False
    # conflicts must agree exactly on common events
    small_pairs = small.conflicts
    big_restricted = frozenset(pair for pair in big.conflicts if pair <= small_ids)
    if small_pairs != big_restricted:
        return False
    # Only conflict-free premises contribute to the saturated relation, so
    # inert generators are ignored on both sides.
    # containment: every saturated enabling of small holds in big
    for premise, target in small.gens:
        if not conflict_free(small, premise):
            continue
        if not any(bp <= premise for bp in big.premises_of(target)):
            return False
    # reflection: big enablings over small events must already hold in small
    for premise, target in big.gens:
        if target in small_ids and premise <= small_ids and conflict_free(big, premise):
            if not any(sp <= premise for sp in small.premises_of(target)):
                return False
    return True


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

def _array(items: list[str], pad: str) -> str:
    """A JSON array of written ``items``, one per line, the array itself at indentation ``pad``."""
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]" if items else "[]"


def es_json_chunks(es: EventStructureGen) -> Iterator[str]:
    """The text of :func:`es_to_json` in pieces, for writing as it is made:
    the head with the conflicts, then one piece per target holding that
    target's generators, then the events.  Their concatenation is the text.

    A piece per target keeps the pieces few (one write each) while no more
    than one target's generators is expanded and held as text at a time.
    """
    ids = sorted(es.event_ids, key=id_sort_key)
    # id_sort_key is injective (its last component is the id), so sorting on
    # positions in this order is sorting on id_sort_key
    rank = {event_id: position for position, event_id in enumerate(ids)}.__getitem__
    quoted = dict(zip(ids, map(encode_basestring, ids))).__getitem__
    conflicts = [
        _array([*map(quoted, pair)], "    ")
        for pair in sorted(sorted(c, key=rank) for c in es.conflicts)
    ]
    yield f'{{\n  "conflicts": {_array(conflicts, "  ")},\n  "enablings": '
    opening = sep = "[\n    "
    for target in ids:
        enablings = es._by_target.get(target)
        if not enablings:
            continue
        # this target's generators, expanded only while they are written
        premises = _expand(enablings)
        end = f',\n      "target": {quoted(target)}\n    }}'
        yield sep + ",\n    ".join([
            '{\n      "premise": ' + _array([*map(quoted, premise)], "      ") + end
            for premise in sorted(sorted(p, key=rank) for p in premises)
        ])
        sep = ",\n    "
    events = [
        f'{{\n      "id": {quoted(e.id)},\n      "label": {encode_basestring(str(e.label))},\n'
        f'      "participant": {encode_basestring(e.participant)}\n    }}'
        for e in map(es._by_id.__getitem__, ids)
    ]
    yield ("[]" if sep == opening else "\n  ]") + f',\n  "events": {_array(events, "  ")}\n}}'


def es_to_json(es: EventStructureGen) -> str:
    """The structure as a JSON object of ``conflicts`` (id pairs),
    ``enablings`` (one ``premise`` and ``target`` per generator, so each
    enabling is written expanded) and ``events``
    (``id``, ``label``, ``participant``), in its one layout: two-space
    indent, sorted keys and non-ASCII kept, the text ``json.dumps(...,
    indent=2, sort_keys=True, ensure_ascii=False)`` gives for that data.

    Events come in :func:`id_sort_key` order; each conflict pair and each
    premise is in that order too.  Conflicts are sorted as lists of
    strings, and enablings by target in that order, then by premise as a
    list of strings.

    The text is the join of :func:`es_json_chunks`, which writers that
    stream (``stgames export``) use piece by piece: the head and conflicts,
    one piece per target's generators, then the events.  ``json.dumps``
    falls back to its pure-Python encoder whenever ``indent`` is set, so
    the pieces are written directly from the structure, with no
    intermediate dict: one rank table orders the ids, and one table holds
    each id quoted by ``json.encoder.encode_basestring``, the C function
    ``json.dumps`` uses for strings under ``ensure_ascii=False``.
    """
    return "".join(es_json_chunks(es))


def es_to_json_dict(es: EventStructureGen) -> dict:
    """The data :func:`es_to_json` writes, in its order, read back from its
    text: a derived view, so the two cannot disagree on the order."""
    return json.loads(es_to_json(es))


def ets_to_dot(es: EventStructureGen, system: Lts) -> str:
    """DOT rendering of ``system``, the event-labelled system :func:`ets`
    explored from ``es``, as graph ``ets``; edges show ``e / action``."""
    return system.to_dot(name="ets", edge_label={e.id: f"{e.id} / {e.label}" for e in es.events})
