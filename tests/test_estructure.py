"""Event-structure core: conflict, saturated enabling, remainder, ordering."""

from __future__ import annotations

import random
import re
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DEEP_FAMILIES,
    acceptance_contracts,
    all_plays,
    conflict_free_raw,
    es_leq_oracle,
    exhaustive_tiny_structures,
    partner_structures,
    powerset,
    random_structure,
    reference_es_to_json,
    reference_playable,
    remainder_on_saturated,
    saturate,
)
from stgames.denote import denote, denote_par
from stgames.estructure import (
    EMPTY_ES,
    Event,
    EventStructureGen,
    conflict_free,
    enabled,
    es_json_chunks,
    es_leq,
    es_to_json,
    es_to_json_dict,
    ets,
    id_sort_key,
    make_es,
    playable,
    remainder,
)
from stgames.harness import dual
from stgames.syntax import INPUT, OUTPUT, TICK, ActionLabel, out, parse


@pytest.fixture(scope="module")
def example_composed():
    return denote_par(parse("!a (+) !b.!a"), "A", parse("?a.?b + ?b.?a + ?c"), "B")


@pytest.fixture(scope="module")
def example_client():
    return denote(parse("!a (+) !b.!a"), "A", parity="odd")


# -- conflict-freeness --------------------------------------------------------

def test_cf_empty_set(example_composed):
    assert conflict_free(example_composed, ())


def test_cf_conflicting_pair(example_client):
    assert not conflict_free(example_client, ("e1", "e5"))


def test_cf_cross_participant_pair(example_composed):
    assert conflict_free(example_composed, ("e1", "e2"))


def test_cf_unknown_event_is_an_error(example_composed):
    with pytest.raises(KeyError):
        conflict_free(example_composed, ("e1", "nope"))


# -- enabling -----------------------------------------------------------------

def test_enabled_at_empty_history(example_composed):
    assert enabled(example_composed, (), "e1")
    assert not enabled(example_composed, (), "e14")


def test_enabled_after_prefix(example_composed):
    assert enabled(example_composed, ("e1",), "e2")


def test_playable_unknown_event_is_an_error(example_composed):
    # as for enabled and conflict_free: an unknown id is not silently dropped
    with pytest.raises(KeyError, match="unknown event zzz"):
        playable(example_composed, {"zzz"})
    with pytest.raises(KeyError):
        playable(example_composed, ("e1", "zzz"))
    assert playable(example_composed, ()) == playable(example_composed, set())


def test_saturation_law(small_structures):
    # enabling persists across conflict-free supersets of the history
    rng = random.Random(7)
    for es in small_structures[:200]:
        ids = sorted(es.event_ids)
        if not ids:
            continue
        for _ in range(5):
            history = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
            if not conflict_free_raw(es.conflicts, history):
                continue
            extras = [i for i in ids if i not in history]
            superset = history | frozenset(rng.sample(extras, rng.randint(0, len(extras))))
            if not conflict_free_raw(es.conflicts, superset):
                continue
            for target in ids:
                if enabled(es, history, target):
                    assert enabled(es, superset, target)


def test_enabled_matches_materialised_relation(small_structures):
    for es in small_structures[:150]:
        sat = saturate(es)
        ids = sorted(es.event_ids)
        for history in powerset(ids):
            hist = frozenset(history)
            for target in ids:
                assert enabled(es, hist, target) == ((hist, target) in sat)


# -- remainder ----------------------------------------------------------------

def test_remainder_example_client(example_client):
    after = remainder(example_client, "e1")
    assert {e.id for e in after.events} == {"e3", "e7", "e9"}
    assert after.conflicts == frozenset()
    assert after.gens == frozenset({(frozenset(), "e3"), (frozenset({"e7"}), "e9")})


def test_remainder_single_event():
    es = make_es([Event("e1", "A", out("a"))], (), [((), "e1")])
    assert remainder(es, "e1") == EMPTY_ES


def test_remainder_unknown_event(example_client):
    with pytest.raises(KeyError):
        remainder(example_client, "e99")


def test_remainder_commutes_with_saturation_exhaustive():
    # generator-level remainder and saturated-level remainder agree on the
    # full two-event family
    for es in exhaustive_tiny_structures():
        for event in sorted(es.event_ids):
            by_gens = remainder(es, event)
            ids, conflicts, sat_expected, labels = remainder_on_saturated(es, event)
            assert frozenset(by_gens.event_ids) == ids
            assert by_gens.conflicts == conflicts
            assert {eid: by_gens.label_of(eid) for eid in by_gens.event_ids} == labels
            assert saturate(by_gens) == sat_expected


def test_remainder_commutes_with_saturation_sampled(small_structures):
    for es in small_structures[len(exhaustive_tiny_structures()):][:120]:
        for event in sorted(es.event_ids)[:3]:
            by_gens = remainder(es, event)
            ids, conflicts, sat_expected, _ = remainder_on_saturated(es, event)
            assert frozenset(by_gens.event_ids) == ids
            assert by_gens.conflicts == conflicts
            assert saturate(by_gens) == sat_expected


def test_playable_equals_initial_events_of_remainder(small_structures):
    rng = random.Random(11)
    tiny = len(exhaustive_tiny_structures())
    # the first 150 are conflict-free, so walk every structure with a conflict
    # and every sampled one as well
    for es in (es for i, es in enumerate(small_structures) if i < 150 or es.conflicts or i >= tiny):
        history: list[str] = []
        while True:
            moves = playable(es, history)
            rest = reduce(remainder, history, es)
            assert moves == frozenset(e for e in rest.event_ids if enabled(rest, (), e))
            if not moves:
                break
            history.append(rng.choice(sorted(moves)))


def _step_checks(es, configurations):
    """Compare the incremental rule with the full scan: ``initial``, then
    ``step`` by each event to be fired from each given configuration, and
    the public ``playable`` at each configuration."""
    index = es.play_index
    assert index.initial == reference_playable(es, 0)
    for fired, events in configurations:
        moves = reference_playable(es, fired)
        for event_id in index.members(events):
            bit = index.bit[event_id]
            assert index.step(fired, moves, bit) == reference_playable(es, fired | bit)
        assert playable(es, index.members(fired)) == frozenset(index.members(moves))


def _reachable(es):
    """Every reachable configuration with its playable events, by the full scan."""
    seen, stack = {0}, [0]
    while stack:
        fired = stack.pop()
        moves = reference_playable(es, fired)
        yield fired, moves
        for event_id in es.play_index.members(moves):
            nxt = fired | es.play_index.bit[event_id]
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)


@pytest.mark.parametrize("family", ["small", "partner", "finite", "recursive"])
def test_step_matches_full_scan(family, small_structures):
    if family in ("small", "partner"):
        # the update is exact from any set: try every event from every subset
        for es in small_structures if family == "small" else partner_structures():
            every = (1 << len(es.play_index.ids)) - 1
            _step_checks(es, [(fired, every) for fired in range(every + 1)])
        return
    for contract in acceptance_contracts(family):
        _step_checks(contract.es, _reachable(contract.es))


def test_partner_family_has_the_shapes_it_is_for():
    """Partner sets of each size the family draws, members that repeat a
    premise event, members that conflict, and events only a partner-set
    enabling can make playable, reached in play."""
    sizes, overlapping, conflicting, reached = set(), 0, 0, 0
    for es in partner_structures():
        plain = {target for _, partner_sets, target in es.enablings if not partner_sets}
        for premise, partner_sets, _ in es.enablings:
            sizes.add(len(partner_sets))
            overlapping += any(members & premise for members in partner_sets)
            conflicting += any(es.in_conflict(a, b) for members in partner_sets
                               for a, b in combinations(members, 2))
        reached += sum(event not in plain for _, event, _ in ets(es).edges)
    assert sizes == {0, 1, 2, 3}
    assert min(overlapping, conflicting, reached) >= 100


# -- transition system --------------------------------------------------------

def test_ets_example_shape(example_composed):
    lts = ets(example_composed)
    first = lts.successors(lts.initial)
    assert [label for label, _ in first] == ["e1", "e5"]
    # lower branch: e5 e8 e7 e10, then the two success events in either order
    state = lts.initial
    for step in ["e5", "e8", "e7", "e10"]:
        moves = dict(lts.successors(state))
        assert step in moves
        state = moves[step]
    finals = lts.successors(state)
    assert [label for label, _ in finals] == ["e12", "e9"]
    upper = dict(lts.successors(lts.initial))["e1"]
    path = dict(lts.successors(upper))
    assert list(path) == ["e2"]
    last = dict(lts.successors(path["e2"]))
    assert list(last) == ["e3"]
    assert lts.successors(last["e3"]) == []


def test_ets_diamond_merges(example_composed):
    lts = ets(example_composed)
    state = lts.initial
    for step in ["e5", "e8", "e7", "e10"]:
        state = dict(lts.successors(state))[step]
    via_nine = dict(lts.successors(dict(lts.successors(state))["e9"]))["e12"]
    via_twelve = dict(lts.successors(dict(lts.successors(state))["e12"]))["e9"]
    assert via_nine == via_twelve


def test_ets_empty_structure():
    lts = ets(EMPTY_ES)
    assert len(lts.states) == 1
    assert lts.edges == frozenset()


def test_ets_relabelled(example_composed):
    lts = ets(example_composed, relabel=True)
    assert "!a" in lts.labels and "?a" in lts.labels and "✓" in lts.labels


def test_ets_respects_step_bound(example_composed):
    lts = ets(example_composed, step_bound=3)
    assert lts.truncated


def test_ets_states_are_the_reachable_configurations(small_structures):
    for es in small_structures:
        configurations = {frozenset(play) for play in all_plays(es)}
        assert set(ets(es).states) == {
            "{" + ",".join(sorted(fired, key=id_sort_key)) + "}" for fired in configurations
        }


def test_every_event_fires_at_most_once(small_structures):
    rng = random.Random(3)
    for es in small_structures[:100]:
        history: list[str] = []
        while True:
            moves = playable(es, history)
            assert not (set(history) & moves)
            if not moves:
                break
            history.append(rng.choice(sorted(moves)))
        assert len(history) <= len(es.event_ids)


# -- ordering ------------------------------------------------------------------

def test_leq_bottom(example_composed):
    assert es_leq(EMPTY_ES, example_composed)


def test_leq_reflexive(example_composed):
    assert es_leq(example_composed, example_composed)


def test_leq_matches_oracle_on_approximants():
    term = parse("rec x . (!a.x (+) !b)")
    approximants = [denote(term, "A", unroll_depth=k) for k in range(4)]
    for small in approximants:
        for big in approximants:
            assert es_leq(small, big) == es_leq_oracle(small, big)


def test_leq_matches_oracle_on_remainder_chains(small_structures):
    rng = random.Random(23)
    count = 0
    for es in small_structures:
        if len(es.event_ids) > 5 or not es.gens:
            continue
        moves = sorted(playable(es, ()))
        if not moves:
            continue
        smaller = remainder(es, rng.choice(moves))
        assert es_leq(smaller, es) == es_leq_oracle(smaller, es)
        assert es_leq(es, smaller) == es_leq_oracle(es, smaller)
        count += 1
        if count >= 60:
            break


def test_leq_partial_order_properties(small_structures):
    # antisymmetry holds up to the induced saturated relation: distinct
    # generator sets (a premise shadowed by a smaller one) can present the
    # same structure
    rng = random.Random(5)
    pool = [es for es in small_structures if len(es.event_ids) <= 4][:40]
    for es in pool:
        assert es_leq(es, es)
    for _ in range(200):
        a, b, c = (rng.choice(pool) for _ in range(3))
        if es_leq(a, b) and es_leq(b, c):
            assert es_leq(a, c)
        if es_leq(a, b) and es_leq(b, a):
            assert a.events == b.events
            assert a.conflicts == b.conflicts
            assert saturate(a) == saturate(b)


# -- construction and serialisation -------------------------------------------

def test_conflict_must_be_known_and_binary():
    events = [Event("e1", "A", out("a"))]
    with pytest.raises(ValueError, match=r"^conflict mentions unknown event e9$"):
        make_es(events, [("e1", "e9")], ())
    with pytest.raises(ValueError, match=r"^conflict must relate two distinct events: \['e1'\]$"):
        make_es(events, [("e1", "e1")], ())


def test_generator_endpoints_checked():
    events = [Event("e1", "A", out("a"))]
    with pytest.raises(ValueError, match=r"^enabling targets unknown event e9$"):
        make_es(events, (), [((), "e9")])
    with pytest.raises(ValueError, match=r"^enabling premise mentions unknown events \['e9'\]$"):
        make_es(events, (), [(("e9",), "e1")])
    # the unknown ids are named in sorted order, whatever the set's order
    with pytest.raises(ValueError, match=r"^enabling premise mentions unknown events \['e7', 'e9'\]$"):
        make_es(events, (), [(("e9", "e1", "e7"), "e1")])


def test_partner_sets_checked():
    events = frozenset(Event(eid, "A", out("a")) for eid in ("e1", "e3", "e5"))

    def build(*partner_sets):
        return EventStructureGen(events, frozenset(), frozenset(
            {(frozenset({"e1"}), frozenset(map(frozenset, partner_sets)), "e5")}))

    assert build(("e1", "e3")).gens == {(frozenset({"e1"}), "e5"), (frozenset({"e1", "e3"}), "e5")}
    with pytest.raises(ValueError, match=r"^enabling partner set mentions unknown events \['e9'\]$"):
        build(("e3", "e9"))
    # one partner belongs in the premise, and none stands for no generator
    for partners in (("e3",), ()):
        with pytest.raises(ValueError, match=r"^enabling partner set must hold two or more events: "):
            build(partners)


def test_json_is_deterministic(example_composed):
    assert es_to_json(example_composed) == es_to_json(example_composed)


def assert_json_holds(es):
    """The data ``es_to_json`` writes names every event, conflict and
    enabling of ``es`` once (its order is checked against ``json.dumps``)."""
    data = es_to_json_dict(es)
    events = [(e["id"], e["participant"], e["label"]) for e in data["events"]]
    conflicts = [frozenset(pair) for pair in data["conflicts"]]
    enablings = [(frozenset(e["premise"]), e["target"]) for e in data["enablings"]]
    assert sorted(events) == sorted((e.id, e.participant, str(e.label)) for e in es.events)
    assert len(conflicts) == len(es.conflicts) and set(conflicts) == es.conflicts
    assert len(enablings) == len(es.gens) and set(enablings) == es.gens


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_structures_round_trip(seed):
    assert_json_holds(random_structure(random.Random(seed)))


# -- the JSON writer against json.dumps ----------------------------------------

@pytest.mark.parametrize("family", ["finite", "recursive"])
def test_json_matches_reference_on_contracts(family):
    for contract in acceptance_contracts(family):
        assert es_to_json(contract.es) == reference_es_to_json(contract.es)


def test_json_matches_reference_on_deep_families():
    for source, deepest in DEEP_FAMILIES:
        client = parse(source)
        for depth in range(deepest + 1):
            es = denote_par(client, "A", dual(client), "B", depth)
            assert es_to_json(es) == reference_es_to_json(es), (source, depth)


def test_json_chunks_hold_one_target_each(example_composed):
    # the head with the conflicts, one piece per target, then the events
    for es in (EMPTY_ES, example_composed):
        targets = sorted({target for _, target in es.gens}, key=id_sort_key)
        pieces = list(es_json_chunks(es))
        assert len(pieces) == len(targets) + 2
        for target, piece in zip(targets, pieces[1:-1]):
            assert set(re.findall(r'"target": "([^"]*)"', piece)) == {target}


def test_json_matches_reference_on_small_structures(small_structures):
    for es in [EMPTY_ES, *small_structures]:
        assert es_to_json(es) == reference_es_to_json(es)


# quotes, backslashes, control characters, ✓, non-ASCII and non-BMP
# characters, and ids both of the e<n>[@<k>...] form and outside it
_CHARS = st.sampled_from('ab"\\\n\t\x00\x1f\x7f✓Äé€😀')
_TEXT = st.text(_CHARS, max_size=4)
_IDS = st.one_of(st.from_regex(r"e[0-9]{1,2}(@[0-9])?", fullmatch=True), _TEXT)
# a label's name is never empty: "!" alone does not read back as a label
_LABELS = st.one_of(st.just(TICK), st.builds(ActionLabel, st.text(_CHARS, min_size=1, max_size=4),
                                             st.sampled_from((OUTPUT, INPUT))))


@st.composite
def _text_structures(draw):
    ids = draw(st.lists(_IDS, max_size=6, unique=True))
    events = [Event(event_id, draw(_TEXT), draw(_LABELS)) for event_id in ids]
    pairs = [frozenset(pair) for pair in combinations(ids, 2)]
    conflicts = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    gens = [(draw(st.frozensets(st.sampled_from(ids), max_size=3)), target)
            for target in ids for _ in range(draw(st.integers(0, 2)))]
    return make_es(events, conflicts, gens)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_text_structures())
def test_json_matches_reference_on_any_text(es):
    assert es_to_json(es) == reference_es_to_json(es)
    assert_json_holds(es)
