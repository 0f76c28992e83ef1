"""Compilation of session types to event structures."""

from __future__ import annotations

import sys

import pytest

import stgames

from conftest import (
    DEEP_FAMILIES,
    es_leq_oracle,
    oracle_cases,
    reference_denote,
    reference_denote_par,
    reference_occurrence_index,
    reference_playable,
)
from stgames.denote import DenoteError, _compile, denote, denote_par
from stgames.estructure import EMPTY_ES, EventStructureGen, es_leq, es_to_json
from stgames.game import compose_session_contracts
from stgames.harness import CorpusSpec, corpus_pair, dual, truncate
from stgames.lts import DEFAULT_STATE_LIMIT
from stgames.opsem import check_compliance
from stgames.syntax import TICK, Rec, parse


def gens_of(es):
    return {(frozenset(premise), target) for premise, target in es.gens}


def G(*pairs):
    return {(frozenset(premise), target) for premise, target in pairs}


# -- worked example, frozen verbatim -------------------------------------------

EXAMPLE_CLIENT_GENS = G(
    ((), "e1"), ((), "e5"), (("e1",), "e3"), (("e5",), "e7"), (("e7",), "e9"),
)

EXAMPLE_SERVER_GENS = G(
    ((), "e2"), ((), "e8"), ((), "e14"),
    (("e2",), "e4"), (("e4",), "e6"),
    (("e8",), "e10"), (("e10",), "e12"), (("e14",), "e16"),
)

EXAMPLE_COMPOSED_GENS = G(
    ((), "e1"), ((), "e5"),
    (("e1", "e2"), "e3"), (("e1", "e10"), "e3"),
    (("e5", "e8"), "e7"), (("e5", "e4"), "e7"),
    (("e2", "e7"), "e9"), (("e7", "e10"), "e9"),
    (("e1",), "e2"), (("e7",), "e2"),
    (("e1", "e2", "e5"), "e4"), (("e7", "e2", "e5"), "e4"),
    (("e4", "e5"), "e6"),
    (("e5",), "e8"),
    (("e8", "e5", "e1"), "e10"), (("e8", "e5", "e7"), "e10"),
    (("e10", "e1"), "e12"), (("e10", "e7"), "e12"),
)


EXAMPLE = (parse("!a (+) !b.!a"), "A", parse("?a.?b + ?b.?a + ?c"), "B")


@pytest.fixture(scope="module")
def example():
    client_type, a, server_type, b = EXAMPLE
    client = denote(client_type, a, parity="odd")
    server = denote(server_type, b, parity="even")
    return client, server, denote_par(*EXAMPLE)


def test_example_client_structure(example):
    client, _, _ = example
    assert {e.id for e in client.events} == {"e1", "e3", "e5", "e7", "e9"}
    assert client.conflicts == {frozenset({"e1", "e5"})}
    assert gens_of(client) == EXAMPLE_CLIENT_GENS
    labels = {e.id: str(e.label) for e in client.events}
    assert labels == {"e1": "!a", "e5": "!b", "e7": "!a", "e3": "✓", "e9": "✓"}


def test_example_server_structure(example):
    _, server, _ = example
    assert {e.id for e in server.events} == {"e2", "e4", "e6", "e8", "e10", "e12", "e14", "e16"}
    assert server.conflicts == {
        frozenset({"e2", "e8"}), frozenset({"e2", "e14"}), frozenset({"e8", "e14"})
    }
    assert gens_of(server) == EXAMPLE_SERVER_GENS
    labels = {e.id: str(e.label) for e in server.events}
    assert labels["e2"] == "?a" and labels["e10"] == "?a"
    assert labels["e4"] == "?b" and labels["e8"] == "?b"
    assert labels["e14"] == "?c"
    assert all(labels[i] == "✓" for i in ("e6", "e12", "e16"))


def test_example_composed_structure(example):
    client, server, composed = example
    assert composed.events == client.events | server.events
    assert composed.conflicts == client.conflicts | server.conflicts
    assert gens_of(composed) == EXAMPLE_COMPOSED_GENS
    assert es_to_json(composed) == es_to_json(compose_session_contracts(*EXAMPLE).es)


def test_example_composed_enablings(example):
    # 11 enablings stand for the 18 generators: a lone partner joins the
    # premise (e5 in e4's), several form a partner set, and an enabling
    # that needs an event without partners is dropped (e14's and e16's)
    _, _, composed = example
    by_target = {target: (premise, partner_sets) for premise, partner_sets, target in composed.enablings}
    assert len(by_target) == len(composed.enablings) == 11
    assert by_target["e3"] == ({"e1"}, {frozenset({"e2", "e10"})})
    assert by_target["e4"] == ({"e2", "e5"}, {frozenset({"e1", "e7"})})
    assert by_target["e6"] == ({"e4", "e5"}, frozenset())
    assert "e14" not in by_target and "e16" not in by_target


def test_example_dead_branch_has_no_enablings(example):
    _, _, composed = example
    assert composed.premises_of("e14") == ()
    assert composed.premises_of("e16") == ()


def test_success_denotation():
    es = denote(parse("1"), "A")
    (event,) = es.events
    assert event.label == TICK and event.participant == "A"
    assert gens_of(es) == G(((), event.id))


def test_participants_and_polarity():
    es = denote(parse("!a.?b"), "A")
    assert es.participants() == {"A"}
    labels = sorted(str(e.label) for e in es.events)
    assert labels == ["!a", "?b", "✓"]


def test_free_variable_rejected():
    with pytest.raises(DenoteError):
        denote(parse("x"), "A")
    for client, server in (("x", "?a"), ("!a", "?a.y")):
        with pytest.raises(DenoteError, match="cannot compile invalid type"):
            denote_par(parse(client), "A", parse(server), "B")


# -- parallel composition ------------------------------------------------------

def test_par_of_two_successes():
    composed = denote_par(parse("1"), "A", parse("1"), "B")
    assert gens_of(composed) == G(((), "e1"), ((), "e2"))


def test_par_composes_truncations_as_denote_compiles_them():
    # an empty choice denotes no event, so a cut adds none to the
    # composition, which has as many events as the depth-2 approximant's;
    # compose_session_contracts takes user types only
    client, server = parse("rec x . !a.x"), parse("rec y . ?a.y")
    p, q = truncate(client, 2), truncate(server, 2)
    composed = denote_par(p, "A", q, "B", 0)
    reference = reference_denote_par(denote(p, "A", 0, "odd"), denote(q, "B", 0, "even"))
    assert es_to_json(composed) == es_to_json(reference)
    assert len(composed.events) == len(denote_par(client, "A", server, "B", 2).events) == 4
    with pytest.raises(ValueError, match="empty-choice"):
        compose_session_contracts(p, "A", q, "B")


def test_par_repeated_action_needs_fresh_acknowledgement():
    # the second output of the same action cannot reuse the first reader:
    # with a single reader available the later success stays disabled
    composed = denote_par(parse("!a.!a"), "A", parse("?a.?b"), "B")
    # e5 is the client's success after the second !a; the only ?a reader
    # acknowledges the first output, so nothing enables e5
    assert composed.premises_of("e5") == ()


def test_par_repeated_action_pairs_by_occurrence():
    composed = denote_par(parse("!a.!a"), "A", parse("?a.?a"), "B")
    # second output waits for the first read; second read for the second output
    assert gens_of(composed) >= G(
        (("e1", "e2"), "e3"),
        (("e1", "e2", "e3"), "e4"),
    )
    assert (frozenset({"e1", "e2"}), "e4") not in gens_of(composed)


def test_occurrence_index_counts_same_label_ancestors():
    term = parse("!a.!b.!a")
    occ = _compile(term, "A", 0, "odd").occurrences
    assert occ == reference_occurrence_index(denote(term, "A"))
    assert occ["e1"] == 1  # first !a
    assert occ["e3"] == 1  # the !b
    assert occ["e5"] == 2  # second !a


def test_paycash_composition():
    composed = denote_par(parse("!payCash (+) !payCC"), "A", parse("?payCash"), "B")
    # e5/e7 are the payCC branch: the server never acknowledges it
    assert composed.premises_of("e7") == ()
    assert gens_of(composed) == G(
        ((), "e1"), ((), "e5"),
        (("e1", "e2"), "e3"),
        (("e1",), "e2"),
        (("e2", "e1"), "e4"),
    )


# -- oracle: the per-node compiler ----------------------------------------------

def _oracle_cases(kind):
    if kind == "families":
        for source, deepest in DEEP_FAMILIES:
            client = parse(source)
            for depth in range(deepest + 1):
                yield client, dual(client), depth
        return
    if kind == "finite":
        # without recursion the unroll depth is never read: one depth suffices
        spec, depths = CorpusSpec(seed=42, count=500, max_depth=3, max_branch=3), range(1)
    else:
        spec = CorpusSpec(seed=42, count=100, max_depth=3, max_branch=3, allow_recursion=True)
        depths = range(5)
    pairs = [corpus_pair(spec, index) for index in range(spec.count)]
    for depth in depths:
        for client, server in pairs:
            yield client, server, depth


@pytest.mark.parametrize("kind", ["finite", "recursive", "families"])
def test_denote_matches_per_node_reference(kind):
    for client, server, depth in _oracle_cases(kind):
        left = denote(client, "A", unroll_depth=depth, parity="odd")
        right = denote(server, "B", unroll_depth=depth, parity="even")
        ref_left = reference_denote(client, "A", unroll_depth=depth, parity="odd")
        ref_right = reference_denote(server, "B", unroll_depth=depth, parity="even")
        assert es_to_json(left) == es_to_json(ref_left)
        assert es_to_json(right) == es_to_json(ref_right)
        composed = denote_par(client, "A", server, "B", depth)
        assert es_to_json(composed) == es_to_json(reference_denote_par(ref_left, ref_right))


# -- oracle: composition from terms against the reference composition ------------

def assert_composes_as_reference(client, server, depth):
    """``compose_session_contracts`` and ``denote_par`` build what the
    reference composition of the two denotations builds, each compile walk
    records the occurrences the reference reads off its structure, and the
    contract is bounded exactly when one more unrolling of either type adds
    an event."""
    left = denote(client, "A", unroll_depth=depth, parity="odd")
    right = denote(server, "B", unroll_depth=depth, parity="even")
    contract = compose_session_contracts(client, "A", server, "B", depth)
    assert es_to_json(contract.es) == es_to_json(reference_denote_par(left, right))
    assert denote_par(client, "A", server, "B", depth) == contract.es
    grows = any(len(denote(term, "A", depth + 1).events) > len(side.events)
                for term, side in ((client, left), (server, right)))
    assert contract.bounded_depth == (depth if grows else None)
    for term, parity, side in ((client, "odd", left), (server, "even", right)):
        assert _compile(term, "A", depth, parity).occurrences == reference_occurrence_index(side)


@pytest.mark.parametrize("kind", ["finite", "recursive", "families", "nested"])
def test_composition_from_terms_matches_denote_par(kind):
    for client, server, depth in oracle_cases(kind):
        for d in sorted({0, 1, depth}):
            assert_composes_as_reference(client, server, d)


# -- partner sets with several members, against the product reference -----------

# each choice doubles the partners of the events below it
DOUBLING_FAMILIES = ("rec x . (!a.x (+) !b.x)", "rec x . (!a.?c.x (+) !b.?c.x)")


def _partner_set_cases():
    for source in DOUBLING_FAMILIES:
        client = parse(source)
        for depth in (3, 4, 5):
            yield client, dual(client), depth
    yield from oracle_cases("nested")


def test_partner_sets_expand_to_the_reference_generators():
    # the enablings expand to the generators the reference builds with one
    # product per component enabling, and the play index, which reads the
    # enablings unexpanded, plays as a scan of those generators does
    with_sets = 0
    for client, server, depth in _partner_set_cases():
        es = compose_session_contracts(client, "A", server, "B", depth).es
        reference = reference_denote_par(denote(client, "A", depth, "odd"),
                                         denote(server, "B", depth, "even"))
        assert es.gens == reference.gens
        arena = es.arena(DEFAULT_STATE_LIMIT)
        assert arena.moves == [reference_playable(es, fired) for fired in arena.fired]
        with_sets += any(partner_sets for _, partner_sets, _ in es.enablings)
    # every doubling case and 94 of the 150 nested pairs have a partner set
    assert with_sets == 6 + 94


def test_doubling_family_enabling_and_generator_counts():
    client = parse(DOUBLING_FAMILIES[0])
    es = compose_session_contracts(client, "A", dual(client), "B", 5).es
    assert (len(es.events), len(es.enablings), len(es.gens)) == (124, 124, 4672)
    assert sum(bool(partner_sets) for _, partner_sets, _ in es.enablings) == 122


def test_composition_from_terms_rejects_negative_depth():
    for compose in (compose_session_contracts, denote_par):
        with pytest.raises(DenoteError, match="non-negative"):
            compose(parse("!a"), "A", parse("?a"), "B", -1)


def test_composition_from_terms_builds_one_structure(monkeypatch):
    # only the composite is built, so its construction is the one that
    # checks every id, conflict and premise
    built = []
    check = EventStructureGen.__post_init__

    def counting(es):
        built.append(es)
        check(es)

    monkeypatch.setattr(EventStructureGen, "__post_init__", counting)
    client = parse("rec x . (!a.?b.x (+) !c)")
    contract = compose_session_contracts(client, "A", dual(client), "B", 3)
    assert built == [contract.es]


def test_composition_reads_the_cut_off_the_compile_walk(monkeypatch):
    # the bounded label is recorded by the walk that unrolls, so composing
    # reads no syntactic prediction of it
    cases = [case for kind in ("finite", "recursive") for case in oracle_cases(kind)]
    calls = []
    original = stgames.syntax.is_recursive

    def counting(term):
        calls.append(term)
        return original(term)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("stgames") and getattr(module, "is_recursive", None) is original:
            monkeypatch.setattr(module, "is_recursive", counting)
    for client, server, depth in cases:
        compose_session_contracts(client, "A", server, "B", depth)
    assert calls == []
    # the patch reaches callers: a compliance check still asks of each side
    client, server = parse("!a"), parse("?a")
    check_compliance(client, server)
    assert calls == [client, server]


# -- recursion approximants ------------------------------------------------------

def test_fix_depth_zero_is_bottom():
    assert denote(Rec("x", parse("!a.x")), "A", 0) == EMPTY_ES


def test_fix_depth_one_single_event():
    es = denote(Rec("x", parse("!a.x")), "A", 1)
    (event,) = es.events
    assert str(event.label) == "!a"
    assert gens_of(es) == G(((), event.id))


def test_fix_chain_increases():
    body = parse("!a.x")
    approximants = [denote(Rec("x", body), "A", k) for k in range(4)]
    for small, big in zip(approximants, approximants[1:]):
        assert es_leq(small, big)
        assert es_leq_oracle(small, big)


def test_whole_type_chain_increases():
    term = parse("rec x . (!a.x (+) !b)")
    approximants = [denote(term, "A", unroll_depth=k) for k in range(5)]
    for small, big in zip(approximants, approximants[1:]):
        assert es_leq(small, big)


def test_multi_occurrence_recursion_copies_disjoint():
    es = denote(parse("rec x . (!a.x (+) !b.x)"), "A", unroll_depth=2)
    assert len(es.events) == 6
    assert len({e.id for e in es.events}) == 6


def test_nested_recursion_compiles():
    term = parse("rec x . !a.(rec y . ?b.x + ?c.y)")
    es = denote(term, "A", unroll_depth=2)
    assert es.participants() == {"A"}
    chain = [denote(term, "A", unroll_depth=k) for k in range(3)]
    assert es_leq(chain[0], chain[1]) and es_leq(chain[1], chain[2])


def test_disjoint_parities_never_collide():
    left = denote(parse("rec x . !a.x"), "A", parity="odd", unroll_depth=3)
    right = denote(parse("rec y . ?a.y"), "B", parity="even", unroll_depth=3)
    assert not (left.event_ids & right.event_ids)


def test_label_soundness():
    es = denote(parse("!a.?b.1 (+) !c"), "A")
    for event in es.events:
        assert event.participant == "A"
    by_label = {str(e.label) for e in es.events}
    assert by_label == {"!a", "?b", "!c", "✓"}
