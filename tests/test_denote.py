"""Compilation of session types to event structures."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stgames

from conftest import DEEP_FAMILIES, es_leq_oracle, reference_denote, reference_denote_par
from stgames.denote import DenoteError, _compile, denote, denote_par, fix_approx, occurrence_index
from stgames.estructure import EMPTY_ES, Event, EventStructureGen, es_leq, es_to_json, make_es
from stgames.game import approximant_depth, compose_session_contracts
from stgames.harness import CorpusSpec, corpus_pair, dual
from stgames.syntax import TICK, Rec, out, parse


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


@pytest.fixture(scope="module")
def example():
    client = denote(parse("!a (+) !b.!a"), "A", parity="odd")
    server = denote(parse("?a.?b + ?b.?a + ?c"), "B", parity="even")
    return client, server, denote_par(client, server)


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


# -- parallel composition ------------------------------------------------------

def test_par_of_two_successes():
    left = denote(parse("1"), "A", parity="odd")
    right = denote(parse("1"), "B", parity="even")
    composed = denote_par(left, right)
    assert gens_of(composed) == G(((), "e1"), ((), "e2"))


def test_par_rejects_overlapping_ids():
    left = denote(parse("1"), "A", parity="odd")
    with pytest.raises(ValueError):
        denote_par(left, denote(parse("1"), "B", parity="odd"))


def test_par_premise_tick_kills_enabling():
    # a premise event labelled success has no complement
    left = make_es(
        [Event("e1", "A", TICK), Event("e3", "A", out("a"))],
        (),
        [((), "e1"), (("e1",), "e3")],
    )
    right = denote(parse("?a"), "B", parity="even")
    composed = denote_par(left, right)
    assert composed.premises_of("e3") == ()


def test_par_repeated_action_needs_fresh_acknowledgement():
    # the second output of the same action cannot reuse the first reader:
    # with a single reader available the later success stays disabled
    left = denote(parse("!a.!a"), "A", parity="odd")
    right = denote(parse("?a.?b"), "B", parity="even")
    composed = denote_par(left, right)
    # e5 is the client's success after the second !a; the only ?a reader
    # acknowledges the first output, so nothing enables e5
    assert composed.premises_of("e5") == ()


def test_par_repeated_action_pairs_by_occurrence():
    left = denote(parse("!a.!a"), "A", parity="odd")
    right = denote(parse("?a.?a"), "B", parity="even")
    composed = denote_par(left, right)
    # second output waits for the first read; second read for the second output
    assert gens_of(composed) >= G(
        (("e1", "e2"), "e3"),
        (("e1", "e2", "e3"), "e4"),
    )
    assert (frozenset({"e1", "e2"}), "e4") not in gens_of(composed)


def test_occurrence_index_counts_same_label_ancestors():
    es = denote(parse("!a.!b.!a"), "A")
    occ = occurrence_index(es)
    assert occ["e1"] == 1  # first !a
    assert occ["e3"] == 1  # the !b
    assert occ["e5"] == 2  # second !a


# a left side whose two !a events enable each other, against a ?a chain
CYCLIC_PAR = """
from stgames.denote import denote_par
from stgames.estructure import Event, es_to_json, make_es
from stgames.syntax import inp, out

left = make_es([Event("e1", "A", out("a")), Event("e3", "A", out("a"))], (),
               [(("e3",), "e1"), (("e1",), "e3"), ((), "e1")])
right = make_es([Event(f"e{i}", "B", inp("a")) for i in (2, 4, 6)], (),
                [((), "e2"), (("e2",), "e4"), (("e4",), "e6")])
print(es_to_json(denote_par(left, right)))
"""


def test_occurrence_index_on_a_cycle_is_the_closure():
    left = make_es([Event("e1", "A", out("a")), Event("e3", "A", out("a"))], (),
                   [(("e3",), "e1"), (("e1",), "e3"), ((), "e1")])
    # each !a has both !a events, itself included, as ancestors
    assert occurrence_index(left) == {"e1": 3, "e3": 3}


def test_denote_par_on_a_cycle_does_not_depend_on_hash_order():
    env = {**os.environ, "PYTHONPATH": str(Path(stgames.__file__).parents[1])}
    outputs = {
        subprocess.run([sys.executable, "-c", CYCLIC_PAR], env={**env, "PYTHONHASHSEED": seed},
                       capture_output=True, text=True, check=True).stdout
        for seed in ("1", "2")
    }
    assert len(outputs) == 1
    assert '"premise": [\n        "e1",\n        "e6"\n      ],\n      "target": "e3"' in outputs.pop()


def test_paycash_composition():
    client = denote(parse("!payCash (+) !payCC"), "A", parity="odd")
    server = denote(parse("?payCash"), "B", parity="even")
    composed = denote_par(client, server)
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
        assert es_to_json(denote_par(left, right)) == es_to_json(reference_denote_par(ref_left, ref_right))
        for term, who, parity, ref in ((client, "A", "odd", ref_left), (server, "B", "even", ref_right)):
            if isinstance(term, Rec):
                approx = fix_approx(term.var, term.body, who, depth=depth, parity=parity)
                assert es_to_json(approx) == es_to_json(ref)


def _split_by_participant(es):
    """The A and B sides of ``es``: each keeps its own events, the conflicts
    among them and the generators whose premise lies on its side."""
    sides = []
    for who in ("A", "B"):
        ids = es.events_of(who)
        sides.append(make_es(
            [event for event in es.events if event.id in ids],
            [pair for pair in es.conflicts if pair <= ids],
            [(premise, target) for premise, target in es.gens if target in ids and premise <= ids],
        ))
    return sides


def test_denote_par_matches_reference_on_split_structures(small_structures):
    # hand-built sides with repeated labels, and with ✓ in premises and
    # generator cycles, which no compiled session type produces
    for es in small_structures:
        left, right = _split_by_participant(es)
        assert es_to_json(denote_par(left, right)) == es_to_json(reference_denote_par(left, right))


# -- oracle: composition from terms against denote_par of the denotations --------

# nested recursion; at unroll depth 3 its pair 115 exhausts memory in denote_par
NESTED_SPEC = CorpusSpec(seed=1001, count=150, max_depth=5, allow_recursion=True, unroll_depth=2)


def assert_composes_as_denote_par(client, server, depth):
    """``compose_session_contracts`` builds what ``denote_par`` of the two
    denotations builds, and each compile walk records the occurrences that
    :func:`occurrence_index` reads off its structure."""
    left = denote(client, "A", unroll_depth=depth, parity="odd")
    right = denote(server, "B", unroll_depth=depth, parity="even")
    contract = compose_session_contracts(client, "A", server, "B", depth)
    assert es_to_json(contract.es) == es_to_json(denote_par(left, right))
    assert contract.bounded_depth == approximant_depth(client, server, depth)
    for term, parity, side in ((client, "odd", left), (server, "even", right)):
        assert _compile(term, "A", depth, parity).occurrences == occurrence_index(side)


def _composition_cases(kind):
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
        "nested": NESTED_SPEC,
    }[kind]
    for index in range(spec.count):
        yield *corpus_pair(spec, index), spec.unroll_depth


@pytest.mark.parametrize("kind", ["finite", "recursive", "families", "nested"])
def test_composition_from_terms_matches_denote_par(kind):
    for client, server, depth in _composition_cases(kind):
        assert_composes_as_denote_par(client, server, depth)


def test_composition_from_terms_rejects_negative_depth():
    with pytest.raises(DenoteError, match="non-negative"):
        compose_session_contracts(parse("!a"), "A", parse("?a"), "B", -1)


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


# -- recursion approximants ------------------------------------------------------

def test_fix_depth_zero_is_bottom():
    assert fix_approx("x", parse("!a.x"), "A", depth=0) == EMPTY_ES


def test_fix_depth_one_single_event():
    es = fix_approx("x", parse("!a.x"), "A", depth=1)
    (event,) = es.events
    assert str(event.label) == "!a"
    assert gens_of(es) == G(((), event.id))


def test_fix_chain_increases():
    body = parse("!a.x")
    approximants = [fix_approx("x", body, "A", depth=k) for k in range(4)]
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
