"""Bisimulation, corpus generation and the theorem checks."""

from __future__ import annotations

import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import acceptance_contracts, acceptance_pairs, acceptance_spec, reference_bisim
from stgames.denote import denote, denote_par
from stgames.estructure import EventStructureGen, ets
from stgames.game import compose_session_contracts
from stgames.harness import (
    CorpusSpec,
    bisim,
    bounded_bisim_depth,
    contract_ets,
    corpus_pair,
    dual,
    min_loop_guard,
    random_session_type,
    run_corpus,
    correspondence_check,
    truncate,
    turn_lts,
)
from stgames.lts import Lts
from stgames.opsem import check_compliance
from stgames.syntax import Term0, Var, is_recursive, parse, pretty, validate


# -- bisimulation ---------------------------------------------------------------

def lts(edges, initial="s0"):
    states = {initial} | {s for s, _, t in edges} | {t for s, _, t in edges}
    return Lts(frozenset(states), initial, frozenset(edges))


def test_bisim_identical_systems():
    a = lts([("s0", "x", "s1")])
    assert bisim(a, a)


def test_bisim_distinguishes_branching():
    a = lts([("s0", "x", "s1"), ("s1", "y", "s2"), ("s1", "z", "s3")])
    b = lts([("s0", "x", "s1"), ("s1", "y", "s2"), ("s0", "x", "s4"), ("s4", "z", "s3")])
    assert not bisim(a, b)


def test_bisim_unwinds_cycles():
    a = lts([("s0", "x", "s0")])
    b = lts([("s0", "x", "s1"), ("s1", "x", "s0")])
    assert bisim(a, b)


def test_bounded_bisim_sees_only_the_horizon():
    a = lts([("s0", "x", "s1"), ("s1", "x", "s2"), ("s2", "x", "s3")])
    b = lts([("s0", "x", "s1"), ("s1", "x", "s2")])
    assert bisim(a, b, bound=2)
    assert not bisim(a, b, bound=3)
    assert not bisim(a, b)


def test_bisim_rejects_negative_bound():
    # a negative bound ran no round, and the one-block partition related everything
    a = lts([("s0", "x", "s1")])
    b = lts([("s0", "x", "s1"), ("s0", "y", "s2")])
    assert bisim(a, b, bound=0)
    assert not bisim(a, b, bound=1)
    with pytest.raises(ValueError, match="bisimulation bound must be non-negative"):
        bisim(a, b, bound=-1)


def _bisim_outcome(check, a, b, bound):
    try:
        return check(a, b, bound)
    except ValueError as exc:
        return str(exc)


@st.composite
def lts_pairs(draw):
    """Two systems of one to six states over the labels x and y, with any
    initial state, so self-loops, cycles and unreachable states all occur;
    half the time the second is the first with one state split in two,
    which is bisimilar by construction."""
    def system(tag):
        states = [f"{tag}{i}" for i in range(draw(st.integers(1, 6)))]
        edges = draw(st.sets(
            st.tuples(st.sampled_from(states), st.sampled_from("xy"), st.sampled_from(states)),
            max_size=12,
        ))
        return Lts(frozenset(states), draw(st.sampled_from(states)), frozenset(edges))

    a = system("a")
    if draw(st.booleans()):
        return a, system("b")
    rename = {state: "b" + state[1:] for state in a.states}
    split = rename[draw(st.sampled_from(sorted(a.states)))]
    edges = set()
    for src, label, dst in a.edges:
        src, dst = rename[src], rename[dst]
        targets = draw(st.sampled_from([(dst,), ("copy",), (dst, "copy")])) if dst == split else (dst,)
        edges |= {(src, label, target) for target in targets}
    edges |= {("copy", label, dst) for src, label, dst in edges if src == split}
    states = frozenset(rename.values()) | {"copy"}
    return a, Lts(states, rename[a.initial], frozenset(edges))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair=lts_pairs(), bound=st.sampled_from([None, 0, 1, 2, 3, 4, 5]))
def test_bisim_matches_reference_on_small_systems(pair, bound):
    a, b = pair
    assert _bisim_outcome(bisim, a, b, bound) == _bisim_outcome(reference_bisim, a, b, bound)


@pytest.mark.parametrize("family", ["finite", "recursive"])
def test_bisim_matches_reference(family):
    # ROADMAP aim 3: the worklist refinement against the whole-partition
    # loop it replaced, on every acceptance pair's turn-based system against
    # its own event-labelled system (bisimilar) and the previous pair's
    # (mostly not), at the pair's own bound and at 0-3
    depth = acceptance_spec(family).unroll_depth
    pairs = acceptance_pairs(family)
    systems = [(turn_lts(p, q), contract_ets(contract))
               for (p, q), contract in zip(pairs, acceptance_contracts(family))]
    for index, (p, q) in enumerate(pairs):
        ts = systems[index][0]
        for es_lts in (systems[index][1], systems[index - 1][1]):
            for bound in (bounded_bisim_depth(p, q, depth), 0, 1, 2, 3):
                assert (_bisim_outcome(bisim, ts, es_lts, bound)
                        == _bisim_outcome(reference_bisim, ts, es_lts, bound)), (index, bound)


def test_bisim_rejects_disjoint_alphabets():
    a = lts([("s0", "x", "s1")])
    b = lts([("s0", "y", "s1")])
    with pytest.raises(ValueError):
        bisim(a, b)


def test_bisim_event_labelled_system_must_be_relabelled():
    p, q = parse("!a (+) !b.!a"), parse("?a.?b + ?b.?a + ?c")
    contract = compose_session_contracts(p, "A", q, "B")
    with pytest.raises(ValueError):
        bisim(turn_lts(p, q), ets(contract.es, relabel=False))


def test_example_turn_vs_event_systems():
    p, q = parse("!a (+) !b.!a"), parse("?a.?b + ?b.?a + ?c")
    contract = compose_session_contracts(p, "A", q, "B")
    assert bisim(turn_lts(p, q), contract_ets(contract))


def test_two_successes_bisimilar():
    one = parse("1")
    contract = compose_session_contracts(one, "A", one, "B")
    assert bisim(turn_lts(one, one), contract_ets(contract))


def test_mutated_structure_not_bisimilar():
    # deleting the client-acknowledgement enabling removes a mandatory move
    p, q = parse("!a (+) !b.!a"), parse("?a.?b + ?b.?a + ?c")
    composed = denote_par(
        denote(p, "A", parity="odd"), denote(q, "B", parity="even")
    )
    pruned = EventStructureGen(
        composed.events,
        composed.conflicts,
        frozenset(g for g in composed.gens if g != (frozenset({"e1"}), "e2")),
    )
    assert not bisim(turn_lts(p, q), ets(pruned, relabel=True))


def test_simplest_recursive_pair_bounded_bisimilar():
    p, q = parse("rec x . !a.x"), parse("rec y . ?a.y")
    contract = compose_session_contracts(p, "A", q, "B", 4)
    bound = bounded_bisim_depth(p, q, 4)
    assert bound == 6
    assert bisim(turn_lts(p, q), contract_ets(contract), bound)


def test_asymmetric_rate_recursion_bounded_bisimilar():
    # the reader consumes two outputs per unrolling, so its approximant is
    # the short side; the bound must stay inside the joint horizon
    p, q = parse("rec x . !a.x"), parse("rec y . ?a.?a.y")
    bound = bounded_bisim_depth(p, q, 4)
    contract = compose_session_contracts(p, "A", q, "B", 4)
    assert bisim(turn_lts(p, q), contract_ets(contract), bound)


# -- syntactic helpers ------------------------------------------------------------

def test_min_loop_guard():
    assert min_loop_guard(parse("!a")) is None
    assert min_loop_guard(parse("rec x . !a.x")) == 1
    assert min_loop_guard(parse("rec x . !a.!b.x")) == 2
    assert min_loop_guard(parse("rec x . (!a.x (+) !b.!c.x)")) == 1


def test_bounded_bisim_depth_rules():
    assert bounded_bisim_depth(parse("!a"), parse("?a")) is None
    # one recursive side is enough to force a bound
    assert bounded_bisim_depth(parse("rec x . !a.x"), parse("?a"), 4) == 6
    assert bounded_bisim_depth(parse("rec x . !a.x"), parse("rec y . ?a.?a.y"), 4) == 6
    # a binder whose variable is never used cuts nothing, except at depth 0
    assert bounded_bisim_depth(parse("rec x . !a"), parse("?a"), 4) is None
    # depth 0 denotes no event of any recursion, so it tracks nothing
    assert bounded_bisim_depth(parse("rec x . !a"), parse("?a"), 0) == 0
    assert bounded_bisim_depth(parse("rec x . !a.x"), parse("rec y . ?a.y"), 0) == 0


def test_unused_binder_is_exact_in_the_correspondence():
    # the game and compliance read the same decision: no bound, no truncation
    report = correspondence_check(parse("rec x . !a"), parse("?a"), 4)
    assert not report.bounded and report.contract.bounded_depth is None
    assert report.agree and report.compliance.is_compliant and report.eager.winning


def test_truncate_replaces_recursion_with_dead_process():
    term = truncate(parse("rec x . !a.x"), 2)
    assert pretty(term) == "!a.!a.0"
    assert not is_recursive(term)
    assert any(isinstance(t, Term0) for t in [term] + [c for _, c in getattr(term, "branches", ())]) or "0" in pretty(term)


def test_truncate_depth_zero_is_dead():
    assert truncate(parse("rec x . !a.x"), 0) == Term0()


def test_truncated_types_execute_under_both_checkers():
    p = truncate(parse("rec x . !a.x"), 3)
    q = truncate(parse("rec y . ?a.y"), 3)
    verdict = check_compliance(p, q, validate_inputs=False)
    assert verdict.status == "non-compliant"


# -- corpus generation -------------------------------------------------------------

def test_generator_deterministic():
    spec = CorpusSpec(seed=1, count=1)
    assert random_session_type(spec, "client", 7) == random_session_type(spec, "client", 7)
    assert random_session_type(spec, "server", 7) == random_session_type(spec, "server", 7)


def test_generator_outputs_validate():
    spec = CorpusSpec(seed=3, count=1)
    for index in range(120):
        for role in ("client", "server"):
            assert validate(random_session_type(spec, role, index)) == []


def test_generator_recursive_outputs_validate():
    spec = CorpusSpec(seed=3, count=1, allow_recursion=True)
    for index in range(120):
        term = random_session_type(spec, "client", index)
        assert validate(term) == []
        assert is_recursive(term)


def test_generator_outputs_round_trip_through_printer():
    from stgames.syntax import parse as reparse

    spec = CorpusSpec(seed=17, count=1, allow_recursion=True)
    for index in range(100):
        term = random_session_type(spec, "client", index)
        assert reparse(pretty(term)) == term


def test_generator_depth_one_support():
    spec = CorpusSpec(seed=5, count=1, max_depth=1)
    seen = set()
    for index in range(200):
        term = random_session_type(spec, "client", index)
        seen.add(pretty(term))
        branches = getattr(term, "branches", ())
        if branches:
            assert len(branches) == 1
            assert branches[0][1] == parse("1")
    assert "1" in seen
    assert any(text.startswith("!") or text.startswith("?") for text in seen)


def test_corpus_pairs_deterministic():
    spec = CorpusSpec(seed=11, count=4)
    assert [corpus_pair(spec, i) for i in range(4)] == [corpus_pair(spec, i) for i in range(4)]


# SHA-256 over pretty(client) + "\n" + pretty(server) + "\n" for the first 200
# pairs of each spec (seed 42 unless given), recorded before the edits of
# ``_ensure_recursive`` and ``_perturb`` shared one walk and one rewrite:
# the generator's output must not move when its code does.
CORPUS_DIGESTS = {
    "finite": ({}, "d35b16d0549584fb4ece64ff9ea7293f558ca02675b9f776de9a398da0b2d3ba"),
    "recursive": ({"allow_recursion": True},
                  "329eba14c7ad9c70ce840f12755f3b7f67f31500f5d5c556c5bcfbae0ced5b50"),
    "depth-0": ({"max_depth": 0}, "182d215914ea76206a934b5650f2bc792439007617e41d97a07fd77fab0337d0"),
    "depth-0-recursive": ({"max_depth": 0, "allow_recursion": True},
                          "fd7d44f346e02b30cc69877731d7f7e79cc81e3e4a727d9b35146bf690269b6a"),
    "branch-1": ({"max_branch": 1}, "bd2ed11c882931f25429ef2501c0747fb9cdee21f6e105c665f9cca1ce54c942"),
    "branch-1-recursive": ({"max_branch": 1, "allow_recursion": True},
                           "f9ee3ddad0b238c9c3cdd9ba266363f0e1a3fe403a722c5556ac9095f93c3947"),
    "one-letter": ({"actions": ("a",)}, "f9612c451191ad39cd7ddba220db3d9d28b0da3208fe111d1b96d821a6a2e54a"),
    "one-letter-recursive": ({"actions": ("a",), "allow_recursion": True},
                             "980ea3bd0bebbeaa9668711bb8d9ac6c9ef7182d31024604faf43bde66b26795"),
    "seven-letters": ({"actions": tuple("abcdefg"), "max_depth": 4, "max_branch": 4},
                      "a8bd0b69786f89321f4a5050933adbd0dfc76c5be26bdb9865223c34e5f93501"),
    "seven-letters-recursive": (
        {"actions": tuple("abcdefg"), "max_depth": 4, "max_branch": 4, "allow_recursion": True},
        "c0dd1903e5844c7df947fba5806bbfe70870b65d75f919ecb675c83b8aeb083f"),
    "other-alphabet": ({"seed": 5, "actions": ("ping", "pong", "quit")},
                       "5571e814c4581353c0f75a6ab1446b0176827e7df533e1fc41f1b674144b4365"),
}


@pytest.mark.parametrize("name", sorted(CORPUS_DIGESTS))
def test_corpus_pairs_match_recorded_digest(name):
    fields, digest = CORPUS_DIGESTS[name]
    spec = CorpusSpec(**{"seed": 42, "count": 200, **fields})
    h = hashlib.sha256()
    for index in range(spec.count):
        p, q = corpus_pair(spec, index)
        h.update((pretty(p) + "\n" + pretty(q) + "\n").encode())
    assert h.hexdigest() == digest


def test_dual_is_compliant_partner():
    spec = CorpusSpec(seed=13, count=1)
    for index in range(30):
        p = random_session_type(spec, "client", index)
        assert check_compliance(p, dual(p)).is_compliant


# -- theorem checks -----------------------------------------------------------------

def test_correspondence_example_pair():
    report = correspondence_check(parse("!a (+) !b.!a"), parse("?a.?b + ?b.?a + ?c"))
    assert report.compliance.is_compliant
    assert report.eager.winning
    assert report.agree and not report.bounded


def test_correspondence_swapped_pair():
    report = correspondence_check(parse("?a.?b + ?b.?a + ?c"), parse("!a (+) !b.!a"))
    assert not report.compliance.is_compliant
    assert not report.eager.winning
    assert report.agree


def test_correspondence_counterexample_direction():
    report = correspondence_check(parse("!a.!c (+) !b"), parse("?a + ?b"))
    assert not report.compliance.is_compliant
    assert not report.eager.winning
    assert report.agree
    # agreement without compliance: a non-eager strategy exists
    contract = compose_session_contracts(parse("!a.!c (+) !b"), "A", parse("?a + ?b"), "B")
    from stgames.game import find_winning_strategy

    assert find_winning_strategy(contract, "A") is not None


def test_correspondence_recursive_pair_bounded():
    report = correspondence_check(parse("rec x . !a.x"), parse("rec y . ?a.y"), unroll_depth=4)
    assert report.bounded
    assert report.agree


@pytest.mark.parametrize("role, p, q", [
    ("client", Var("x"), parse("?a")),
    ("server", parse("rec x . !a.x"), Var("x")),
])
def test_correspondence_rejects_invalid_type_as_it_composes(role, p, q):
    # the compliance checks skip validation, so composing must still reject
    with pytest.raises(ValueError, match=f"^invalid {role} type: free-variable: x is not bound in x$"):
        correspondence_check(p, q)


@pytest.mark.parametrize("recursive", [False, True], ids=["finite", "recursive"])
def test_corpus_validates_each_type_once_per_pair(recursive, monkeypatch):
    # composing validates each type and compiles it without a second walk;
    # the compliance checks reuse that validation instead of walking it again
    walks = []

    def counting(term):
        walks.append(term)
        return validate(term)

    for module in ("stgames.syntax", "stgames.denote"):
        monkeypatch.setattr(sys.modules[module], "validate", counting)
    summary = run_corpus(CorpusSpec(seed=3, count=6, allow_recursion=recursive))
    assert summary.ok
    assert len(walks) == 2 * summary.pairs


def test_empty_corpus():
    summary = run_corpus(CorpusSpec(seed=1, count=0))
    assert summary.pairs == 0 and summary.ok


@pytest.mark.parametrize("field", [
    {"count": -1}, {"max_depth": -1}, {"max_branch": 0}, {"unroll_depth": -1},
    {"actions": ()}, {"actions": ("a", "a")}, {"actions": ("✓",)}, {"actions": ("1",)},
    {"actions": ("x y",)},
], ids=["count", "max_depth", "max_branch", "unroll_depth", "no-actions", "duplicate-action",
        "tick-action", "digit-action", "space-in-action"])
def test_corpus_spec_rejects_out_of_range(field):
    with pytest.raises(ValueError):
        CorpusSpec(**{"seed": 1, "count": 1, **field})


def test_corpus_spec_smallest_shapes():
    # max_depth 0 draws only successes; max_branch 1 only one-branch choices
    pair = corpus_pair(CorpusSpec(seed=1, count=1, max_depth=0), 0)
    assert [pretty(t) for t in pair] == ["1", "1"]
    for p, q in (corpus_pair(CorpusSpec(seed=2, count=8, max_branch=1), i) for i in range(8)):
        assert "+" not in pretty(p) + pretty(q)


def test_small_corpus_zero_failures():
    summary = run_corpus(CorpusSpec(seed=7, count=40))
    assert summary.pairs == 40
    assert summary.ok
    assert summary.correspondence_agreements == 40
    assert summary.checker_agreements == 40
    assert summary.bisim_agreements == 40
    assert summary.strategy_exists_agreements == summary.strategy_exists_checked > 0


def test_small_recursive_corpus_zero_failures():
    summary = run_corpus(
        CorpusSpec(seed=9, count=15, allow_recursion=True, unroll_depth=3)
    )
    assert summary.ok
    assert summary.pairs == 15


def test_summary_json_reproducible():
    spec = CorpusSpec(seed=21, count=10)
    assert run_corpus(spec).to_json() == run_corpus(spec).to_json()
