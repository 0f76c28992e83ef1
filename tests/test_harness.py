"""Bisimulation, corpus generation and the theorem checks."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stgames
from stgames import estructure, game, harness, opsem
from conftest import (acceptance_contracts, acceptance_pairs, acceptance_spec, frame_depth, oracle_cases,
                      reference_bisim, reference_corpus_pair, reference_truncate)
from stgames.denote import denote, denote_par
from stgames.estructure import ets, make_es
from stgames.game import compose_session_contracts
from stgames.harness import (
    CorpusSpec,
    bisim,
    contract_ets,
    corpus_pair,
    dual,
    random_session_type,
    run_corpus,
    correspondence_check,
    truncate,
    turn_lts,
)
from stgames.lts import Lts
from stgames.opsem import check_compliance, check_compliance_turn, state_key, step_reduce, step_turn
from stgames.syntax import ExternalChoice, InternalChoice, Term0, Var, is_recursive, parse, pretty, validate


# -- bisimulation ---------------------------------------------------------------

def lts(edges, initial="s0"):
    states = {initial} | {s for s, _, t in edges} | {t for s, _, t in edges}
    return Lts(frozenset(states), initial, frozenset(edges))


def test_lts_rejects_states_it_does_not_hold():
    with pytest.raises(ValueError, match="initial state is not a state"):
        Lts(frozenset({"s0"}), "s1", frozenset())
    for edge in (("s0", "x", "s2"), ("s2", "x", "s0")):
        with pytest.raises(ValueError, match="edge endpoint is not a state"):
            Lts(frozenset({"s0", "s1"}), "s0", frozenset({("s0", "x", "s1"), edge}))
    assert Lts(frozenset({"s0"}), "s0", frozenset()).edges == frozenset()


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


def _bisim_outcome(check, a, b):
    try:
        return check(a, b)
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
@given(pair=lts_pairs())
def test_bisim_matches_reference_on_small_systems(pair):
    a, b = pair
    assert _bisim_outcome(bisim, a, b) == _bisim_outcome(reference_bisim, a, b)


@pytest.mark.parametrize("family", ["finite", "recursive"])
def test_bisim_matches_reference(family):
    # ROADMAP aim 3: the worklist refinement against the whole-partition
    # loop it replaced, on the turn-based system of every acceptance pair's
    # truncated types against its own event-labelled system (bisimilar) and
    # the previous pair's (mostly not)
    depth = acceptance_spec(family).unroll_depth
    systems = [(turn_lts(truncate(p, depth), truncate(q, depth)), contract_ets(contract))
               for (p, q), contract in zip(acceptance_pairs(family), acceptance_contracts(family))]
    for index, (ts, own) in enumerate(systems):
        assert bisim(ts, own), index
        for es_lts in (own, systems[index - 1][1]):
            assert _bisim_outcome(bisim, ts, es_lts) == _bisim_outcome(reference_bisim, ts, es_lts), index


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
    composed = denote_par(p, "A", q, "B")
    pruned = make_es(
        composed.events,
        composed.conflicts,
        [g for g in composed.gens if g != (frozenset({"e1"}), "e2")],
    )
    assert not bisim(turn_lts(p, q), ets(pruned, relabel=True))


def test_simplest_recursive_pair_bounded_bisimilar():
    # the approximant is strongly bisimilar to the truncated types' system,
    # not to the endless loop of the types themselves
    p, q = parse("rec x . !a.x"), parse("rec y . ?a.y")
    es_lts = contract_ets(compose_session_contracts(p, "A", q, "B", 4))
    assert bisim(turn_lts(truncate(p, 4), truncate(q, 4)), es_lts)
    assert not bisim(turn_lts(p, q), es_lts)


def test_asymmetric_rate_recursion_bounded_bisimilar():
    # the reader consumes two outputs per unrolling, so its approximant runs
    # out first; the truncations stop where the approximants do
    p, q = parse("rec x . !a.x"), parse("rec y . ?a.?a.y")
    contract = compose_session_contracts(p, "A", q, "B", 4)
    assert bisim(turn_lts(truncate(p, 4), truncate(q, 4)), contract_ets(contract))


def assert_bounded_correspondence(p, q, depth) -> bool:
    """Whether composing ``p`` and ``q`` at ``depth`` cuts a recursion; if it
    does, the two checkers give one verdict on the truncated types, and
    their whole turn-based system is strongly bisimilar to the
    event-labelled system of the depth-``depth`` composition."""
    contract = compose_session_contracts(p, "A", q, "B", depth)
    if contract.bounded_depth is None:
        return False
    tp, tq = truncate(p, depth), truncate(q, depth)
    reduction = check_compliance(tp, tq, validate_inputs=False)
    turn = check_compliance_turn(tp, tq, validate_inputs=False)
    case = (pretty(p), pretty(q), depth)
    assert reduction.status == turn.status != "indeterminate", case
    assert bisim(turn_lts(tp, tq), contract_ets(contract)), case
    return True


# the cases of the bounded correspondence oracle: the seed-42 recursive
# corpus at depths 0-4, the nested oracle pairs at depths 0-2 and the
# deep-unroll families at each depth up to their deepest; how many cut
BOUNDED_ORACLE = {
    "recursive": (range(5), 500),
    "nested": (range(3), 450),
    "families": (None, 46),
}


@pytest.mark.parametrize("kind", sorted(BOUNDED_ORACLE))
def test_bounded_correspondence_oracle(kind):
    depths, expected = BOUNDED_ORACLE[kind]
    cases = [(p, q, d) for p, q, depth in oracle_cases(kind) for d in (depths or (depth,))]
    assert sum(assert_bounded_correspondence(*case) for case in cases) == expected


def test_unused_binder_is_exact_in_the_correspondence():
    # the game and compliance read the same decision: no bound, no truncation
    report = correspondence_check(parse("rec x . !a"), parse("?a"), 4)
    assert not report.bounded and report.contract.bounded_depth is None
    assert report.agree and report.compliance.is_compliant and report.eager.winning


def test_truncate_replaces_recursion_with_dead_process():
    # the dead end is an empty choice, never the 0 a side reaches after ✓
    term = truncate(parse("rec x . (!a.x (+) !b)"), 2)
    assert pretty(term) == "!a.(!a.() (+) !b) (+) !b"
    assert not is_recursive(term)
    cut = term.branches[0][1].branches[0][1]
    assert cut == InternalChoice(()) and pretty(cut) == ""


def test_truncate_depth_zero_is_dead():
    cut = truncate(parse("rec x . !a.x"), 0)
    assert cut == InternalChoice(()) and not isinstance(cut, Term0)
    # stuck under both semantics, against an input it could feed or another cut
    for other in (parse("?a"), cut):
        assert step_reduce(cut, other) == [] and step_turn(cut, other) == []


def test_cut_and_terminated_side_have_distinct_state_keys():
    # after !a ?a the client is cut, after !b ?b ✓ it has terminated; with
    # 0 as the dead end both were the state 0 || 0, so the turn checker
    # read the cut as success
    p = truncate(parse("rec x . (!a.x (+) !b)"), 1)
    q = truncate(parse("rec y . (?a.y + ?b)"), 1)
    assert state_key(p.branches[0][1], q.branches[0][1]) == " || "
    states = turn_lts(p, q).states
    assert {" || ", "0 || 0"} <= states
    verdicts = [check(p, q, validate_inputs=False) for check in (check_compliance, check_compliance_turn)]
    assert [(v.status, v.witness) for v in verdicts] == [
        ("non-compliant", ("commit !a (left)", "sync a")), ("non-compliant", ("!a", "?a"))]


# how many client and server types each oracle_cases kind yields
TRUNCATE_CASES = {"recursive": 200, "nested": 300, "families": 92}


@pytest.mark.parametrize("kind", sorted(TRUNCATE_CASES))
def test_truncate_denotes_the_approximant(kind):
    # the bounded correspondence compares eager play on the depth-d
    # approximant with compliance of the truncated types
    cases = [(term, depth) for p, q, depth in oracle_cases(kind) for term in (p, q)]
    assert len(cases) == TRUNCATE_CASES[kind]
    for term, depth in cases:
        approximant = denote(term, "A", depth)
        truncated = denote(truncate(term, depth), "A", 0)
        assert len(truncated.events) == len(approximant.events), (pretty(term), depth)
        assert bisim(ets(truncated, relabel=True), ets(approximant, relabel=True)), (pretty(term), depth)


def same_term(left, right) -> bool:
    """``left == right`` for terms that share subterms, each pair of nodes
    compared once: a truncation shares every approximant it nests, and ``==``
    walks the unshared tree, which grows exponentially with the depth."""
    equal: set[tuple[int, int]] = set()

    def same(a, b):
        if a is b or (id(a), id(b)) in equal:
            return True
        if type(a) is not type(b):
            return False
        if isinstance(a, (InternalChoice, ExternalChoice)):
            found = len(a.branches) == len(b.branches) and all(
                la == lb and same(ca, cb) for (la, ca), (lb, cb) in zip(a.branches, b.branches))
        else:
            found = a == b
        if found:
            equal.add((id(a), id(b)))
        return found

    return same(left, right)


def test_truncate_matches_the_reference():
    # the loop against the nested closure it replaced, on every recursive
    # oracle type and two binders that shadow or nest, at depths 0..6
    terms = {term for kind in ("recursive", "nested", "families")
             for p, q, _ in oracle_cases(kind) for term in (p, q)}
    terms |= {parse("rec x . !a.(rec x . ?b.x)"), parse("rec x . !a.(rec y . (!b.x (+) !c.y))")}
    for term in terms:
        for depth in range(7):
            assert same_term(truncate(term, depth), reference_truncate(term, depth)), (pretty(term), depth)
    assert not same_term(parse("!a.!b"), parse("!a.!c"))


def test_dual_and_truncate_take_one_frame_per_level():
    # a 900-prefix chain under a recursion limit 950 frames above the
    # caller; the results are compared printed, as == recurses per level
    # through the dataclass comparisons past the limit
    chain = ".".join(["!a"] * 900)
    term, loop = parse(chain), parse(f"rec x . {chain}.x")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 950)
    try:
        twice = dual(dual(term))
        cut = truncate(loop, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert pretty(twice) == chain
    assert pretty(cut) == chain + ".()"


def test_truncated_types_execute_under_both_checkers():
    p = truncate(parse("rec x . !a.x"), 3)
    q = truncate(parse("rec y . ?a.y"), 3)
    reduction = check_compliance(p, q, validate_inputs=False)
    turn = check_compliance_turn(p, q, validate_inputs=False)
    assert reduction.status == turn.status == "non-compliant"


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


# the default alphabet, and four names that are not listed in sorted order
ORACLE_ALPHABETS = (CorpusSpec(seed=0, count=0).actions, ("quit", "ack", "pong", "ping"))


def assert_generates_as_reference(seed: int, recursive: bool, actions: tuple[str, ...]) -> None:
    """The first pair of the seed's corpus prints as the reference
    generator's, client and server."""
    spec = CorpusSpec(seed=seed, count=1, allow_recursion=recursive, actions=actions)
    assert [*map(pretty, corpus_pair(spec, 0))] == [*map(pretty, reference_corpus_pair(spec, 0))], seed


@pytest.mark.parametrize("actions", ORACLE_ALPHABETS, ids=["default", "four-names"])
@pytest.mark.parametrize("recursive", [False, True], ids=["finite", "recursive"])
def test_generator_matches_reference(recursive, actions):
    for seed in range(2000):
        assert_generates_as_reference(seed, recursive, actions)


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


# the nested pair whose generator product ran out of memory at depth 3; in a
# child capped at 1 GiB of address space, as the composite must fit in it
NESTED_PAIR_115 = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from stgames.harness import CorpusSpec, corpus_pair, correspondence_check
spec = CorpusSpec(seed=1001, count=150, max_depth=5, allow_recursion=True, unroll_depth=3)
report = correspondence_check(*corpus_pair(spec, 115), spec.unroll_depth)
print(report.agree, report.bounded, report.eager.winning, report.compliance.status)
"""


def test_correspondence_nested_pair_at_depth_three_within_one_gib():
    env = {**os.environ, "PYTHONPATH": str(Path(stgames.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", NESTED_PAIR_115], env=env, capture_output=True,
                          text=True, encoding="utf-8")
    assert (done.returncode, done.stderr) == (0, "")
    # eager loses, and the truncated types are not compliant
    assert done.stdout == "True True False non-compliant\n"


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


def _count_work(monkeypatch) -> dict[str, int]:
    """Count the arenas and the compliance explorations built from here on."""
    counts = {"arenas": 0, "explorations": 0}

    def counting(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(estructure.Arena, "__init__", counting("arenas", estructure.Arena.__init__))
    monkeypatch.setattr(opsem, "_explore", counting("explorations", opsem._explore))
    return counts


@pytest.mark.parametrize("recursive", [False, True], ids=["finite", "recursive"])
def test_corpus_work_per_pair(recursive, monkeypatch):
    # the games and the event-labelled system share one arena; a finite pair
    # is explored under reduction and turn, a recursive one also under turn
    # on its truncations
    counts = _count_work(monkeypatch)
    summary = run_corpus(CorpusSpec(seed=42, count=30, allow_recursion=recursive))
    assert summary.ok
    assert counts == {"arenas": 30, "explorations": (3 if recursive else 2) * 30}


def test_corpus_reports_a_pair_cut_short_once(monkeypatch):
    # at 10 states, pair 1's compliance explorations and event-labelled
    # system stop (its eager verdict is a loss inside the arena) and pair
    # 4's eager verdict needs more of the arena; each is one failure, and
    # each pair still explores one arena
    counts = _count_work(monkeypatch)
    monkeypatch.setattr(harness, "DEFAULT_STATE_LIMIT", 10)
    monkeypatch.setattr(game, "DEFAULT_STATE_LIMIT", 10)
    summary = run_corpus(CorpusSpec(seed=42, count=6))
    assert [(f["pair"], f["check"], f["detail"]) for f in summary.failures] == [
        (1, "state-limit", "indeterminate: stopped at the state limit of 10: "
                           "reduction, turn-based, event-labelled"),
        (4, "state-limit", "indeterminate: the game arena exceeds the state limit of 10 configurations"),
    ]
    assert summary.checker_agreements == summary.correspondence_agreements == summary.bisim_agreements == 4
    assert counts["arenas"] == 6


def test_corpus_names_a_truncations_exploration(monkeypatch):
    # recursive pair 4 explores 13 states under reduction and 15 under turn,
    # but its truncations 37 under turn and its event-labelled system 61
    monkeypatch.setattr(harness, "DEFAULT_STATE_LIMIT", 20)
    summary = run_corpus(CorpusSpec(seed=42, count=5, allow_recursion=True))
    assert [(f["pair"], f["check"], f["detail"]) for f in summary.failures] == [
        (4, "state-limit", "indeterminate: stopped at the state limit of 20: turn-based, event-labelled"),
    ]


def test_corpus_names_only_the_explorations_whose_verdict_was_cut(monkeypatch):
    # at 10 states, recursive pair 76's compliance searches find their
    # witnesses before the limit cuts anything, so only the whole turn-based
    # system of its truncations and its event-labelled system are named
    monkeypatch.setattr(harness, "DEFAULT_STATE_LIMIT", 10)
    monkeypatch.setattr(game, "DEFAULT_STATE_LIMIT", 10)
    summary = run_corpus(CorpusSpec(seed=42, count=77, allow_recursion=True))
    assert [f["detail"] for f in summary.failures if f["pair"] == 76] == [
        "indeterminate: stopped at the state limit of 10: turn-based, event-labelled",
    ]


def test_summary_json_reproducible():
    spec = CorpusSpec(seed=21, count=10)
    assert run_corpus(spec).to_json() == run_corpus(spec).to_json()
