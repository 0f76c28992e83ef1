"""Both operational semantics and the two compliance checkers."""

from __future__ import annotations

import pytest
from conftest import (
    REFERENCE_MOVES,
    acceptance_pairs,
    large_pairs,
    oracle_cases,
    reference_explore,
    reference_key,
    reference_pretty,
)

import stgames.opsem as opsem
from stgames.harness import CorpusSpec, corpus_pair
from stgames.lts import Lts
from stgames.opsem import (
    Configuration,
    check_compliance,
    check_compliance_turn,
    explore,
    step_reduce,
    step_turn,
)
from stgames.syntax import (
    SUCCESS,
    Buffer,
    InternalChoice,
    Rec,
    Term0,
    is_recursive,
    out,
    parse,
    pretty,
)


def cfg(p: str, q: str) -> Configuration:
    return Configuration(parse(p), parse(q))


# -- reduction steps ----------------------------------------------------------

def test_commit_step():
    steps = step_reduce(parse("!a (+) !b"), parse("?a"))
    successors = {left for _, left, _ in steps}
    assert InternalChoice(((out("a"), SUCCESS),)) in successors
    assert InternalChoice(((out("b"), SUCCESS),)) in successors


def test_sync_step():
    steps = step_reduce(parse("!a"), parse("?a"))
    assert [(tag, pretty(left), pretty(right)) for tag, left, right in steps] == [("sync a", "1", "1")]


def test_success_pair_is_stuck():
    assert step_reduce(SUCCESS, SUCCESS) == []


def test_committed_singleton_does_not_self_commit():
    # a one-branch internal choice must not loop on itself; against a
    # mismatched partner the pair is simply stuck
    assert step_reduce(parse("!a"), parse("?b")) == []


def test_unfold_is_a_visible_reduction_step():
    steps = step_reduce(parse("rec x . !a.x"), SUCCESS)
    assert [tag for tag, _, _ in steps] == ["unfold (left)"]


def test_buffers_rejected_by_reduction_semantics():
    with pytest.raises(ValueError):
        step_reduce(Buffer(out("a"), SUCCESS), SUCCESS)


# -- turn-based steps ---------------------------------------------------------

def test_turn_write():
    steps = step_turn(parse("!a (+) !b"), parse("?a"))
    assert ("!a", Buffer(out("a"), SUCCESS), parse("?a")) in steps
    assert ("!b", Buffer(out("b"), SUCCESS), parse("?a")) in steps


def test_turn_read_consumes_buffer():
    steps = step_turn(parse("?a.?b + ?b"), Buffer(out("a"), parse("!c")))
    assert ("?a", parse("?b"), parse("!c")) in steps
    assert all(label != "?b" for label, _, _ in steps)


def test_turn_success_fires_tick_to_zero():
    steps = step_turn(SUCCESS, parse("!a"))
    assert ("✓", Term0(), parse("!a")) in steps


def test_turn_recursion_unfolds_tacitly():
    steps = step_turn(parse("rec x . !a.x"), parse("rec y . ?a.y"))
    assert {label for label, _, _ in steps} == {"!a"}


def test_turn_writer_blocked_until_read():
    # along every path, a side holding a full buffer never moves
    seen = set()
    frontier = [cfg("!a.!b (+) !c", "?a.?b + ?c")]
    while frontier:
        config = frontier.pop()
        key = config.key()
        if key in seen:
            continue
        seen.add(key)
        for _, left, right in opsem._turn_side_steps(config.left, config.right):
            assert not isinstance(config.left, Buffer)
            frontier.append(Configuration(left, right))
        for _, right, left in opsem._turn_side_steps(config.right, config.left):
            assert not isinstance(config.right, Buffer)
            frontier.append(Configuration(left, right))


# -- exploration --------------------------------------------------------------

def test_explore_success_pair():
    lts = explore(cfg("1", "1"), 100, semantics="reduction")
    assert len(lts.states) == 1
    assert lts.edges == frozenset()


def test_explore_example_pair_finite():
    lts = explore(cfg("!a (+) !b.!a", "?a.?b + ?b.?a + ?c"), 1000, semantics="reduction")
    assert not lts.truncated
    assert len(lts.states) > 1


def test_explore_recursive_pair_closes_cycle():
    # expected shape derived by hand: unfold left/right in either order,
    # synchronise, and return to the folded initial configuration
    lts = explore(cfg("rec x . !a.x", "rec x . ?a.x"), 1000, semantics="reduction")
    assert not lts.truncated
    assert len(lts.states) == 4
    assert len(lts.edges) == 5
    assert lts.has_cycle()


@pytest.mark.parametrize("edges, cyclic", [
    ([("s0", "x", "s0")], True),
    ([("s0", "x", "s1"), ("s0", "y", "s1")], False),
    ([("s0", "x", "s1"), ("s0", "y", "s1"), ("s1", "z", "s0")], True),
    ([("s0", "x", "s1"), ("s0", "y", "s2"), ("s1", "x", "s3"), ("s2", "y", "s3")], False),
    ([("s0", "x", "s1"), ("s2", "x", "s3"), ("s3", "y", "s2")], True),
], ids=["self-loop", "parallel-edges", "parallel-edges-in-a-cycle", "dag-with-join",
        "cycle-unreachable-from-initial"])
def test_has_cycle_shapes(edges, cyclic):
    states = frozenset({"s0"} | {s for s, _, _ in edges} | {t for _, _, t in edges})
    assert Lts(states, "s0", frozenset(edges)).has_cycle() is cyclic


def test_explore_determinism():
    first = explore(cfg("!a (+) !b.!a", "?a.?b + ?b.?a + ?c"), 1000)
    second = explore(cfg("!a (+) !b.!a", "?a.?b + ?b.?a + ?c"), 1000)
    assert first == second


def test_explore_truncation_flag():
    lts = explore(cfg("rec x . !a.x", "rec x . ?a.x"), 2, semantics="reduction")
    assert lts.truncated


# -- compliance ---------------------------------------------------------------

def test_example_compliance_both_directions():
    p, q = parse("!a (+) !b.!a"), parse("?a.?b + ?b.?a + ?c")
    assert check_compliance(p, q).status == "compliant"
    assert check_compliance(q, p).status == "non-compliant"


def test_counterexample_pair_non_compliant():
    assert check_compliance(parse("!a.!c (+) !b"), parse("?a + ?b")).status == "non-compliant"


def test_paycash_non_compliant():
    assert check_compliance(parse("!payCash (+) !payCC"), parse("?payCash")).status == "non-compliant"


def test_witness_is_minimal():
    verdict = check_compliance(parse("!a.!c (+) !b"), parse("?a + ?b"))
    assert verdict.witness is not None
    # shortest run to a stuck non-success client: commit !a, sync, stuck at !c
    assert len(verdict.witness) == 2


def test_livelock_counts_as_compliant_with_note():
    verdict = check_compliance(parse("rec x . !a.x"), parse("rec x . ?a.x"))
    assert verdict.status == "compliant"
    assert verdict.note is not None


def test_indeterminate_on_tiny_state_limit():
    verdict = check_compliance(parse("rec x . !a.x"), parse("rec x . ?a.x"), state_limit=2)
    assert verdict.status == "indeterminate"
    assert verdict.truncated


def test_invalid_input_rejected():
    with pytest.raises(ValueError):
        check_compliance(parse("x"), parse("1"))


def test_turn_compliance_fixtures():
    assert check_compliance_turn(parse("!a (+) !b.!a"), parse("?a.?b + ?b.?a + ?c")).is_compliant
    assert not check_compliance_turn(parse("!a.!c (+) !b"), parse("?a + ?b")).is_compliant
    assert check_compliance_turn(parse("1"), parse("1")).is_compliant


def test_turn_compliance_success_witness_states():
    # every maximal turn-based run of 1 || 1 ends with the client at 0
    lts = explore(cfg("1", "1"), 100, semantics="turn")
    assert any("0" in state for state in lts.states)


def test_verdict_json_shape():
    verdict = check_compliance(parse("!payCash (+) !payCC"), parse("?payCash"))
    data = verdict.to_json()
    assert data["verdict"] == "non-compliant"
    assert isinstance(data["witness"], list)
    assert data["truncated"] is False


@pytest.mark.parametrize("p,q", [
    ("!a (+) !b.!a", "?a.?b + ?b.?a + ?c"),
    ("?a.?b + ?b.?a + ?c", "!a (+) !b.!a"),
    ("!a.!c (+) !b", "?a + ?b"),
    ("!payCash (+) !payCC", "?payCash"),
    ("1", "1"),
    ("1", "!a"),
    ("!a", "?a.?b"),
    ("rec x . !a.x", "rec x . ?a.x"),
    ("rec x . (!a.x (+) !b)", "rec y . (?a.y + ?b)"),
])
def test_checkers_agree_on_fixture_pairs(p, q):
    assert check_compliance(parse(p), parse(q)).status == check_compliance_turn(parse(p), parse(q)).status


# -- oracle: the string-keyed explorer ----------------------------------------

def _pairs(family):
    if family == "large":
        return large_pairs()
    if family == "nested":
        return [(p, q) for p, q, _ in oracle_cases("nested")]
    return acceptance_pairs(family)


def assert_explores_as_reference(client, server, semantics, limit) -> bool:
    """The explorer's system, stuck states with their left terms and BFS
    parents equal the reference explorer's; returns the truncation flag."""
    got = opsem._explore(Configuration(client, server), semantics, limit)
    want = reference_explore(Configuration(client, server), semantics, limit)
    assert (got.lts, got.stuck, got.parents) == (want.lts, want.stuck, want.parents), \
        (pretty(client), pretty(server), limit)
    return got.lts.truncated


@pytest.mark.parametrize("semantics", ["reduction", "turn"])
@pytest.mark.parametrize("family,limits", [
    ("finite", (10**5, 7)),
    ("recursive", (10**5, 7)),
    ("large", (10**5, 30)),
    ("nested", (10**5, 7)),
])
def test_explore_matches_string_keyed_reference(family, limits, semantics, monkeypatch):
    # the explorer against one that prints every successor afresh with its
    # own printer: same states, edges, stuck states with their left terms
    # and BFS parents, and the same verdicts, truncated runs included
    pairs = _pairs(family)
    check = check_compliance if semantics == "reduction" else check_compliance_turn
    runs = [(p, q, limit) for p, q in pairs for limit in limits]
    assert sum(assert_explores_as_reference(p, q, semantics, limit) for p, q, limit in runs) > 0
    verdicts = [check(p, q, limit).to_json() for p, q, limit in runs]
    monkeypatch.setattr(opsem, "_explore", reference_explore)
    assert [check(p, q, limit).to_json() for p, q, limit in runs] == verdicts


@pytest.mark.parametrize("semantics", ["reduction", "turn"])
@pytest.mark.parametrize("family", ["finite", "recursive", "large"])
def test_state_keys_are_fresh_prints(family, semantics):
    # every key, and Configuration.key() read from the stored forms, equals
    # a print of the state's two sides from scratch
    for p, q in _pairs(family):
        configs = reference_explore(Configuration(p, q), semantics, 10**5).configs
        assert opsem._explore(Configuration(p, q), semantics, 10**5).lts.states == set(configs)
        for key, config in configs.items():
            assert key == config.key() == reference_key(config)


# -- oracle: least shortest witnesses --------------------------------------------

def _least_shortest_paths(lts: Lts) -> dict[str, tuple[str, ...]]:
    # one breadth-first pass over the edges, a layer at a time: each state's
    # shortest label path, the lexicographically least among equals
    out: dict[str, list[tuple[str, str]]] = {}
    for source, label, target in lts.edges:
        out.setdefault(source, []).append((label, target))
    paths = {lts.initial: ()}
    layer = [lts.initial]
    while layer:
        reached: dict[str, tuple[str, ...]] = {}
        for state in layer:
            for label, target in out.get(state, ()):
                if target not in paths:
                    path = paths[state] + (label,)
                    if target not in reached or path < reached[target]:
                        reached[target] = path
        paths.update(reached)
        layer = list(reached)
    return paths


@pytest.mark.parametrize("semantics", ["reduction", "turn"])
def test_witness_is_least_shortest_path_to_a_bad_stuck_state(semantics):
    # stuck states read off the explored system, bad when the printed left
    # side is not 1 (reduction) or 0 (turn); the witness is the least over
    # (length, path) of the least shortest paths to them
    check = check_compliance if semantics == "reduction" else check_compliance_turn
    done = "1" if semantics == "reduction" else "0"
    non_compliant = 0
    for family in ("finite", "recursive", "nested", "large"):
        for p, q in _pairs(family):
            verdict = check(p, q)
            lts = verdict.lts
            assert not lts.truncated
            sources = {source for source, _, _ in lts.edges}
            bad = [state for state in lts.states
                   if state not in sources and state.split(" || ")[0] != done]
            if not bad:
                assert verdict.witness is None, (pretty(p), pretty(q))
                continue
            non_compliant += 1
            paths = _least_shortest_paths(lts)
            want = min((paths[state] for state in bad), key=lambda w: (len(w), w))
            assert verdict.status == "non-compliant"
            assert verdict.witness == want, (pretty(p), pretty(q))
    assert non_compliant == 143


# -- oracle: the step relations -------------------------------------------------

@pytest.mark.parametrize("semantics", ["reduction", "turn"])
@pytest.mark.parametrize("family", ["finite", "recursive", "large"])
def test_moves_match_reference_step_relations(family, semantics):
    # on every configuration reached: the same moves in the same order (tag
    # or label text, then equal successor terms), and successor forms kept
    # as they were built equal to prints from scratch
    moves = opsem._MOVES[semantics]
    assert moves is {"reduction": step_reduce, "turn": step_turn}[semantics]
    reference = REFERENCE_MOVES[semantics]
    for p, q in _pairs(family):
        for config in reference_explore(Configuration(p, q), semantics, 10**5).configs.values():
            got = moves(config.left, config.right)
            want = reference(config.left, config.right)
            assert got == want, reference_key(config)
            assert ([(tag, pretty(left), pretty(right)) for tag, left, right in got]
                    == [(tag, reference_pretty(left), reference_pretty(right))
                        for tag, left, right in want]), reference_key(config)


# -- the fact the cycle shortcut rests on ---------------------------------------

def _contains_rec(term) -> bool:
    if isinstance(term, Rec):
        return True
    return any(_contains_rec(cont) for _, cont in getattr(term, "branches", ()))


@pytest.mark.parametrize("semantics", ["reduction", "turn"])
def test_pairs_without_rec_explore_no_cycle(semantics):
    # every step of a pair without rec consumes a prefix, a branch or a
    # buffer, so the checkers look for a cycle only when a side has a rec
    spec = CorpusSpec(seed=42, count=500)
    pairs = [corpus_pair(spec, index) for index in range(spec.count)] + list(large_pairs())
    finite = [(p, q) for p, q in pairs if not (_contains_rec(p) or _contains_rec(q))]
    assert len(finite) == 508
    for p, q in finite:
        assert explore(Configuration(p, q), semantics=semantics).has_cycle() is False


@pytest.mark.parametrize("family", ["finite", "recursive", "large", "action named rec"])
def test_is_recursive_with_and_without_kept_forms(family):
    # an action named rec puts "rec " in a printed form with no recursion
    pairs = [(parse("!rec (+) !b"), parse("?rec + ?b"))] if family == "action named rec" else _pairs(family)
    for pair in pairs:
        for term in pair:
            fresh = parse(reference_pretty(term))  # no printed form kept yet
            assert is_recursive(fresh) is _contains_rec(term)
            pretty(fresh)
            assert is_recursive(fresh) is _contains_rec(term)
