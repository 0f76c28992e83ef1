"""Contracts, plays, strategies, fairness, innocence and winning."""

from __future__ import annotations

import random
import sys
from collections import Counter

import pytest

from conftest import (
    acceptance_contracts,
    all_plays,
    bfs_ets,
    brute_force_agreement,
    dfs_eager_winning,
    dfs_find_winning_strategy,
    frame_depth,
    oracle_cases,
    partner_structures,
    random_structure,
    reference_eager_winning,
    reference_find_winning_strategy,
)
from stgames import cli, game
from stgames.denote import denote
from stgames.estructure import Event, ets, make_es, playable
from stgames.game import (
    Contract,
    EagerStrategy,
    ExplicitStrategy,
    StateLimitError,
    compose_session_contracts,
    conforms,
    culpable_at_end,
    eager_winning,
    find_winning_strategy,
    innocent,
    is_fair,
    is_play,
    prescribed,
    strategy_failures,
    winning_play,
)
from stgames.harness import CorpusSpec, dual, run_corpus
from stgames.lts import DEFAULT_STATE_LIMIT
from stgames.opsem import check_compliance, step_turn
from stgames.syntax import TICK, Term0, out, parse


@pytest.fixture(scope="module")
def example_contract():
    return compose_session_contracts(parse("!a (+) !b.!a"), "A", parse("?a.?b + ?b.?a + ?c"), "B")


@pytest.fixture(scope="module")
def counterexample_contract():
    return compose_session_contracts(parse("!a.!c (+) !b"), "A", parse("?a + ?b"), "B")


@pytest.fixture(scope="module")
def paycash_contract():
    return compose_session_contracts(parse("!payCash (+) !payCC"), "A", parse("?payCash"), "B")


# -- contracts and composition ------------------------------------------------

def test_contract_requires_payoffs_for_obliged_participants():
    es = denote(parse("!a"), "A")
    with pytest.raises(ValueError):
        Contract(es, frozenset())
    Contract(es, frozenset({"A"}))


def test_same_participant_composition_rejected():
    with pytest.raises(ValueError):
        compose_session_contracts(parse("!a"), "A", parse("?a"), "A")
    # between distinct participants, the session composition makes ?a wait for !a
    session = compose_session_contracts(parse("!a"), "A", parse("?a"), "B")
    assert (frozenset(), "e2") not in session.es.gens


def test_example_contract_wires_denotations(example_contract):
    assert example_contract.participants == {"A", "B"}
    assert len(example_contract.es.events) == 13
    assert example_contract.bounded_depth is None


def test_recursive_contract_carries_bound():
    contract = compose_session_contracts(parse("rec x . !a.x"), "A", parse("rec y . ?a.y"), "B", 4)
    assert contract.bounded_depth == 4


# -- plays ---------------------------------------------------------------------

def test_is_play(example_contract):
    es = example_contract.es
    assert is_play(es, ())
    assert is_play(es, ("e1", "e2", "e3"))
    assert not is_play(es, ("e2",))        # not yet enabled
    assert not is_play(es, ("e1", "e5"))   # conflict
    assert not is_play(es, ("e1", "e1"))   # repetition


def test_prescribed_eager_table(example_contract):
    eager = EagerStrategy("A")
    assert prescribed(eager, example_contract, ()) == {"e1", "e5"}
    assert prescribed(eager, example_contract, ("e1", "e2")) == {"e3"}
    assert prescribed(eager, example_contract, ("e1", "e2", "e3")) == frozenset()
    assert prescribed(eager, example_contract, ("e5", "e8")) == {"e7"}
    assert prescribed(eager, example_contract, ("e5", "e8", "e7", "e10")) == {"e9"}


def test_prescribed_explicit_defaults_empty(example_contract):
    strategy = ExplicitStrategy("A", {(): frozenset({"e5"})})
    assert prescribed(strategy, example_contract, ()) == {"e5"}
    assert prescribed(strategy, example_contract, ("e1",)) == frozenset()


def test_prescribed_rejects_unplayable(example_contract):
    strategy = ExplicitStrategy("A", {(): frozenset({"e3"})})
    with pytest.raises(ValueError):
        prescribed(strategy, example_contract, ())


def test_conforms(example_contract):
    eager = EagerStrategy("A")
    assert conforms(("e1", "e2", "e3"), eager, example_contract)
    assert conforms(("e5", "e8"), eager, example_contract)
    narrow = ExplicitStrategy("A", {(): frozenset({"e5"})})
    assert not conforms(("e1",), narrow, example_contract)
    assert conforms(("e5",), narrow, example_contract)


def test_every_play_conforms_to_eager(example_contract):
    eager = EagerStrategy("A")
    for play in all_plays(example_contract.es):
        assert conforms(play, eager, example_contract)


def test_eager_conformance_is_maximal(example_contract):
    # whatever a narrower strategy allows, the eager strategy allows too
    eager = EagerStrategy("A")
    table = {
        play: frozenset(sorted(prescribed(eager, example_contract, play))[:1])
        for play in all_plays(example_contract.es)
    }
    narrowed = ExplicitStrategy("A", table)
    conforming = [
        play for play in all_plays(example_contract.es)
        if conforms(play, narrowed, example_contract)
    ]
    assert conforming
    for play in conforming:
        assert conforms(play, eager, example_contract)


# -- fairness -------------------------------------------------------------------

def test_fairness_examples(example_contract):
    eager = EagerStrategy("A")
    assert is_fair(("e1",), eager, example_contract)
    assert not is_fair(("e1", "e2"), eager, example_contract)
    assert is_fair((), ExplicitStrategy("A", {}), example_contract)


def test_fair_iff_empty_final_prescription(example_contract, counterexample_contract):
    for contract in (example_contract, counterexample_contract):
        for who in ("A", "B"):
            eager = EagerStrategy(who)
            for play in all_plays(contract.es):
                expected = prescribed(eager, contract, play) == frozenset()
                assert is_fair(play, eager, contract) == expected


# -- innocence -------------------------------------------------------------------

def test_innocence_examples(example_contract):
    es = example_contract.es
    assert not innocent(("e1",), "B", es)
    assert innocent(("e1", "e2", "e3"), "A", es)
    assert innocent(("e1", "e2", "e3"), "B", es)


def test_culpability_needs_a_play(example_contract):
    # e3 is not playable first: both judgements reject the sequence
    es = example_contract.es
    for judge in (innocent, culpable_at_end):
        with pytest.raises(ValueError, match="not a play"):
            judge(("e3",), "A", es)
    assert culpable_at_end(("e1",), "B", es)


def test_everyone_innocent_on_empty_play_without_initial_obligations():
    es = make_es(
        [Event("e1", "A", out("a")), Event("e2", "B", TICK)],
        (),
        [(("e2",), "e1")],
    )
    assert innocent((), "A", es)
    assert innocent((), "B", es)


def test_culpability_characterisation_on_small_structures(small_structures):
    rng = random.Random(99)
    for es in small_structures[:150]:
        for play in all_plays(es):
            if rng.random() < 0.5 and play:
                continue
            for participant in sorted(es.participants()):
                assert innocent(play, participant, es) == (
                    not culpable_at_end(play, participant, es)
                )


# -- winning -------------------------------------------------------------------

def test_winning_play_examples(example_contract):
    assert winning_play(("e1", "e2", "e3"), "A", example_contract)
    assert winning_play(("e1",), "A", example_contract)
    assert not winning_play(("e1", "e2", "e3"), "B", example_contract)


def test_winning_requires_payoff(example_contract):
    with pytest.raises(ValueError):
        winning_play((), "C", example_contract)


def test_blame_is_monotone(example_contract):
    # a stop where the opponent is culpable and the owner innocent stays
    # winning for the owner however the payoff turned out
    assert winning_play(("e5",), "A", example_contract)
    assert winning_play(("e5", "e8", "e7"), "A", example_contract)


# -- eager verdicts ---------------------------------------------------------------

def test_example_eager_verdicts(example_contract):
    assert eager_winning(example_contract, "A").winning
    verdict = eager_winning(example_contract, "B")
    assert not verdict.winning
    assert verdict.counterexample == ("e1", "e2", "e3")


def test_counterexample_contract_eager(counterexample_contract):
    assert not eager_winning(counterexample_contract, "A").winning


def test_paycash_eager(paycash_contract):
    assert not eager_winning(paycash_contract, "A").winning


def test_eager_counterexamples_are_fair_losing_stops(counterexample_contract):
    verdict = eager_winning(counterexample_contract, "A")
    eager = EagerStrategy("A")
    play = verdict.counterexample
    assert is_fair(play, eager, counterexample_contract)
    assert conforms(play, eager, counterexample_contract)
    assert not winning_play(play, "A", counterexample_contract)


def test_eager_matches_strategy_failures(example_contract, counterexample_contract, paycash_contract):
    for contract in (example_contract, counterexample_contract, paycash_contract):
        for who in ("A", "B"):
            verdict = eager_winning(contract, who)
            failures = strategy_failures(contract, EagerStrategy(who))
            assert verdict.winning == (not failures)


# -- strategy search ---------------------------------------------------------------

def test_example_no_strategy_for_server(example_contract):
    assert find_winning_strategy(example_contract, "B") is None


def test_example_strategy_for_client_exists(example_contract):
    strategy = find_winning_strategy(example_contract, "A")
    assert strategy is not None
    assert not strategy_failures(example_contract, strategy)


def test_counterexample_contract_strategy_avoids_first_branch(counterexample_contract):
    strategy = find_winning_strategy(counterexample_contract, "A")
    assert strategy is not None
    assert strategy.table[()] == {"e7"}
    assert all("e1" not in events for events in strategy.table.values())
    assert not strategy_failures(counterexample_contract, strategy)


def test_paycash_strategy_never_prescribes_paycc(paycash_contract):
    strategy = find_winning_strategy(paycash_contract, "A")
    assert strategy is not None
    paycc = {e.id for e in paycash_contract.es.events if e.label == out("payCC")}
    assert all(not (events & paycc) for events in strategy.table.values())
    assert not strategy_failures(paycash_contract, strategy)


def test_found_strategies_verify(counterexample_contract):
    strategy = find_winning_strategy(counterexample_contract, "A")
    verdict_plays = [
        play for play in all_plays(counterexample_contract.es)
        if conforms(play, strategy, counterexample_contract)
        and prescribed(strategy, counterexample_contract, play) == frozenset()
    ]
    assert verdict_plays
    for play in verdict_plays:
        assert winning_play(play, "A", counterexample_contract)


def test_search_agrees_with_brute_force_on_fixtures(
        example_contract, counterexample_contract, paycash_contract):
    for contract in (example_contract, counterexample_contract, paycash_contract):
        for who in ("A", "B"):
            found = find_winning_strategy(contract, who) is not None
            assert found == brute_force_agreement(contract, who)


def test_search_agrees_with_brute_force_on_random_structures():
    rng = random.Random(4242)
    checked = 0
    while checked < 40:
        es = random_structure(rng, max_events=5)
        participants = sorted(es.participants())
        if not participants:
            continue
        contract = Contract(es, es.participants() | {"A", "B"})
        for who in participants:
            assert (find_winning_strategy(contract, who) is not None) == \
                brute_force_agreement(contract, who)
        checked += 1


def test_eager_equals_search_under_eager_prescription(example_contract, paycash_contract):
    # the eager verdict is the strategy-check of the eager prescription
    for contract in (example_contract, paycash_contract):
        for who in ("A", "B"):
            assert eager_winning(contract, who).winning == (
                not strategy_failures(contract, EagerStrategy(who))
            )


def test_strategy_serialisation(counterexample_contract):
    strategy = find_winning_strategy(counterexample_contract, "A")
    data = strategy.to_json()
    assert {"prefix": [], "prescribe": ["e7"]} in data


def test_empty_play_is_losing_fair_stop_for_mismatched_inputs():
    # two listeners: nothing is ever enabled, everyone innocent, no payoff
    contract = compose_session_contracts(parse("?a"), "A", parse("?b"), "B")
    assert playable(contract.es, ()) == frozenset()
    verdict = eager_winning(contract, "A")
    assert not verdict.winning
    assert verdict.counterexample == ()


def _engine_inputs(family, small_structures):
    if family == "small":
        return [Contract(es, frozenset({"A", "B"})) for es in small_structures]
    return acceptance_contracts(family)


@pytest.mark.parametrize("family", ["small", "finite", "recursive"])
def test_engine_matches_remainder_reference(family, small_structures):
    for contract in _engine_inputs(family, small_structures):
        for who in ("A", "B"):
            assert eager_winning(contract, who) == reference_eager_winning(contract, who)
            found = find_winning_strategy(contract, who)
            expected = reference_find_winning_strategy(contract, who)
            assert (found and found.to_json()) == (expected and expected.to_json())


# -- oracle: the arena passes against per-engine explorations ----------------------

def assert_games_match_dfs(client, server, depth):
    """Both participants' eager verdicts and strategy tables equal those of
    the depth-first engines, and ``ets`` equals the breadth-first one at
    step bounds 1, 7 and the default, with and without relabelling."""
    contract = compose_session_contracts(client, "A", server, "B", depth)
    for who in ("A", "B"):
        assert eager_winning(contract, who) == dfs_eager_winning(contract, who)
        assert find_winning_strategy(contract, who) == dfs_find_winning_strategy(contract, who)
    for relabel in (False, True):
        for bound in (1, 7):
            assert ets(contract.es, bound, relabel) == bfs_ets(contract.es, bound, relabel)
        assert ets(contract.es, relabel=relabel) == bfs_ets(contract.es, relabel=relabel)


def test_ets_matches_breadth_first_on_partner_structures():
    for es in partner_structures():
        for relabel in (False, True):
            for bound in (1, 3):
                assert ets(es, bound, relabel) == bfs_ets(es, bound, relabel)
            assert ets(es, relabel=relabel) == bfs_ets(es, relabel=relabel)


@pytest.mark.parametrize("kind", ["finite", "recursive", "families", "nested"])
def test_arena_passes_match_depth_first_engines(kind):
    for client, server, depth in oracle_cases(kind):
        assert_games_match_dfs(client, server, depth)


# -- the arena's state argument ------------------------------------------------------

def assert_arena_invariant(client, server, depth) -> int:
    """Each configuration of the pair's arena is named by the two sides' tips,
    and holds at most one unmatched event per side: its tip, an output.

    A side moves only when its tip has its partner: an enabling needs a
    partner for each premise event, so each side fires along one causal
    chain and has at most one unmatched event, its tip.  An input is matched
    when it fires, as its enabling also needs the output it consumes; so an
    unmatched tip is an output (``✓`` has no partner at all).  A partner is
    the other side's fired event with the complementary label at the same
    occurrence along its chain.  So the arena has at most (|A|+1)·(|B|+1)
    configurations, |X| being the number of X's events.  Returns the number
    of configurations."""
    contract = compose_session_contracts(client, "A", server, "B", depth)
    es = contract.es
    bit = es.play_index.bit
    # each event's own-side premise: the prefix event its compile walk put it under
    below = {}
    for premise, _, target in es.enablings:
        who = es.event(target).participant
        own = [eid for eid in premise if es.event(eid).participant == who]
        assert len(own) <= 1 and target not in below
        below[target] = own[0] if own else None
    arena = es.arena(DEFAULT_STATE_LIMIT)
    assert not arena.truncated
    tips = set()
    for fired in arena.fired:
        chains, keys = {}, {}
        for who in ("A", "B"):
            ids = [eid for eid in es.events_of(who) if fired & bit[eid]]
            above = {below[eid]: eid for eid in ids}
            # one fired event per premise, and every premise fired: one chain
            assert len(above) == len(ids) and all(b is None or fired & bit[b] for b in above)
            chain, eid = [], above.get(None)
            while eid is not None:
                chain.append(eid)
                eid = above.get(eid)
            assert len(chain) == len(ids)
            chains[who] = chain
            # each event's label with its occurrence along the chain
            seen = Counter()
            keys[who] = []
            for eid in chain:
                label = es.label_of(eid)
                seen[label] += 1
                keys[who].append((label, seen[label]))
        for who, other in (("A", "B"), ("B", "A")):
            theirs = set(keys[other])
            unmatched = [i for i, (label, n) in enumerate(keys[who])
                         if label.is_tick or (label.co(), n) not in theirs]
            assert len(unmatched) <= 1
            if unmatched:
                i, = unmatched
                assert i == len(chains[who]) - 1 and keys[who][i][0].is_output
        tips.add(tuple(chain[-1] if chain else None for chain in chains.values()))
    assert len(tips) == len(arena.fired)
    assert len(arena.fired) <= (len(es.events_of("A")) + 1) * (len(es.events_of("B")) + 1)
    return len(arena.fired)


@pytest.mark.parametrize("kind", ["finite", "recursive", "families", "nested"])
def test_arena_configurations_are_named_by_two_tips(kind):
    for case in oracle_cases(kind):
        assert_arena_invariant(*case)


# -- eager counterexamples against the turn-based step relation -------------------

def _replays_to_a_loss(client, server, es, counterexample, side: int) -> bool:
    """Whether the counterexample's actions, fired in turn from ``client ∥
    server`` through ``step_turn``, can reach a stuck pair whose ``side``
    (0 the client's, 1 the server's) is not ``0``."""
    pairs = [(client, server)]
    for event in counterexample:
        action = str(es.label_of(event))
        pairs = [(left, right) for pair in pairs
                 for label, left, right in step_turn(*pair) if label == action]
    return any(not step_turn(*pair) and pair[side].__class__ is not Term0 for pair in pairs)


@pytest.mark.parametrize("kind, want", [
    ("finite", {("A", True, True): 226, ("B", True, True): 226}),
    # at depth 4 every stop the unrolling cut off is a loss: 42 of A's losing
    # stops and 43 of B's exist only in the truncated structure, the known
    # defect of ROADMAP items 2 and 11, so they replay to a live pair; the
    # others replay exactly where the loser's side is non-compliant
    ("recursive", {("A", True, True): 58, ("A", False, False): 42,
                   ("B", True, True): 38, ("B", False, False): 43}),
])
def test_eager_counterexamples_replay_through_step_turn(kind, want):
    # (loser, replays to a loss, loser's side non-compliant) per losing verdict
    seen = Counter()
    for client, server, depth in oracle_cases(kind):
        contract = compose_session_contracts(client, "A", server, "B", depth)
        for who, side in (("A", 0), ("B", 1)):
            verdict = eager_winning(contract, who)
            if verdict.winning:
                continue
            replays = _replays_to_a_loss(client, server, contract.es, verdict.counterexample, side)
            own, other = (client, server) if side == 0 else (server, client)
            seen[who, replays, not check_compliance(own, other).is_compliant] += 1
    assert seen == want


def test_games_do_not_recurse_per_play_step():
    # a 300-event play under a recursion limit 100 frames above the caller
    client = parse("rec x . !a.x")
    contract = compose_session_contracts(client, "A", dual(client), "B", 150)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 100)
    try:
        verdict = eager_winning(contract, "A")
        strategy = find_winning_strategy(contract, "B")
    finally:
        sys.setrecursionlimit(limit)
    assert not verdict.winning and len(verdict.counterexample) == 300
    assert strategy is None


# -- a truncated arena -------------------------------------------------------------

# B loses at once when A picks !a, one configuration past the empty one
EARLY_LOSS = ("!a (+) !b.!c.!d.!e.!f", "?b.?c.?d.?e.?f")


def _limited(monkeypatch, limit):
    monkeypatch.setattr(game, "DEFAULT_STATE_LIMIT", limit)


def test_truncated_arena_keeps_a_loss_inside_it(monkeypatch):
    contract = compose_session_contracts(parse(EARLY_LOSS[0]), "A", parse(EARLY_LOSS[1]), "B")
    _limited(monkeypatch, 4)
    assert contract.es.arena(4).truncated
    verdict = eager_winning(contract, "B")
    assert not verdict.winning
    assert verdict.counterexample == ("e1",)
    assert is_play(contract.es, verdict.counterexample)
    assert not culpable_at_end(verdict.counterexample, "A", contract.es)
    assert not winning_play(verdict.counterexample, "B", contract)


def test_truncated_arena_without_a_loss_is_an_error(example_contract, monkeypatch):
    _limited(monkeypatch, 5)
    with pytest.raises(StateLimitError, match="state limit of 5"):
        eager_winning(example_contract, "A")


def test_search_on_a_truncated_arena_is_an_error(example_contract, monkeypatch):
    early = compose_session_contracts(parse(EARLY_LOSS[0]), "A", parse(EARLY_LOSS[1]), "B")
    _limited(monkeypatch, 5)
    for contract, who in ((example_contract, "A"), (example_contract, "B"), (early, "B")):
        with pytest.raises(StateLimitError):
            find_winning_strategy(contract, who)


def test_agree_exits_two_when_the_arena_is_truncated(monkeypatch, capsys):
    _limited(monkeypatch, 5)
    for extra in ([], ["--strategy", "search"]):
        code = cli.main(["agree", "!a (+) !b.!a", "?a.?b + ?b.?a + ?c", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_corpus_records_a_truncated_arena_and_goes_on(monkeypatch):
    # of the first six seed-42 pairs only pair 4 has more than 10
    # configurations (19), and its eager verdict needs all of them
    _limited(monkeypatch, 10)
    summary = run_corpus(CorpusSpec(seed=42, count=6))
    assert summary.pairs == 6
    assert [(f["pair"], f["check"]) for f in summary.failures] == [(4, "state-limit")]
    assert summary.correspondence_agreements == summary.checker_agreements == 5
