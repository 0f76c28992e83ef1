"""Acceptance suite: the worked-example regressions, the theorem corpora
and the property batteries, each printed as one pass/fail line.

Criteria 5-7 share two corpus runs (seed 42: 500 finite pairs, 100
recursive pairs at unroll depth 4), executed once per session and reused.
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import (
    all_plays,
    exhaustive_tiny_structures,
    random_structure,
    remainder_on_saturated,
    saturate,
)
from stgames.denote import denote, denote_par
from stgames.estructure import conflict_free, enabled, es_leq, remainder
from stgames.game import (
    EagerStrategy,
    compose_session_contracts,
    culpable_at_end,
    eager_winning,
    find_winning_strategy,
    innocent,
    is_fair,
    prescribed,
)
from stgames.harness import CorpusSpec, corpus_pair, random_session_type, run_corpus
from stgames.opsem import check_compliance
from stgames.syntax import is_recursive, out, parse

EXAMPLE_CLIENT = "!a (+) !b.!a"
EXAMPLE_SERVER = "?a.?b + ?b.?a + ?c"

NONREC_SPEC = CorpusSpec(seed=42, count=500, max_depth=3, max_branch=3)
REC_SPEC = CorpusSpec(seed=42, count=100, max_depth=3, max_branch=3,
                      allow_recursion=True, unroll_depth=4)


def _announce(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def corpora():
    started = time.perf_counter()
    finite = run_corpus(NONREC_SPEC)
    recursive = run_corpus(REC_SPEC)
    elapsed = time.perf_counter() - started
    return finite, recursive, elapsed


def test_criterion_1_worked_example_structures():
    started = time.perf_counter()
    client = denote(parse(EXAMPLE_CLIENT), "A", parity="odd")
    server = denote(parse(EXAMPLE_SERVER), "B", parity="even")
    composed = denote_par(parse(EXAMPLE_CLIENT), "A", parse(EXAMPLE_SERVER), "B")

    client_ok = (
        {e.id for e in client.events} == {"e1", "e3", "e5", "e7", "e9"}
        and client.conflicts == {frozenset({"e1", "e5"})}
        and client.gens == {
            (frozenset(), "e1"), (frozenset(), "e5"),
            (frozenset({"e1"}), "e3"), (frozenset({"e5"}), "e7"), (frozenset({"e7"}), "e9"),
        }
    )
    server_ok = (
        len(server.events) == 8
        and len(server.conflicts) == 3
        and server.gens == {
            (frozenset(), "e2"), (frozenset(), "e8"), (frozenset(), "e14"),
            (frozenset({"e2"}), "e4"), (frozenset({"e4"}), "e6"),
            (frozenset({"e8"}), "e10"), (frozenset({"e10"}), "e12"),
            (frozenset({"e14"}), "e16"),
        }
    )
    expected_composed = {
        (frozenset(), "e1"), (frozenset(), "e5"),
        (frozenset({"e1", "e2"}), "e3"), (frozenset({"e1", "e10"}), "e3"),
        (frozenset({"e5", "e8"}), "e7"), (frozenset({"e5", "e4"}), "e7"),
        (frozenset({"e2", "e7"}), "e9"), (frozenset({"e7", "e10"}), "e9"),
        (frozenset({"e1"}), "e2"), (frozenset({"e7"}), "e2"),
        (frozenset({"e1", "e2", "e5"}), "e4"), (frozenset({"e7", "e2", "e5"}), "e4"),
        (frozenset({"e4", "e5"}), "e6"),
        (frozenset({"e5"}), "e8"),
        (frozenset({"e8", "e5", "e1"}), "e10"), (frozenset({"e8", "e5", "e7"}), "e10"),
        (frozenset({"e10", "e1"}), "e12"), (frozenset({"e10", "e7"}), "e12"),
    }
    composed_ok = composed.gens == frozenset(expected_composed)
    elapsed = time.perf_counter() - started
    _announce(
        1,
        client_ok and server_ok and composed_ok and elapsed < 1.0,
        f"worked-example structures exact (client 5 gens, server 8, composed 18) in {elapsed:.3f}s",
    )


def test_criterion_2_worked_example_verdicts():
    started = time.perf_counter()
    p, q = parse(EXAMPLE_CLIENT), parse(EXAMPLE_SERVER)
    forward = check_compliance(p, q).is_compliant
    backward = check_compliance(q, p).is_compliant
    contract = compose_session_contracts(p, "A", q, "B")
    eager_a = eager_winning(contract, "A").winning
    eager_b = eager_winning(contract, "B").winning
    no_server_strategy = find_winning_strategy(contract, "B") is None
    elapsed = time.perf_counter() - started
    _announce(
        2,
        forward and not backward and eager_a and not eager_b and no_server_strategy
        and elapsed < 1.0,
        f"compliant/one-way, eager A wins, B loses with no strategy at all, in {elapsed:.3f}s",
    )


def test_criterion_3_agreement_without_compliance():
    p, q = parse("!a.!c (+) !b"), parse("?a + ?b")
    compliant = check_compliance(p, q).is_compliant
    contract = compose_session_contracts(p, "A", q, "B")
    eager = eager_winning(contract, "A").winning
    strategy = find_winning_strategy(contract, "A")
    _announce(
        3,
        (not compliant) and (not eager) and strategy is not None,
        "non-compliant, eager loses, yet a winning strategy exists",
    )


def test_criterion_4_paycash_fixture():
    p, q = parse("!payCash (+) !payCC"), parse("?payCash")
    compliant = check_compliance(p, q).is_compliant
    contract = compose_session_contracts(p, "A", q, "B")
    eager = eager_winning(contract, "A").winning
    strategy = find_winning_strategy(contract, "A")
    paycc = {e.id for e in contract.es.events if e.label == out("payCC")}
    avoids = strategy is not None and all(
        not (events & paycc) for events in strategy.table.values()
    )
    _announce(
        4,
        (not compliant) and (not eager) and avoids,
        "cash-only fixture: non-compliant, eager loses, strategy renounces the card branch",
    )


def test_criterion_5_bisimulations(corpora):
    finite, recursive, elapsed = corpora
    from stgames.game import compose_session_contracts as compose
    from stgames.harness import bisim, contract_ets, turn_lts

    p, q = parse(EXAMPLE_CLIENT), parse(EXAMPLE_SERVER)
    example_ok = bisim(turn_lts(p, q), contract_ets(compose(p, "A", q, "B")))
    finite_ok = finite.bisim_agreements == finite.pairs == NONREC_SPEC.count
    recursive_ok = recursive.bisim_agreements == recursive.pairs == REC_SPEC.count
    _announce(
        5,
        example_ok and finite_ok and recursive_ok and elapsed < 60.0,
        f"strong bisim on the worked example and {finite.pairs} finite pairs; "
        f"strong bisim through the truncations on {recursive.pairs} recursive pairs; "
        f"corpora took {elapsed:.1f}s",
    )


def test_criterion_6_compliance_checkers_agree(corpora):
    finite, recursive, _ = corpora
    ok = (
        finite.checker_agreements == finite.pairs == NONREC_SPEC.count
        and recursive.checker_agreements == recursive.pairs == REC_SPEC.count
    )
    _announce(
        6,
        ok,
        f"reduction and turn-based compliance agree on all "
        f"{finite.pairs + recursive.pairs} pairs",
    )


def test_criterion_7_compliance_iff_eager(corpora):
    finite, recursive, _ = corpora
    ok = (
        finite.correspondence_agreements == finite.pairs == NONREC_SPEC.count
        and recursive.correspondence_agreements == recursive.pairs == REC_SPEC.count
        and finite.strategy_exists_agreements == finite.strategy_exists_checked > 0
        and recursive.strategy_exists_agreements == recursive.strategy_exists_checked
    )
    _announce(
        7,
        ok,
        f"compliance iff eager winning on {finite.pairs} exact and {recursive.pairs} "
        f"bounded pairs; {finite.strategy_exists_checked} compliant pairs all admit strategies",
    )


def test_criterion_8_property_batteries():
    failures: list[str] = []

    # saturation law on the exhaustive two-event family plus a sample
    rng = random.Random(808)
    structures = exhaustive_tiny_structures() + [random_structure(rng) for _ in range(150)]
    for es in structures:
        ids = sorted(es.event_ids)
        for _ in range(3):
            base = frozenset(rng.sample(ids, rng.randint(0, len(ids)))) if ids else frozenset()
            if not conflict_free(es, base):
                continue
            rest = [i for i in ids if i not in base]
            extended = base | frozenset(rng.sample(rest, rng.randint(0, len(rest))))
            if not conflict_free(es, extended):
                continue
            for target in ids:
                if enabled(es, base, target) and not enabled(es, extended, target):
                    failures.append(f"saturation law broken on {target}")

    # remainder against the materialised relation
    for es in structures[:600]:
        for event in sorted(es.event_ids)[:3]:
            ids, conflicts, sat_expected, _ = remainder_on_saturated(es, event)
            got = remainder(es, event)
            if (frozenset(got.event_ids), got.conflicts, saturate(got)) != (
                ids, conflicts, sat_expected,
            ):
                failures.append(f"remainder/saturation mismatch after {event}")

    # approximant chains for random recursive types at depths 0..7
    rec_spec = CorpusSpec(seed=606, count=1, allow_recursion=True, max_depth=3)
    types = []
    index = 0
    while len(types) < 20:
        term = random_session_type(rec_spec, "client", index)
        index += 1
        if is_recursive(term):
            types.append(term)
    for term in types:
        approximants = [denote(term, "A", unroll_depth=k) for k in range(8)]
        for small, big in zip(approximants, approximants[1:]):
            if not es_leq(small, big):
                failures.append(f"approximant chain broke for {term}")

    # finite-play fairness: fair exactly when the final prescription is empty
    contract_pairs = [corpus_pair(CorpusSpec(seed=707, count=12), i) for i in range(12)]
    for p, q in contract_pairs:
        contract = compose_session_contracts(p, "A", q, "B")
        for who in ("A", "B"):
            eager = EagerStrategy(who)
            for play in all_plays(contract.es):
                expected = prescribed(eager, contract, play) == frozenset()
                if is_fair(play, eager, contract) != expected:
                    failures.append("fairness characterisation broke")

    # culpability: the prefix-quantified judgement equals the final-state one
    for es in structures[:400]:
        for play in all_plays(es):
            for participant in sorted(es.participants()):
                if innocent(play, participant, es) != (not culpable_at_end(play, participant, es)):
                    failures.append("culpability characterisation broke")

    _announce(
        8,
        not failures,
        "saturation, remainder commutation, approximant chains, fairness and "
        "culpability batteries all clean" if not failures else "; ".join(failures[:4]),
    )
