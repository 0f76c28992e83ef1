"""Per-layer tracing from outside the program.

The tracer rebinds public entry points of each stgames module, wherever a
module looked them up by name, to wrappers that time the call.  Calls that
separate layers are recorded as spans (name, start, end, parent, op id;
every op is one client/server pair).
Hot inner calls are only counted: a call count and a total time.  A
layer's self time is the time of its calls minus the time of the calls
they make into other wrapped functions.  Nothing in ``src/`` changes.

Per-layer metrics and the end-to-end figures they should move (a layer
metric moves only the workloads named; elsewhere the prediction is no
change):

* ``syntax.parse_*``, ``syntax.pretty_*``: ``op_ms_p50`` on check-large.
* ``opsem.*``: ``op_ms_p50``, ``op_ms_tail`` and ``ops_per_s`` on
  check-large; about 1% of corpus-recursive.
* ``denote.*``: ``op_ms_tail`` and ``peak_rss_mb`` on deep-unroll.
  ``denote.par_live_gen_ratio`` is the share of composed enablings whose
  premise is conflict-free.
* ``estructure.*``: ``ops_per_s`` and ``op_ms_tail`` on corpus-recursive
  and about half of corpus-finite; nothing on check-large.
* ``game.*``: ``op_ms_tail`` on corpus-recursive, corpus-finite and the
  ``agree`` ops of deep-unroll.  ``game.distinct_state_ratio`` is distinct
  canonical keys over states visited (start plus remainder calls) inside
  the game searches, the useful work of their memo.
* ``harness.*``: ``ops_per_s`` on corpus-finite.
  ``harness.bounded_vs_exact_disagreements`` counts pairs whose exact
  compliance differs from the bounded eager verdict, out of
  ``harness.bounded_vs_exact_pairs``; it is a known defect, not a failure.
* ``cli.*``: ``op_ms_p50`` on check-large and deep-unroll.

Times and counts are per op, so runs of different lengths compare.  The two
bounded-vs-exact counts are taken over the first traced pass only, one per
bounded eager verdict, so they too do not depend on how many passes ran.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from itertools import combinations
from pathlib import Path

from stgames.opsem import check_compliance

# ``stgames.denote`` the attribute is the function; import the modules by name
cli, denote, estructure, game, harness, opsem, syntax = (
    importlib.import_module(f"stgames.{name}")
    for name in ("cli", "denote", "estructure", "game", "harness", "opsem", "syntax")
)

# (module, attribute, recorded name, span?)  A span marks a call between
# layers; the rest are hot inner calls, counted but not recorded one by one.
TARGETS = (
    (syntax, "parse", "syntax.parse", True),
    (syntax, "pretty", "syntax.pretty", False),
    (opsem, "check_compliance", "opsem.check", True),
    (opsem, "check_compliance_turn", "opsem.check", True),
    (opsem, "explore", "opsem.explore", True),
    (opsem, "_explore", "opsem.states", False),
    (denote, "denote", "denote.denote", True),
    (denote, "denote_par", "denote.par", True),
    (estructure, "ets", "estructure.ets", True),
    (estructure, "remainder", "estructure.remainder", False),
    (estructure, "canonical_key", "estructure.canonical_key", False),
    (estructure, "playable", "estructure.playable", False),
    (estructure, "es_to_json_dict", "estructure.to_json", False),
    (game, "compose_session_contracts", "game.compose", True),
    (game, "eager_winning", "game.eager", True),
    (game, "find_winning_strategy", "game.search", True),
    (harness, "run_corpus", "harness.run_corpus", True),
    (harness, "correspondence_check", "harness.correspondence", True),
    (harness, "turn_lts", "harness.turn_lts", True),
    (harness, "contract_ets", "harness.contract_ets", True),
    (harness, "bisim", "harness.bisim", True),
    (cli, "main", "cli.main", True),
)

# name -> (unit, better); the per-layer metrics, in report order.
PER_LAYER = {
    "syntax.parse_s": ("s/op", "lower"),
    "syntax.parse_calls": ("1/op", "lower"),
    "syntax.pretty_s": ("s/op", "lower"),
    "syntax.pretty_calls": ("1/op", "lower"),
    "opsem.check_s": ("s/op", "lower"),
    "opsem.check_calls": ("1/op", "lower"),
    "opsem.states": ("1/op", "lower"),
    "opsem.key_s": ("s/op", "lower"),
    "opsem.key_calls": ("1/op", "lower"),
    "denote.denote_s": ("s/op", "lower"),
    "denote.events": ("1/op", "lower"),
    "denote.par_s": ("s/op", "lower"),
    "denote.par_gens": ("1/op", "lower"),
    "denote.par_live_gen_ratio": ("ratio", "higher"),
    "estructure.ets_s": ("s/op", "lower"),
    "estructure.ets_states": ("1/op", "lower"),
    "estructure.remainder_s": ("s/op", "lower"),
    "estructure.remainder_calls": ("1/op", "lower"),
    "estructure.canonical_key_s": ("s/op", "lower"),
    "estructure.playable_s": ("s/op", "lower"),
    "estructure.playable_calls": ("1/op", "lower"),
    "estructure.to_json_s": ("s/op", "lower"),
    "game.compose_s": ("s/op", "lower"),
    "game.eager_s": ("s/op", "lower"),
    "game.search_s": ("s/op", "lower"),
    "game.search_table_rows": ("1/op", "lower"),
    "game.distinct_state_ratio": ("ratio", "higher"),
    "harness.run_corpus_self_s": ("s/op", "lower"),
    "harness.turn_lts_s": ("s/op", "lower"),
    "harness.bisim_s": ("s/op", "lower"),
    "harness.compose_calls_per_pair": ("1/op", "lower"),
    "harness.compliance_calls_per_pair": ("1/op", "lower"),
    "harness.bounded_vs_exact_disagreements": ("count", "lower"),
    "harness.bounded_vs_exact_pairs": ("count", "higher"),
    "cli.self_s": ("s/op", "lower"),
    "cli.output_bytes": ("bytes/op", "lower"),
}


def absent() -> list[str]:
    """Traced entry points missing from the sources; a traced run refuses to start without them."""
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in TARGETS
               if not callable(getattr(module, attr, None))]
    if not callable(opsem.Configuration.__dict__.get("key")):
        missing.append("stgames.opsem.Configuration.key")
    return missing


class _Frame:
    __slots__ = ("name", "start", "child", "span")

    def __init__(self, name: str, start: float, span: int | None) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.span = span


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent span, op id)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[_Frame] = []
        self.op_id = -1
        self.active = False  # on only while an op runs, so reference checks are not traced
        self.collect_eager = True  # cleared after the first pass
        self.composed: tuple | None = None  # (client, server) of the latest composition
        self.eager: list[tuple] = []  # (client, server, bounded eager verdict for participant A)
        self.game_keys: set[int] | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if absent():
            raise LookupError(f"entry points absent from the sources: {', '.join(absent())}")
        modules = [m for name, m in sys.modules.items()
                   if name == "stgames" or name.startswith("stgames.")]
        for module, attr, name, span in TARGETS:
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, span)
            for owner in modules:
                if owner.__dict__.get(attr) is original:
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
        key = opsem.Configuration.__dict__["key"]
        self._saved.append((opsem.Configuration, "key", key))
        opsem.Configuration.key = self._wrap(key, "opsem.key", False)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, span: bool):
        observe = OBSERVERS.get(name)
        game_call = name in ("game.eager", "game.search")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if game_call:
                outer_keys, self.game_keys = self.game_keys, set()
                remainders = self.calls["estructure.remainder"]
            frame = self._enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if game_call:
                self.counts["game.distinct_keys"] += len(self.game_keys)
                # every state a search visits is its start or a remainder
                self.counts["game.states_visited"] += 1 + self.calls["estructure.remainder"] - remainders
                self.game_keys = outer_keys
            if observe is not None:
                began = time.perf_counter()
                observe(self, args, result)
                # keep the observer's own work out of every enclosing call
                paused = time.perf_counter() - began
                for open_frame in self.stack:
                    open_frame.start += paused
            return result

        return wrapper

    def _enter(self, name: str, span: bool) -> _Frame:
        index = None
        if span:
            index = len(self.spans)
            self.spans.append(None)  # filled in on exit
        frame = _Frame(name, time.perf_counter(), index)
        self.stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self.stack.pop()
        elapsed = end - frame.start
        if frame.span is not None:
            parent = next((f.span for f in reversed(self.stack) if f.span is not None), None)
            self.spans[frame.span] = (frame.name, frame.start, end, parent, self.op_id)
        self.calls[frame.name] += 1
        self.total[frame.name] += elapsed
        self.self_time[frame.name] += elapsed - frame.child
        if self.stack:
            self.stack[-1].child += elapsed

    # -- reporting ------------------------------------------------------------

    def layer_self_time(self) -> dict[str, float]:
        layers: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_time.items():
            layers[name.split(".")[0]] += seconds
        return dict(layers)

    def metrics(self, ops: int, output_bytes: int) -> dict[str, float]:
        per = 1.0 / ops
        total, calls, counts = self.total, self.calls, self.counts
        gens = counts["denote.par_gens"]
        visited = counts["game.states_visited"]
        values = {
            "syntax.parse_s": total["syntax.parse"] * per,
            "syntax.parse_calls": calls["syntax.parse"] * per,
            "syntax.pretty_s": total["syntax.pretty"] * per,
            "syntax.pretty_calls": calls["syntax.pretty"] * per,
            "opsem.check_s": total["opsem.check"] * per,
            "opsem.check_calls": calls["opsem.check"] * per,
            "opsem.states": counts["opsem.states"] * per,
            "opsem.key_s": total["opsem.key"] * per,
            "opsem.key_calls": calls["opsem.key"] * per,
            "denote.denote_s": total["denote.denote"] * per,
            "denote.events": counts["denote.events"] * per,
            "denote.par_s": total["denote.par"] * per,
            "denote.par_gens": gens * per,
            "denote.par_live_gen_ratio": counts["denote.par_live_gens"] / gens if gens else 0.0,
            "estructure.ets_s": total["estructure.ets"] * per,
            "estructure.ets_states": counts["estructure.ets_states"] * per,
            "estructure.remainder_s": total["estructure.remainder"] * per,
            "estructure.remainder_calls": calls["estructure.remainder"] * per,
            "estructure.canonical_key_s": total["estructure.canonical_key"] * per,
            "estructure.playable_s": total["estructure.playable"] * per,
            "estructure.playable_calls": calls["estructure.playable"] * per,
            "estructure.to_json_s": total["estructure.to_json"] * per,
            "game.compose_s": total["game.compose"] * per,
            "game.eager_s": total["game.eager"] * per,
            "game.search_s": total["game.search"] * per,
            "game.search_table_rows": counts["game.search_table_rows"] * per,
            "game.distinct_state_ratio": counts["game.distinct_keys"] / visited if visited else 0.0,
            "harness.run_corpus_self_s": self.self_time["harness.run_corpus"] * per,
            "harness.turn_lts_s": total["harness.turn_lts"] * per,
            "harness.bisim_s": total["harness.bisim"] * per,
            "harness.compose_calls_per_pair": calls["game.compose"] * per,
            "harness.compliance_calls_per_pair": calls["opsem.check"] * per,
            "harness.bounded_vs_exact_disagreements": counts["harness.bounded_vs_exact_disagreements"],
            "harness.bounded_vs_exact_pairs": counts["harness.bounded_vs_exact_pairs"],
            "cli.self_s": self.self_time["cli.main"] * per,
            "cli.output_bytes": output_bytes * per,
        }
        assert values.keys() == PER_LAYER.keys()
        return values

    def bounded_vs_exact(self) -> tuple[int, int]:
        """Collected bounded eager verdicts that differ from exact compliance, and their number.

        Exact compliance is checked on the untruncated types; call this
        with the tracer inactive.
        """
        disagreements = sum(
            exact.status != "indeterminate" and exact.is_compliant != verdict.winning
            for exact, verdict in ((check_compliance(p, q), v) for p, q, v in self.eager)
        )
        return disagreements, len(self.eager)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, parent, op_id in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op_id}) + "\n")


# -- observers: derived counts, computed outside the timed calls ---------------

def _states(tracer: Tracer, args, result) -> None:
    tracer.counts["opsem.states"] += len(result.lts.states)


def _events(tracer: Tracer, args, result) -> None:
    tracer.counts["denote.events"] += len(result.events)


def _par(tracer: Tracer, args, result) -> None:
    tracer.counts["denote.par_gens"] += len(result.gens)
    tracer.counts["denote.par_live_gens"] += sum(
        1 for premise, _ in result.gens
        if not any(result.in_conflict(a, b) for a, b in combinations(premise, 2))
    )


def _ets(tracer: Tracer, args, result) -> None:
    tracer.counts["estructure.ets_states"] += len(result.states)


def _key(tracer: Tracer, args, result) -> None:
    if tracer.game_keys is not None:
        tracer.game_keys.add(hash(result))


def _compose(tracer: Tracer, args, result) -> None:
    tracer.composed = (args[0], args[2])  # compose_session_contracts(p, a, q, b, depth)


def _eager(tracer: Tracer, args, result) -> None:
    if tracer.collect_eager and result.participant == "A" and result.bounded_depth is not None:
        tracer.eager.append((*tracer.composed, result))


def _search(tracer: Tracer, args, result) -> None:
    if result is not None:
        tracer.counts["game.search_table_rows"] += len(result.table)


OBSERVERS = {
    "opsem.states": _states,
    "denote.denote": _events,
    "denote.par": _par,
    "estructure.ets": _ets,
    "estructure.canonical_key": _key,
    "game.compose": _compose,
    "game.eager": _eager,
    "game.search": _search,
}
