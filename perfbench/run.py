"""Benchmark for stgames: time-to-verdict end to end, and per layer when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus-recursive --seed 3 --seconds 20 --trace 0

Workloads (see ``workloads.py``): corpus-finite, corpus-recursive,
check-large and deep-unroll.  One process and one thread drive a closed
loop: the next op starts when the previous one has returned.  Inputs are
generated from ``--seed`` at set-up; the loop runs whole passes over them
until ``--seconds`` of op time have been measured.  Every op is checked
against a reference; for ``--seed 0`` the first pass is also compared with
the outputs recorded in ``reference.json`` at the commit that added the
benchmark.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each pass
both untraced and traced until ``--seconds / 2`` of untraced op time,
prints each layer's share of op time and the tracing overhead, and reports
the per-layer metrics of ``tracing.py``; its spans are written to
``.perfbench/``.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed_ratio`` is
printed above it: ``failed`` over ``attempted``.

``--record-reference`` rewrites ``reference.json`` from the current sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0  # the seed whose first pass is compared with reference.json
# Set-up is repeated at least SETUP_REPEATS times and until SETUP_MIN_S have
# passed; setup_s is the median repeat.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.5
OP_TIMEOUT_S = 60
# On the 2-vCPU virtual machine the baseline was recorded on (Python 3.11.7),
# a fixed pure-Python loop runs at speeds up to 1.8x apart, switching every
# 0.25 to 2.5 s, and the workloads move as much.  Op times are therefore
# scaled to a reference speed: a short calibration loop runs
# before an op whenever the last one is older than CALIBRATE_EVERY_S (and
# again after any op longer than that), and the op's time is multiplied by
# CALIBRATION_REF_S over the loop's time.  The reference is the loop's median
# time on the machine the baseline was recorded on.  Unscaled figures are
# printed alongside.
CALIBRATE_EVERY_S = 0.1
CALIBRATION_REF_S = 0.0006
WORKLOAD_NAMES = ("corpus-finite", "corpus-recursive", "check-large", "deep-unroll")


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def calibration_s() -> float:
    """Fastest of three runs of a fixed mix of allocation, hashing, sorting and formatting."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(150):
            table = {j: f"{i * j}" for j in range(8)}
            total += len("".join(sorted(table.values()))) + hash(frozenset(table)) % 7
        best = min(best, time.perf_counter() - start)
    return best


def percentile(ordered: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p``-th percentile of a sorted sample.

    A Beta-weighted mean of all order statistics: far steadier than one or
    two order statistics when, as here, the tail holds a few distinct costs
    each repeated once per pass.  The Beta density is integrated per order
    statistic with the midpoint rule.
    """
    n = len(ordered)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 8
    total = weight_sum = 0.0
    for i, value in enumerate(ordered):
        weight = 0.0
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            weight += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        total += weight * value
        weight_sum += weight
    return total / weight_sum


class Run:
    """Runs ops, timing each one and checking it against its reference."""

    def __init__(self, golden: list[str] | None, tracer=None) -> None:
        self.golden = golden or []
        self.tracer = tracer
        self.latencies: list[float] = []  # scaled to the reference speed
        self.raw: list[float] = []
        self.speed = CALIBRATION_REF_S  # latest calibration time
        self.calibrated_at = -math.inf
        self.calibrating_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.indeterminate = 0
        self.output_bytes = 0
        self.failures: list[str] = []

    def op(self, op) -> float:
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        if time.perf_counter() - self.calibrated_at > CALIBRATE_EVERY_S:
            self.calibrate()
        speed = self.speed
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        start = time.perf_counter()
        try:
            self._tracing(True)
            result = op.run()
            elapsed = time.perf_counter() - start
            self._tracing(False)
            signal.setitimer(signal.ITIMER_REAL, 0)
            outcome = op.check(result)
        except Exception as exc:  # any failure of one op is counted, not fatal
            self._tracing(False)
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            outcome = None
            detail = f"{type(exc).__name__}: {exc}"
        if elapsed > CALIBRATE_EVERY_S:
            self.calibrate()
            speed = (speed + self.speed) / 2
        index = self.attempted
        self.attempted += 1
        self.raw.append(elapsed)
        self.latencies.append(elapsed * CALIBRATION_REF_S / speed)
        if outcome is not None:
            self.output_bytes += op.output_bytes
            detail = outcome.detail
            # reference.json holds a definite verdict for each of these ops
            if index < len(self.golden) and outcome.fingerprint != self.golden[index]:
                outcome.status, detail = "failed", f"differs from reference.json: {detail}"
        if outcome is not None and outcome.status == "indeterminate":
            self.indeterminate += 1
        elif outcome is None or outcome.status != "ok":
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.describe()[:160]} -> {detail[:300]}")
        return elapsed

    def calibrate(self) -> None:
        start = time.perf_counter()
        self.speed = calibration_s()
        self.calibrated_at = time.perf_counter()
        self.calibrating_s += self.calibrated_at - start

    def _tracing(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.active = on

    def passes(self, stream, seconds: float) -> int:
        """Whole passes until ``seconds`` of op time; cut short at 3 x ``seconds`` of wall time."""
        measured = 0.0
        wall_start = time.perf_counter()
        count = 0
        while measured < seconds:
            count += 1
            for op in next(stream):
                measured += self.op(op)
                if time.perf_counter() - wall_start > 3 * seconds:
                    return count
        return count


def load_workloads():
    """Imports the workloads, and with them stgames, afresh; returns the module."""
    for name in [name for name in sys.modules
                 if name in ("workloads", "stgames") or name.startswith("stgames.")]:
        del sys.modules[name]
    import workloads
    return workloads


def measure_setup(name: str, seed: int, run: Run) -> tuple:
    """Import, pool generation and warm-up, repeated.

    Returns the workloads module, the workload and its pool from the last
    repeat, and the median set-up time scaled to the reference speed.
    """
    scaled = []
    began = time.perf_counter()
    while len(scaled) < SETUP_REPEATS or time.perf_counter() - began < SETUP_MIN_S:
        gc.collect()  # the modules of the previous repeat
        before = calibration_s()
        start = time.perf_counter()
        calibrating = run.calibrating_s
        workloads = load_workloads()
        workload = workloads.WORKLOADS[name]
        pool = workloads.make_pool(workload, seed)
        for op in workload.warmup_ops():
            run.op(op)
        elapsed = time.perf_counter() - start - (run.calibrating_s - calibrating)
        scaled.append(elapsed * 2 * CALIBRATION_REF_S / (before + calibration_s()))
    return workloads, workload, pool, statistics.median(scaled)


def end_to_end(run: Run, workload, setup_s: float) -> dict:
    """The end-to-end metrics of the timed ops (warm-up ops are not counted)."""
    ordered = sorted(run.latencies)
    completed = run.attempted - run.failed - run.indeterminate
    measured = sum(run.latencies)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (completed / measured, "1/s"),
        "op_ms_p50": (percentile(ordered, 50) * 1000, "ms"),
        "op_ms_tail": (percentile(ordered, workload.tail_percentile) * 1000, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def report(run: Run, metrics: dict) -> int:
    for line in run.failures:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_untraced(args, golden) -> int:
    warm = Run(None)
    workloads, workload, pool, setup_s = measure_setup(args.workload, args.seed, warm)
    run = Run(golden)
    stream = workloads.passes(workload, pool, args.seed)
    count = run.passes(stream, args.seconds)
    metrics = end_to_end(run, workload, setup_s)
    ops = len(run.latencies)
    raw = sorted(run.raw)
    beyond = ops * (100 - workload.tail_percentile) / 100
    print(f"workload {workload.name} seed {args.seed}: {ops} ops in {count} passes, "
          f"{sum(run.latencies):.2f} s of op time, op_ms_tail = p{workload.tail_percentile} "
          f"({beyond:.0f} ops beyond it)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:12.4f} {unit}")
    print(f"  unscaled: {ops / sum(raw):.4f} ops/s, p50 {percentile(raw, 50) * 1000:.4f} ms, "
          f"p{workload.tail_percentile} {percentile(raw, workload.tail_percentile) * 1000:.4f} ms; "
          f"mean scale to the reference speed {sum(run.latencies) / sum(raw):.3f}")
    run.attempted += warm.attempted
    run.failed += warm.failed
    run.indeterminate += warm.indeterminate
    run.failures = warm.failures + run.failures
    print(f"  {'failed_ratio':<14} {run.failed / run.attempted:12.4f} ratio "
          f"({run.failed} failed of {run.attempted} attempted, warm-up included; "
          f"{run.indeterminate} indeterminate, not counted as failed)")
    if beyond < 10:
        print(f"  note: fewer than ten ops beyond p{workload.tail_percentile}")
    return report(run, metrics)


def run_traced(args, golden) -> int:
    warm = Run(None)
    workloads, workload, pool, _ = measure_setup(args.workload, args.seed, warm)
    import tracing  # after set-up, so that it traces the stgames modules in use

    if tracing.absent():
        print(f"error: traced entry points absent from the sources: {', '.join(tracing.absent())}",
              file=sys.stderr)
        return 1
    tracer = tracing.Tracer()
    plain, run = Run(golden), Run(golden, tracer)
    stream = workloads.passes(workload, pool, args.seed)
    wall_start = time.perf_counter()
    count = 0
    # Each pass runs untraced and traced; which goes first alternates, so
    # whatever the first run leaves warm favours neither side.
    while sum(plain.raw) < args.seconds / 2 and time.perf_counter() - wall_start < 3 * args.seconds:
        ops = next(stream)
        for traced in ((False, True) if count % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    for op in ops:
                        run.op(op)
                finally:
                    tracer.uninstall()
                tracer.collect_eager = False
            else:
                for op in ops:
                    plain.op(op)
        count += 1
    disagreements, pairs = tracer.bounded_vs_exact()
    tracer.counts["harness.bounded_vs_exact_disagreements"] = disagreements
    tracer.counts["harness.bounded_vs_exact_pairs"] = pairs
    ops = len(run.latencies)
    op_time = sum(run.latencies)
    plain_time = sum(plain.latencies)
    values = tracer.metrics(ops, run.output_bytes)
    scale = op_time / sum(run.raw)  # to the reference speed, as the op times are
    for name, (unit, _) in tracing.PER_LAYER.items():
        if unit == "s/op":
            values[name] *= scale
    print(f"workload {workload.name} seed {args.seed}: {ops} ops traced, {op_time:.2f} s of op time; "
          f"tracing overhead {op_time / plain_time - 1:+.1%} against the same ops untraced")
    raw_time = sum(run.raw)
    layers = tracer.layer_self_time()
    layers["(benchmark)"] = raw_time - sum(layers.values())
    for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        print(f"  self time {layer:<12} {seconds / raw_time:7.1%}")
    per = op_time / ops
    print(f"  ets + eager_winning: {(values['estructure.ets_s'] + values['game.eager_s']) / per:.1%} of op time; "
          f"opsem.check: {values['opsem.check_s'] / per:.1%}; "
          f"estructure + game self time: {(layers.get('estructure', 0) + layers.get('game', 0)) / raw_time:.1%}")
    print(f"  bounded eager verdict differs from exact compliance on {disagreements} of {pairs} pairs "
          f"(first pass)")
    for name, (unit, _) in tracing.PER_LAYER.items():
        print(f"  {name:<40} {values[name]:14.6g} {unit}")
    tracer.write_spans(ROOT / ".perfbench" / f"trace-{workload.name}-seed{args.seed}.jsonl")
    run.attempted += warm.attempted + plain.attempted
    run.failed += warm.failed + plain.failed
    run.failures = warm.failures + plain.failures + run.failures
    return report(run, {name: (values[name], unit) for name, (unit, _) in tracing.PER_LAYER.items()})


def record_reference() -> int:
    import workloads

    recorded = {}
    for name in WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name]
        pool = workloads.make_pool(workload, DEFAULT_SEED)
        first = next(workloads.passes(workload, pool, DEFAULT_SEED))
        prints = []
        for op in first:
            outcome = op.check(op.run())
            if outcome.status != "ok":
                print(f"error: {op.describe()[:160]} -> {outcome.detail}", file=sys.stderr)
                return 1
            prints.append(outcome.fingerprint)
        recorded[name] = prints
    REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default="corpus-finite")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "stgames" / "__init__.py").is_file():
        print(f"error: stgames sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        return record_reference()
    signal.signal(signal.SIGALRM, _alarm)
    golden = None
    if args.seed == DEFAULT_SEED:
        golden = json.loads(REFERENCE.read_text())[args.workload]
    if args.trace:
        return run_traced(args, golden)
    return run_untraced(args, golden)


if __name__ == "__main__":
    sys.exit(main())
