"""braidcalc benchmark: one workload, one process, one closed-loop client.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/braidcalc``.  The seed
fixes every input; braidcalc only ever sees the generated inputs.  Each
op's output is checked, and the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics from spans
recorded around braidcalc's public functions (see spans.py).  The
metrics, workloads and the layer-to-metric mapping are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

PREFIX_OPS = 100  # the output digest and the exact counters cover the first 100 ops
SETUP_REPEATS = 3
INTERPRETER_RUNS = 5

# Machine-speed calibration.  The shared 2-core host drifts by +-20 % over
# seconds to minutes, in wall and CPU time alike, which no amount of
# repetition inside one run removes.  A fixed reference kernel is timed
# after an op whenever CALIBRATE_EVERY_S have passed since the last
# sample, and each reported time is multiplied by KERNEL_NOMINAL_S over
# the kernel time measured right after it: the figures are those of a
# host on which the kernel takes KERNEL_NOMINAL_S.
CALIBRATE_EVERY_S = 0.25
KERNEL_NOMINAL_S = 0.005


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like Laurent arithmetic (dict products
    of small integer polynomials); it calls nothing in braidcalc."""
    a = {k: (k * 7919) % 13 - 6 for k in range(40)}
    b = {k: (k * 104729) % 11 - 5 for k in range(40)}
    total = 0
    for _ in range(24):
        out: dict = {}
        for p1, c1 in a.items():
            for p2, c2 in b.items():
                out[p1 + p2] = out.get(p1 + p2, 0) + c1 * c2
        total += len(out)
    return total


SPAN_METRICS = (
    "burau.burau_matrix", "burau.determinant", "links.alexander_polynomial",
    "links.components", "links.linking_matrix", "words.parse_word", "words.format_word",
    "b3.normal_form", "b3.classify_closure", "b3.oracle", "templates.instantiate",
    "templates.per_component_beta_delta", "certify.certify", "certify.report_to_json",
    "moves.tower_from_json", "moves.validate_tower", "cli.main",
)
CALL_METRICS = ("burau.burau_matrix", "burau.determinant", "b3.normal_form")
COUNT_METRICS = (
    "burau.letters_pushed", "burau.bareiss_steps", "links.alexander_degree_total", "words.letters",
)


def _rank(samples: int, q: float) -> int:
    return max(1, math.ceil(round(q * samples, 6)))


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[_rank(len(ordered), q) - 1]


def tail_supported(samples: int, q: float) -> bool:
    """Whether at least ten samples lie beyond the q-th percentile."""
    return samples - _rank(samples, q) >= 10


class Loop:
    """Closed-loop runner: next op only after the previous one completed.

    Each latency and each round is stored with the index of the next
    reference-kernel sample, so that its time can be put on the nominal
    host by the speed measured right after it.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.latencies: list = []  # (seconds, kernel sample index)
        self.rounds: list = []  # (ops, seconds without calibration, first and end sample index)
        self.kernel_s: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.digest = hashlib.sha256()
        self._last_kernel = float("-inf")

    def calibrate(self) -> float:
        """Time the reference kernel if it is due; return the time spent."""
        now = perf_counter()
        if now - self._last_kernel < CALIBRATE_EVERY_S:
            return 0.0
        reference_kernel()
        self._last_kernel = perf_counter()
        self.kernel_s.append(self._last_kernel - now)
        return self._last_kernel - now

    def run_op(self, inp) -> None:
        index = self.attempted
        self.attempted += 1
        start = perf_counter()
        try:
            out = self.workload.op(inp)
            self.latencies.append((perf_counter() - start, len(self.kernel_s)))
            blob = self.workload.check(inp, out)
        except Exception as exc:  # a raising or wrong op is counted, not fatal
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {index}: {type(exc).__name__}: {exc}")
            blob = b"<failed>"
        if index < PREFIX_OPS:
            self.digest.update(blob + b"\n")

    def run(self, seconds: float, min_ops: int, tracer=None, on_op=None) -> None:
        """Whole rounds until ``seconds`` have passed and ``min_ops`` ops are done."""
        started = perf_counter()
        while perf_counter() - started < seconds or self.attempted < min_ops:
            round_start, first, ops, calibrating = perf_counter(), len(self.kernel_s), 0, 0.0
            for inp in self.workload.next_round():
                if tracer is None:
                    self.run_op(inp)
                else:
                    tracer.op = self.attempted
                    span = tracer.begin(spans.OP_SPAN)
                    self.run_op(inp)
                    tracer.end(span)
                ops += 1
                if on_op is not None:
                    on_op(self.attempted)
                calibrating += self.calibrate()
            elapsed = perf_counter() - round_start - calibrating
            self.rounds.append((ops, elapsed, first, len(self.kernel_s)))

    def scale(self, sample: int) -> float:
        """Nominal over measured kernel time around one sample: the median
        of the sample and its two neighbours on each side (the last sample
        stands in if the run ended before it was taken)."""
        k = min(sample, len(self.kernel_s) - 1)
        return KERNEL_NOMINAL_S / statistics.median(self.kernel_s[max(0, k - 2):k + 3])

    def scaled_latencies(self) -> list:
        return sorted(seconds * self.scale(sample) for seconds, sample in self.latencies)

    def ops_per_s(self) -> float:
        """Median over rounds of the round's ops per nominal second."""
        rates = []
        for ops, seconds, first, end in self.rounds:
            factors = [self.scale(k) for k in range(first, max(end, first + 1))]
            rates.append(ops / (seconds * statistics.fmean(factors)))
        return statistics.median(rates)

    def median_scale(self) -> float:
        return KERNEL_NOMINAL_S / statistics.median(self.kernel_s)


def setup(name: str, seed: int):
    """Fresh import of braidcalc, input generation and warm-up; returns timings."""
    start = perf_counter()
    for module in [m for m in sys.modules if m == "braidcalc" or m.startswith("braidcalc.")]:
        del sys.modules[module]
    import_start = perf_counter()
    import braidcalc.cli  # noqa: F401  (the CLI module is part of what a user imports)

    import_s = perf_counter() - import_start
    workload = WORKLOADS[name](ROOT, seed)
    for inp in workload.warmup_inputs():
        out = workload.op(inp)
        workload.check(inp, out)
    return workload, perf_counter() - start, import_s


def source_digest() -> str:
    src = os.path.join(ROOT, "src", "braidcalc")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()[:16]


def pinned_digest(name: str, seed: int):
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as handle:
        return json.load(handle).get(name, {}).get(str(seed))


def compare_counters(name: str, seed: int, counters: dict) -> bool:
    """Record exact counters per source version and seed; False on a mismatch."""
    path = os.path.join(OUT_DIR, "counters", f"{name}-{seed}-{source_digest()}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            return json.load(handle) == counters
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(counters, handle, sort_keys=True)
    return True


def interpreter_ms() -> float:
    times = []
    for _ in range(INTERPRETER_RUNS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1000


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(loop: Loop, failed: int, setups: list, cli: bool) -> dict:
    ordered = loop.scaled_latencies()
    if not tail_supported(len(ordered), 0.9):
        raise RuntimeError(f"only {len(ordered)} latency samples; p90 needs 100")
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (loop.ops_per_s(), "1/s"),
        "op_ms_p50": (statistics.median(ordered) * 1000, "ms"),
        "op_ms_p90": (percentile(ordered, 0.9) * 1000, "ms"),
        "ok_ratio": (1 - failed / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, exact: dict, traced: Loop, plain: Loop, import_ms: float, cli: bool) -> dict:
    """Per-layer metrics; span times are put on the nominal host by the
    traced loop's median kernel speed, ``import_ms`` arrives scaled."""
    per_op_ms = 1000 * traced.median_scale() / traced.attempted
    self_s = spans.self_times(tracer.spans)
    out = {f"{s}.self_ms": (self_s.get(s, 0.0) * per_op_ms, "ms") for s in SPAN_METRICS}
    out.update({f"{s}.calls": (exact[s + ".calls"], "count") for s in CALL_METRICS})
    out.update({c: (exact[c], "count") for c in COUNT_METRICS})
    oracle = exact["b3.oracle.calls"]
    decided = exact["b3.oracle.Conjugate"] + exact["b3.oracle.NotConjugate"]
    out["b3.oracle.decided_ratio"] = (ratio(decided, oracle), "ratio")
    out["b3.oracle.battery_separated_ratio"] = (ratio(exact["b3.oracle.NotConjugate"], oracle), "ratio")
    for cache in ("b3.ball_cache", "b3.battery_cache"):
        hits = exact[cache + ".hits"]
        out[cache + "_hit_ratio"] = (ratio(hits, hits + exact[cache + ".misses"]), "ratio")
    if cli:
        out["cli.import_ms"] = (self_s.get("cli.import", 0.0) * per_op_ms, "ms")
        out["cli.interpreter_ms"] = (interpreter_ms() * plain.median_scale(), "ms")
    else:
        out["cli.import_ms"] = (import_ms, "ms")
        out["cli.interpreter_ms"] = (0.0, "ms")
    out["unattributed.self_ms"] = (self_s.get(spans.OP_SPAN, 0.0) * per_op_ms, "ms")
    out["trace.overhead_ratio"] = (traced.ops_per_s() / plain.ops_per_s(), "ratio")
    return out


def write_spans(name: str, seed: int, tracer) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"spans-{name}-{seed}.jsonl"), "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op"), span))) + "\n")


def traced_run(workload, seconds: float):
    """Traced loop, then an untraced loop of equal length for the overhead ratio."""
    tracer = spans.Tracer()
    exact = Counter()
    before = spans.cache_snapshot()

    def snapshot(done: int) -> None:
        if done == PREFIX_OPS:
            exact.update(tracer.counters)
            exact.update(spans.cache_delta(before, spans.cache_snapshot()))

    undo = spans.install(tracer)
    workload.tracer = tracer
    try:
        traced = Loop(workload)
        traced.run(seconds / 2, PREFIX_OPS, tracer=tracer, on_op=snapshot)
    finally:
        spans.restore(undo)
        workload.tracer = None
    plain = Loop(workload)
    plain.run(seconds / 2, 1)
    return tracer, exact, traced, plain


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        workload, setup_s, import_s = setup(name, seed)
        kernel_start = perf_counter()
        reference_kernel()
        setup_scale = KERNEL_NOMINAL_S / (perf_counter() - kernel_start)
        setups.append(setup_s * setup_scale)
        imports.append(import_s * setup_scale)
    cli = name == "cli_session"
    notes = []
    if trace:
        tracer, exact, traced, plain = traced_run(workload, seconds)
        loops = [traced, plain]
    else:
        loops = [Loop(workload)]
        loops[0].run(seconds, workload.min_ops)
    # the first loop's first PREFIX_OPS outputs are the same on both modes
    digest = loops[0].digest.hexdigest()
    attempted = sum(l.attempted for l in loops)
    failed = sum(l.failed for l in loops)
    pinned = pinned_digest(name, seed)
    if pinned is not None and pinned != digest:
        failed += PREFIX_OPS
        notes.append(f"output digest {digest} != pinned {pinned}")
    if trace and not compare_counters(name, seed, dict(exact)):
        failed += PREFIX_OPS
        notes.append("exact counters differ from an earlier run with this seed")
    failed = min(failed, attempted)
    if trace:
        metrics = per_layer(tracer, exact, traced, plain, statistics.median(imports) * 1000, cli)
        write_spans(name, seed, tracer)
    else:
        metrics = end_to_end(loops[0], failed, setups, cli)
    for l in loops:
        notes.extend(l.errors)
    print(
        f"{name} seed={seed} trace={int(trace)} ops={attempted} latency_samples="
        f"{sum(len(l.latencies) for l in loops)} failed={failed} digest={digest} "
        f"time_scale={loops[0].median_scale():.4f} (median nominal/measured reference-kernel time)",
        file=sys.stderr,
    )
    for note in notes:
        print("  " + note, file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "braidcalc", "__init__.py")):
        print(f"error: no braidcalc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
