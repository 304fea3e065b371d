"""Benchmark of verma-ext, run from the root of a source checkout.

    python3 perfbench/run.py --workload verify_d4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload query_e7 --seed 1 --seconds 30 --out a.jsonl
    python3 perfbench/run.py --compare a.jsonl b.jsonl

The package is imported from ``src/`` of the checkout.  With ``--trace 0``
the run reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs each pass untraced and then traced, and reports the
per-layer metrics and the tracing overhead.
Times are scaled to a reference speed of the core (see speed.py).  The last
line of stdout is one JSON object; the lines before it give each metric with
its unit, raw value, sample count and percentile, the environment, the time
of each phase and pass, and the line counts.  The exit code is 0 only when
every output checked correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from speed import Speedometer  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import PROBE_BLOCKS, WORKLOADS, environment, line_counts  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SETUP_RUNS = 15
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
from speed import Speedometer
with Speedometer(0.005) as speed:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[2])
    import verma_ext
    from verma_ext.coxeter import build_system
    build_system(sys.argv[3], **({"budget": int(sys.argv[4])} if len(sys.argv) > 4 else {}))
    seconds = time.perf_counter() - start
print(seconds, speed.factor())
"""
PERCENTILES = (500, 750, 900, 950, 990, 999)  # in tenths of a percent


def tail(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    p = max((p for p in PERCENTILES if n * (1000 - p) >= 10 * 1000), default=500)
    value = statistics.quantiles(values, n=1000, method="inclusive")[p - 1] if n > 1 else values[0]
    return f"p{p / 10:g}", value


def measure_setup(group: str, budget: str | None) -> list[tuple[float, float]]:
    """Import plus first build_system, each in a fresh interpreter.

    Returns (raw seconds, speed factor) of each.
    """
    argv = [sys.executable, "-c", SETUP_CHILD, str(HERE), str(SRC), group]
    argv += [budget] if budget else []
    runs = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        seconds, factor = map(float, done.stdout.strip().splitlines()[-1].split())
        runs.append((seconds, factor))
    return runs


def sampled(w, fn, *args):
    """Run fn under a Speedometer and scale the query latencies it added.

    Returns fn's result and the speed factor of the run.
    """
    before = {kind: len(values) for kind, values in w.latency.items()}
    with Speedometer() as speed:
        result = fn(*args)
    f = speed.factor()
    for kind, values in w.latency.items():
        new = values[before[kind]:]
        w.raw_latency[kind].extend(new)
        values[before[kind]:] = [v * f for v in new]
    return result, f


def run_passes(w, seconds: float, min_passes: int, tracer=None) -> list[dict]:
    """Passes while the next would end less than half a pass past ``seconds``.

    Without a tracer a pass's time is scaled by the speed sampled during it.
    With a tracer each pass runs twice, untraced and then traced on the same
    inputs, so that drift in the machine's speed hits both alike; neither is
    sampled or scaled, as the samples would land inside the spans.
    """
    passes: list[dict] = []
    start = last = time.perf_counter()
    while len(passes) < w.max_passes:
        now = time.perf_counter()
        if len(passes) >= min_passes and now - start + (now - last) / 2 > seconds:
            break
        last = now
        k = len(passes)
        gc.collect()
        if tracer:
            wall, stdout_bytes = w.run_pass(k)
            f = 1.0
        else:
            (wall, stdout_bytes), f = sampled(w, w.run_pass, k)
        record = {"raw": wall, "factor": f, "wall": wall * f,
                  "raw_rate": w.pairs(k) / wall, "rate": w.pairs(k) / (wall * f)}
        if tracer:
            gc.collect()
            tracer.install()
            before = tracer.snapshot()
            try:
                record["traced_wall"], stdout_bytes = w.run_pass(k)
            finally:
                tracer.uninstall()
            after = tracer.snapshot()
            diff = {key: value - before.get(key, 0) for key, value in after.items()}
            diff["vtable.distinct_subspaces"] = tracer.take_distinct_subspaces()
            record["layers"] = layer_metrics(diff, stdout_bytes)
        passes.append(record)
    return passes


class Phases:
    """Wall time of each phase of a run, for the record."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._last = time.perf_counter()

    def end(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] = self.seconds.get(name, 0.0) + now - self._last
        self._last = now


def end_to_end(w, seconds: float, phases: Phases) -> dict[str, tuple[float, float, str]]:
    """(scaled value, raw value, note) of each end-to-end metric."""
    setups = measure_setup(w.group, w.budget)
    phases.end("setup")
    w.prepare()
    phases.end("prepare")
    if w.has_probe:  # half the probe before the passes and half after
        for _ in range(PROBE_BLOCKS // 2):
            sampled(w, w.probe)
    phases.end("probe")
    passes = run_passes(w, seconds, w.min_passes)
    phases.end("passes")
    if w.has_probe:
        for _ in range(PROBE_BLOCKS - PROBE_BLOCKS // 2):
            sampled(w, w.probe)
    phases.end("probe")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    w.check_pending()
    phases.end("checks")
    w.pass_walls = [p["raw"] for p in passes]
    w.pass_factors = [p["factor"] for p in passes]
    n = len(passes)
    probe = "D4 probe, " if w.has_probe else ""
    med = statistics.median
    metrics = {
        "setup_s": (med(t * f for t, f in setups), med(t for t, _ in setups),
                    f"median of {len(setups)} set-ups"),
        "wall_s": (med(p["wall"] for p in passes), med(p["raw"] for p in passes),
                   f"median of {n} passes"),
        "pairs_per_s": (med(p["rate"] for p in passes), med(p["raw_rate"] for p in passes),
                        f"median of {n} passes"),
    }
    for kind in ("rpoly", "vspace"):
        values, raw = w.latency[kind], w.raw_latency[kind]
        label, value = tail(values)
        metrics[f"{kind}_p50_ms"] = (med(values), med(raw), f"{probe}p50 of n={len(values)}")
        metrics[f"{kind}_tail_ms"] = (value, tail(raw)[1], f"{probe}{label} of n={len(values)}")
    metrics["peak_rss_mb"] = (peak_mb, peak_mb, "ru_maxrss before checks")
    return metrics


def per_layer(w, seconds: float, phases: Phases) -> dict[str, tuple[float, float, str]]:
    w.prepare()
    phases.end("prepare")
    passes = run_passes(w, seconds, 1, tracer=Tracer())
    phases.end("passes")
    w.check_pending()
    phases.end("checks")
    w.pass_walls = [p["raw"] for p in passes]
    n = len(passes)
    metrics = {}
    for name in passes[0]["layers"]:
        value = statistics.median(p["layers"][name] for p in passes)
        metrics[name] = (value, value, f"median of {n} traced passes")
    overhead = statistics.median(p["traced_wall"] - p["raw"] for p in passes)
    metrics["trace.overhead_s"] = (
        overhead, overhead, f"median of traced minus untraced wall_s, {n} passes")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's record to a JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two files written with --out, then exit")
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare

        return compare(*args.compare, SPEC)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "verma_ext" / "__init__.py").is_file():
        print(f"error: no verma_ext package under {SRC}", file=sys.stderr)
        return 2
    env = environment(ROOT)
    loc = line_counts(SRC)
    os.environ.pop("VERMA_EXT_CACHE", None)  # it would override --cache-dir
    sys.path.insert(0, str(SRC))
    from verma_ext import cli

    w = WORKLOADS[args.workload](cli, ROOT, args.seed)
    phases = Phases()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(w, args.seconds, phases)
    finally:
        w.close()
    if args.trace:
        metrics.update((name, (n, n, "")) for name, n in loc.items())

    failed = len(w.failures)
    for problem in w.failures[:10]:
        print(f"wrong: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# loc " + " ".join(f"{k}={v}" for k, v in loc.items()))
    print("# phases " + " ".join(f"{k}={v:.2f}s" for k, v in phases.seconds.items()))
    print("# passes (raw) " + " ".join(f"{v:.4g}s" for v in w.pass_walls))
    if w.pass_factors:
        print("# speed factors " + " ".join(f"{v:.3f}" for v in w.pass_factors))
    print(f"# {'metric':<30} {'value':>14} {'unit':<6} {'raw':>12}  note")
    for name, (value, raw, note) in metrics.items():
        print(f"{name:<32} {value:>14.6g} {UNITS[name]:<6} {raw:>12.6g}  {note}")
    print(f"{'failed_ratio':<32} {failed / w.attempted:>14.6g} {'ratio':<6} {'':>12}  "
          f"{failed} of {w.attempted} operations wrong or failed")
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, "loc": loc,
            "phases": phases.seconds, "pass_walls": w.pass_walls, "pass_factors": w.pass_factors,
            "attempted": w.attempted, "failed": failed,
            "metrics": {
                k: {"value": v, "unit": UNITS[k], "raw": raw, "note": note}
                for k, (v, raw, note) in metrics.items()
            } | {"failed_ratio": {"value": failed / w.attempted, "unit": "ratio"}},
        }
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": w.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, (v, _, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
