#!/usr/bin/env python3
"""deskchain benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (it reads ``src/`` and ``scenarios/``).
With ``--trace 0`` the workload runs untraced and the end-to-end metrics
are reported; with ``--trace 1`` it runs for half the time (and at
least one period of distinct inputs) with every layer boundary wrapped
(layers.py), then replays the same ops untraced, and reports the
per-layer metrics and the tracing overhead. Times are
scaled to a reference host by a calibration loop run next to them (see
``speed``). Human-readable lines come first; the last line of standard
output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The metric names and
units come from BENCHMARK.json at the checkout root.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_MIN_RUNS = 3  # set-up is repeated and its median reported
SETUP_MIN_SECONDS = 1.0  # cheap set-ups repeat until this much time is spent
SETUP_SAMPLE_S = 0.02  # cheap set-ups are timed in batches of at least this long
# Milliseconds the reference loop takes on an unloaded 2-vCPU Intel Xeon
# virtual machine, the host this benchmark was tuned on. Timings are scaled
# by REFERENCE_MS / (the loop's time measured next to them), so a host that
# other tenants slow down, or a faster one, reports reference-host times.
REFERENCE_MS = 0.76


def host_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu}


def _reference_loop() -> None:
    # keyed blake2b and dict inserts: the mix of deskchain's hot paths
    seen = {}
    h = bytes(32)
    for i in range(1000):
        h = hashlib.blake2b(h, digest_size=8, key=b"perfbench").digest()
        seen[h] = i


def speed() -> float:
    """How fast this process runs now, relative to the reference host."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return REFERENCE_MS / (best * 1e3)


def timed_setups(make, seed: int):
    """Set the workload up several times; return the last and the median
    time per set-up, scaled to the reference host. Cheap set-ups run in
    batches between speed checks, doubled until a batch lasts
    SETUP_SAMPLE_S: one set-up of a fraction of a millisecond, timed
    alone right after the calibration loop, runs with cold caches and
    reads up to 1.5x slower in one process than in the next."""
    times = []
    batch = 1
    workload = None
    before = speed()
    start = time.perf_counter()
    while True:
        elapsed = 0.0
        for _ in range(batch):
            if workload is not None:
                workload.close()
            workload = make()
            t0 = time.perf_counter()
            workload.setup(seed)
            elapsed += time.perf_counter() - t0
        after = speed()
        times.append(elapsed / batch * (before + after) / 2)
        before = after
        if len(times) >= SETUP_MIN_RUNS and time.perf_counter() - start >= SETUP_MIN_SECONDS:
            return workload, statistics.median(times)
        if elapsed < SETUP_SAMPLE_S:
            batch *= 2


def drive(workload, seconds: float, tracer=None, ops: int | None = None, outputs: dict | None = None) -> dict:
    """Run ops for ``seconds``, or exactly ``ops`` ops.

    Op inputs repeat every ``workload.period`` ops. A timed run always
    finishes the first period, so a slow host or a slow change still
    measures every distinct input. A repeat whose output
    differs from the first (or from ``outputs``, when given) fails. Each
    timed part of an op is scaled to the reference host by the speed
    measured before and after the op, and counts with its median over the
    op's repeats.
    """
    from contextlib import nullcontext
    from workloads import CheckFailed

    outputs = {} if outputs is None else outputs
    samples: dict[int, list[list[float]]] = {}  # distinct op -> scaled ms of its parts, per repeat
    units: dict[int, int] = {}
    done = failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    before = speed()
    while (done < ops) if ops is not None else (done < workload.period or time.perf_counter() < deadline):
        key = done % workload.period
        t0 = time.perf_counter()
        try:
            with tracer.op() if tracer else nullcontext():
                outcome = workload.op(done)
            op_ms = (time.perf_counter() - t0) * 1e3
            if outputs.setdefault(key, outcome.output) != outcome.output:
                raise CheckFailed(f"op {done} repeats op {key} with a different output")
        except CheckFailed as exc:
            failed += 1
            print(f"check failed: {exc}", file=sys.stderr)
        except Exception:  # an op that raises counts as failed; keep measuring
            failed += 1
            traceback.print_exc()
        else:
            after = speed()
            scale = (before + after) / 2
            before = after
            parts = outcome.parts if outcome.parts is not None else [op_ms]
            samples.setdefault(key, []).append([ms * scale for ms in parts])
            units[key] = outcome.units
        done += 1
    typical = {key: [statistics.median(part) for part in zip(*reps)] for key, reps in samples.items()}
    return {"ops": done, "failed": failed, "elapsed": time.perf_counter() - start, "outputs": outputs,
            "distinct": len(typical), "units": sum(units.values()),
            "busy": sum(ms for parts in typical.values() for ms in parts) / 1e3,
            "latencies": workload.latencies(typical)}


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def run_untraced(make, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    workload, setup_s = timed_setups(make, seed)
    try:
        res = drive(workload, seconds)
        problems = workload.finish()
    finally:
        workload.close()
    if not res["units"]:
        raise RuntimeError(f"{workload.name}: no op completed, so there is nothing to report")
    lat = res["latencies"]
    metrics = {
        "throughput": res["units"] / res["busy"],
        "latency_ms.p50": statistics.median(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    print(f"{workload.name}: {res['ops']} ops ({res['distinct']} distinct) in {res['elapsed']:.3f} s; "
          f"median repeats: {res['units']} {workload.unit} in {res['busy']:.3f} reference-host s, "
          f"{len(lat)} latency samples")
    if len(lat) >= 100:
        print(f"latency_ms.p90 = {percentile(lat, 90):.4f} ms")
    return res, metrics, problems


def run_traced(make, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    from layers import Tracer, layer_metrics, traced

    workload = make()
    workload.setup(seed)
    try:
        tracer = Tracer()
        before = speed()
        with traced(tracer):
            res = drive(workload, seconds / 2, tracer=tracer)
        scale = (before + speed()) / 2
        metrics = layer_metrics(tracer)
        for name in metrics:
            if ".self_ms" in name:
                metrics[name] *= scale  # self times on the reference host, as the end-to-end times
        counts = {**metrics, **tracer.counts,
                  "tx.apply_tx.calls": sum(v for k, v in metrics.items() if k.startswith("tx.apply_tx.calls."))}
        problems = workload.trace_problems(counts, res["ops"])
        metrics.update(workload.layer_counts())
        plain = drive(workload, 0, ops=res["ops"], outputs=res["outputs"])
        problems += workload.finish()
    finally:
        workload.close()
    # both loops ran the same ops with the same repeats; compare their
    # scaled median times so host noise stays out of the difference
    overhead_ms = (res["busy"] - plain["busy"]) * 1e3
    metrics["trace.overhead_ms"] = overhead_ms
    metrics["trace.overhead_share"] = overhead_ms / (plain["busy"] * 1e3)
    print(f"{workload.name}: {res['ops']} traced ops in {res['elapsed']:.3f} s, "
          f"untraced replay {plain['elapsed']:.3f} s, {len(tracer.start)} spans")
    res["failed"] += plain["failed"]
    return res, metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "deskchain")) or not os.path.exists(spec_path):
        print(f"no deskchain sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    print("host: " + json.dumps(host_facts()))
    run = run_traced if args.trace else run_untraced
    res, values, problems = run(lambda: cls(ROOT), args.seed, args.seconds)

    rows = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for row in rows:
        value = values.get(row["name"], 0)
        metrics[row["name"]] = {"value": value, "unit": row["unit"]}
        print(f"{row['name']} = {value} {row['unit']}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = res["failed"] == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": res["ops"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
