#!/usr/bin/env python3
"""Paired benchmark of a git ref against the working tree.

    python3 scripts/bench.py REF PR

Exports both sides the same way, each into a fresh temporary directory
through ``git archive`` (see ``export``): ``REF``'s tree, and the working
tree's tracked and untracked, non-ignored files, so neither side runs with
bytecode caches or earlier run output. Then runs
``perfbench/run.py --seconds 20 --trace 0`` for every workload that
BENCHMARK.json lists: ``PAIRS`` pairs per workload, each pair one run of
``REF`` and one of the working tree on the same seed, alternating which side
runs first. Pair ``i`` uses seed ``SEED_BASE + i``. Writes
``BENCH_<PR>.json`` at the checkout root with the host line, the seeds,
every run's result line (run.py's last line of output), each side's median
and quartiles per end-to-end metric, and how many pairs the working tree
won. Exits 1 if any run is incorrect or has failed ops.
"""
from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
SECONDS = 20
SEED_BASE = 20_000
SIDES = ("parent", "change")


def export(root: str, dest: str, ref: str | None = None) -> str:
    """Extract into ``dest`` the tree of ``ref``, or with None the working
    tree's tracked and untracked, non-ignored files as they are on disk, and
    return that tree's id. The working tree is staged into a scratch index,
    so the repository's own index and refs are left as they are."""
    with tempfile.TemporaryDirectory(prefix="bench-index-") as scratch:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(scratch, "index")}

        def git(*args: str) -> bytes:
            return subprocess.run(["git", *args], cwd=root, env=env, capture_output=True, check=True).stdout

        if ref is None:
            git("add", "--all")
            tree = git("write-tree").decode().strip()
        else:
            tree = git("rev-parse", f"{ref}^{{tree}}").decode().strip()
        archive = git("archive", tree)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return tree


def run_once(root: str, workload: str, seed: int) -> tuple[dict | None, str]:
    """One run.py process in ``root``: its host facts and its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines() or [""]
    host = next((json.loads(line[len("host: "):]) for line in lines if line.startswith("host: ")), None)
    try:
        json.loads(lines[-1])
        return host, lines[-1]
    except json.JSONDecodeError:  # a run that crashed counts as incorrect
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return host, json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "error": tail[0]})


def clean(pairs: list[dict]) -> bool:
    """Every run of every pair is correct with 0 failed ops."""
    results = [json.loads(pair[side]) for pair in pairs for side in SIDES]
    return all(r["correct"] and r["failed"] == 0 for r in results)


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(rows: list[dict], pairs: list[dict]) -> dict:
    """Per end-to-end metric (BENCHMARK.json's rows): each side's median and
    quartiles over ``pairs`` and the pairs the change won, by the row's
    ``better`` direction; a tie is no win."""
    summary = {}
    for row in rows:
        name = row["name"]
        values = {side: [json.loads(pair[side])["metrics"].get(name, {"value": float("nan")})["value"]
                         for pair in pairs] for side in SIDES}
        sign = 1 if row["better"] == "higher" else -1
        wins = sum(sign * (new - old) > 0 for old, new in zip(values["parent"], values["change"]))
        summary[name] = {side: _spread(values[side]) for side in SIDES}
        summary[name]["ratio"] = summary[name]["change"]["median"] / summary[name]["parent"]["median"]
        summary[name]["wins"] = wins
    return summary


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    ref, pr = argv
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    commit = subprocess.run(["git", "rev-parse", ref], cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.strip()
    seeds = [SEED_BASE + i for i in range(PAIRS)]
    report = {"ref": ref, "ref_commit": commit, "change": "working tree", "seconds": SECONDS,
              "seeds": seeds, "host": None, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        roots = {side: os.path.join(tmp, side) for side in SIDES}
        export(ROOT, roots["parent"], commit)
        report["change_tree"] = export(ROOT, roots["change"])
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    host, pair[side] = run_once(roots[side], workload, seed)
                    report["host"] = report["host"] or host
                    print(f"{workload} seed {seed} {side}: {pair[side]}", file=sys.stderr, flush=True)
                pairs.append(pair)
            report["workloads"][workload] = {"pairs": pairs, "summary": summarize(spec["end_to_end"], pairs),
                                             "clean": clean(pairs)}
    report["clean"] = all(w["clean"] for w in report["workloads"].values())
    out = os.path.join(ROOT, f"BENCH_{pr}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for workload, entry in report["workloads"].items():
        for name, row in entry["summary"].items():
            print(f"{workload} {name}: {row['parent']['median']:.4g} -> {row['change']['median']:.4g} "
                  f"({row['ratio']:.3f}x, change won {row['wins']}/{len(entry['pairs'])})")
    print(f"wrote {out}")
    return 0 if report["clean"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
