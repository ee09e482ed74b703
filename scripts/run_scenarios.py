#!/usr/bin/env python3
"""Run every fixture scenario and print chain height, transaction count,
the conservation check, and the final tip and state root for each.

    python scripts/run_scenarios.py [SEED] [--logs DIR]

With ``--logs DIR``, each fixture's event log is also written to
``DIR/<name>.log`` and its sha256 printed as an ``EVENT_LOG_DIGESTS`` entry
(``tests/test_acceptance.py``), so two commits' logs compare with ``diff``.
"""
import argparse
import glob
import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from deskchain import config, sim

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", nargs="?", type=int, default=7)
    parser.add_argument("--logs", metavar="DIR", help="write each event log to DIR/<name>.log")
    args = parser.parse_args()
    cfg = config.load_config(os.path.join(ROOT, "net.cfg"))
    if args.logs:
        os.makedirs(args.logs, exist_ok=True)
    digests = []
    started = time.time()
    for path in sorted(glob.glob(os.path.join(ROOT, "*.scn"))):
        t0 = time.time()
        with open(path) as fh:
            text = fh.read()
        result = sim.run(cfg, text, seed=args.seed, base_dir=ROOT)
        state = result.state
        sources, sinks = state.conservation_sides()
        ok = "ok " if sources == sinks else "BAD"
        name = os.path.basename(path)
        print(
            f"{ok} {name:24s} height={result.chain[-1].header.height:3d} "
            f"txs={sum(len(b.transactions) for b in result.chain):3d} "
            f"burned={state.burned_total:6d} tip={result.final_tip.hex()[:16]} "
            f"root={result.final_state_root.hex()[:16]} "
            f"({time.time() - t0:.2f}s)"
        )
        if args.logs:
            with open(os.path.join(args.logs, f"{name}.log"), "w", encoding="utf-8") as fh:
                fh.write(result.event_log)
            digests.append(f'    "{name}": "{hashlib.sha256(result.event_log.encode()).hexdigest()}",')
    print(f"total {time.time() - started:.2f}s at seed {args.seed}")
    if digests:
        print("EVENT_LOG_DIGESTS = {", *digests, "}", sep="\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
