#!/usr/bin/env python3
"""Run every fixture scenario and print chain height, transaction count,
the conservation check, and the final tip and state root for each."""
import glob
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from deskchain import config, sim

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios")


def main() -> int:
    cfg = config.load_config(os.path.join(ROOT, "net.cfg"))
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    started = time.time()
    for path in sorted(glob.glob(os.path.join(ROOT, "*.scn"))):
        t0 = time.time()
        with open(path) as fh:
            text = fh.read()
        result = sim.run(cfg, text, seed=seed, base_dir=ROOT)
        state = result.state
        sources, sinks = state.conservation_sides()
        ok = "ok " if sources == sinks else "BAD"
        print(
            f"{ok} {os.path.basename(path):24s} height={result.chain[-1].header.height:3d} "
            f"txs={sum(len(b.transactions) for b in result.chain):3d} "
            f"burned={state.burned_total:6d} tip={result.final_tip.hex()[:16]} "
            f"root={result.final_state_root.hex()[:16]} "
            f"({time.time() - t0:.2f}s)"
        )
    print(f"total {time.time() - started:.2f}s at seed {seed}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
