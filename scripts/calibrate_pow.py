#!/usr/bin/env python3
"""Empirical solve-rate calibration for the cuckoo search.

Measures the per-nonce success probability at the given graph size and
cycle length, then reports the nonce budget needed for a target per-header
failure rate. The acceptance suite freezes its budget from this
measurement. Time spent in edge derivation (``pow._endpoints``) is
counted on its own, so each graph's cost is printed split into derivation
and the forest walk that follows it.
"""
import argparse
import math
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from deskchain import pow
from deskchain.crypto import hash256


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--edge-bits", type=int, default=12)
    parser.add_argument("--cycle-len", type=int, default=8)
    parser.add_argument("--headers", type=int, default=100)
    parser.add_argument("--max-nonces", type=int, default=400)
    parser.add_argument("--target-failure", type=float, default=1e-9)
    args = parser.parse_args(argv)

    params = pow.PowParams(edge_bits=args.edge_bits, cycle_len=args.cycle_len)
    nonces_used = []
    misses = 0
    derive_s = 0.0
    endpoints = pow._endpoints

    def timed_endpoints(*call):
        nonlocal derive_s
        start = time.perf_counter()
        sides = endpoints(*call)
        derive_s += time.perf_counter() - start
        return sides

    pow._endpoints = timed_endpoints
    started = time.perf_counter()
    try:
        for i in range(args.headers):
            header = hash256(b"calibration" + i.to_bytes(4, "big"))
            solution = pow.solve(header, params, args.max_nonces)
            if solution is None:
                misses += 1
            else:
                nonces_used.append(solution.nonce + 1)
    finally:
        pow._endpoints = endpoints
    elapsed = time.perf_counter() - started
    graphs = sum(nonces_used) + misses * args.max_nonces

    if not nonces_used:
        print("no solutions found; raise --max-nonces")
        return 1
    mean = sum(nonces_used) / len(nonces_used)
    p = 1.0 / mean  # geometric estimate of per-nonce success
    budget = math.ceil(math.log(args.target_failure) / math.log(1.0 - p))
    print(f"edge_bits={args.edge_bits} cycle_len={args.cycle_len} headers={args.headers}")
    print(f"solved {len(nonces_used)}/{args.headers} (misses {misses}) in {elapsed:.1f}s")
    print(f"graphs searched: {graphs}, {1000 * elapsed / graphs:.2f} ms per graph "
          f"(edge derivation {1000 * derive_s / graphs:.2f} ms, walk {1000 * (elapsed - derive_s) / graphs:.2f} ms)")
    print(f"nonces per solve: mean {mean:.1f}, max {max(nonces_used)}")
    print(f"per-nonce success ~{p:.3f}")
    print(f"budget for failure<{args.target_failure:g}: {budget}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
