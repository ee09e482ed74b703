"""Smoke tests for the benchmark: every workload at a tiny size, traced and
untraced, and deterministic input generators.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import chaingen  # noqa: E402
import run  # noqa: E402
from deskchain import config, sim  # noqa: E402
from layers import Tracer, layer_metrics, traced  # noqa: E402
from workloads import WORKLOADS, Fixtures, Mine12, Optimizer  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))


def _tiny(name: str, seed: int = 3):
    workload = WORKLOADS[name](ROOT, small=True)
    workload.setup(seed)
    return workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_checks_at_tiny_size(name):
    workload = _tiny(name)
    try:
        res = run.drive(workload, 0, ops=workload.period + 1)  # every op, then one repeat
        assert res["failed"] == 0
        assert res["distinct"] == workload.period and res["units"] >= workload.period and res["latencies"]
        assert workload.finish() == []
    finally:
        workload.close()


def test_traced_runs_fire_every_wrap_and_match_independent_counts():
    fired = set()
    names = set()
    for name in sorted(WORKLOADS):
        workload = _tiny(name)
        try:
            tracer = Tracer()
            with traced(tracer):
                res = run.drive(workload, 0, tracer=tracer, ops=2)
            metrics = layer_metrics(tracer)
            counts = {**metrics, **tracer.counts, "tx.apply_tx.calls": sum(
                v for k, v in metrics.items() if k.startswith("tx.apply_tx.calls."))}
            assert res["failed"] == 0
            assert workload.trace_problems(counts, res["ops"]) == []
        finally:
            workload.close()
        fired |= {k.rsplit(".", 1)[0] for k, v in metrics.items() if k.endswith(".calls") and v}
        fired |= {"tx.apply_tx" for k, v in metrics.items() if k.startswith("tx.apply_tx.calls.") and v}
        names |= set(metrics) | set(workload.layer_counts())
    expected = {row["name"].rsplit(".", 1)[0] for row in SPEC["per_layer"] if row["name"].endswith(".calls")}
    expected |= {"tx.apply_tx", "sim.dispatch", "statedir.blocks"}
    assert expected <= fired
    fixed = {row["name"] for row in SPEC["per_layer"]
             if not row["name"].startswith(("tx.apply_tx.calls.", "tx.apply_tx.self_ms.", "sim.dispatch.events.",
                                            "trace."))}
    assert fixed <= names


def test_wraps_are_removed_after_a_traced_run():
    from deskchain import pow, state

    solve, clone = pow.solve, state.ChainState.__dict__["clone"]
    with traced(Tracer()):
        assert pow.solve is not solve
    assert pow.solve is solve and state.ChainState.__dict__["clone"] is clone


def test_fixture_span_counts_match_the_event_log_at_seed_7():
    """Every simulation applies and mines one genesis block of its own."""
    workload = Fixtures(ROOT)
    workload.setup(7)
    cfg = config.load_config(os.path.join(ROOT, "scenarios", "net.cfg"))
    tracer = Tracer()
    blocks = mines = 0
    with traced(tracer):
        for _, text in workload.scenarios:
            log = sim.run(cfg, text, seed=7, base_dir=workload.base_dir).event_log
            blocks += log.count(" ev=block ")
            mines += log.count(" ev=mine ")
    n = len(workload.scenarios)
    assert tracer.counts["tx.apply_block.ok"] == blocks + n
    assert tracer.span_stats()["pow.solve"][0] == mines + n


def _chain_bytes(tmp_path, seed: int) -> bytes:
    text = open(os.path.join(ROOT, "scenarios", "net.cfg"), encoding="utf-8").read()
    root = str(tmp_path / f"chain-{seed}-{len(os.listdir(tmp_path))}")
    chaingen.build_chain(config.parse_config(text), text, root, seed, chaingen.ChainShape(blocks=4, txs_per_block=8))
    with open(os.path.join(root, "chain.bin"), "rb") as fh:
        return fh.read()


def test_sync_chain_generator_is_deterministic_per_seed(tmp_path):
    first = _chain_bytes(tmp_path, 5)
    assert _chain_bytes(tmp_path, 5) == first
    assert _chain_bytes(tmp_path, 6) != first


def test_mine12_and_optimizer_inputs_depend_only_on_the_seed():
    a, b, c = Mine12(ROOT, small=True), Mine12(ROOT, small=True), Mine12(ROOT, small=True)
    a.setup(1), b.setup(1), c.setup(2)
    assert a.header(4) == b.header(4) != c.header(4)
    assert a.forgeries == b.forgeries != c.forgeries

    def potentials(seed):
        o = Optimizer(ROOT, small=True)
        o.setup(seed)
        return [u.tobytes() for g in o.graphs for u in g.unaries.values()]

    assert potentials(1) == potentials(1) != potentials(2)


def test_result_line_has_every_metric(capsys):
    assert run.main(["--workload", "mine12", "--seed", "1", "--seconds", "0.01", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {row["name"] for row in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
