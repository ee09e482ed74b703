"""scripts/calibrate_pow.py runs end to end at a tiny graph size and splits
each graph's time into edge derivation and the rest."""
import importlib.util
import os
import re

from conftest import REPO_ROOT

from deskchain import pow

_spec = importlib.util.spec_from_file_location("calibrate_pow", os.path.join(REPO_ROOT, "scripts", "calibrate_pow.py"))
calibrate_pow = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calibrate_pow)


def test_calibrate_pow_prints_derivation_and_walk_per_graph(capsys):
    endpoints = pow._endpoints
    assert calibrate_pow.main(["--edge-bits", "6", "--cycle-len", "4", "--headers", "3", "--max-nonces", "50"]) == 0
    assert pow._endpoints is endpoints
    out = capsys.readouterr().out
    total, derive, walk = map(float, re.search(
        r"([\d.]+) ms per graph \(edge derivation ([\d.]+) ms, walk ([\d.]+) ms\)", out).groups())
    assert 0 < derive <= total and abs(derive + walk - total) <= 0.02
    assert "solved 3/3" in out
