"""scripts/train_optimizer.py runs end to end on two seeds per mode."""
import importlib.util
import os
import re

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location(
    "train_optimizer", os.path.join(REPO_ROOT, "scripts", "train_optimizer.py"))
train_optimizer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(train_optimizer)


def test_train_optimizer_matches_the_policy_in_both_modes(monkeypatch, capsys):
    monkeypatch.setattr(train_optimizer, "SEEDS", 2)
    assert train_optimizer.main() == 0
    out = capsys.readouterr().out
    for mode in ("off_policy", "on_policy"):
        line = re.search(rf"^{mode}: policy match (\d+)/2, .*, ([0-9.]+) ms per training run$", out, re.M)
        assert line is not None, out
        assert line.group(1) == "2" and float(line.group(2)) > 0
