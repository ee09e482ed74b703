"""scripts/mutants.py: the operator sites it finds, and one small run of
main() over two mutants with a one-file test selection."""
import importlib.util
import json
import os

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("mutants", os.path.join(REPO_ROOT, "scripts", "mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_each_comparison_and_plus_minus_is_one_site_and_one_mutant():
    source = 'def f(a, b):\n    t = "é" + a  # é\n    b -= 1\n    return 0 <= t < b == (a - b)\n'
    found = mutants.sites(source)
    assert [(s["line"], s["from"], s["to"]) for s in found] == [
        (2, "+", "-"), (3, "-=", "+="), (4, "<=", "<"), (4, "<", "<="), (4, "==", "!="), (4, "-", "+"),
    ]
    assert all(s["function"] == "f" for s in found)
    assert mutants.mutate(source, found[0]).splitlines()[1] == '    t = "é" - a  # é'
    assert mutants.mutate(source, found[3]).splitlines()[3] == "    return 0 <= t <= b == (a - b)"


def test_main_on_two_mutants_writes_each_with_its_site_and_the_totals(tmp_path):
    out = tmp_path / "MUTANTS_0.json"
    selection = ["tests/test_oracles.py"]
    assert mutants.main(["0", "--modules", "oracles", "--limit", "2", "--tests", *selection,
                         "--full", *selection, "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert set(record) == {"pr", "selection", "full", "totals", "modules", "mutants"}
    assert set(record["totals"]) == {"mutants", "killed", "equivalent", "survived", "score"}
    assert record["totals"]["mutants"] == 2 and record["modules"]["oracles"] == record["totals"]
    for mutant in record["mutants"]:
        assert set(mutant) == {"module", "line", "col", "from", "to", "function", "source",
                               "killed", "stage", "killed_by", "reason"}
        assert mutant["killed"] == (mutant["killed_by"] is not None)
