"""scripts/mutants.py: the sites of each kind it finds, and one small run
of main() over one mutant of each of the two newer kinds with a one-file
test selection."""
import importlib.util
import json
import os

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("mutants", os.path.join(REPO_ROOT, "scripts", "mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_each_comparison_and_plus_minus_is_one_site_and_one_mutant():
    source = 'def f(a, b):\n    t = "é" + a  # é\n    b -= 1\n    return 0 <= t < b == (a - b)\n'
    found = mutants.sites(source, ("flip", "swap"))
    assert [(s["kind"], s["line"], s["from"], s["to"]) for s in found] == [
        ("swap", 2, "+", "-"), ("swap", 3, "-=", "+="), ("flip", 4, "<=", "<"), ("flip", 4, "<", "<="),
        ("flip", 4, "==", "!="), ("swap", 4, "-", "+"),
    ]
    assert all(s["function"] == "f" for s in found)
    assert mutants.mutate(source, found[0]).splitlines()[1] == '    t = "é" - a  # é'
    assert mutants.mutate(source, found[3]).splitlines()[3] == "    return 0 <= t <= b == (a - b)"


def test_each_one_line_statement_and_boolean_operator_is_one_site_and_one_mutant():
    source = ('X = 1\n\n\ndef f(a, b):\n    """doc"""\n    t = "é"; g(t)  # é\n    b += 1\n'
              '    if (a or b) and a and not b: raise ValueError(\n        "two lines")\n'
              '    c: int = a\n    return a or b\n')
    found = mutants.sites(source, ("delete", "bool"))
    assert [(s["kind"], s["line"], s["from"], s["to"]) for s in found] == [
        ("delete", 6, 't = "é"', "pass"), ("delete", 6, "g(t)", "pass"), ("delete", 7, "b += 1", "pass"),
        ("bool", 8, "or", "and"), ("bool", 8, "and", "or"), ("bool", 8, "and", "or"),
        ("delete", 10, "c: int = a", "pass"), ("bool", 11, "or", "and"),
    ]
    assert mutants.mutate(source, found[1]).splitlines()[5] == '    t = "é"; pass  # é'
    assert mutants.mutate(source, found[4]).splitlines()[7] == "    if (a or b) or a and not b: raise ValueError("


def test_main_on_two_mutants_writes_each_with_its_site_and_the_totals(tmp_path):
    out = tmp_path / "MUTANTS_0.json"
    selection = ["tests/test_oracles.py"]
    assert mutants.main(["0", "--modules", "oracles=delete+bool", "--limit", "1", "--tests", *selection,
                         "--full", *selection, "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert set(record) == {"pr", "selection", "kinds", "full", "totals", "modules", "mutants"}
    assert record["kinds"] == {"oracles": ["delete", "bool"]}
    assert set(record["totals"]) == {"mutants", "killed", "equivalent", "survived", "score"}
    assert record["totals"]["mutants"] == 2 and record["modules"]["oracles"] == record["totals"]
    assert sorted(mutant["kind"] for mutant in record["mutants"]) == ["bool", "delete"]
    for mutant in record["mutants"]:
        assert set(mutant) == {"module", "kind", "line", "col", "from", "to", "function", "source",
                               "killed", "stage", "killed_by", "reason"}
        assert mutant["killed"] == (mutant["killed_by"] is not None)


def test_an_operator_inside_an_f_string_is_no_site():
    # Python 3.11 gives an f-string as one STRING token, so its operators have no OP token
    source = 'def f(a, b):\n    return f"{a + b} {a < b or b}" + str(a == b)\n'
    found = mutants.sites(source)
    assert [(s["kind"], s["from"]) for s in found] == [("swap", "+"), ("flip", "==")]
    with open(os.path.join(REPO_ROOT, "src", "deskchain", "codec.py"), encoding="utf-8") as fh:
        assert {s["kind"] for s in mutants.sites(fh.read())} == set(mutants.KINDS)


def test_every_selection_is_timed_on_the_unmutated_source(tmp_path, monkeypatch):
    # the module's tests pass every mutant here and the full selection kills it,
    # so the full selection is timed at the first mutant, which is then in place
    pow_path = os.path.join("src", "deskchain", "pow.py")
    timed = []

    def timed_source(copy, selection):
        with open(os.path.join(copy, pow_path), encoding="utf-8") as fh:
            timed.append((selection, fh.read()))
        return 1.0

    monkeypatch.setattr(mutants, "_timed", timed_source)
    monkeypatch.setattr(mutants, "run_tests", lambda copy, selection, timeout:
                        (False, "full::test") if selection == ["full"] else (True, None))
    out = tmp_path / "MUTANTS_0.json"
    assert mutants.main(["0", "--modules", "pow=delete", "--limit", "2", "--tests", "module", "--full", "full",
                         "--out", str(out)]) == 0
    with open(os.path.join(REPO_ROOT, pow_path), encoding="utf-8") as fh:
        source = fh.read()
    assert timed == [(["module"], source), (["full"], source)]
    record = json.loads(out.read_text())
    assert [(m["killed"], m["stage"], m["killed_by"]) for m in record["mutants"]] == [(True, "full", "full::test")] * 2
