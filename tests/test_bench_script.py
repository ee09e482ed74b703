"""scripts/bench.py's summary, fed canned run.py result lines, and its
export of both sides; no benchmark process starts."""
import importlib.util
import json
import os
import subprocess

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("bench", os.path.join(REPO_ROOT, "scripts", "bench.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

ROWS = [{"name": "throughput", "better": "higher"}, {"name": "latency_ms.p50", "better": "lower"}]


def _line(throughput, p50, correct=True, failed=0):
    return json.dumps({"correct": correct, "attempted": 10, "failed": failed, "metrics": {
        "throughput": {"value": throughput, "unit": "1/s"}, "latency_ms.p50": {"value": p50, "unit": "ms"}}})


def _pairs(parent, change):
    return [{"seed": 20_000 + i, "first": "parent", "parent": _line(*p), "change": _line(*c)}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_summary_gives_medians_quartiles_and_wins_by_the_better_direction():
    pairs = _pairs([(100, 10), (110, 9), (90, 11), (100, 10), (105, 12)],
                   [(120, 8), (100, 9), (130, 7), (125, 10), (115, 11)])
    summary = bench.summarize(ROWS, pairs)
    assert summary["throughput"]["parent"] == {"median": 100, "q1": 100, "q3": 105}
    assert summary["throughput"]["change"] == {"median": 120, "q1": 115, "q3": 125}
    assert summary["throughput"]["ratio"] == 1.2 and summary["throughput"]["wins"] == 4
    assert summary["latency_ms.p50"]["parent"]["median"] == 10
    assert summary["latency_ms.p50"]["wins"] == 3  # lower wins; the tie at 9 is no win
    assert bench.clean(pairs)


def test_an_incorrect_run_or_a_failed_op_is_not_clean():
    good = _pairs([(100, 10)], [(120, 8)])
    assert bench.clean(good)
    assert not bench.clean(good + [{"seed": 1, "first": "change", "parent": _line(1, 1),
                                    "change": _line(1, 1, correct=False)}])
    assert not bench.clean(good + [{"seed": 1, "first": "change", "parent": _line(1, 1, failed=2),
                                    "change": _line(1, 1)}])


def test_both_sides_export_without_caches_or_run_output_and_leave_the_index_alone(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org", *args],
                              cwd=repo, capture_output=True, text=True, check=True).stdout

    git("init", "-q")
    (repo / ".gitignore").write_text("__pycache__/\n.perfbench_work/\n")
    (repo / "kept.py").write_text("committed\n")
    git("add", "--all")
    git("commit", "-qm", "base")
    (repo / "kept.py").write_text("edited\n")
    (repo / "new.py").write_text("untracked\n")
    for ignored in ("__pycache__/kept.cpython-311.pyc", ".perfbench_work/chain.bin"):
        (repo / ignored).parent.mkdir()
        (repo / ignored).write_bytes(b"\0")
    status, head = git("status", "--porcelain"), git("rev-parse", "HEAD")

    def files(root):
        return {p.relative_to(root).as_posix(): p.read_text() for p in root.rglob("*") if p.is_file()}

    bench.export(str(repo), str(tmp_path / "parent"), head.strip())
    tree = bench.export(str(repo), str(tmp_path / "change"))
    assert files(tmp_path / "parent") == {".gitignore": "__pycache__/\n.perfbench_work/\n",
                                          "kept.py": "committed\n"}
    assert files(tmp_path / "change") == {".gitignore": "__pycache__/\n.perfbench_work/\n",
                                          "kept.py": "edited\n", "new.py": "untracked\n"}
    assert git("cat-file", "-t", tree).strip() == "tree"
    assert (git("status", "--porcelain"), git("rev-parse", "HEAD")) == (status, head)
