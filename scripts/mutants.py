#!/usr/bin/env python3
"""Operator mutation analysis of the consensus modules.

    python3 scripts/mutants.py PR [--modules state,tx=flip+delete,...] [--limit N]
                                  [--tests PATH ...] [--full PATH ...] [--out FILE]

Makes one mutant per site of four kinds in each module, found with the
standard library's ``ast`` and applied to that one site in the source text:
``flip``, a comparison flip (``<``/``<=``, ``>``/``>=``, ``==``/``!=``);
``swap``, a ``+``/``-`` swap (``+=``/``-=`` too); ``delete``, a single-line
``raise``, call, assignment or augmented assignment in a function body
replaced by ``pass``; ``bool``, an ``and``/``or`` swap. An operator inside
an f-string is no site. A module runs the kinds named after its ``=`` in
``--modules``, or else all four. Each mutant runs in one temporary copy of
the checkout, with bytecode writing off, against its module's tests with
``-x`` (``MODULE_TESTS``, or ``--tests``), one subprocess at a time; a
mutant that survives them runs again against full tier-1 (or ``--full``),
which is timed only then. Writes ``MUTANTS_<PR>.json`` at the checkout root
(or ``--out``): per mutant its kind and site, whether a test killed it and
the first killing test, the reason for each survivor listed in
``EQUIVALENT``, and the totals. Exits 1 if an unmutated selection fails.
"""
from __future__ import annotations

import argparse
import ast
import collections
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("state", "channels", "oracles", "storage", "rewards")
# a module's tests when it has no tests/test_<module>.py of its own
MODULE_TESTS = {
    "state": ("tests/test_ledger.py", "tests/test_conservation.py", "tests/test_tx.py"),
    # tx dispatches each kind to the module that applies it, so their tests come last
    "tx": ("tests/test_tx.py", "tests/test_model.py", "tests/test_ledger.py", "tests/test_conservation.py",
           "tests/test_channels.py", "tests/test_oracles.py", "tests/test_storage.py", "tests/test_rewards.py"),
    "ledger": ("tests/test_ledger.py", "tests/test_tx.py", "tests/test_model.py", "tests/test_codec.py"),
}
KINDS = ("flip", "swap", "delete", "bool")
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add}
BOOLS = {ast.And: ast.Or, ast.Or: ast.And}
TEXT = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
        ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or"}
# the statements a deletion mutant replaces by ``pass``: a call, not any expression
DELETED = (ast.Raise, ast.Assign, ast.AugAssign, ast.AnnAssign)
# survivors that change no behaviour, by (module, source line stripped, from, to); a
# deletion's from is the statement's text
EQUIVALENT = {
    ("state", "if end < len(held):", "<", "<="):
        "deleting held[end:] when end == len(held) deletes nothing, and truncate(end) keeps every level",
    ("state", "self.fresh: list = []", "self.fresh: list = []", "pass"):
        "fork, the one reader of fresh, calls sync first, and sync assigns fresh before it returns",
    ("state", "self.accounts.log.clear()", "self.accounts.log.clear()", "pass"):
        "the next line detaches the journal list from every store and nothing else holds it, "
        "so emptying it first changes only when its entries are freed",
    ("oracles", "bit = yes > no", ">", ">="):
        "a tie takes the yes == no branch above, so yes >= no and yes > no agree here",
    ("rewards", "if exact < 0:", "<", "<="):
        "an exact Q of 0 returns 0 on either branch",
    ("pow", "if any(edges[i] >= edges[i + 1] for i in range(len(edges) - 1)):", ">=", ">"):
        "an index given twice is a double edge whose two nodes touch no other claimed edge, a cycle of two "
        "apart from the rest (cycle_len is at least 4), so the walk refuses it",
    ("pow", "used[0] = True", "used[0] = True", "pass"):
        "the walk's first step then takes edge 0 itself and goes round edge 0's cycle the other way, one "
        "step shorter: one cycle of cycle_len edges still ends with no revisit, and a shorter one (at most "
        "cycle_len - 2 edges) leads back to edge 0 within the steps",
    ("pow", "if x < 0:  # a is its own root", "<", "<="):
        "x is a U node's parent, so -1 or a V node: every parent link joins a U node and a V node, and V's "
        "nodes are numbered from 2**(edge_bits - 1), at least 8; so x is never 0",
}
CAP_BYTES = 3 << 30  # address space per test process, so a mutant that allocates without end fails


def sites(source: str, kinds=KINDS) -> list[dict]:
    """Every site of ``kinds`` in ``source``: its kind, line, column (in
    characters), text, replacement and enclosing function."""
    tree = ast.parse(source)
    lines = source.splitlines()
    ops = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
           if t.type in (tokenize.OP, tokenize.NAME)]

    def char_pos(lineno: int, byte_col: int) -> tuple[int, int]:  # ast columns count utf-8 bytes
        return lineno, len(lines[lineno - 1].encode()[:byte_col].decode())

    def token_between(start, end, text):
        start, end = char_pos(*start), char_pos(*end)
        return next(t for t in ops if start <= t.start and t.end <= end and t.string == text)

    found = []

    def visit(node, function):
        if isinstance(node, ast.JoinedStr):  # Python 3.11 tokenizes an f-string as one STRING: no OP token
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        pairs = []
        if ("delete" in kinds and function != "<module>" and isinstance(node, ast.stmt)
                and node.lineno == node.end_lineno
                and (isinstance(node, DELETED) or isinstance(node, ast.Expr) and isinstance(node.value, ast.Call))):
            line, col = char_pos(node.lineno, node.col_offset)
            text = lines[line - 1][col:char_pos(node.end_lineno, node.end_col_offset)[1]]
            found.append({"kind": "delete", "line": line, "col": col, "from": text, "to": "pass",
                          "function": function, "source": lines[line - 1].strip()})
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = [(op, operands[i], operands[i + 1], FLIPS, "", "flip") for i, op in enumerate(node.ops)]
        elif isinstance(node, ast.BinOp):
            pairs = [(node.op, node.left, node.right, SWAPS, "", "swap")]
        elif isinstance(node, ast.AugAssign):
            pairs = [(node.op, node.target, node.value, SWAPS, "=", "swap")]
        elif isinstance(node, ast.BoolOp):
            pairs = [(node.op, left, right, BOOLS, "", "bool") for left, right in zip(node.values, node.values[1:])]
        for op, left, right, table, suffix, kind in pairs:
            if type(op) not in table or kind not in kinds:
                continue
            text = TEXT[type(op)] + suffix
            token = token_between((left.end_lineno, left.end_col_offset), (right.lineno, right.col_offset), text)
            found.append({"kind": kind, "line": token.start[0], "col": token.start[1], "from": text,
                          "to": TEXT[table[type(op)]] + suffix, "function": function,
                          "source": lines[token.start[0] - 1].strip()})
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return sorted(found, key=lambda s: (s["line"], s["col"]))


def mutate(source: str, site: dict) -> str:
    lines = source.splitlines(keepends=True)
    line = lines[site["line"] - 1]
    col = site["col"]
    assert line[col:col + len(site["from"])] == site["from"], site
    lines[site["line"] - 1] = line[:col] + site["to"] + line[col + len(site["from"]):]
    return "".join(lines)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))


def run_tests(copy: str, selection: list[str], timeout: float) -> tuple[bool, str | None]:
    """One pytest process in ``copy`` over ``selection`` (all of tier-1 when
    empty), stopping at the first failure: whether it passed, and if not the
    first failing test."""
    env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *selection]
    try:
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, timeout=timeout,
                              preexec_fn=_cap_memory)
    except subprocess.TimeoutExpired:
        return False, f"(timeout after {timeout:.0f} s)"
    if done.returncode == 0:
        return True, None
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return False, first.group(1) if first else f"(pytest exit {done.returncode})"


def _timed(copy: str, selection: list[str]) -> float:
    """Seconds an unmutated run of ``selection`` takes; it must pass."""
    start = time.monotonic()
    passed, failing = run_tests(copy, selection, timeout=1800)
    if not passed:
        raise SystemExit(f"unmutated tests fail: {' '.join(selection) or 'tier-1'}: {failing}")
    return time.monotonic() - start


def summarize(mutants: list[dict]) -> dict:
    counts = {"mutants": len(mutants), "killed": sum(m["killed"] for m in mutants)}
    counts["equivalent"] = sum(m["reason"] is not None for m in mutants)
    counts["survived"] = counts["mutants"] - counts["killed"] - counts["equivalent"]
    scored = counts["mutants"] - counts["equivalent"]
    counts["score"] = round(counts["killed"] / scored, 4) if scored else None
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pr")
    parser.add_argument("--modules", default=",".join(MODULES), help="MODULE or MODULE=KIND+KIND, comma-separated")
    parser.add_argument("--limit", type=int, default=None, help="the first N mutants of each kind in each module")
    parser.add_argument("--tests", nargs="*", default=None, help="every module's selection")
    parser.add_argument("--full", nargs="*", default=[], help="the survivors' selection; all of tier-1 if none")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    out = args.out or os.path.join(ROOT, f"MUTANTS_{args.pr}.json")
    kinds = {}
    for item in args.modules.split(","):
        module, _, named = item.partition("=")
        kinds[module] = named.split("+") if named else list(KINDS)
        if not set(kinds[module]) <= set(KINDS):
            parser.error(f"{item}: the kinds are {', '.join(KINDS)}")
    selections = {module: args.tests if args.tests is not None else
                  list(MODULE_TESTS.get(module, (f"tests/test_{module}.py",))) for module in kinds}
    mutants = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = os.path.join(scratch, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", "MUTANTS_*.json"))
        full_timeout = None  # timed at the first survivor
        for module, selection in selections.items():
            path = os.path.join(copy, "src", "deskchain", f"{module}.py")
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            timeout = 5 * _timed(copy, selection) + 30
            taken = collections.Counter()
            for site in sites(source, kinds[module]):
                taken[site["kind"]] += 1
                if args.limit is not None and taken[site["kind"]] > args.limit:
                    continue
                mutant = mutate(source, site)
                _write(path, mutant)
                try:
                    passed, killer = run_tests(copy, selection, timeout)
                    stage = "module"
                    if passed:
                        if full_timeout is None:  # timed once, on the unmutated source
                            _write(path, source)
                            full_timeout = 5 * _timed(copy, args.full) + 60
                            _write(path, mutant)
                        passed, killer = run_tests(copy, args.full, full_timeout)
                        stage = "full"
                finally:
                    _write(path, source)
                reason = EQUIVALENT.get((module, site["source"], site["from"], site["to"])) if passed else None
                mutants.append({"module": module, **site, "killed": not passed, "stage": stage,
                                "killed_by": killer, "reason": reason})
                print(f"{module}.py:{site['line']}:{site['col']} {site['kind']} {site['from']} -> {site['to']}: "
                      + (f"killed by {killer}" if not passed else f"survived ({reason or 'no reason listed'})"),
                      flush=True)
    record = {"pr": args.pr, "selection": selections, "kinds": kinds, "full": args.full or "tier-1",
              "totals": summarize(mutants),
              "modules": {module: summarize([m for m in mutants if m["module"] == module]) for module in selections},
              "mutants": mutants}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(record["totals"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
