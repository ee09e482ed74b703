"""Outside-in layer trace: wrap deskchain's public functions where callers look them up.

Each wrap records a span (name, parent, start, end) in flat in-memory
arrays plus counters taken at the same boundary. Self time is a span's
duration minus the time its child spans cover, computed after the run.
Nothing inside ``src/`` changes: a name-imported copy (``tree_root`` in
``deskchain.state``) is wrapped at the importing module, because that is
the name its callers resolve.
"""
from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

from deskchain import ledger, optimizer, pow, sim, state, statedir, tx as txmod

OP = "bench.op"  # root span of one workload op; unwrapped time falls here


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op(self):
        idx = self.open(OP)
        try:
            yield
        finally:
            self.close(idx)

    def span_stats(self) -> dict[str, tuple[int, float]]:
        """name -> (span count, summed self time in ms)."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            nid = self.name_id[i]
            calls[nid] += 1
            self_ns[nid] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[k], self_ns[k] / 1e6) for k, name in enumerate(self.names)}


def _wrap(tracer: Tracer, name, fn, post=None, pre=None, on_error=None):
    """Span around ``fn``. ``name`` may be a callable of the call's args.

    ``pre(args, kwargs)`` runs before the span opens and its value goes to
    ``post(pre_value, args, kwargs, result)``, which runs after it closes;
    ``on_error(exc)`` runs after a raising call closes.
    """

    def wrapper(*args, **kwargs):
        before = pre(args, kwargs) if pre else None
        idx = tracer.open(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error:
                on_error(exc)
            raise
        finally:
            tracer.close(idx)
        if post:
            post(before, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _solve(tracer: Tracer, fn):
    """pow.solve with nonce accounting: a solution at nonce n means n + 1
    graphs searched; a miss means the budget, or the polls of ``stop``
    that let the search continue."""
    counts = tracer.counts

    def wrapper(header_hash, params, nonce_budget, stop=None):
        polls = [0]
        if stop is not None:
            inner = stop

            def stop():
                halt = inner()
                polls[0] += not halt
                return halt

        idx = tracer.open("pow.solve")
        try:
            result = fn(header_hash, params, nonce_budget, stop)
        finally:
            tracer.close(idx)
        if result is None:
            counts["pow.solve.misses"] += 1
            counts["pow.solve.nonces"] += nonce_budget if stop is None else polls[0]
        else:
            counts["pow.solve.solutions"] += 1
            counts["pow.solve.nonces"] += result.nonce + 1
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _state_leaves(st) -> int:
    # leaves of the five state trees; the wormhole tree also holds the pool
    return (len(st.accounts) + len(st.names) + len(st.channels) + len(st.storage_contracts)
            + len(st.azs) + 1 + len(st.oracles))


def _targets(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every traced boundary."""
    c = tracer.counts

    def count(key, amount_of):
        def post(_before, args, kwargs, result):
            c[key] += amount_of(args, result)
        return post

    def count_before(key):
        def post(before, args, kwargs, result):
            c[key] += before
        return post

    def bump(key):
        def on_error(_exc):
            c[key] += 1
        return on_error

    def apply_tx_post(_before, args, kwargs, result):
        c["tx.apply_tx.reverted"] += result.status == txmod.REVERTED

    def build_block_post(_before, args, kwargs, result):
        c["tx.build_block.candidates"] += len(args[1])
        c["tx.build_block.included"] += len(result.transactions) if result is not None else 0

    def dispatch_post(_before, args, kwargs, result):
        c[f"sim.dispatch.events.{args[1]}"] += 1

    def blocks_post(_before, args, kwargs, result):
        c["statedir.blocks.bytes"] += os.path.getsize(args[0].path("chain.bin"))

    def reader_left(args, kwargs):
        r = args[0]
        return len(r._data) - r._pos  # bytes the decoder is handed

    def clone_entries(args, result):
        st = args[0]
        return (len(st.accounts) + len(st.names) + len(st.channels) + len(st.oracles)
                + len(st.storage_contracts) + len(st.azs) + len(st.code))

    def w(name, fn, **hooks):
        return _wrap(tracer, name, fn, **hooks)

    # one factory per function that two modules import by name
    def tree_root(fn):
        return w("merkle.tree_root", fn, post=count("merkle.tree_root.leaves", lambda a, r: len(a[0])))

    def validate_header(fn):
        return w("ledger.validate_header", fn, on_error=bump("ledger.validate_header.rejects"))

    return [
        (pow, "solve", lambda fn: _solve(tracer, fn)),
        (pow, "verify", lambda fn: w("pow.verify", fn, post=count("pow.verify.rejects", lambda a, r: not r))),
        (txmod, "apply_block", lambda fn: w("tx.apply_block", fn, post=count("tx.apply_block.ok", lambda a, r: 1))),
        (txmod, "apply_tx", lambda fn: w(lambda a: f"tx.apply_tx.{type(a[1]).__name__}", fn,
                                         post=apply_tx_post, on_error=bump("tx.apply_tx.errors"))),
        (txmod, "state_roots", lambda fn: w("tx.state_roots", fn,
                                           post=count("tx.state_roots.leaves", lambda a, r: _state_leaves(a[0])))),
        (txmod, "build_block", lambda fn: w("tx.build_block", fn, post=build_block_post)),
        (txmod, "encode_tx", lambda fn: w("codec.tx_encode", fn)),
        (txmod, "tree_root", tree_root),
        (state, "tree_root", tree_root),
        (txmod, "execute", lambda fn: w("vm.execute", fn, post=count("vm.execute.gas", lambda a, r: r.gas_used))),
        (txmod, "verify_sig", lambda fn: w("crypto.verify_sig", fn)),
        (sim, "validate_header", validate_header),
        (statedir, "validate_header", validate_header),
        (state.ChainState, "clone", lambda fn: w("state.clone", fn,
                                                post=count("state.clone.entries", clone_entries))),
        (ledger.Block, "read", lambda fn: staticmethod(w("codec.block_decode", fn, pre=reader_left,
                                                         post=count_before("codec.block_decode.bytes")))),
        (sim.Simulation, "dispatch", lambda fn: w("sim.dispatch", fn, post=dispatch_post)),
        (statedir.StateDir, "blocks", lambda fn: w("statedir.blocks", fn, post=blocks_post)),
        (optimizer, "train", lambda fn: w("optimizer.train", fn)),
        (optimizer, "value_iteration", lambda fn: w("optimizer.value_iteration", fn)),
        (optimizer, "bp_marginals", lambda fn: w("optimizer.bp_marginals", fn)),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Install every wrap for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, factory in _targets(tracer):
            original = owner.__dict__[attr]
            fn = original.__func__ if isinstance(original, staticmethod) else original
            setattr(owner, attr, factory(fn))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values named ``<module>.<function>.<quantity>``."""
    c = tracer.counts
    stats = tracer.span_stats()
    out: dict[str, float] = {}
    for name, (calls, self_ms) in stats.items():
        if name == OP:
            continue
        if name.startswith("tx.apply_tx."):
            kind = name.rsplit(".", 1)[1]
            out[f"tx.apply_tx.calls.{kind}"] = calls
            out[f"tx.apply_tx.self_ms.{kind}"] = self_ms
        else:
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = self_ms
    nonces = c["pow.solve.nonces"]
    out["pow.solve.nonces"] = nonces
    out["pow.solve.misses"] = c["pow.solve.misses"]
    out["pow.solve.success_ratio"] = c["pow.solve.solutions"] / nonces if nonces else 0.0
    candidates = c["tx.build_block.candidates"]
    out["tx.build_block.included_ratio"] = c["tx.build_block.included"] / candidates if candidates else 0.0
    for key in ("pow.verify.rejects", "ledger.validate_header.rejects", "tx.apply_tx.reverted",
                "tx.apply_tx.errors", "tx.state_roots.leaves", "merkle.tree_root.leaves",
                "state.clone.entries", "vm.execute.gas", "codec.block_decode.bytes",
                "statedir.blocks.bytes"):
        out[key] = c[key]
    for key, value in c.items():
        if key.startswith("sim.dispatch.events."):
            out[key] = value
    return out
