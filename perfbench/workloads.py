"""The four seeded workloads and the output checks that go with them.

A workload is set up from the seed, then driven op by op. Op inputs
cycle with a period of ``period`` distinct ops, so ops repeat as time
allows: a repeat must give the same output (the determinism check), and
each timed part of an op counts with its median over the repeats, scaled
to a reference host (see run.py).
``op(i)`` raises ``CheckFailed`` if its output is wrong and returns an
``Outcome``. ``finish()`` runs the checks that stay out of the timed
region and returns what failed; ``trace_problems()`` compares the traced
span counts with counts the workload keeps itself.
"""
from __future__ import annotations

import glob
import hashlib
import itertools
import os
import random
import shutil
import time
from dataclasses import dataclass

import numpy as np

from deskchain import config, optimizer, pow, sim, tx as txmod
from deskchain.crypto import hash256
from deskchain.optimizer import QTable, TreeFactorGraph, greedy_policy
from deskchain.optimizer.mdp import three_state_fixture
from deskchain.state import ChainState
from deskchain.statedir import StateDir

import chaingen


class CheckFailed(Exception):
    pass


@dataclass
class Outcome:
    units: int  # units of work done, counted by the workload's throughput
    parts: list[float] | None  # ms of each timed part of the op; None: the op is one part
    output: object  # compared with the output of every repeat of the op


def derive_seed(*parts) -> int:
    """Stable 32-bit seed from the workload seed and an index."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def conserved(st) -> bool:
    sources, sinks = st.conservation_sides()
    return sources == sinks


class Workload:
    name = ""
    unit = ""  # what one unit of throughput is
    period = 1  # distinct ops before the inputs repeat; set by setup

    def __init__(self, root: str, small: bool = False) -> None:
        self.root = root  # checkout root: src/, scenarios/
        self.small = small  # tiny sizes for the smoke tests

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def op(self, i: int) -> Outcome:
        raise NotImplementedError

    def latencies(self, typical: dict[int, list[float]]) -> list[float]:
        """Latency samples in ms from each distinct op's typical part times."""
        return [sum(parts) for parts in typical.values()]

    def finish(self) -> list[str]:
        return []

    def trace_problems(self, counts: dict, ops: int) -> list[str]:
        return []

    def layer_counts(self) -> dict[str, int]:
        return {}

    def close(self) -> None:
        pass


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: traced {got}, expected {want}")


class Fixtures(Workload):
    """One op: ``sim.run`` of one committed scenario. Pass k over the 15
    scenarios runs at a sub-seed derived from (seed, k mod 6), so a run
    averages over six PoW draws per scenario and repeats what time
    allows; every repeat must give a byte-identical event log. Latency is
    per sweep of the 15 (the ROADMAP's "15-fixture sweep")."""

    name = "fixtures"
    unit = "scenario runs"

    def setup(self, seed: int) -> None:
        self.seed = seed
        scen = os.path.join(self.root, "scenarios")
        self.base_dir = scen
        self.cfg = config.load_config(os.path.join(scen, "net.cfg"))
        paths = sorted(glob.glob(os.path.join(scen, "*.scn")))
        if not paths:
            raise FileNotFoundError(f"no scenarios under {scen}")
        if self.small:
            paths = paths[:2]
        self.scenarios = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                self.scenarios.append((os.path.basename(path), fh.read()))
        self.period = 6 * len(self.scenarios)
        self.sims = 0
        self.events = {"block": 0, "mine": 0, "drops": 0, "orphans": 0, "rejects": 0}

    def op(self, i: int) -> Outcome:
        k, j = divmod(i % self.period, len(self.scenarios))
        name, text = self.scenarios[j]
        result = sim.run(self.cfg, text, seed=derive_seed("fixtures", self.seed, k), base_dir=self.base_dir)
        self.sims += 1
        if not conserved(result.state):
            raise CheckFailed(f"{name}: conservation fails on the final state")
        log = result.event_log
        ev = self.events
        ev["block"] += log.count(" ev=block ")
        ev["mine"] += log.count(" ev=mine ")
        ev["drops"] += log.count(" ev=drop ")
        ev["orphans"] += log.count(" origin=orphan")
        ev["rejects"] += log.count(" ev=reject_block ") + log.count(" ev=tx_rejected ") + log.count(" ev=rejected ")
        return Outcome(1, None, log)

    def latencies(self, typical: dict[int, list[float]]) -> list[float]:
        """One sample per sweep: the sum of its scenarios' times."""
        sweeps: dict[int, list[float]] = {}
        for key, parts in typical.items():
            sweeps.setdefault(key // len(self.scenarios), []).extend(parts)
        whole = [sum(v) for v in sweeps.values() if len(v) == len(self.scenarios)]
        return whole or [sum(v) for v in sweeps.values()]

    def trace_problems(self, counts: dict, ops: int) -> list[str]:
        # every simulation mines and applies one genesis block of its own
        problems: list[str] = []
        _expect(problems, "successful tx.apply_block returns", counts.get("tx.apply_block.ok", 0),
                self.events["block"] + self.sims)
        _expect(problems, "pow.solve calls", counts.get("pow.solve.calls", 0), self.events["mine"] + self.sims)
        # sim.accept_block validates each header, then applies the block
        # unless validation raised; genesis is applied unvalidated
        validated = counts.get("ledger.validate_header.calls", 0) - counts.get("ledger.validate_header.rejects", 0)
        _expect(problems, "validate_header calls that passed", validated,
                counts.get("tx.apply_block.calls", 0) - self.sims)
        return problems

    def layer_counts(self) -> dict[str, int]:
        return {f"sim.{key}": self.events[key] for key in ("drops", "orphans", "rejects")}


class Mine12(Workload):
    """One op: ``pow.solve`` at edge_bits=12, cycle_len=8, budget 200 on a
    seed-derived header, then ``pow.verify`` of the solution. The unit of
    throughput and latency is one cuckoo graph searched (one nonce), timed
    through the solver's ``stop`` poll, which runs before every nonce."""

    name = "mine12"
    unit = "graphs searched"
    budget = 200

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.period = 2 if self.small else 8
        self.params = pow.PowParams(edge_bits=12, cycle_len=8)
        rng = random.Random(f"mine12-forge:{seed}")
        self.forge_header = hash256(f"mine12-forge:{seed}".encode())
        n = 50 if self.small else 1000
        limit = 1 << self.params.edge_bits
        self.forgeries = [
            pow.CuckooSolution(rng.randrange(self.budget), tuple(sorted(rng.sample(range(limit), 8))))
            for _ in range(n)
        ]
        self.solved: dict[bytes, pow.CuckooSolution] = {}
        self.solutions = 0
        self.graphs = 0

    def header(self, i: int) -> bytes:
        return hash256(f"mine12:{self.seed}:{i % self.period}".encode())

    def op(self, i: int) -> Outcome:
        header = self.header(i)
        stamps: list[float] = []

        def stop() -> bool:
            stamps.append(time.perf_counter())
            return False

        solution = pow.solve(header, self.params, self.budget, stop)
        stamps.append(time.perf_counter())
        if solution is None:
            self.graphs += self.budget
            raise CheckFailed(f"header {i}: no solution within {self.budget} nonces")
        self.graphs += solution.nonce + 1
        if not pow.verify(header, solution, self.params):
            raise CheckFailed(f"header {i}: solution does not verify")
        self.solutions += 1
        self.solved[header] = solution
        # the graph holding the solution ends early: count and time only the
        # whole graphs before it
        graphs = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:-1])]
        return Outcome(solution.nonce, graphs, solution)

    def latencies(self, typical: dict[int, list[float]]) -> list[float]:
        return [ms for graphs in typical.values() for ms in graphs]

    def finish(self) -> list[str]:
        forged = [(self.forge_header, s) for s in self.forgeries]
        limit = 1 << self.params.edge_bits
        for header, s in self.solved.items():
            bumped = tuple(sorted({(s.edges[0] + 1) % limit, *s.edges[1:]}))
            forged += [
                (header, pow.CuckooSolution(s.nonce + 1, s.edges)),
                (header, pow.CuckooSolution(s.nonce, bumped)),
                (hash256(header), s),
            ]
        accepted = sum(pow.verify(h, s, self.params) for h, s in forged)
        return [f"{accepted}/{len(forged)} forged solutions accepted"] if accepted else []

    def trace_problems(self, counts: dict, ops: int) -> list[str]:
        problems: list[str] = []
        _expect(problems, "pow.solve calls", counts.get("pow.solve.calls", 0), ops)
        _expect(problems, "pow.solve nonces", counts.get("pow.solve.nonces", 0), self.graphs)
        # the solver verifies its own candidate before returning it, and
        # the op verifies the returned solution again
        accepted = counts.get("pow.verify.calls", 0) - counts.get("pow.verify.rejects", 0)
        _expect(problems, "accepted pow.verify calls", accepted, 2 * self.solutions)
        return problems


class Sync(Workload):
    """One op: ``StateDir(dir).load_chain()`` over a chain that setup mines
    from the seed (see chaingen.py). Setup rebuilds it on every run; its
    bytes are never kept."""

    name = "sync"
    unit = "blocks replayed"

    def setup(self, seed: int) -> None:
        scen = os.path.join(self.root, "scenarios")
        with open(os.path.join(scen, "net.cfg"), encoding="utf-8") as fh:
            cfg_text = fh.read()
        self.cfg = config.parse_config(cfg_text)
        self.dir = os.path.join(self.root, ".perfbench_work", f"sync-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        shape = chaingen.ChainShape(blocks=6, txs_per_block=8) if self.small else chaingen.ChainShape()
        self.plan = chaingen.build_chain(self.cfg, cfg_text, self.dir, seed, shape)
        self.txs = sum(self.plan.kinds.values())

    def op(self, i: int) -> Outcome:
        _, st, blocks = StateDir(self.dir).load_chain()
        if len(blocks) != self.plan.blocks:
            raise CheckFailed(f"replayed {len(blocks)} blocks, planned {self.plan.blocks}")
        if len(st.accounts) != self.plan.accounts:
            raise CheckFailed(f"{len(st.accounts)} accounts after replay, planned {self.plan.accounts}")
        if not conserved(st):
            raise CheckFailed("conservation fails after replay")
        return Outcome(self.plan.blocks, None, (blocks[-1].header.block_hash(), st.conservation_sides()))

    def finish(self) -> list[str]:
        """Replay once more keeping receipts: kinds, reverts and the
        contract balances they imply must match the plan."""
        problems = []
        st = ChainState.genesis(self.cfg)
        kinds: dict[str, int] = {}
        reverts = 0
        for block in StateDir(self.dir).blocks():
            st, receipts = txmod.apply_block(st, block)
            reverts += sum(r.status == txmod.REVERTED for r in receipts)
            for t in block.transactions:
                kinds[type(t).__name__] = kinds.get(type(t).__name__, 0) + 1
        if kinds != dict(self.plan.kinds):
            problems.append(f"tx kinds {kinds} != planned {dict(self.plan.kinds)}")
        if reverts != self.plan.reverts:
            problems.append(f"{reverts} reverted txs, planned {self.plan.reverts}")
        for contract, credit in self.plan.call_credit.items():
            if st.accounts[contract].balance != chaingen.CREATE_DEPOSIT + credit:
                problems.append(f"contract {contract.hex()[:16]} balance disagrees with its applied calls")
        if not conserved(st):
            problems.append("conservation fails after the receipt replay")
        return problems

    def trace_problems(self, counts: dict, ops: int) -> list[str]:
        problems: list[str] = []
        replayed = ops * self.plan.blocks
        _expect(problems, "statedir.blocks calls", counts.get("statedir.blocks.calls", 0), ops)
        _expect(problems, "Block.read calls", counts.get("codec.block_decode.calls", 0), replayed)
        _expect(problems, "validate_header calls", counts.get("ledger.validate_header.calls", 0), replayed)
        _expect(problems, "successful tx.apply_block returns", counts.get("tx.apply_block.ok", 0), replayed)
        _expect(problems, "tx.apply_tx calls", counts.get("tx.apply_tx.calls", 0), ops * self.txs)
        _expect(problems, "reverted receipts", counts.get("tx.apply_tx.reverted", 0), ops * self.plan.reverts)
        # five state trees per state_roots, tx and proof trees per block
        _expect(problems, "merkle.tree_root calls", counts.get("merkle.tree_root.calls", 0),
                5 * counts.get("tx.state_roots.calls", 0) + 2 * replayed)
        kinds = self.plan.kinds
        _expect(problems, "vm.execute calls", counts.get("vm.execute.calls", 0),
                ops * (kinds["ContractCreate"] + kinds["ContractCall"]))
        _expect(problems, "crypto.verify_sig calls", counts.get("crypto.verify_sig.calls", 0),
                ops * (self.txs - kinds["EpochTx"]))
        return problems

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.dir))
        except OSError:
            pass  # another run still holds a directory there


class Optimizer(Workload):
    """One op: a Q-learning and a SARSA run on ``three_state_fixture`` with
    a seed-derived training seed, both scored against ``value_iteration``,
    then ``bp_marginals`` over a batch of seed-generated tree factor graphs
    whose brute-force marginals setup computed."""

    name = "optimizer"
    unit = "ops"
    gamma = 0.5
    batch = 8

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.period = 2 if self.small else 8
        self.mdp = three_state_fixture()
        self.episodes = 50 if self.small else 500
        rng = random.Random(f"optimizer:{seed}")
        self.graphs = [_random_tree(rng, 1 + k % 6) for k in range(self.period * self.batch)]
        self.expected = [_enumerate_marginals(g) for g in self.graphs]

    def op(self, i: int) -> Outcome:
        mdp = self.mdp
        key = i % self.period
        qstar = optimizer.value_iteration(mdp, gamma_d=self.gamma)
        target = greedy_policy(qstar, mdp)
        train_seed = derive_seed("optimizer", self.seed, key)
        q = QTable(alpha=None, gamma_d=self.gamma, epsilon=0.3)
        optimizer.train(mdp, q, episodes=self.episodes, seed=train_seed, mode="off_policy", steps_per_episode=100)
        sarsa = QTable(alpha=None, gamma_d=self.gamma, epsilon=0.3)
        optimizer.train(mdp, sarsa, episodes=self.episodes, seed=train_seed, mode="on_policy",
                        steps_per_episode=100, epsilon_schedule=lambda ep: 0.3 / (1 + 0.01 * ep))
        marginals = []
        for k in range(key * self.batch, (key + 1) * self.batch):
            got = optimizer.bp_marginals(self.graphs[k])
            want = self.expected[k]
            err = max(float(np.abs(got[v] - want[v]).max()) for v in want)
            if err > 1e-9:
                raise CheckFailed(f"op {i}: BP marginal error {err:.2e} > 1e-9")
            marginals.append({v: got[v].tobytes() for v in got})
        output = (sorted(q.values.items()), sorted(sarsa.values.items()), marginals)
        if self.small:
            return Outcome(1, None, output)  # too few episodes to converge; BP is still checked
        if greedy_policy(q, mdp) != target:
            raise CheckFailed(f"op {i}: Q-learning policy differs from value iteration")
        err = max(abs(q.get(s, a) - qstar[(s, a)]) for s in mdp.states() for a in mdp.actions())
        if err > 0.05:
            raise CheckFailed(f"op {i}: |Q - Q*| = {err:.3f} > 0.05")
        if greedy_policy(sarsa, mdp) != target:
            raise CheckFailed(f"op {i}: SARSA policy differs from value iteration")
        return Outcome(1, None, output)

    def trace_problems(self, counts: dict, ops: int) -> list[str]:
        problems: list[str] = []
        _expect(problems, "optimizer.train calls", counts.get("optimizer.train.calls", 0), 2 * ops)
        _expect(problems, "optimizer.bp_marginals calls", counts.get("optimizer.bp_marginals.calls", 0),
                self.batch * ops)
        return problems


def _random_tree(rng: random.Random, n: int) -> TreeFactorGraph:
    """A random tree over ``n`` variables whose domains alternate 2 and 3
    values. Only the edges and potentials are random, so the brute-force
    enumeration in set-up costs the same at every seed."""
    names = [f"v{i}" for i in range(n)]
    domains = {v: 2 + i % 2 for i, v in enumerate(names)}
    unaries = {v: np.array([rng.uniform(0.1, 3.0) for _ in range(domains[v])]) for v in names}
    edges = []
    for i in range(1, n):
        u, v = names[rng.randrange(i)], names[i]
        pot = np.array([[rng.uniform(0.1, 3.0) for _ in range(domains[v])] for _ in range(domains[u])])
        edges.append((u, v, pot))
    return TreeFactorGraph(domains, unaries, tuple(edges))


def _enumerate_marginals(g: TreeFactorGraph) -> dict[str, np.ndarray]:
    """Brute-force marginals by joint enumeration: the independent oracle."""
    names = list(g.domains)
    want = {v: np.zeros(g.domains[v]) for v in names}
    for assign in itertools.product(*[range(g.domains[v]) for v in names]):
        a = dict(zip(names, assign))
        weight = 1.0
        for v in names:
            weight *= g.unaries[v][a[v]]
        for u, v, pot in g.edges:
            weight *= pot[a[u], a[v]]
        for v in names:
            want[v][a[v]] += weight
    return {v: want[v] / want[v].sum() for v in names}


WORKLOADS = {w.name: w for w in (Fixtures, Mine12, Sync, Optimizer)}
