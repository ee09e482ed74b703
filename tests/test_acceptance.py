"""Acceptance gate: twelve criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print. Every tolerance is pinned here; nothing defers to later tuning.
"""
import dataclasses
import glob
import hashlib
import itertools
import os
import random
import time
from fractions import Fraction

import numpy as np

from deskchain import channels, config, oracles, pow, rewards, sim, storage, tx as txmod
from deskchain.crypto import KeyPair, hash256
from deskchain.ledger import verify_light
from deskchain.merkle import merkle_prove, merkle_verify
from deskchain.optimizer import (
    QTable, bp_marginals, greedy_policy, train, value_iteration,
)
from deskchain.optimizer.mdp import three_state_fixture
from deskchain.vm import assemble

from conftest import Bench, SCENARIO_DIR, make_cfg

DSD = 1_000_000


def report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


def scenario_paths():
    return sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.scn")))


def test_criterion_01_conservation_ledger_wide():
    cfg = config.load_config(os.path.join(SCENARIO_DIR, "net.cfg"))
    started = time.time()
    paths = scenario_paths()
    assert len(paths) >= 12
    failures = []
    for path in paths:
        result = sim.run(cfg, open(path).read(), seed=7, base_dir=SCENARIO_DIR)
        state = result.state
        lhs = state.genesis_total + state.minted_total
        rhs = (
            state.held("accounts") + state.held("channels")
            + state.held("oracles") + state.held("storage_contracts")
            + state.pool.pool_balance + state.pool.endowment + state.burned_total
        )
        if lhs != rhs:
            failures.append(os.path.basename(path))
    elapsed = time.time() - started
    report(
        1, not failures and elapsed < 10.0,
        f"{len(paths)} scenarios conserve exactly in {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_02_fee_semantics_randomized():
    bench = Bench(make_cfg())
    alice = bench.key("alice")
    # a contract that halts when given call data and traps on none
    counter = bench.counter("alice")
    create = txmod.ContractCreate(
        alice.address, assemble("SELECT\nSTOP"), 1, 0, 0, 10, 1, (1, 2, 3), 10, counter
    )
    assert bench.apply(create, alice).status == "applied"
    contract = txmod.contract_address(alice.address, counter)

    rng = random.Random(2024)
    names = ["alice", "bob", "carol"]
    checked = reverted = 0
    for _ in range(1000):
        name = rng.choice(names)
        kp = bench.key(name)
        counter = bench.counter(name)
        sender_before = bench.balance(name)
        miner_before = bench.balance("miner")
        kind = rng.randrange(4)
        if kind == 0:
            amount = rng.choice([rng.randrange(0, 1000), 500 * DSD])  # some revert
            fee = rng.randrange(1, 30)
            tx = txmod.Spend(kp.address, bench.addr(rng.choice(names)), amount, fee, counter)
        elif kind == 1:
            gas, price = rng.randrange(1, 8), rng.randrange(1, 5)
            call = (1, 2, 3) if rng.random() < 0.5 else ()
            tx = txmod.ContractCall(kp.address, contract, rng.randrange(0, 200), gas, price, call, gas * price, counter)
        elif kind == 2:
            gas, price = rng.randrange(1, 40), rng.randrange(1, 4)
            tx = txmod.ContractCall(kp.address, bench.addr(rng.choice(names)), rng.randrange(0, 300), gas, price, (), gas * price, counter)
        else:
            tx = txmod.DataOnly(kp.address, bytes(rng.randrange(0, 64)), rng.randrange(1, 4), counter)
        receipt = bench.apply(tx, kp)
        fee_declared = txmod.effective_fee(tx)
        self_pay = txmod.tx_sender(tx) == bench.addr("miner")
        if isinstance(tx, txmod.ContractCall):
            if receipt.status == "applied":
                assert receipt.fee_paid == receipt.gas_used * tx.gas_price
                returned = tx.amount if tx.contract == kp.address else 0
                assert bench.balance(name) == sender_before - tx.amount + returned - receipt.fee_paid
            else:
                reverted += 1
                assert receipt.fee_paid == tx.gas * tx.gas_price > 0
                assert bench.balance(name) == sender_before - receipt.fee_paid
        else:
            if receipt.status == "reverted":
                reverted += 1
                assert receipt.fee_paid == fee_declared
                assert bench.balance(name) == sender_before - fee_declared
            elif isinstance(tx, txmod.Spend):
                assert bench.balance(name) == sender_before - tx.amount - fee_declared + (
                    tx.amount if tx.recipient == kp.address else 0
                )
        if not self_pay:
            assert bench.balance("miner") == miner_before + receipt.fee_paid
        assert bench.conservation_ok()
        checked += 1
    report(2, checked == 1000 and reverted > 50,
           f"1000 randomized txs hold fee identities ({reverted} reverted, all fee-paying)")


def _dispute_trial(seed: int) -> tuple[int, int]:
    rng = random.Random(seed)
    cfg = make_cfg()
    bench = Bench(cfg)
    a, b = bench.key("alice"), bench.key("bob")
    counter_a = bench.counter("alice")
    open_tx = txmod.ChannelOpen(a.address, b.address, 5 * DSD, 5 * DSD, 1, counter_a)
    open_tx = dataclasses.replace(open_tx, sig_b=b.sign(open_tx.signing_bytes()))
    assert bench.apply(open_tx, a).status == "applied"
    channel_id = channels.channel_id_for(a.address, b.address, counter_a)
    channel = bench.state.channels[channel_id]

    unit = 100_000
    k = rng.randint(1, 6)
    states = []
    prev = channels.nonce_zero_state(channel)
    for nonce in range(1, k + 1):
        ss = channels.make_update(channel, prev, (channel.total - nonce * unit, nonce * unit))
        ss = channels.sign_state(channels.sign_state(ss, a, "a"), b, "b")
        states.append(ss)
        prev = ss

    # the adversary closes with a random stale state (or none at all)
    stale = rng.randint(0, k)
    candidate = states[stale - 1] if stale else None
    close = txmod.ChannelClose(a.address, channel_id, candidate, None, 1, bench.counter("alice"))
    assert bench.apply(close, a).status == "applied"
    deadline = bench.height + cfg.countdown_blocks

    # honest challenges are delayed, duplicated, dropped, and interleaved
    # with adversarial re-submissions of stale states
    deliveries = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.25:
            continue  # dropped on the wire
        deliveries.append((bench.height + rng.randint(0, cfg.countdown_blocks + 1), k, "honest"))
    for _ in range(rng.randint(0, 2)):
        deliveries.append((bench.height + rng.randint(0, cfg.countdown_blocks + 2), rng.randint(1, k), "adversary"))
    order = list(range(len(deliveries)))
    rng.shuffle(order)  # reordering within a height
    schedule = sorted(zip(deliveries, order), key=lambda item: (item[0][0], item[1]))

    honest_applied = 0
    for (at_height, nonce, who), _ in schedule:
        while bench.height < at_height:
            bench.advance()
        signer = b if who == "honest" else a
        challenge = txmod.ChannelChallenge(
            signer.address, channel_id, states[nonce - 1], None, 1,
            bench.counter("bob" if who == "honest" else "alice"),
        )
        receipt = bench.apply(challenge, signer)
        if who == "honest" and receipt.status == "applied" and at_height < deadline:
            honest_applied = max(honest_applied, nonce)
    while bench.height < deadline:
        bench.advance()
    if bench.state.channels[channel_id].status == "closing":
        fin = txmod.ChannelFinalize(b.address, channel_id, None, None, 1, bench.counter("bob"))
        assert bench.apply(fin, b).status == "applied"
    closed = bench.state.channels[channel_id]
    assert closed.status == "closed"
    assert sum(closed.final_split) == closed.total
    assert bench.conservation_ok()
    settled_b = closed.final_split[1]
    settled_nonce = 0 if settled_b == 5 * DSD else settled_b // unit
    return settled_nonce, honest_applied


def test_criterion_03_dispute_dominance():
    started = time.time()
    violations = 0
    contested = 0  # trials where an honest challenge actually landed
    for seed in range(500):
        settled, honest = _dispute_trial(seed)
        if honest > 0:
            contested += 1
        if settled < honest:
            violations += 1
    elapsed = time.time() - started
    report(3, violations == 0 and contested >= 200 and elapsed < 30.0,
           f"500 adversarial interleavings ({contested} with landed honest challenges), "
           f"0 dominance violations in {elapsed:.2f}s (budget 30s)")


def test_criterion_04_cuckoo_pow():
    started = time.time()
    params = pow.PowParams(edge_bits=12, cycle_len=8)
    # budget calibrated empirically (scripts/calibrate_pow.py): per-nonce
    # success ~0.06-0.1, so 200 nonces keeps the per-header miss rate
    # below 1e-5, far clear of the 95/100 bar
    budget = 200
    solved = 0
    for i in range(100):
        header = hash256(b"acceptance-header" + i.to_bytes(4, "big"))
        solution = pow.solve(header, params, budget)
        if solution is None:
            continue
        assert pow.verify(header, solution, params)
        solved += 1
    rng = random.Random(1234)
    forged_accepts = 0
    header = hash256(b"forgery-target")
    for _ in range(1000):
        edges = tuple(sorted(rng.sample(range(1 << 12), 8)))
        if pow.verify(header, pow.CuckooSolution(rng.randrange(200), edges), params):
            forged_accepts += 1
    elapsed = time.time() - started
    report(4, solved >= 95 and forged_accepts == 0 and elapsed < 60.0,
           f"solve {solved}/100 within budget {budget}, 0/1000 forgeries accepted, {elapsed:.2f}s (budget 60s)")


def test_criterion_05_reward_exactness():
    started = time.time()
    rng = random.Random(55)
    for _ in range(1000):
        n_az = rng.randint(1, 6)
        gamma = rng.randrange(0, 10**9)
        values = []
        for i in range(n_az):
            values.append((bytes([i]) * 32, Fraction(rng.randrange(0, 100), rng.randrange(1, 20))))
        if all(v == 0 for _, v in values):
            values[0] = (values[0][0], Fraction(1))
        allocations = rewards.allocate(gamma, values)
        assert sum(v for _, v in allocations) == gamma
        scale = Fraction(rng.randrange(1, 50), rng.randrange(1, 7))
        scaled = rewards.allocate(gamma, [(az, v * scale) for az, v in values])
        assert scaled == allocations
        for az_id, alloc in allocations:
            n_users = rng.randint(1, 5)
            weights = [
                (bytes([j + 10]) * 32, Fraction(rng.randrange(0, 30), rng.randrange(1, 9)))
                for j in range(n_users)
            ]
            if all(w == 0 for _, w in weights):
                weights[0] = (weights[0][0], Fraction(1))
            payouts = rewards.allocate(alloc, weights)
            assert sum(v for _, v in payouts) == alloc
    elapsed = time.time() - started
    report(5, elapsed < 5.0,
           f"1000 random epochs allocate exactly with scale invariance in {elapsed:.2f}s (budget 5s)")


def test_criterion_06_pool_equation():
    one_step = rewards.next_q(q=12345, gamma_t=777, q_next=5, alpha=Fraction(1), mu=Fraction(0))
    fixed_point = rewards.next_q(q=100, gamma_t=10, q_next=100, alpha=Fraction(1, 10), mu=Fraction(9, 10))
    report(6, one_step == 777 and fixed_point == 100,
           "Q-update: alpha=1,mu=0 converges in one step; rational fixed point holds exactly")


def test_criterion_07_td_learning():
    started = time.time()
    mdp = three_state_fixture()
    gamma = 0.5
    qstar = value_iteration(mdp, gamma_d=gamma)
    target_policy = greedy_policy(qstar, mdp)

    q_ok = q_err_ok = 0
    for seed in range(10):
        q = QTable(alpha=None, gamma_d=gamma, epsilon=0.3)
        train(mdp, q, episodes=500, seed=seed, mode="off_policy", steps_per_episode=100)
        if greedy_policy(q, mdp) == target_policy:
            q_ok += 1
        err = max(abs(q.get(s, a) - qstar[(s, a)]) for s in mdp.states() for a in mdp.actions())
        if err <= 0.05:
            q_err_ok += 1
    sarsa_ok = 0
    for seed in range(10):
        q = QTable(alpha=None, gamma_d=gamma, epsilon=0.3)
        train(mdp, q, episodes=500, seed=seed, mode="on_policy", steps_per_episode=100,
              epsilon_schedule=lambda ep: 0.3 / (1 + 0.01 * ep))
        if greedy_policy(q, mdp) == target_policy:
            sarsa_ok += 1
    elapsed = time.time() - started
    report(7, q_ok == 10 and q_err_ok == 10 and sarsa_ok >= 8 and elapsed < 30.0,
           f"Q-learning {q_ok}/10 policies, {q_err_ok}/10 within |Q-Q*|<=0.05; SARSA {sarsa_ok}/10; {elapsed:.2f}s (budget 30s)")


def test_criterion_08_bp_correctness():
    started = time.time()
    from deskchain.optimizer import TreeFactorGraph

    rng = random.Random(808)
    worst = 0.0
    for _ in range(100):
        n = rng.randrange(1, 7)
        names = [f"v{i}" for i in range(n)]
        domains = {v: rng.randrange(2, 4) for v in names}
        unaries = {v: np.array([rng.uniform(0.1, 3.0) for _ in range(domains[v])]) for v in names}
        edges = []
        for i in range(1, n):
            j = rng.randrange(i)
            u, v = names[j], names[i]
            edges.append((u, v, np.array([[rng.uniform(0.1, 3.0) for _ in range(domains[v])] for _ in range(domains[u])])))
        graph = TreeFactorGraph(domains, unaries, tuple(edges))
        got = bp_marginals(graph)
        # independent oracle: joint enumeration
        want = {v: np.zeros(domains[v]) for v in names}
        for assign in itertools.product(*[range(domains[v]) for v in names]):
            a = dict(zip(names, assign))
            weight = 1.0
            for v in names:
                weight *= unaries[v][a[v]]
            for u, v, pot in edges:
                weight *= pot[a[u], a[v]]
            for v in names:
                want[v][a[v]] += weight
        for v in names:
            diff = np.abs(got[v] - want[v] / want[v].sum()).max()
            worst = max(worst, diff)
    elapsed = time.time() - started
    report(8, worst <= 1e-9 and elapsed < 5.0,
           f"100 random trees: max marginal error {worst:.2e} <= 1e-9 in {elapsed:.2f}s (budget 5s)")


def test_criterion_09_storage_protocol():
    cfg = make_cfg()
    bench = Bench(cfg)
    data = bytes(range(32))
    chunks, root = storage.commit_data(data, 4)
    assert len(chunks) == 8
    payer = bench.key("alice")
    counter = bench.counter("alice")
    tx = txmod.StorageCreate(payer.address, bench.addr("bob"), root, 8, 4, 2, 50, 400, 1, counter)
    assert bench.apply(tx, payer).status == "applied"
    contract_id = storage.contract_id_for(payer.address, counter)
    prev = hash256(b"challenge-source")
    idx = storage.challenge_index(prev, contract_id, 8)
    proof = merkle_prove(chunks, idx)
    false_accepts = 0
    trials = 0
    for pos in range(len(chunks[idx])):
        for delta in range(1, 256):
            mutated = bytes(chunks[idx][:pos]) + bytes([chunks[idx][pos] ^ delta]) + bytes(chunks[idx][pos + 1:])
            trials += 1
            if merkle_verify(root, mutated, proof, 8):
                false_accepts += 1
    quote = storage.retrieval_quote(65_536, cfg)
    report(9, false_accepts == 0 and quote == 100_000,
           f"0/{trials} single-byte mutations accepted; 64 KiB retrieval quote = {quote} base units")


def test_criterion_10_oracle_lifecycle():
    outcomes = []
    for path in ("accepted", "contested-won", "contested-lost", "expired"):
        bench = Bench(make_cfg())
        kp = bench.key("alice")
        counter = bench.counter("alice")
        qh = hash256(path.encode())
        start, end = bench.height, bench.height + 10
        tx = txmod.OracleRegister(kp.address, qh, start, end, 1, counter)
        assert bench.apply(tx, kp).status == "applied"
        question_id = oracles.question_id_for(kp.address, counter, qh)
        escrowed = bench.state.oracles[question_id].deposit
        burned_0 = bench.state.burned_total
        balances_0 = bench.state.held("accounts")
        if path != "expired":
            ans = txmod.OracleAnswer(kp.address, question_id, True, 1, bench.counter("alice"))
            assert bench.apply(ans, kp).status == "applied"
        if path.startswith("contested"):
            challenger = bench.key("bob")
            counter_tx = txmod.OracleCounter(challenger.address, question_id, 1, bench.counter("bob"))
            assert bench.apply(counter_tx, challenger).status == "applied"
            escrowed += bench.state.oracles[question_id].counter_deposit
            if path == "contested-lost":
                voter = bench.key("carol")
                vote = txmod.OracleVote(voter.address, question_id, False, 1, bench.counter("carol"))
                assert bench.apply(vote, voter).status == "applied"
            bench.advance(bench.cfg.oracle_vote_window)
        else:
            bench.advance(11 + bench.cfg.oracle_challenge_window)
        resolver = bench.key("miner")
        res = txmod.OracleResolve(resolver.address, question_id, 1, bench.counter("miner"))
        assert bench.apply(res, resolver).status == "applied"
        burned = bench.state.burned_total - burned_0
        question = bench.state.oracles[question_id]
        returned = escrowed - burned
        ok = question.escrowed() == 0 and returned + burned == escrowed and bench.conservation_ok()
        if path == "accepted":
            ok = ok and burned == 0 and question.phase == "resolved"
        elif path == "expired":
            ok = ok and burned == escrowed and question.phase == "burned"
        else:
            ok = ok and burned == escrowed // 2 and question.phase == "resolved"
        outcomes.append(ok)
    report(10, all(outcomes), "all four oracle terminal paths conserve deposits exactly")


def test_criterion_11_light_client():
    cfg = make_cfg()
    state, genesis = txmod.genesis_block(cfg)
    miner = KeyPair.from_name("miner").address
    alice = KeyPair.from_name("alice")
    blocks = [genesis]
    for height in range(1, 21):
        txs = []
        if height == 20:
            bob = KeyPair.from_name("bob")
            carol = KeyPair.from_name("carol")
            txs = [
                txmod.sign_tx(txmod.Spend(alice.address, bob.address, 777, 9, 1), alice),
                txmod.sign_tx(txmod.Spend(bob.address, carol.address, 400, 5, 1), bob),
                txmod.sign_tx(txmod.Spend(carol.address, alice.address, 20, 3, 1), carol),
            ]
        block = txmod.build_block(state, txs, miner, blocks[-1].header)
        state, _ = txmod.apply_block(state, block)
        blocks.append(block)
    headers = [b.header for b in blocks]
    tx_bytes = [t.encode() for t in blocks[-1].transactions]
    proof = merkle_prove(tx_bytes, 0)
    assert verify_light(headers, tx_bytes[0], proof, cfg)

    rejected = tried = 0
    int_fields = {"height": 1, "tx_count": 1, "pow_nonce": 1}
    byte_fields = (
        "prev_hash", "tx_root", "account_root", "name_root", "wormhole_root",
        "oracle_open_root", "oracle_answer_root", "proof_root", "entropy", "miner",
    )
    for i, header in enumerate(headers):
        mutations = []
        for field in byte_fields:
            value = getattr(header, field)
            mutations.append((field, bytes([value[0] ^ 1]) + value[1:]))
        for field, bump in int_fields.items():
            mutations.append((field, getattr(header, field) + bump))
        cycle = list(header.pow_cycle)
        cycle[0] ^= 1
        mutations.append(("pow_cycle", tuple(sorted(set(cycle)))))
        for field, value in mutations:
            tampered = list(headers)
            tampered[i] = dataclasses.replace(header, **{field: value})
            tried += 1
            if not verify_light(tampered, tx_bytes[0], proof, cfg):
                rejected += 1
    # transaction and proof mutations
    tried += 3
    bad_tx = bytes([tx_bytes[0][0] ^ 1]) + tx_bytes[0][1:]
    rejected += 0 if verify_light(headers, bad_tx, proof, cfg) else 1
    from deskchain.merkle import MerkleProof

    bad_index = MerkleProof(proof.leaf_index + 1, proof.siblings)
    rejected += 0 if verify_light(headers, tx_bytes[0], bad_index, cfg) else 1
    flipped = tuple(
        bytes([s[0] ^ 1]) + s[1:] if j == 0 else s for j, s in enumerate(proof.siblings)
    )
    bad_sibling = MerkleProof(proof.leaf_index, flipped)
    rejected += 0 if verify_light(headers, tx_bytes[0], bad_sibling, cfg) else 1
    report(11, rejected == tried,
           f"20-block chain accepted honestly; {rejected}/{tried} single-field mutations rejected")


# sha256 of each fixture's seed-7 event log. A change that keeps behaviour
# (a refactor of the codec or the node) must leave every digest unchanged.
EVENT_LOG_DIGESTS = {
    "channels_coop.scn": "ea3742d2f0619361d282250083f3657674a7a01e5bbd20bb40673c24355f5593",
    "channels_dispute.scn": "58c61958407ca893da2f36ba4dbcf1e0d01d6c0d98ba5b695357a5347086b9e5",
    "channels_htlc.scn": "3ddddc3c7437a1c28192568ef47a6ad4daaa1af963368b075884d4ad5db19353",
    "contracts.scn": "c6c9887c14ec59f4f4495f412c9da1213ab1e5656b388a184fcd5673c8489ab9",
    "crash_restart.scn": "f587bc54a48691215494296a41161694d698ddc9bc72d4240922c22bfce9033e",
    "faults.scn": "faa331aa1a0342d22782a875121c57fb23a055d23cc7a3e7002d920494e8ab4b",
    "maintenance_delete.scn": "ae5de37465137b4d6bf7d0ae94331232f56ba44968cc1d2805613056c6f1c9a0",
    "mixed.scn": "c6ab3f83c31015c0c07d2521b80528edab86763a45d7e4a92230fc1e06392d42",
    "names.scn": "5fed20f7e0c44c8b23157028970f45916812d5e3c5a9b7de6afecd4b483dfea0",
    "oracle_accept.scn": "e47ff486eae86fc714255ff86125c8e5835e956ad17a70d881d810568babd485",
    "oracle_burn.scn": "5f6f43b186d02f4213c9133db9a81eca10ec024c771be0f0c0ff5875eeac1be5",
    "oracle_contest.scn": "8c0346f65a8842dfb7a25c256da6517ff6acc627229bc80424cc1ad3a7b0d53d",
    "rewards_epoch.scn": "f9b0c46d54f63754620da0d4f5d2cc2466cbcf28d3a29e2709082eec049426e9",
    "spends.scn": "efa52dfb4d51b4e96c2e0d2ef2214307c8f45d5c70ea9f5f0490046092ba62e4",
    "storage.scn": "fdfcc5fabc583f356ecf5227f733c155d75595d6dd0494eb14c0d0d3612750b3",
}


def test_criterion_12_sim_determinism():
    cfg = config.load_config(os.path.join(SCENARIO_DIR, "net.cfg"))
    mismatches = []
    for path in scenario_paths():
        text = open(path).read()
        a = sim.run(cfg, text, seed=7, base_dir=SCENARIO_DIR)
        b = sim.run(cfg, text, seed=7, base_dir=SCENARIO_DIR)
        name = os.path.basename(path)
        if a.event_log != b.event_log or a.final_state_root != b.final_state_root:
            mismatches.append(name)
        elif hashlib.sha256(a.event_log.encode()).hexdigest() != EVENT_LOG_DIGESTS.get(name):
            mismatches.append(name)
    report(12, not mismatches,
           f"double execution of {len(scenario_paths())} scenarios is byte-identical")
