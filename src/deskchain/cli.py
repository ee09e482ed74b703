"""Command-line surface.

Subcommands mirror the protocol: keygen, genesis, mine, send, contract
create|call, name claim|resolve, channel open|update|close|close-coop|
challenge|finalize, oracle ask|answer|counter|resolve|read, storage
commit|prove|quote|close, epoch run, optimizer train|bp, sim run. Output
is line-oriented text with lowercase hex hashes and integer base-unit
amounts. Exit codes: 0 ok, 1 protocol/scenario error, 2 usage.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import channels, oracles, rewards, sim, storage, templates, tx as txmod
from .config import NetworkConfig, load_config, parse_amount
from .crypto import hash256
from .errors import DeskchainError
from .merkle import merkle_prove
from .optimizer import (
    QTable, bp_marginals, greedy_policy, train, value_iteration,
)
from .optimizer.files import load_factor_graph, load_mdp
from .statedir import StateDir
from .vm import Program, assemble


def _amount(text: str) -> int:
    return parse_amount(text)


def _addr(sd: StateDir, token: str) -> bytes:
    if token.startswith("hex:"):
        return bytes.fromhex(token[4:])
    return sd.key(token).address


def _next_counter(state, sd: StateDir, address: bytes) -> int:
    account = state.accounts.get(address)
    base = account.counter if account else 0
    pending = sum(1 for t in sd.mempool() if txmod.tx_sender(t) == address)
    return base + pending + 1


def _submit(sd: StateDir, state, cfg, t, keyname: str, prev_hash: bytes = b"\x00" * 32):
    signed = txmod.sign_tx(t, sd.key(keyname))
    txmod.check_tx(state, signed, cfg)
    # refuse transactions that would revert against the next block; mined
    # blocks still honor fee-paying reverts, this is purely front-end care
    probe = state.clone()
    probe_ctx = txmod.ApplyCtx(
        miner=txmod.tx_sender(signed), height=state.height + 1, cfg=cfg,
        prev_block_hash=prev_hash,
    )
    receipt = txmod.apply_tx(probe, signed, probe_ctx)
    if receipt.status == txmod.REVERTED:
        raise DeskchainError(f"transaction would revert: {receipt.reason}")
    sd.add_to_mempool(signed)
    print(f"tx={txmod.tx_hash(signed).hex()}")
    return signed


def _program_ref(token: str) -> Program:
    if token.startswith("template:"):
        return templates.TEMPLATES[token.split(":", 1)[1]]
    with open(token, "r", encoding="utf-8") as fh:
        return assemble(fh.read())


def cmd_keygen(sd: StateDir, args) -> int:
    kp = sd.keygen(args.name)
    print(f"name={args.name} address={kp.address.hex()}")
    return 0


def cmd_genesis(sd: StateDir, args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    sd.write_config(text)
    cfg = sd.config()
    state, block = txmod.genesis_block(cfg)
    chain_path = sd.path("chain.bin")
    if os.path.exists(chain_path):
        os.remove(chain_path)
    sd.append_block(block)
    for name, address, balance in cfg.genesis_accounts:
        sd.keygen(name)
        print(f"account name={name} address={address.hex()} balance={balance}")
    print(f"genesis height=0 hash={block.header.block_hash().hex()}")
    return 0


def cmd_mine(sd: StateDir, args) -> int:
    cfg, state, blocks = sd.load_chain()
    miner = _addr(sd, args.miner)
    for _ in range(args.count):
        candidates = sd.mempool()
        next_height = blocks[-1].header.height + 1
        if next_height % cfg.blocks_per_epoch == 0 and not any(
            isinstance(t, txmod.EpochTx) for t in candidates
        ):
            candidates.append(
                txmod.EpochTx(rewards.EpochReport(state.pool.epoch_index + 1, (), (), ()))
            )
        block = txmod.build_block(state, candidates, miner, blocks[-1].header)
        if block is None:
            print("error: PoW nonce budget exhausted", file=sys.stderr)
            return 1
        state, receipts = txmod.apply_block(state, block)
        sd.append_block(block)
        blocks.append(block)
        included = {txmod.tx_hash(t) for t in block.transactions}
        sd.write_mempool([t for t in sd.mempool() if txmod.tx_hash(t) not in included])
        print(f"block height={block.header.height} hash={block.header.block_hash().hex()}")
        for receipt in receipts:
            print(receipt.render())
    return 0


def cmd_send(sd: StateDir, args) -> int:
    cfg, state, _ = sd.load_chain()
    sender = _addr(sd, args.sender)
    t = txmod.Spend(
        sender, _addr(sd, args.recipient), _amount(args.amount), _amount(args.fee),
        _next_counter(state, sd, sender),
    )
    _submit(sd, state, cfg, t, args.sender)
    return 0


def cmd_contract(sd: StateDir, args) -> int:
    cfg, state, _ = sd.load_chain()
    call_data = tuple(int(v) for v in args.call_data.split(",") if v)
    if args.action == "create":
        owner = _addr(sd, args.owner)
        program = _program_ref(args.code)
        counter = _next_counter(state, sd, owner)
        t = txmod.ContractCreate(
            owner, program, 1, _amount(args.deposit), _amount(args.amount),
            args.gas, args.gas_price, call_data, args.gas * args.gas_price, counter,
        )
        print(f"contract={txmod.contract_address(owner, counter).hex()}")
        _submit(sd, state, cfg, t, args.owner)
    else:
        caller = _addr(sd, args.caller)
        t = txmod.ContractCall(
            caller, bytes.fromhex(args.contract), _amount(args.amount),
            args.gas, args.gas_price, call_data, args.gas * args.gas_price,
            _next_counter(state, sd, caller),
        )
        _submit(sd, state, cfg, t, args.caller)
    return 0


def cmd_name(sd: StateDir, args) -> int:
    cfg, state, _ = sd.load_chain()
    if args.action == "resolve":
        print(state.resolve_name(args.name).hex())
        return 0
    owner = _addr(sd, args.owner)
    t = txmod.NameClaim(
        owner, args.name, _addr(sd, args.target), _amount(args.fee),
        _next_counter(state, sd, owner),
    )
    _submit(sd, state, cfg, t, args.owner)
    return 0


def cmd_channel(sd: StateDir, args) -> int:
    cfg, state, _ = sd.load_chain()
    if args.action == "open":
        a, b = _addr(sd, args.party_a), _addr(sd, args.party_b)
        counter = _next_counter(state, sd, a)
        t = txmod.ChannelOpen(
            a, b, _amount(args.deposit_a), _amount(args.deposit_b),
            _amount(args.fee), counter,
        )
        t = replace(t, sig_b=sd.key(args.party_b).sign(t.signing_bytes()))
        channel_id = channels.channel_id_for(a, b, counter)
        print(f"channel={channel_id.hex()}")
        _submit(sd, state, cfg, t, args.party_a)
        return 0

    channel_id = bytes.fromhex(args.channel)
    channel = state.channels.get(channel_id)
    if channel is None:
        raise DeskchainError(f"unknown channel {args.channel}")
    history, programs = sd.channel_states(channel_id)
    name_a, name_b = _owner_names(sd, cfg, channel)
    if args.action == "update":
        prev = history[-1] if history else channels.nonce_zero_state(channel)
        program = _program_ref(args.contract) if args.contract else None
        cstate = tuple(int(v) for v in args.cstate.split(",") if v)
        unsigned = channels.make_update(
            channel, prev, (_amount(args.balance_a), _amount(args.balance_b)),
            program.code_hash() if program else None, cstate,
        )
        full = channels.sign_state(unsigned, sd.key(name_a), "a")
        full = channels.sign_state(full, sd.key(name_b), "b")
        history.append(full)
        if program:
            programs[program.code_hash()] = program
        sd.write_channel_states(channel_id, history, programs)
        print(f"channel={channel_id.hex()} nonce={full.nonce} balances={full.balance_a},{full.balance_b}")
        return 0

    sender_name = args.sender
    sender = _addr(sd, sender_name)
    latest = history[-1] if history else None
    if args.action == "close-coop":
        if latest is None:
            raise DeskchainError("no doubly signed state recorded")
        t = txmod.ChannelCloseCoop(
            sender, channel_id, latest, None, _amount(args.fee),
            _next_counter(state, sd, sender),
        )
    elif args.action == "close":
        candidate = latest
        if args.nonce is not None:
            candidate = next((s for s in history if s.nonce == args.nonce), None)
            if candidate is None:
                raise DeskchainError(f"no recorded state with nonce {args.nonce}")
        program = programs.get(candidate.contract_hash) if candidate and candidate.contract_hash else None
        t = txmod.ChannelClose(
            sender, channel_id, candidate, program, _amount(args.fee),
            _next_counter(state, sd, sender),
        )
    elif args.action == "challenge":
        if latest is None:
            raise DeskchainError("nothing recorded to challenge with")
        program = programs.get(latest.contract_hash) if latest.contract_hash else None
        t = txmod.ChannelChallenge(
            sender, channel_id, latest, program, _amount(args.fee),
            _next_counter(state, sd, sender),
        )
    elif args.action == "finalize":
        program = None
        if channel.candidate is not None and channel.candidate.contract_hash:
            program = programs.get(channel.candidate.contract_hash)
        t = txmod.ChannelFinalize(
            sender, channel_id, None, program, _amount(args.fee),
            _next_counter(state, sd, sender),
        )
    else:
        raise DeskchainError(f"unknown channel action {args.action}")
    _submit(sd, state, cfg, t, sender_name)
    return 0


def _owner_names(sd: StateDir, cfg, channel) -> tuple[str, str]:
    names = {}
    keys_dir = sd.path("keys")
    if os.path.isdir(keys_dir):
        for fname in sorted(os.listdir(keys_dir)):
            if fname.endswith(".key"):
                name = fname[: -len(".key")]
                names[sd.key(name).address] = name
    for name, address, _ in cfg.genesis_accounts:
        names.setdefault(address, name)
    try:
        return names[channel.party_a], names[channel.party_b]
    except KeyError as exc:
        raise DeskchainError("channel party key not present in state dir") from exc


def cmd_oracle(sd: StateDir, args) -> int:
    cfg, state, _ = sd.load_chain()
    if args.action == "ask":
        asker = _addr(sd, args.asker)
        question_hash = hash256(args.question.encode("utf-8"))
        counter = _next_counter(state, sd, asker)
        t = txmod.OracleRegister(
            asker, question_hash, args.start, args.end, _amount(args.fee), counter
        )
        print(f"question={oracles.question_id_for(asker, counter, question_hash).hex()}")
        _submit(sd, state, cfg, t, args.asker)
        return 0
    question_id = bytes.fromhex(args.question_id)
    if args.action == "read":
        answer = oracles.read_answer(state, question_id)
        print(f"answer={'yes' if answer is True else 'no' if answer is False else answer}")
        return 0
    sender = _addr(sd, args.sender)
    counter = _next_counter(state, sd, sender)
    if args.action == "answer":
        t = txmod.OracleAnswer(sender, question_id, args.bit == "yes", _amount(args.fee), counter)
    elif args.action == "counter":
        t = txmod.OracleCounter(sender, question_id, _amount(args.fee), counter)
    elif args.action == "vote":
        t = txmod.OracleVote(sender, question_id, args.bit == "yes", _amount(args.fee), counter)
    else:
        t = txmod.OracleResolve(sender, question_id, _amount(args.fee), counter)
    _submit(sd, state, cfg, t, args.sender)
    return 0


def _load_chunks(args) -> list[bytes]:
    if args.chunk_dir:
        names = sorted(os.listdir(args.chunk_dir))
        return [open(os.path.join(args.chunk_dir, n), "rb").read() for n in names]
    with open(args.data_file, "rb") as fh:
        return storage.chunk_data(fh.read(), args.chunk_size)


def cmd_storage(sd: StateDir, args) -> int:
    if args.action == "quote":
        cfg = sd.config() if os.path.exists(sd.path("config.cfg")) else NetworkConfig()
        print(f"quote={storage.retrieval_quote(args.bytes, cfg)}")
        return 0
    cfg, state, blocks = sd.load_chain()
    if args.action == "commit":
        payer = _addr(sd, args.payer)
        chunks = _load_chunks(args)
        from .merkle import merkle_root

        root = merkle_root(chunks)
        counter = _next_counter(state, sd, payer)
        t = txmod.StorageCreate(
            payer, _addr(sd, args.provider), root, len(chunks),
            len(chunks[0]) if args.chunk_dir else args.chunk_size,
            args.period, _amount(args.reward), _amount(args.escrow),
            _amount(args.fee), counter,
        )
        print(f"contract={storage.contract_id_for(payer, counter).hex()} chunks={len(chunks)}")
        _submit(sd, state, cfg, t, args.payer)
        return 0
    contract_id = bytes.fromhex(args.contract)
    if args.action == "prove":
        provider = _addr(sd, args.provider)
        chunks = _load_chunks(args)
        prev_hash = blocks[-1].header.block_hash()
        index = storage.challenge_index(prev_hash, contract_id, len(chunks))
        t = txmod.StorageProof(
            provider, contract_id, chunks[index], merkle_prove(chunks, index),
            _amount(args.fee), _next_counter(state, sd, provider),
        )
        print(f"proving index={index}")
        _submit(sd, state, cfg, t, args.provider, prev_hash=prev_hash)
        return 0
    payer = _addr(sd, args.payer)
    t = txmod.StorageClose(
        payer, contract_id, _amount(args.fee), _next_counter(state, sd, payer)
    )
    _submit(sd, state, cfg, t, args.payer)
    return 0


def cmd_epoch(sd: StateDir, args) -> int:
    with open(args.factors, "r", encoding="utf-8") as fh:
        report = sim.parse_factors(fh.read(), args.epoch, {})
    result = rewards.compute_epoch(report, _amount(args.gamma))
    sys.stdout.write(rewards.format_epoch_report(result))
    return 0


def cmd_optimizer(args) -> int:
    if args.action == "bp":
        graph = load_factor_graph(args.graph)
        for var in sorted(graph.domains):
            values = " ".join(f"{p:.9f}" for p in bp_marginals(graph)[var])
            print(f"{var}: {values}")
        return 0
    mdp = load_mdp(args.mdp)
    q = QTable(alpha=None, gamma_d=args.gamma, epsilon=args.epsilon)
    train(
        mdp, q, episodes=args.episodes, seed=args.seed,
        mode="on_policy" if args.mode == "sarsa" else "off_policy",
        steps_per_episode=args.steps,
    )
    policy = greedy_policy(q, mdp)
    if args.action == "evaluate":
        # greedy rollouts of the learned policy, reported as served requests
        # per step next to the value-iteration optimum
        import random as _random

        rng = _random.Random(args.seed + 1)
        def rollout(pol):
            total = steps = 0
            for _ in range(50):
                s = mdp.initial_state()
                for _ in range(args.steps):
                    s, r = mdp.step(rng, s, pol[s])
                    total += r
                    steps += 1
            return total / steps

        learned = rollout(policy)
        star = greedy_policy(value_iteration(mdp, gamma_d=args.gamma), mdp)
        print(f"learned_policy_reward_per_step={learned:.4f}")
        print(f"optimal_policy_reward_per_step={rollout(star):.4f}")
        return 0
    for s in mdp.states():
        chosen = policy[s]
        names = ",".join(mdp.action_names[a] for a in chosen)
        print(f"state={','.join(map(str, s))} action={names} q={q.get(s, chosen):.6f}")
    if args.compare_vi:
        qstar = value_iteration(mdp, gamma_d=args.gamma)
        star = greedy_policy(qstar, mdp)
        agree = sum(1 for s in mdp.states() if star[s] == policy[s])
        err = max(abs(q.get(s, a) - qstar[(s, a)]) for s in mdp.states() for a in mdp.actions())
        print(f"vi_policy_match={agree}/{mdp.joint_size()} max_q_err={err:.6f}")
    return 0


def cmd_sim(args) -> int:
    cfg = load_config(args.config)
    with open(args.scenario, "r", encoding="utf-8") as fh:
        text = fh.read()
    result = sim.run(cfg, text, seed=args.seed, base_dir=os.path.dirname(os.path.abspath(args.scenario)))
    sys.stdout.write(result.event_log)
    print(f"final_tip={result.final_tip.hex()}")
    print(f"final_state_root={result.final_state_root.hex()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deskchain", description="desk-scale PoW ledger with wormhole channels"
    )
    parser.add_argument("--state-dir", default=".deskchain", help="working directory")
    parser.add_argument("--config", help="network config file (stateless commands)")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen");  p.add_argument("name")
    p = sub.add_parser("genesis"); p.add_argument("--config", dest="config", required=True)
    p = sub.add_parser("mine")
    p.add_argument("--miner", required=True)
    p.add_argument("--count", type=int, default=1)
    p = sub.add_parser("send")
    p.add_argument("--from", dest="sender", required=True)
    p.add_argument("--to", dest="recipient", required=True)
    p.add_argument("--amount", required=True)
    p.add_argument("--fee", default="1")

    p = sub.add_parser("contract")
    psub = p.add_subparsers(dest="action", required=True)
    c = psub.add_parser("create")
    c.add_argument("--owner", required=True)
    c.add_argument("--code", required=True, help="template:NAME or an assembly file")
    c.add_argument("--deposit", default="0")
    c.add_argument("--amount", default="0")
    c.add_argument("--gas", type=int, default=100)
    c.add_argument("--gas-price", type=int, default=1)
    c.add_argument("--call-data", default="")
    c = psub.add_parser("call")
    c.add_argument("--caller", required=True)
    c.add_argument("--contract", required=True)
    c.add_argument("--amount", default="0")
    c.add_argument("--gas", type=int, default=100)
    c.add_argument("--gas-price", type=int, default=1)
    c.add_argument("--call-data", default="")

    p = sub.add_parser("name")
    psub = p.add_subparsers(dest="action", required=True)
    c = psub.add_parser("claim")
    c.add_argument("--owner", required=True)
    c.add_argument("--name", required=True)
    c.add_argument("--target", required=True)
    c.add_argument("--fee", default="1")
    c = psub.add_parser("resolve")
    c.add_argument("--name", required=True)

    p = sub.add_parser("channel")
    psub = p.add_subparsers(dest="action", required=True)
    c = psub.add_parser("open")
    c.add_argument("--a", dest="party_a", required=True)
    c.add_argument("--b", dest="party_b", required=True)
    c.add_argument("--deposit-a", required=True)
    c.add_argument("--deposit-b", required=True)
    c.add_argument("--fee", default="1")
    c = psub.add_parser("update")
    c.add_argument("--channel", required=True)
    c.add_argument("--balance-a", required=True)
    c.add_argument("--balance-b", required=True)
    c.add_argument("--contract", default="")
    c.add_argument("--cstate", default="")
    for action in ("close-coop", "close", "challenge", "finalize"):
        c = psub.add_parser(action)
        c.add_argument("--channel", required=True)
        c.add_argument("--sender", required=True)
        c.add_argument("--fee", default="1")
        if action == "close":
            c.add_argument("--nonce", type=int, default=None)

    p = sub.add_parser("oracle")
    psub = p.add_subparsers(dest="action", required=True)
    c = psub.add_parser("ask")
    c.add_argument("--asker", required=True)
    c.add_argument("--question", required=True)
    c.add_argument("--start", type=int, required=True)
    c.add_argument("--end", type=int, required=True)
    c.add_argument("--fee", default="1")
    for action in ("answer", "vote"):
        c = psub.add_parser(action)
        c.add_argument("--sender", required=True)
        c.add_argument("--question-id", required=True)
        c.add_argument("--bit", choices=("yes", "no"), required=True)
        c.add_argument("--fee", default="1")
    for action in ("counter", "resolve"):
        c = psub.add_parser(action)
        c.add_argument("--sender", required=True)
        c.add_argument("--question-id", required=True)
        c.add_argument("--fee", default="1")
    c = psub.add_parser("read")
    c.add_argument("--question-id", required=True)

    p = sub.add_parser("storage")
    psub = p.add_subparsers(dest="action", required=True)
    c = psub.add_parser("commit")
    c.add_argument("--payer", required=True)
    c.add_argument("--provider", required=True)
    c.add_argument("--data-file")
    c.add_argument("--chunk-dir", help="pre-chunked data, zero-padded index filenames")
    c.add_argument("--chunk-size", type=int, default=storage.DEFAULT_CHUNK_SIZE)
    c.add_argument("--period", type=int, default=5)
    c.add_argument("--reward", default="1000")
    c.add_argument("--escrow", default="10000")
    c.add_argument("--fee", default="1")
    c = psub.add_parser("prove")
    c.add_argument("--provider", required=True)
    c.add_argument("--contract", required=True)
    c.add_argument("--data-file")
    c.add_argument("--chunk-dir")
    c.add_argument("--chunk-size", type=int, default=storage.DEFAULT_CHUNK_SIZE)
    c.add_argument("--fee", default="1")
    c = psub.add_parser("quote")
    c.add_argument("--bytes", type=int, required=True)
    c = psub.add_parser("close")
    c.add_argument("--payer", required=True)
    c.add_argument("--contract", required=True)
    c.add_argument("--fee", default="1")

    p = sub.add_parser("epoch")
    psub = p.add_subparsers(dest="action", required=True)
    c = psub.add_parser("run")
    c.add_argument("--factors", required=True)
    c.add_argument("--gamma", required=True)
    c.add_argument("--epoch", type=int, default=1)

    p = sub.add_parser("optimizer")
    psub = p.add_subparsers(dest="action", required=True)
    for action in ("train", "evaluate"):
        c = psub.add_parser(action)
        c.add_argument("--mdp", required=True)
        c.add_argument("--seed", type=int, default=0)
        c.add_argument("--episodes", type=int, default=500)
        c.add_argument("--steps", type=int, default=100)
        c.add_argument("--mode", choices=("q", "sarsa"), default="q")
        c.add_argument("--gamma", type=float, default=0.5)
        c.add_argument("--epsilon", type=float, default=0.3)
        c.add_argument("--compare-vi", action="store_true")
    c = psub.add_parser("bp")
    c.add_argument("--graph", required=True)

    p = sub.add_parser("sim")
    psub = p.add_subparsers(dest="action", required=True)
    c = psub.add_parser("run")
    c.add_argument("scenario")
    c.add_argument("--config", dest="config", required=True)
    c.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sd = StateDir(args.state_dir)
    try:
        if args.command == "keygen":
            return cmd_keygen(sd, args)
        if args.command == "genesis":
            return cmd_genesis(sd, args)
        if args.command == "mine":
            return cmd_mine(sd, args)
        if args.command == "send":
            return cmd_send(sd, args)
        if args.command == "contract":
            return cmd_contract(sd, args)
        if args.command == "name":
            return cmd_name(sd, args)
        if args.command == "channel":
            return cmd_channel(sd, args)
        if args.command == "oracle":
            return cmd_oracle(sd, args)
        if args.command == "storage":
            return cmd_storage(sd, args)
        if args.command == "epoch":
            return cmd_epoch(sd, args)
        if args.command == "optimizer":
            return cmd_optimizer(args)
        if args.command == "sim":
            return cmd_sim(args)
        parser.error(f"unknown command {args.command}")
    except DeskchainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
