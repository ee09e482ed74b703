"""Command-line surface.

Subcommands mirror the protocol: keygen, genesis, mine, send, contract
create|call, name claim|resolve, channel open|update|close|close-coop|
challenge|finalize, oracle ask|answer|counter|vote|resolve|read, storage
commit|prove|quote|close, epoch run, optimizer train|evaluate|bp, sim run.
Output is line-oriented text with lowercase hex hashes and integer
base-unit amounts. Exit codes: 0 ok, 1 protocol/scenario error, 2 usage.
"""
from __future__ import annotations

import argparse
import glob
import os
import sys

from . import channels, oracles, rewards, sim, storage, templates, tx as txmod
from .channels import ChannelEndpoint
from .config import NetworkConfig, load_config, parse_amount, parse_config, parse_ints
from .crypto import hash256
from .errors import DeskchainError
from .merkle import merkle_prove, merkle_root
from .node import Node
from .optimizer import (
    QTable, bp_marginals, greedy_policy, train, value_iteration,
)
from .optimizer.files import load_factor_graph, load_mdp
from .statedir import StateDir


def _hex(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not hex: {text!r}") from None


def _account(token: str) -> str:
    """A key name, or ``hex:`` and a raw address (checked here, so bad hex is
    a usage error)."""
    if token.startswith("hex:"):
        _hex(token[4:])
    return token


def _addr(sd: StateDir, token: str) -> bytes:
    if token.startswith("hex:"):
        return bytes.fromhex(token[4:])
    return sd.key(token).address


def _load(sd: StateDir) -> Node:
    _, state, blocks = sd.load_chain()
    return Node(state, blocks[-1].header, sd.mempool())


def _submit(sd: StateDir, node: Node, t) -> None:
    # refuse a tx that would revert after the pooled ones in the next block;
    # mined blocks still honor fee-paying reverts, this is front-end care
    receipt = node.admit(t)
    if receipt.status == txmod.REVERTED:
        raise DeskchainError(f"transaction would revert: {receipt.reason}")
    sd.write_mempool(list(node.mempool.values()))
    print(f"tx={t.digest().hex()}")


def cmd_keygen(sd: StateDir, args) -> int:
    kp = sd.keygen(args.name)
    print(f"name={args.name} address={kp.address.hex()}")
    return 0


def cmd_genesis(sd: StateDir, args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    cfg = parse_config(text)  # a bad config leaves the state dir as it was
    state, block = txmod.genesis_block(cfg)
    sd.write_config(text)
    # a new network starts with no chain, mempool or channel states
    for name in ("chain.bin", "mempool.bin", *glob.glob("channel_*.bin", root_dir=sd.root)):
        if os.path.exists(sd.path(name)):
            os.remove(sd.path(name))
    sd.append_block(block)
    for name, address, balance in cfg.genesis_accounts:
        sd.keygen(name)
        print(f"account name={name} address={address.hex()} balance={balance}")
    print(f"genesis height=0 hash={block.header.block_hash().hex()}")
    return 0


def cmd_mine(sd: StateDir, args) -> int:
    node = _load(sd)
    miner = _addr(sd, args.miner)
    for _ in range(args.count):
        block = node.build_next_block(miner)
        if block is None:
            print("error: PoW nonce budget exhausted", file=sys.stderr)
            return 1
        state, receipts = txmod.apply_block(node.state, block)
        node.set_tip(state, block.header)
        sd.append_block(block)
        sd.write_mempool(list(node.mempool.values()))
        print(f"block height={block.header.height} hash={block.header.block_hash().hex()}")
        for receipt in receipts:
            print(receipt.render())
    return 0


def cmd_send(sd: StateDir, args) -> int:
    node = _load(sd)
    t = node.make(
        sd.key(args.sender), txmod.Spend, _addr(sd, args.recipient), parse_amount(args.amount),
        fee=parse_amount(args.fee),
    )
    _submit(sd, node, t)
    return 0


def cmd_contract(sd: StateDir, args) -> int:
    node = _load(sd)
    call_data = parse_ints(args.call_data)
    fee = args.gas * args.gas_price
    if args.action == "create":
        program = templates.load_program(args.code, asm_prefix="")
        t = node.make(
            sd.key(args.owner), txmod.ContractCreate, program, 1, parse_amount(args.deposit),
            parse_amount(args.amount), args.gas, args.gas_price, call_data, fee=fee,
        )
        print(f"contract={txmod.created_id(t).hex()}")
    else:
        t = node.make(
            sd.key(args.caller), txmod.ContractCall, args.contract, parse_amount(args.amount),
            args.gas, args.gas_price, call_data, fee=fee,
        )
    _submit(sd, node, t)
    return 0


def cmd_name(sd: StateDir, args) -> int:
    node = _load(sd)
    if args.action == "resolve":
        print(node.state.resolve_name(args.name).hex())
        return 0
    t = node.make(
        sd.key(args.owner), txmod.NameClaim, args.name, _addr(sd, args.target),
        fee=parse_amount(args.fee),
    )
    _submit(sd, node, t)
    return 0


def cmd_channel(sd: StateDir, args) -> int:
    node = _load(sd)
    if args.action == "open":
        t = node.make(
            sd.key(args.party_a), txmod.ChannelOpen, _addr(sd, args.party_b),
            parse_amount(args.deposit_a), parse_amount(args.deposit_b),
            fee=parse_amount(args.fee), cosigner=sd.key(args.party_b),
        )
        print(f"channel={txmod.created_id(t).hex()}")
        _submit(sd, node, t)
        return 0

    channel_id = args.channel
    channel = node.state.channels.get(channel_id)
    if channel is None:
        raise DeskchainError(f"unknown channel {channel_id.hex()}")
    history, programs = sd.channel_states(channel_id)
    endpoint = ChannelEndpoint(channel_id, history=history, programs=programs)
    if args.action == "update":
        name_a, name_b = _owner_names(sd, node.state.cfg, channel)
        program = templates.load_program(args.contract, asm_prefix="") if args.contract else None
        unsigned = endpoint.propose(
            channel, (parse_amount(args.balance_a), parse_amount(args.balance_b)), program,
            parse_ints(args.cstate),
        )
        full = channels.sign_state(unsigned, sd.key(name_a), "a")
        full = channels.sign_state(full, sd.key(name_b), "b")
        endpoint.record(full)
        sd.write_channel_states(channel_id, endpoint.history, endpoint.programs)
        print(f"channel={channel_id.hex()} nonce={full.nonce} balances={full.balance_a},{full.balance_b}")
        return 0

    ss, program = endpoint.settlement(args.action, channel, getattr(args, "nonce", None))
    kind = txmod.SETTLE_KINDS[args.action]
    t = node.make(sd.key(args.sender), kind, channel_id, ss, program, fee=parse_amount(args.fee))
    _submit(sd, node, t)
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
    node = _load(sd)
    if args.action == "read":
        answer = oracles.read_answer(node.state, args.question_id)
        print(f"answer={'yes' if answer is True else 'no' if answer is False else answer}")
        return 0
    fee = parse_amount(args.fee)
    if args.action == "ask":
        t = node.make(
            sd.key(args.asker), txmod.OracleRegister, hash256(args.question.encode("utf-8")),
            args.start, args.end, fee=fee,
        )
        print(f"question={txmod.created_id(t).hex()}")
    else:
        bit = (args.bit == "yes",) if args.action in ("answer", "vote") else ()
        kind = txmod.ORACLE_KINDS[args.action]
        t = node.make(sd.key(args.sender), kind, args.question_id, *bit, fee=fee)
    _submit(sd, node, t)
    return 0


def _load_chunks(args) -> list[bytes]:
    if not args.chunk_dir:
        if not args.data_file:
            raise DeskchainError("storage data needs --data-file or --chunk-dir")
        with open(args.data_file, "rb") as fh:
            return storage.chunk_data(fh.read(), args.chunk_size)
    chunks = []
    for name in sorted(os.listdir(args.chunk_dir)):
        with open(os.path.join(args.chunk_dir, name), "rb") as fh:
            chunks.append(fh.read())
    if not chunks:
        raise DeskchainError(f"no chunk files in {args.chunk_dir}")
    return chunks


def cmd_storage(sd: StateDir, args) -> int:
    if args.action == "quote":
        cfg = sd.config() if os.path.exists(sd.path("config.cfg")) else NetworkConfig()
        print(f"quote={storage.retrieval_quote(args.bytes, cfg)}")
        return 0
    node = _load(sd)
    fee = parse_amount(args.fee)
    if args.action == "commit":
        chunks = _load_chunks(args)
        t = node.make(
            sd.key(args.payer), txmod.StorageCreate, _addr(sd, args.provider), merkle_root(chunks),
            len(chunks), len(chunks[0]) if args.chunk_dir else args.chunk_size, args.period,
            parse_amount(args.reward), parse_amount(args.escrow), fee=fee,
        )
        print(f"contract={txmod.created_id(t).hex()} chunks={len(chunks)}")
    elif args.action == "prove":
        chunks = _load_chunks(args)
        index = storage.challenge_index(node.header.block_hash(), args.contract, len(chunks))
        t = node.make(
            sd.key(args.provider), txmod.StorageProof, args.contract, chunks[index],
            merkle_prove(chunks, index), fee=fee,
        )
        print(f"proving index={index}")
    else:
        t = node.make(sd.key(args.payer), txmod.StorageClose, args.contract, fee=fee)
    _submit(sd, node, t)
    return 0


def cmd_epoch(sd: StateDir, args) -> int:
    with open(args.factors, "r", encoding="utf-8") as fh:
        report = sim.parse_factors(fh.read(), args.epoch, {})
    result = rewards.compute_epoch(report, parse_amount(args.gamma))
    sys.stdout.write(rewards.format_epoch_report(result))
    return 0


def cmd_optimizer(sd: StateDir, args) -> int:
    if args.action == "bp":
        marginals = bp_marginals(load_factor_graph(args.graph))
        for var in sorted(marginals):
            print(f"{var}: " + " ".join(f"{p:.9f}" for p in marginals[var]))
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


def cmd_sim(sd: StateDir, args) -> int:
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen");  p.add_argument("name")
    p = sub.add_parser("genesis"); p.add_argument("--config", dest="config", required=True)
    p = sub.add_parser("mine")
    p.add_argument("--miner", type=_account, required=True)
    p.add_argument("--count", type=int, default=1)
    p = sub.add_parser("send")
    p.add_argument("--from", dest="sender", type=_account, required=True)
    p.add_argument("--to", dest="recipient", type=_account, required=True)
    p.add_argument("--amount", required=True)
    p.add_argument("--fee", default="1")

    p = sub.add_parser("contract")
    psub = p.add_subparsers(dest="action", required=True)
    c = psub.add_parser("create")
    c.add_argument("--owner", type=_account, required=True)
    c.add_argument("--code", required=True, help="template:NAME or an assembly file")
    c.add_argument("--deposit", default="0")
    c.add_argument("--amount", default="0")
    c.add_argument("--gas", type=int, default=100)
    c.add_argument("--gas-price", type=int, default=1)
    c.add_argument("--call-data", default="")
    c = psub.add_parser("call")
    c.add_argument("--caller", type=_account, required=True)
    c.add_argument("--contract", type=_hex, required=True)
    c.add_argument("--amount", default="0")
    c.add_argument("--gas", type=int, default=100)
    c.add_argument("--gas-price", type=int, default=1)
    c.add_argument("--call-data", default="")

    p = sub.add_parser("name")
    psub = p.add_subparsers(dest="action", required=True)
    c = psub.add_parser("claim")
    c.add_argument("--owner", type=_account, required=True)
    c.add_argument("--name", required=True)
    c.add_argument("--target", type=_account, required=True)
    c.add_argument("--fee", default="1")
    c = psub.add_parser("resolve")
    c.add_argument("--name", required=True)

    p = sub.add_parser("channel")
    psub = p.add_subparsers(dest="action", required=True)
    c = psub.add_parser("open")
    c.add_argument("--a", dest="party_a", type=_account, required=True)
    c.add_argument("--b", dest="party_b", type=_account, required=True)
    c.add_argument("--deposit-a", required=True)
    c.add_argument("--deposit-b", required=True)
    c.add_argument("--fee", default="1")
    c = psub.add_parser("update")
    c.add_argument("--channel", type=_hex, required=True)
    c.add_argument("--balance-a", required=True)
    c.add_argument("--balance-b", required=True)
    c.add_argument("--contract", default="")
    c.add_argument("--cstate", default="")
    for action in txmod.SETTLE_KINDS:
        c = psub.add_parser(action)
        c.add_argument("--channel", type=_hex, required=True)
        c.add_argument("--sender", type=_account, required=True)
        c.add_argument("--fee", default="1")
        if action == "close":
            c.add_argument("--nonce", type=int, default=None)

    p = sub.add_parser("oracle")
    psub = p.add_subparsers(dest="action", required=True)
    c = psub.add_parser("ask")
    c.add_argument("--asker", type=_account, required=True)
    c.add_argument("--question", required=True)
    c.add_argument("--start", type=int, required=True)
    c.add_argument("--end", type=int, required=True)
    c.add_argument("--fee", default="1")
    for action in txmod.ORACLE_KINDS:
        c = psub.add_parser(action)
        c.add_argument("--sender", type=_account, required=True)
        c.add_argument("--question-id", type=_hex, required=True)
        if action in ("answer", "vote"):
            c.add_argument("--bit", choices=("yes", "no"), required=True)
        c.add_argument("--fee", default="1")
    c = psub.add_parser("read")
    c.add_argument("--question-id", type=_hex, required=True)

    p = sub.add_parser("storage")
    psub = p.add_subparsers(dest="action", required=True)
    c = psub.add_parser("commit")
    c.add_argument("--payer", type=_account, required=True)
    c.add_argument("--provider", type=_account, required=True)
    c.add_argument("--data-file")
    c.add_argument("--chunk-dir", help="pre-chunked data, zero-padded index filenames")
    c.add_argument("--chunk-size", type=int, default=storage.DEFAULT_CHUNK_SIZE)
    c.add_argument("--period", type=int, default=5)
    c.add_argument("--reward", default="1000")
    c.add_argument("--escrow", default="10000")
    c.add_argument("--fee", default="1")
    c = psub.add_parser("prove")
    c.add_argument("--provider", type=_account, required=True)
    c.add_argument("--contract", type=_hex, required=True)
    c.add_argument("--data-file")
    c.add_argument("--chunk-dir")
    c.add_argument("--chunk-size", type=int, default=storage.DEFAULT_CHUNK_SIZE)
    c.add_argument("--fee", default="1")
    c = psub.add_parser("quote")
    c.add_argument("--bytes", type=int, required=True)
    c = psub.add_parser("close")
    c.add_argument("--payer", type=_account, required=True)
    c.add_argument("--contract", type=_hex, required=True)
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
        if action == "train":
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
    args = build_parser().parse_args(argv)
    command = {
        "keygen": cmd_keygen, "genesis": cmd_genesis, "mine": cmd_mine, "send": cmd_send,
        "contract": cmd_contract, "name": cmd_name, "channel": cmd_channel,
        "oracle": cmd_oracle, "storage": cmd_storage, "epoch": cmd_epoch,
        "optimizer": cmd_optimizer, "sim": cmd_sim,
    }[args.command]
    try:
        return command(StateDir(args.state_dir), args)
    except (DeskchainError, OSError) as exc:  # OSError: an input file that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
