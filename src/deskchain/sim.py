"""Deterministic multi-node network simulator.

One logical clock, one seeded RNG, and a heap of (time, seq) events drive
everything: block gossip, transaction submission, channel message passing,
crash/restart of channel processes, partitions, and epoch boundaries. Node
and channel processes are isolated actors; they share no state and interact
only through simulated messages, so runs are bit-reproducible per seed.

Scenario scripts are line-oriented: `time command args...`, '#' comments.
Amounts accept base units or a dsd suffix. Commands that mint identifiers
take a trailing `as handle` clause; later commands refer to the handle.

A run processes at most ``MAX_EVENTS`` events; the scenario's `budget N`
command is the one way to set another limit. Every node watches its
channels and challenges any close it holds a newer signed state for.
"""
from __future__ import annotations

import heapq
import os
import random
import shlex
from dataclasses import dataclass, replace

from . import channels, rewards, storage, templates, tx as txmod
from .channels import ChannelEndpoint, SignedState
from .config import ConfigError, NetworkConfig, parse_amount, parse_fraction, parse_ints, text_lines
from .crypto import KeyPair, hash256
from .errors import BlockError, DeskchainError, LedgerError, ScenarioError, TxError
from .ledger import Block, validate_header
from .merkle import merkle_prove
from .node import Node
from .state import ChainState
from .vm import Program

BLOCK = "block"
TX = "tx"
CHAN_PROPOSE = "chan_propose"
CHAN_ACK = "chan_ack"
COMMAND = "command"

MAX_EVENTS = 100_000


class SimNode(Node):
    """A node with a block tree: every block it has accepted, the state
    after each, and its tip among them."""

    def __init__(self, name: str, keypair: KeyPair, genesis_state: ChainState, genesis: Block):
        super().__init__(genesis_state, genesis.header)
        self.name = name
        self.keypair = keypair
        self.online = True
        gh = genesis.header.block_hash()
        self.blocks: dict[bytes, Block] = {gh: genesis}
        self.states: dict[bytes, ChainState] = {gh: genesis_state}
        self.receipts: dict[bytes, list[txmod.Receipt]] = {gh: []}
        self.orphans: dict[bytes, list[Block]] = {}
        self.endpoints: dict[bytes, ChannelEndpoint] = {}
        self.chunk_store: dict[bytes, list[bytes]] = {}
        self.challenged: set[tuple[bytes, int]] = set()

    @property
    def address(self) -> bytes:
        return self.keypair.address

    def rank(self, h: bytes) -> tuple[int, bytes]:
        """Fork choice: the lowest rank wins, so the higher block, then the
        lower block hash."""
        return -self.blocks[h].header.height, h

    def chain(self) -> list[Block]:
        """Genesis to tip."""
        out = [self.blocks[self.header.block_hash()]]
        while out[-1].header.height:
            out.append(self.blocks[out[-1].header.prev_hash])
        return out[::-1]


@dataclass
class SimResult:
    final_tip: bytes  # block hash of the chosen tip
    final_state_root: bytes  # hash256 of the tip state's five roots, in header order
    receipts: list[txmod.Receipt]
    event_log: str
    state: ChainState
    chain: list[Block]
    handles: dict[str, bytes]


class Simulation:
    def __init__(self, cfg: NetworkConfig, seed: int):
        if not cfg.genesis_accounts:
            raise ScenarioError(0, "config declares no genesis accounts")
        self.cfg = cfg
        self.rng = random.Random(seed)
        self.clock = 0
        self.seq = 0
        self.queue: list[tuple[int, int, str, tuple]] = []
        self.log_lines: list[str] = []
        self.handles: dict[str, bytes] = {}
        self.partitions: list[set[str]] = []
        self.events_processed = 0
        self.budget = MAX_EVENTS
        genesis_state, genesis = txmod.genesis_block(cfg)
        self.genesis = genesis
        self.nodes: dict[str, SimNode] = {}
        for name, _, _ in cfg.genesis_accounts:
            self.nodes[name] = SimNode(
                name, KeyPair.from_name(name), genesis_state.clone(), genesis
            )
        # observed fully-signed states per (channel, nonce): actors must agree
        self.signed_registry: dict[tuple[bytes, int], bytes] = {}

    # --- plumbing ---

    def log(self, node: str, ev: str, **kv) -> None:
        parts = [f"t={self.clock}", f"node={node}", f"ev={ev}"]
        parts += [f"{k}={v}" for k, v in kv.items()]
        self.log_lines.append(" ".join(parts))

    def schedule(self, at: int, kind: str, data: tuple) -> None:
        heapq.heappush(self.queue, (at, self.seq, kind, data))
        self.seq += 1

    def _reachable(self, src: str, dst: str) -> bool:
        if not self.partitions:
            return True
        for group in self.partitions:
            if src in group:
                return dst in group
        return True

    def send(self, src: str, dst: str, kind: str, payload: tuple) -> None:
        latency = self.rng.randint(self.cfg.sim_latency_min, self.cfg.sim_latency_max)
        dropped = self.cfg.sim_drop_rate > 0 and self.rng.random() < float(self.cfg.sim_drop_rate)
        if dropped:
            self.log(src, "drop", kind=kind, to=dst)
            return
        self.schedule(self.clock + latency, kind, (src, dst, payload))

    def broadcast(self, src: str, kind: str, payload: tuple) -> None:
        for name in self.nodes:
            if name != src:
                self.send(src, name, kind, payload)

    # --- chain handling ---

    def accept_block(self, node: SimNode, block: Block, origin: str) -> None:
        h = block.header.block_hash()
        if h in node.blocks:
            return
        parent = block.header.prev_hash
        if parent not in node.blocks:
            node.orphans.setdefault(parent, []).append(block)
            return
        try:
            validate_header(block.header, node.blocks[parent].header, self.cfg)
            new_state, receipts = txmod.apply_block(node.states[parent], block)
        except (BlockError, LedgerError) as exc:
            self.log(node.name, "reject_block", height=block.header.height, reason=exc)
            return
        node.blocks[h] = block
        node.states[h] = new_state
        node.receipts[h] = receipts
        self.log(
            node.name, "block",
            height=block.header.height, hash=h.hex()[:16], txs=len(block.transactions),
            origin=origin,
        )
        if node.rank(h) < node.rank(node.header.block_hash()):
            node.set_tip(new_state, block.header)
            self.log(node.name, "tip", height=node.header.height, hash=h.hex()[:16])
            self._watch_channels(node)
        for orphan in node.orphans.pop(h, []):
            self.accept_block(node, orphan, origin="orphan")

    def _watch_channels(self, node: SimNode) -> None:
        height = node.header.height
        for channel_id, endpoint in node.endpoints.items():
            channel = node.state.channels.get(channel_id)
            if channel is None or channel.status != channels.CLOSING or height >= channel.deadline:
                continue
            mine = endpoint.latest()
            if mine is None or mine.nonce <= channel.candidate.nonce:
                continue
            key = (channel_id, channel.candidate.nonce)
            if key in node.challenged:
                continue
            node.challenged.add(key)
            challenge = node.make(
                node.keypair, txmod.ChannelChallenge, channel_id,
                *endpoint.settlement("challenge", channel), fee=1,
            )
            self.log(node.name, "auto_challenge", chan=channel_id.hex()[:16], nonce=mine.nonce)
            self.submit_tx(node, challenge)

    def submit_tx(self, node: SimNode, t) -> None:
        h = t.digest()
        try:
            if node.admit(t) is None:
                return
        except TxError as exc:
            self.log(node.name, "tx_rejected", reason=exc.code, hash=h.hex()[:16])
            raise
        self.log(node.name, "tx", kind=type(t).__name__, hash=h.hex()[:16])
        self.broadcast(node.name, TX, (t.encode(),))

    def mine(self, node: SimNode, count: int = 1) -> None:
        for _ in range(count):
            block = node.build_next_block(node.address)
            if block is None:
                raise ScenarioError(0, f"PoW budget exhausted mining at {node.name}")
            self.log(node.name, "mine", height=block.header.height,
                     hash=block.header.block_hash().hex()[:16], txs=len(block.transactions))
            self.accept_block(node, block, origin="local")
            self.broadcast(node.name, BLOCK, (block.encode(),))

    # --- channel actor protocol ---

    def endpoint_for(self, node: SimNode, channel_id: bytes) -> ChannelEndpoint:
        if channel_id not in node.endpoints:
            channel = node.state.channels.get(channel_id)
            if channel is None:
                raise ScenarioError(0, f"{node.name} sees no channel {channel_id.hex()[:16]}")
            side = "a" if channel.party_a == node.address else "b"
            node.endpoints[channel_id] = ChannelEndpoint(channel_id, side)
        return node.endpoints[channel_id]

    def _register_signed(self, node: SimNode, ss: SignedState) -> None:
        key = (ss.channel_id, ss.nonce)
        enc = ss.encode()
        seen = self.signed_registry.get(key)
        if seen is not None and seen != enc:
            raise DeskchainError(
                f"channel {ss.channel_id.hex()[:16]} double-signed nonce {ss.nonce}"
            )
        self.signed_registry[key] = enc
        self.endpoint_for(node, ss.channel_id).record(ss)

    def propose_update(
        self, node: SimNode, channel_id: bytes, balances: tuple[int, int],
        contract: Program | None, contract_state: tuple[int, ...],
    ) -> None:
        channel = node.state.channels.get(channel_id)
        if channel is None:
            raise ScenarioError(0, "channel unknown at proposer")
        endpoint = self.endpoint_for(node, channel_id)
        unsigned = endpoint.propose(channel, balances, contract, contract_state)
        half = channels.sign_state(unsigned, node.keypair, endpoint.side)
        peer = channel.party_b if endpoint.side == "a" else channel.party_a
        peer_name = self._name_of(peer)
        payload = (channel_id, half.encode(), contract.encode() if contract else b"")
        self.log(node.name, "chan_propose", chan=channel_id.hex()[:16], nonce=half.nonce)
        self.send(node.name, peer_name, CHAN_PROPOSE, payload)

    def _on_propose(self, node: SimNode, src: str, payload: tuple) -> None:
        channel_id, ss_bytes, program_bytes = payload
        half = SignedState.decode(ss_bytes)
        channel = node.state.channels.get(channel_id)
        if channel is None:
            self.log(node.name, "chan_ignore", reason="unknown_channel")
            return
        endpoint = self.endpoint_for(node, channel_id)
        if half.nonce != endpoint.latest_nonce() + 1:
            self.log(node.name, "chan_ignore", reason="bad_nonce", nonce=half.nonce)
            return
        if half.balance_a + half.balance_b != channel.total:
            self.log(node.name, "chan_ignore", reason="bad_sum")
            return
        if program_bytes:
            program = Program.decode(program_bytes)
            endpoint.programs[program.code_hash()] = program
        full = channels.sign_state(half, node.keypair, endpoint.side)
        if not channels.state_sigs_ok(channel, full):
            self.log(node.name, "chan_ignore", reason="bad_sig")
            return
        self._register_signed(node, full)
        self.log(node.name, "chan_signed", chan=channel_id.hex()[:16], nonce=full.nonce)
        self.send(node.name, src, CHAN_ACK, (channel_id, full.encode()))

    def _on_ack(self, node: SimNode, src: str, payload: tuple) -> None:
        channel_id, ss_bytes = payload
        full = SignedState.decode(ss_bytes)
        channel = node.state.channels.get(channel_id)
        if channel is None or not channels.state_sigs_ok(channel, full):
            self.log(node.name, "chan_ignore", reason="bad_ack")
            return
        self._register_signed(node, full)
        self.log(node.name, "chan_ack", chan=channel_id.hex()[:16], nonce=full.nonce)

    def _resync(self) -> None:
        """After a heal or restart every online node re-offers its chain;
        orphan buffering absorbs out-of-order delivery."""
        for name in sorted(self.nodes):
            node = self.nodes[name]
            if not node.online:
                continue
            for block in node.chain()[1:]:  # skip the shared genesis
                self.broadcast(name, BLOCK, (block.encode(),))

    def _name_of(self, address: bytes) -> str:
        for name, node in self.nodes.items():
            if node.address == address:
                return name
        raise ScenarioError(0, f"no node for address {address.hex()[:16]}")

    # --- event loop ---

    def dispatch(self, kind: str, data: tuple) -> None:
        if kind == COMMAND:
            line_no, argv = data
            self.run_command(line_no, argv)
            return
        src, dst, payload = data
        node = self.nodes[dst]
        if not node.online or not self._reachable(src, dst):
            self.log(dst, "drop", kind=kind, reason="offline_or_partitioned")
            return
        if kind == BLOCK:
            block = Block.decode(payload[0])
            self.accept_block(node, block, origin=src)
        elif kind == TX:
            t = txmod.decode_tx(payload[0])
            if isinstance(t, txmod.EpochTx):
                return  # system txs are assembled locally, never gossiped
            try:
                node.admit(t)
            except TxError:
                pass  # a peer's tx this tip cannot take is not pooled
        elif kind == CHAN_PROPOSE:
            self._on_propose(node, src, payload)
        elif kind == CHAN_ACK:
            self._on_ack(node, src, payload)

    def run_scenario(self, text: str, base_dir: str = ".") -> SimResult:
        self.base_dir = base_dir
        last_time = 0
        for line_no, line in text_lines(text):
            try:
                parts = shlex.split(line)
                at = int(parts[0])
            except ValueError as exc:
                raise ScenarioError(line_no, f"expected 'time command ...': {exc}") from exc
            if at < last_time:
                raise ScenarioError(line_no, "times must be non-decreasing")
            last_time = at
            self.schedule(at, COMMAND, (line_no, parts[1:]))
        while self.queue:
            self.events_processed += 1
            if self.events_processed > self.budget:
                raise ScenarioError(0, f"event budget {self.budget} exhausted")
            at, _, kind, data = heapq.heappop(self.queue)
            self.clock = at
            self.dispatch(kind, data)
        return self._result()

    def _result(self) -> SimResult:
        node = min((self.nodes[name] for name in sorted(self.nodes)),
                   key=lambda n: n.rank(n.header.block_hash()))
        chain = node.chain()
        receipts = []
        for block in chain:
            receipts.extend(node.receipts[block.header.block_hash()])
        self.log(node.name, "final", height=node.header.height, root=node.header.block_hash().hex())
        return SimResult(
            final_tip=node.header.block_hash(),
            final_state_root=hash256(b"".join(txmod.state_roots(node.state).values())),
            receipts=receipts,
            event_log="\n".join(self.log_lines) + "\n",
            state=node.state,
            chain=chain,
            handles=dict(self.handles),
        )

    # --- scenario commands ---

    def _node(self, name: str) -> SimNode:
        node = self.nodes.get(name)
        if node is None:
            raise ScenarioError(0, f"unknown node {name!r}")
        return node

    def _addr(self, name: str) -> bytes:
        return KeyPair.from_name(name).address

    def _handle(self, token: str) -> bytes:
        if token.startswith("hex:"):
            return bytes.fromhex(token[4:])
        if token in self.handles:
            return self.handles[token]
        raise ScenarioError(0, f"unknown handle {token!r}")

    def _opts(self, args: list[str]) -> tuple[list[str], dict[str, str], str | None]:
        positional: list[str] = []
        opts: dict[str, str] = {}
        handle = None
        i = 0
        while i < len(args):
            token = args[i]
            if token == "as":
                handle = args[i + 1]
                i += 2
                continue
            if "=" in token and not token.startswith("hex:"):
                k, v = token.split("=", 1)
                opts[k] = v
                i += 1
                continue
            positional.append(token)
            i += 1
        return positional, opts, handle

    def run_command(self, line_no: int, argv: list[str]) -> None:
        if not argv:
            return
        cmd, *rest = argv
        try:
            args, opts, handle = self._opts(rest)
            self._exec(cmd, args, opts, handle)
        except ScenarioError as exc:
            if exc.line_no == 0:  # raised by a helper that cannot see the line
                raise ScenarioError(line_no, exc.message) from exc
            raise
        except (TxError, LedgerError) as exc:
            # protocol-level rejection: logged, scenario continues
            self.log(args[0] if args else "-", "rejected", cmd=cmd, reason=getattr(exc, "code", str(exc)))
        except DeskchainError as exc:  # e.g. an unknown template
            raise ScenarioError(line_no, str(exc)) from exc
        except (KeyError, IndexError, ValueError) as exc:
            raise ScenarioError(line_no, f"{cmd}: {exc}") from exc

    def _exec(self, cmd: str, args: list[str], opts: dict, handle: str | None) -> None:
        cfg = self.cfg
        if cmd == "budget":
            self.budget = int(args[0])
            return
        if cmd == "partition":
            self.partitions = [set(group.split(",")) for group in args]
            self.log("-", "partition", groups=len(self.partitions))
            return
        if cmd == "heal":
            self.partitions = []
            self.log("-", "heal")
            self._resync()
            return

        node = self._node(args[0])
        if cmd == "crash":
            node.online = False
            node.set_tip(node.state, node.header, ())
            self.log(node.name, "crash")
            return
        if cmd == "restart":
            node.online = True
            self.log(node.name, "restart", channels=len(node.endpoints))
            self._watch_channels(node)
            self._resync()
            return
        if not node.online:
            self.log(node.name, "skip", cmd=cmd, reason="offline")
            return

        if cmd == "mine":
            self.mine(node, int(args[1]) if len(args) > 1 else 1)
        elif cmd == "channel-update":
            channel_id = self._handle(args[1])
            balances = (parse_amount(args[2]), parse_amount(args[3]))
            program = None
            if "contract" in opts:
                program = templates.load_program(opts["contract"], self.base_dir)
            cstate = self._contract_state(opts.get("cstate", ""))
            self.propose_update(node, channel_id, balances, program, cstate)
        elif cmd == "epoch-factors":
            with open(os.path.join(self.base_dir, args[1]), "r", encoding="utf-8") as fh:
                text = fh.read()
            try:
                report = parse_factors(text, node.state.pool.epoch_index + 1, self.handles)
            except ScenarioError as exc:  # its line number is the factors file's
                raise ScenarioError(0, f"{args[1]} line {exc.line_no}: {exc.message}") from exc
            node.staged_epoch = report
            self.log(node.name, "epoch_staged", azs=len(report.az_rows))
        elif cmd == "advance-epoch":
            height = node.header.height
            target = ((height // cfg.blocks_per_epoch) + 1) * cfg.blocks_per_epoch
            self.mine(node, target - height)
        else:
            t = self._tx(node, cmd, args, opts)
            created = txmod.created_id(t)
            if handle and created:
                self.handles[handle] = created
            self.submit_tx(node, t)

    def _tx(self, node: SimNode, cmd: str, args: list[str], opts: dict):
        """The signed transaction a scenario verb submits at ``node``."""
        fee = int(opts.get("fee", "1"))

        def make(kind, *fields, fee=fee, cosigner=None):
            return node.make(KeyPair.from_name(args[1]), kind, *fields, fee=fee, cosigner=cosigner)

        if cmd == "spend":
            return make(txmod.Spend, self._resolve_target(args[2]), parse_amount(args[3]))
        if cmd == "data":
            return make(txmod.DataOnly, bytes.fromhex(args[2]), fee=int(opts.get("gas_price", "1")))
        if cmd == "name-claim":
            return make(txmod.NameClaim, args[2], self._resolve_target(args[3]))
        if cmd == "delete-account":
            return make(txmod.AccountDelete, self._resolve_target(args[2]))
        if cmd == "contract-create":
            program = templates.load_program(args[2], self.base_dir)
            gas, gas_price = int(args[5]), int(args[6])
            call_data = parse_ints(opts.get("call", ""))
            return make(
                txmod.ContractCreate, program, 1, parse_amount(args[3]), parse_amount(args[4]),
                gas, gas_price, call_data, fee=gas * gas_price,
            )
        if cmd == "contract-call":
            gas, gas_price = int(args[4]), int(args[5])
            call_data = parse_ints(opts.get("call", ""))
            return make(
                txmod.ContractCall, self._handle(args[2]), parse_amount(args[3]),
                gas, gas_price, call_data, fee=gas * gas_price,
            )
        if cmd == "channel-open":
            return make(
                txmod.ChannelOpen, self._addr(args[2]), parse_amount(args[3]),
                parse_amount(args[4]), cosigner=KeyPair.from_name(args[2]),
            )
        family, _, action = cmd.partition("-")
        if family == "channel" and action in txmod.SETTLE_KINDS:
            channel_id = self._handle(args[1])
            if action == "finalize":  # settles the on-chain candidate; needs no endpoint
                endpoint = node.endpoints.get(channel_id) or ChannelEndpoint(channel_id)
            else:
                endpoint = self.endpoint_for(node, channel_id)
            nonce = int(opts["nonce"]) if action == "close" and "nonce" in opts else None
            ss, program = endpoint.settlement(action, node.state.channels.get(channel_id), nonce)
            return node.make(node.keypair, txmod.SETTLE_KINDS[action], channel_id, ss, program, fee=fee)
        if cmd == "oracle-ask":
            question_hash = hash256(args[2].encode("utf-8"))
            return make(txmod.OracleRegister, question_hash, int(args[3]), int(args[4]))
        if family == "oracle" and action in txmod.ORACLE_KINDS:
            bit = ({"yes": True, "no": False}[args[3]],) if action in ("answer", "vote") else ()
            return make(txmod.ORACLE_KINDS[action], self._handle(args[2]), *bit)
        if cmd == "storage-commit":
            chunk_size = int(args[4])
            chunks, root = storage.commit_data(self._read_data(args[3]), chunk_size)
            t = make(
                txmod.StorageCreate, self._addr(args[2]), root, len(chunks), chunk_size,
                int(args[5]), parse_amount(args[6]), parse_amount(args[7]),
            )
            provider_node = self.nodes.get(args[2])
            if provider_node is not None:
                provider_node.chunk_store[txmod.created_id(t)] = chunks
            return t
        if cmd == "storage-prove":
            contract_id = self._handle(args[2])
            chunks = node.chunk_store.get(contract_id)
            if chunks is None:
                raise ScenarioError(0, "provider holds no chunks for that contract")
            index = storage.challenge_index(node.header.block_hash(), contract_id, len(chunks))
            return make(txmod.StorageProof, contract_id, chunks[index], merkle_prove(chunks, index))
        if cmd == "storage-close":
            return make(txmod.StorageClose, self._handle(args[2]))
        if cmd == "az-create":
            return make(txmod.AzCreate, parse_amount(args[2]))
        if cmd == "az-join":
            return make(txmod.AzJoin, self._handle(args[2]))
        if cmd == "az-refer":
            return make(txmod.AzRefer, self._addr(args[2]), self._handle(args[3]))
        raise ScenarioError(0, f"unknown command {cmd!r}")

    def _resolve_target(self, token: str) -> bytes:
        """A handle, as ``_handle`` reads it, or else a node name's address."""
        try:
            return self._handle(token)
        except ScenarioError:
            return self._addr(token)

    def _contract_state(self, token: str) -> tuple[int, ...]:
        """csv integers/amounts, or `htlc:total,preimage,deadline,height`
        which expands to the hash-timelock template's input vector."""
        if not token:
            return ()
        if token.startswith("htlc:"):
            total, preimage, deadline, height = token[5:].split(",")
            return tuple(
                templates.hash_timelock_state(
                    parse_amount(total), int(preimage), int(deadline), int(height)
                )
            )
        return tuple(parse_amount(v) for v in token.split(",") if v)

    def _read_data(self, token: str) -> bytes:
        if token.startswith("hex:"):
            return bytes.fromhex(token[4:])
        if token.startswith("file:"):
            with open(os.path.join(self.base_dir, token[5:]), "rb") as fh:
                return fh.read()
        raise ScenarioError(0, f"expected hex:... or file:..., got {token!r}")


def parse_factors(text: str, epoch_index: int, handles: dict[str, bytes]) -> rewards.EpochReport:
    """Factor measurement file -> EpochReport.

    Lines: `weights w1 w2 ...`, `az <zone> raw1 raw2 ...`,
    `user <zone> <name> eps E theta T`, then `item alpha A s S beta B
    usage c1 c2 ...` rows attaching to the preceding user. A zone is a
    key of ``handles`` or a 64-hex AZ id. Each record is built at its own
    line (a user's again with each item), so a malformed line, or a value
    the reward records refuse, raises ScenarioError with its line number.
    """
    report = rewards.EpochReport(epoch_index, (), (), ())
    az_rows: list[rewards.AZFactors] = []
    users: list[rewards.UserContribution] = []

    def zone(token: str) -> bytes:
        if token in handles:
            return handles[token]
        if len(token) != 64:
            raise ValueError(f"unknown zone {token!r}: not a handle or a 64-hex id")
        return bytes.fromhex(token)

    def pairs(tokens: list[str], keys: tuple[str, ...]) -> dict[str, str]:
        """``key value ...`` with every key one of ``keys`` and given a value."""
        for key in tokens[::2]:
            if key not in keys:
                raise ValueError(f"unknown key {key!r}")
        if len(tokens) % 2:
            raise ValueError(f"{tokens[-1]} has no value")
        return dict(zip(tokens[::2], tokens[1::2]))

    for line_no, line in text_lines(text):
        parts = line.split()
        key = parts[0]
        try:
            if key == "weights":
                report = replace(report, factor_weights=tuple(parse_fraction(v) for v in parts[1:]))
            elif key == "az":
                az_id = zone(parts[1])
                az_rows.append(rewards.AZFactors(az_id, tuple(int(v) for v in parts[2:])))
            elif key == "user":
                az_id = zone(parts[1])
                member = KeyPair.from_name(parts[2]).address
                kv = pairs(parts[3:], ("eps", "theta"))
                users.append(rewards.UserContribution(
                    az_id, member, parse_fraction(kv.get("eps", "1")), parse_fraction(kv.get("theta", "1")), ()
                ))
            elif key == "item":
                if not users:
                    raise ScenarioError(line_no, "item line before any user line")
                tokens = parts[1:]
                at = tokens.index("usage") if "usage" in tokens else len(tokens)
                kv, usage = pairs(tokens[:at], ("alpha", "s", "beta")), tokens[at + 1 :]
                item = rewards.WorkItem(
                    alpha=parse_fraction(kv.get("alpha", "1")),
                    s=parse_fraction(kv.get("s", "0")),
                    beta=parse_fraction(kv.get("beta", "1")),
                    usage=tuple(parse_fraction(v) for v in usage),
                )
                users[-1] = replace(users[-1], items=users[-1].items + (item,))
            else:
                raise ScenarioError(line_no, f"unknown factors key {key!r}")
        except (ValueError, IndexError, ConfigError, LedgerError) as exc:
            raise ScenarioError(line_no, f"{key}: {exc}") from exc
    return replace(report, az_rows=tuple(az_rows), user_rows=tuple(users))


def run(cfg: NetworkConfig, scenario_text: str, seed: int, base_dir: str = ".") -> SimResult:
    return Simulation(cfg, seed).run_scenario(scenario_text, base_dir)
