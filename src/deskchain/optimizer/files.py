"""Text formats for device groups and factor graphs.

Device group:

    devices 1
    states 3
    actions run repair
    arrivals constant 1
    capacity run 1 1 0
    capacity repair 0 0 0
    transition run 0 0.7 0.3 0.0
    transition run 1 0.0 0.6 0.4
    transition run 2 0.0 0.0 1.0
    transition repair 0 1 0 0
    ...

Factor graph:

    var a 2
    var b 3
    unary a 1 2
    edge a b 1 2 3 4 5 6   # row-major |a| x |b|

'#' comments anywhere; blank lines ignored.
"""
from __future__ import annotations

from ..config import text_lines
from ..errors import LedgerError
from .bp import TreeFactorGraph
from .mdp import DeviceGroupMdp, check_total_capacity


def parse_mdp(text: str) -> DeviceGroupMdp:
    devices = states = None
    actions: list[str] = []
    arrival_kind, arrival_rate = "constant", 1.0
    capacity: dict[str, tuple[int, list[int]]] = {}  # action -> (line, row)
    rows: dict[tuple[str, int], list[float]] = {}
    for line_no, line in text_lines(text):
        parts = line.split()
        key = parts[0]
        try:
            if key == "devices":
                devices = int(parts[1])
            elif key == "states":
                states = int(parts[1])
            elif key == "actions":
                actions = parts[1:]
            elif key == "arrivals":
                arrival_kind, arrival_rate = parts[1], float(parts[2])
            elif key == "capacity":
                capacity[parts[1]] = (line_no, [int(v) for v in parts[2:]])
            elif key == "transition":
                rows[(parts[1], int(parts[2]))] = [float(v) for v in parts[3:]]
            else:
                raise LedgerError("BadFormat", f"mdp line {line_no}: unknown key {key!r}")
        except (ValueError, IndexError) as exc:
            raise LedgerError("BadFormat", f"mdp line {line_no}: {exc}") from exc
    if devices is None or states is None or not actions:
        raise LedgerError("BadFormat", "mdp file needs devices, states, actions")
    transitions = []
    caps = []
    for action in actions:
        if action not in capacity:
            raise LedgerError("BadFormat", f"missing capacity for action {action!r}")
        line_no, row = capacity[action]
        check_total_capacity(devices, action, row, f"mdp line {line_no}: ")
        caps.append(tuple(row))
        matrix = []
        for s in range(states):
            row = rows.get((action, s))
            if row is None:
                raise LedgerError("BadFormat", f"missing transition {action!r} row {s}")
            matrix.append(tuple(row))
        transitions.append(tuple(matrix))
    return DeviceGroupMdp(
        n_devices=devices,
        n_states=states,
        action_names=tuple(actions),
        transitions=tuple(transitions),
        capacity=tuple(caps),
        arrival_kind=arrival_kind,
        arrival_rate=arrival_rate,
    )


def parse_factor_graph(text: str) -> TreeFactorGraph:
    domains: dict[str, int] = {}
    unaries: dict[str, tuple[float, ...]] = {}
    edges: list[tuple[str, str, tuple[tuple[float, ...], ...]]] = []
    for line_no, line in text_lines(text):
        parts = line.split()
        key = parts[0]
        try:
            if key == "var":
                domains[parts[1]] = int(parts[2])
            elif key == "unary":
                unaries[parts[1]] = tuple(float(v) for v in parts[2:])
            elif key == "edge":
                u, v = parts[1], parts[2]
                values = [float(x) for x in parts[3:]]
                rows, cols = domains[u], domains[v]
                if len(values) != rows * cols:
                    raise LedgerError("BadFormat", f"edge ({u}, {v}) wants {rows * cols} values")
                edges.append((u, v, tuple(tuple(values[i * cols:(i + 1) * cols]) for i in range(rows))))
            else:
                raise LedgerError("BadFormat", f"graph line {line_no}: unknown key {key!r}")
        except (ValueError, IndexError, KeyError) as exc:
            raise LedgerError("BadFormat", f"graph line {line_no}: {exc}") from exc
    return TreeFactorGraph(domains, unaries, tuple(edges))


def load_mdp(path: str) -> DeviceGroupMdp:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mdp(fh.read())


def load_factor_graph(path: str) -> TreeFactorGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_factor_graph(fh.read())
