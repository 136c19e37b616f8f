"""Workloads of the graphtheta CLI benchmark: commands, inputs and checks.

Each workload is a fixed list of CLI commands run one after another by a
single benchmark process (a closed loop).  Every command has a check that
reads its output and compares it with goldens recorded from the
unmodified program, so a wrong answer counts as a failure, not as a
fast run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# OEIS A000055: free trees of order n.
TREES = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
    11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320, 17: 48629,
    18: 123867, 19: 317955,
}
# OEIS A001349: connected graphs of order n.
CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# Trees of order n with ABC < ABS (none below order 11).
NEGATIVE = {n: 0 for n in range(3, 11)} | {
    11: 1, 12: 6, 13: 31, 14: 134, 15: 564,
    16: 2292, 17: 8656, 18: 30849, 19: 103658,
}
# `near-ties n --top-k 4` in CSV: (graph6, abs_gap printed to 9 digits).
NEAR_TIES = {
    11: [
        ("JkE?K?@_C??", "0.0187849065"),
        ("JhQ?K?@_??_", "0.0330995301"),
        ("Ji_K?E??K??", "0.0382674532"),
        ("JkE?K?@_??_", "0.0414548077"),
    ],
    16: [
        ("OhHAC?@?S??@_?_?O?C??", "8.34957667e-05"),
        ("OhC_I?@_??_@?@?C?AC??", "9.69940261e-05"),
        ("OhC_IA??G?_@?G?GO???@", "9.69940261e-05"),
        ("OhC_IA??G?_C?G_???G?@", "9.69940261e-05"),
    ],
}
WITNESS_CAP = 100  # the CLI's default --witness-cap
UNIVERSE_ORDER = 10
STATEMENT_MIN_ORDER = {"p1": 1, "t1": 5, "t2": 1, "t3": 1}

# Input sizes.  "full" is what a timed run measures; "tiny" is the
# self-test, which runs the same commands and checks in seconds.
SIZES = {
    "full": dict(scan_hi=16, scan_n=17, near_ties=16, enum_trees=15,
                 max_order=7, universe=1000, p2_trials=4000),
    "tiny": dict(scan_hi=11, scan_n=12, near_ties=11, enum_trees=10,
                 max_order=5, universe=20, p2_trials=300),
}

WORKLOADS = ("census", "materialize", "universe")


class CheckError(Exception):
    """A command's output disagrees with the golden."""


@dataclass(frozen=True)
class Outcome:
    graphs: int  # trees or graphs the command handled
    emitted: int  # graph6 strings the command wrote as results


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    check: Callable[[str], Outcome]  # receives the command's stdout

    @property
    def label(self) -> str:
        return " ".join(a if "/" not in a else Path(a).name for a in self.args)

    @property
    def subcommand(self) -> str:
        return self.args[0]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _data_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def _graph6_lines(path: Path, order: int, count: int) -> int:
    lines = _data_lines(path.read_text(encoding="ascii"))
    _expect(len(lines) == count, f"{path.name}: {len(lines)} graphs, expected {count}")
    _expect(len(set(lines)) == count, f"{path.name}: duplicate graphs")
    header = chr(order + 63)
    _expect(all(ln[0] == header for ln in lines), f"{path.name}: graph of wrong order")
    return count


def _check_scan(lo: int, hi: int, witnesses: Path) -> Callable[[str], Outcome]:
    def check(stdout: str) -> Outcome:
        rows = _data_lines(stdout)[1:]
        _expect([int(r.split(",")[0]) for r in rows] == list(range(lo, hi + 1)),
                "scan: wrong orders")
        graphs = emitted = 0
        for row in rows:
            n, total, pos, neg, zero = map(int, row.split(",")[:5])
            _expect(total == TREES[n], f"scan n={n}: total {total} != {TREES[n]}")
            _expect(neg == NEGATIVE[n], f"scan n={n}: negative {neg} != {NEGATIVE[n]}")
            _expect(zero == 0 and pos + neg == total, f"scan n={n}: bad sign split")
            graphs += total
            emitted += 1  # min_abs_gap_graph6
        listed: dict[int, int] = {}
        order = 0
        for line in witnesses.read_text(encoding="ascii").splitlines():
            if line.startswith("# n="):
                fields = dict(f.split("=") for f in line[2:].split())
                order = int(fields["n"])
                _expect(int(fields["negative"]) == NEGATIVE[order], "witness header")
                _expect(int(fields["listed"]) == min(NEGATIVE[order], WITNESS_CAP),
                        f"witnesses n={order}: wrong listed count")
                listed[order] = 0
            else:
                _expect(line[0] == chr(order + 63), f"witness of wrong order {order}")
                listed[order] += 1
        for n in range(lo, hi + 1):
            _expect(listed.get(n) == min(NEGATIVE[n], WITNESS_CAP),
                    f"witnesses n={n}: wrong line count")
        return Outcome(graphs, emitted + sum(listed.values()))

    return check


def _check_near_ties(n: int) -> Callable[[str], Outcome]:
    def check(stdout: str) -> Outcome:
        rows = [tuple(r.split(",")[i] for i in (0, 3)) for r in _data_lines(stdout)[1:]]
        _expect(rows == NEAR_TIES[n], f"near-ties {n}: {rows} != golden")
        return Outcome(TREES[n], len(rows))

    return check


def _check_enum(out: Path, order: int, count: int) -> Callable[[str], Outcome]:
    def check(stdout: str) -> Outcome:
        _graph6_lines(out, order, count)
        return Outcome(count, count)

    return check


def _check_index(n: int) -> Callable[[str], Outcome]:
    def check(stdout: str) -> Outcome:
        rows = _data_lines(stdout)[1:]
        _expect(len(rows) == TREES[n], f"index: {len(rows)} rows, expected {TREES[n]}")
        negative = sum(r.rsplit(",", 1)[1] == "negative" for r in rows)
        _expect(negative == NEGATIVE[n], f"index: {negative} negative, expected {NEGATIVE[n]}")
        return Outcome(len(rows), 0)

    return check


def _check_verify(statement: str, checked: int) -> Callable[[str], Outcome]:
    def check(stdout: str) -> Outcome:
        report = json.loads(stdout)
        _expect(report["statement"] == statement, "verify: wrong statement")
        _expect(report["checked"] == checked,
                f"verify {statement}: checked {report['checked']}, expected {checked}")
        _expect(not report["conclusion_failures"], f"verify {statement}: counterexample")
        return Outcome(checked, 0)

    return check


def workload_commands(name: str, size: str, seed: int, tmp: Path) -> list[Command]:
    """The commands of one round of workload ``name``.

    Output files go to ``tmp``; ``tmp / "universe.g6"`` must already hold
    ``random_universe(seed, ...)`` for the universe workload.
    """
    s = SIZES[size]
    if name == "census":
        lo, hi, n = 3, s["scan_hi"], s["scan_n"]
        cmds = []
        for (first, last), extra in (((lo, hi), ()), ((n, n), ()),
                                     ((n, n), ("--workers", "2"))):
            orders = f"{first}..{last}" if first != last else str(first)
            w = tmp / f"witness-{len(cmds)}.g6"
            cmds.append(Command(("scan", orders, *extra, "--witness-out", str(w)),
                                _check_scan(first, last, w)))
        return cmds
    if name == "materialize":
        n, m = s["near_ties"], s["enum_trees"]
        trees = tmp / "trees.g6"
        return [
            Command(("near-ties", str(n), "--top-k", "4"), _check_near_ties(n)),
            Command(("enum", "trees", str(m), "--out", str(trees)),
                    _check_enum(trees, m, TREES[m])),
            Command(("index", "--in", str(trees)), _check_index(m)),
        ]
    if name == "universe":
        k = s["max_order"]
        graphs = tmp / "connected.g6"
        universe = tmp / "universe.g6"
        internal = [
            Command(("verify", st, "--max-order", str(k)),
                    _check_verify(st, sum(CONNECTED[o] for o in range(lo, k + 1))))
            for st, lo in STATEMENT_MIN_ORDER.items()
        ]
        external = [
            Command(("verify", st, "--in", str(universe), "--order", str(UNIVERSE_ORDER)),
                    _check_verify(st, s["universe"]))
            for st in STATEMENT_MIN_ORDER
        ]
        return [
            *internal,
            Command(("enum", "connected", str(k), "--out", str(graphs)),
                    _check_enum(graphs, k, CONNECTED[k])),
            *external,
            Command(("verify", "p2", "--seed", str(seed), "--trials", str(s["p2_trials"])),
                    _check_verify("p2", s["p2_trials"])),
        ]
    raise ValueError(f"unknown workload {name!r}")


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, todo = {0}, [0]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def _graph6(n: int, edges: list[tuple[int, int]]) -> str:
    bits = [0] * (n * (n - 1) // 2)
    for i, j in edges:  # i < j
        bits[j * (j - 1) // 2 + i] = 1
    bits += [0] * (-len(bits) % 6)
    chunks = (int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6))
    return chr(n + 63) + "".join(chr(c + 63) for c in chunks)


def random_universe(seed: int, order: int, count: int) -> list[str]:
    """``count`` distinct random connected graphs of ``order`` in graph6.

    Each graph draws its edge density uniformly from 0.25..0.8, so the
    set spans sparse graphs with pendent vertices up to dense ones whose
    line graphs are large.
    """
    rng = random.Random(seed)
    out: dict[str, None] = {}
    while len(out) < count:
        p = rng.uniform(0.25, 0.8)
        edges = [(i, j) for j in range(order) for i in range(j) if rng.random() < p]
        if _connected(order, edges):
            out.setdefault(_graph6(order, edges))
    return list(out)
