"""Run one graphtheta CLI command with spans around each module's public calls.

Usage: python3 tracer.py SPANS_PATH CLI_ARGS...

Before the CLI starts, every name in SITES is replaced, in the module
that looks it up, by a wrapper that records a span: the name, its
duration and the span that called it.  Spans are aggregated in memory by
(name, caller) into call counts, total and self time (total minus the
time of traced calls made inside it), and written to SPANS_PATH as JSON
lines when the command ends.  Pool workers write their own spans to
SPANS_PATH.<pid> after each partition they scan.

Nothing under src/ knows about this file: the wrappers are installed
from outside, so the traced program is the one the build produced.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# span name -> (module, attribute) pairs where the callers look the name up
SITES = {
    "treegen.abc_abs_sums": [("treegen", "abc_abs_sums")],
    "treegen.sequence_to_graph": [("treegen", "sequence_to_graph")],
    "indices.sign_of_gap": [("survey", "sign_of_gap"), ("cli", "sign_of_gap")],
    "indices.extended_precision": [("survey", "gap_extended_precision")],
    "indices.index_report": [("survey", "index_report"), ("cli", "index_report")],
    "graphs.from_edge_list": [("graph6", "from_edge_list"), ("treegen", "from_edge_list"),
                              ("smallgraphs", "from_edge_list"),
                              ("linegraph", "from_edge_list"), ("survey", "from_edge_list")],
    "graph6.encode": [("survey", "to_graph6"), ("treegen", "to_graph6"), ("cli", "to_graph6")],
    "graph6.decode": [("cli", "parse_graph6"), ("smallgraphs", "parse_graph6")],
    "canon.canonical_key": [("smallgraphs", "canonical_key")],
    "smallgraphs.internal_universe": [("cli", "internal_universe")],
    "smallgraphs.load_universe": [("cli", "load_universe")],
    "linegraph.line_graph": [("survey", "line_graph")],
    **{f"survey.{fn}": [("survey", fn)] for fn in (
        "classify_trees", "find_near_ties", "verify_min_degree2",
        "verify_subdivision_invariance", "verify_line_graphs",
        "verify_no_degree2_bound", "verify_isolated_degree2_bound")},
}
STREAMS = {"treegen.stream": [("treegen", "free_tree_sequences")]}
# runs in pool workers; its wrapper flushes the worker's spans
PARTITION = ("survey.partition", ("survey", "_scan_partition"))
# spans whose distinct results are counted (graphs kept by the dedup)
DISTINCT = {"canon.canonical_key"}


class Recorder:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, time in traced children]
        self.agg: dict[tuple[str, str], list] = {}  # -> [calls, total, self]
        self.distinct: dict[str, set] = {}

    def enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0])

    def leave(self, counted: bool = True) -> None:
        name, start, child = self.stack.pop()
        dt = time.perf_counter() - start
        caller = self.stack[-1][0] if self.stack else ""
        if self.stack:
            self.stack[-1][2] += dt
        a = self.agg.setdefault((name, caller), [0, 0.0, 0.0])
        a[0] += counted
        a[1] += dt
        a[2] += dt - child

    def reset(self) -> None:
        self.stack.clear()
        self.agg.clear()
        for values in self.distinct.values():
            values.clear()

    def dump(self, path: str, role: str) -> None:
        with open(path, "a", encoding="ascii") as fh:
            for (name, caller), (calls, total, self_s) in sorted(self.agg.items()):
                fh.write(json.dumps({"pid": os.getpid(), "role": role, "name": name,
                                     "caller": caller, "calls": calls,
                                     "total_s": total, "self_s": self_s}) + "\n")
            for name, values in sorted(self.distinct.items()):
                fh.write(json.dumps({"pid": os.getpid(), "role": role, "name": name,
                                     "distinct": len(values)}) + "\n")


def _call_wrapper(rec: Recorder, fn, name: str):
    distinct = rec.distinct.setdefault(name, set()) if name in DISTINCT else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.leave()
        if distinct is not None:
            distinct.add(result)
        return result

    return traced


def _stream_wrapper(rec: Recorder, fn, name: str):
    """Times each step of a generator; calls counts the items it yields."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            rec.enter(name)
            try:
                item = next(it)
            except StopIteration:
                rec.leave(counted=False)
                return
            except BaseException:
                rec.leave(counted=False)
                raise
            rec.leave()
            yield item

    return traced


def _partition_wrapper(rec: Recorder, fn, name: str, spans_path: str, main_pid: int):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        worker = os.getpid() != main_pid
        if worker:
            rec.reset()  # drop what the fork copied from the parent
        rec.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leave()
            if worker:
                rec.dump(f"{spans_path}.{os.getpid()}", "worker")

    return traced


def install(rec: Recorder, spans_path: str) -> list[str]:
    """Install every wrapper; returns the sites that no longer exist."""
    missing = []

    def patch(sites, make):
        for mod_name, attr in sites:
            mod = importlib.import_module(f"graphtheta.{mod_name}")
            if not hasattr(mod, attr):
                missing.append(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, make(getattr(mod, attr)))

    for name, sites in SITES.items():
        patch(sites, lambda fn, name=name: _call_wrapper(rec, fn, name))
    for name, sites in STREAMS.items():
        patch(sites, lambda fn, name=name: _stream_wrapper(rec, fn, name))
    name, site = PARTITION
    patch([site], lambda fn: _partition_wrapper(rec, fn, name, spans_path, os.getpid()))
    return missing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    for site in install(rec, spans_path):
        print(f"tracer: {site} not found, not traced", file=sys.stderr)
    from graphtheta import cli

    rec.enter("cli.main")
    try:
        return cli.main(argv)
    finally:
        rec.leave()
        rec.dump(spans_path, "main")


if __name__ == "__main__":
    sys.exit(main())
