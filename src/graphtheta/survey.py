"""Census and verification engine.

Reproduces the tree censuses (sign of the ABC-ABS gap per order, near
ties), and empirically verifies the structural statements over
enumerated universes: the min-degree-2 bound (p1), subdivision
invariance of the gap (p2), line graphs (t1), and the two
pendent-count hypotheses (t2, t3), each at a zero tolerance but p2, which
is exact: a subdivision adds one (2, 2) degree pair, the one pair with
a + b >= 3 whose ABC and ABS radicands agree (ab = a + b: (a-1)(b-1) = 1).
"""

from __future__ import annotations

import math
import os
import random
import time
from collections import Counter
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from . import treeclasses, treegen
from .graphs import (
    Graph,
    Shape,
    classify_shape,
    from_edge_list,
    min_degree,
    subdivide_at_degree2,
)
from .graph6 import to_graph6
from .indices import (
    DEFAULT_ZERO_TOL,
    Sign,
    _check_tol,
    certified_sign,
    pairs_report,
)
from .linegraph import line_graph_pairs

if TYPE_CHECKING:  # a census process loads no universe module
    from .smallgraphs import GraphUniverse

DEFAULT_WITNESS_CAP = 100
MAX_NEAR_TIES = 50_000  # trees listed at most: each costs ~0.5 KB and 0.25 ms at order 17
P2_MAX_ORDER = 12  # largest order of verify_subdivision_invariance's random graphs


class ClassificationRecord(NamedTuple):
    """Sign census of the ABC-ABS gap over all trees of one order."""

    order: int
    total: int
    positive: int
    negative: int
    zero: int
    tol: float
    min_abs_gap: float
    min_abs_gap_graph6: str
    negative_witnesses: tuple[str, ...]  # capped; counts stay exact
    witness_cap: int

    @property
    def negative_ratio(self) -> float:
        return self.negative / self.total


class TieRecord(NamedTuple):
    graph6: str
    abc: float
    abs: float
    abs_gap: float


class VerificationReport(NamedTuple):
    statement: str
    universe: str
    checked: int
    hypothesis_holds: int
    conclusion_failures: tuple[str, ...]  # graph6 witnesses
    elapsed: float
    min_margin: float | None = None


# --- tree census ------------------------------------------------------

def _nearest(entries: list, k: int) -> tuple[list, int | float]:
    """The near-list entries ``(|gap|, class, trees)`` whose |gap| is at
    most that of the k-th tree, ascending, and that |gap| (inf while the
    entries hold fewer than k trees).  A |gap| is the class's |G|
    (``treeclasses.Tables.gap``), which orders and ties the classes as
    their double |gap| does
    (tests/test_survey.py::test_exact_and_double_gaps_rank_classes_alike).
    Classes are ``treeclasses`` packed ints.  A class met in several
    fold units has one entry per unit, all with its |gap|, so the k-th
    tree's |gap| is the same as over the merged classes."""
    entries = sorted(entries)
    trees = 0
    for a, _, count in entries:
        trees += count
        if trees >= k:
            return [e for e in entries if e[0] <= a], a
    return entries, math.inf


def _scan_partition(
    tables: treeclasses.Tables, parts: int, part: int, tol: float, near_k: int,
) -> tuple[Counter, list]:
    """Count and score the classes of the order of ``tables`` in every
    ``parts``-th fold unit (``treeclasses.Tables.units``), from unit
    ``part``: the trees by sign, and the near list of its near_k nearest
    trees (``_nearest``).

    This is what each census worker runs (``_census``).  One fold is
    live at a time: each class is signed as it comes, from its G outside
    the band of tol (``Terms.band``) and by ``Tables.sign`` inside it,
    and dropped.  A class enters the near list when its |G| is at most
    that of the near_k-th tree kept so far; no double is made here.  The
    merge of the near lists stays exact: a part keeps every entry whose
    |G| is at most that of the part's own near_k-th tree, which is never
    below the merged near_k-th tree's |G|.
    """
    signs: Counter = Counter()  # Sign -> trees, of the classes in the band
    positive = negative = 0  # trees of the classes outside it
    edge = tables.terms.band(tol)
    near: list = []
    bound = math.inf  # |G| of the near_k-th tree kept so far
    for unit in tables.units[part::parts]:
        # a class is met once per fold unit it comes from
        for cls, trees in tables.classes(unit).items():
            gap = tables.gap(cls)
            # Tables.sign's band test, inline: a call per class made this loop about 4x slower
            if gap > edge:
                positive += trees
            elif gap < -edge:
                negative += trees
            else:
                signs[tables.sign(cls, tol)] += trees
            if abs(gap) <= bound:
                near.append((abs(gap), cls, trees))
                if len(near) >= 2 * near_k:
                    near, bound = _nearest(near, near_k)
    signs.update({Sign.POSITIVE: positive, Sign.NEGATIVE: negative})
    return signs, _nearest(near, near_k)[0]


def _witnesses(tables: treeclasses.Tables, tol: float, cap: int) -> list[tuple[int, ...]]:
    """The first ``cap`` trees of the order of ``tables``, in stream
    order, whose census sign at ``tol`` is negative.  The stream stops
    at the cap-th (and is not started for a cap of 0).

    The stream leaves out every block of trees with one first subtree
    that ``Tables.positive_block`` proves holds no tree signed negative
    at any tol: at orders 3..10, where every gap is positive, it
    streams no tree.  A streamed tree is signed by its class: each class
    met is signed once (``Tables.sign``), and the memo holds only the
    classes of the streamed trees."""
    found: list[tuple[int, ...]] = []
    if cap:
        # a memo, not the band test inline, which certifies each in-band tree again: orders
        # 11..16 took 1.01 vs 1.98 s at tol 0.5, 0.114 vs 0.157 s at 0.02 (2-CPU host, 1 CPU)
        negative: dict[int, bool] = {}  # class -> its sign is negative
        for seq in treegen.free_tree_sequences(tables.n, skip=tables.positive_block):
            cls = tables.class_of(seq)
            neg = negative.get(cls)
            if neg is None:
                neg = negative[cls] = tables.sign(cls, tol) is Sign.NEGATIVE
            if neg:
                found.append(seq)
                if len(found) == cap:
                    break
        tables.drop_stream_memos()
    return found


def _start_fold(args: tuple) -> tuple[int, int]:
    """Fork a child that writes ``_scan_partition(*args)``, pickled, to
    a pipe and exits, by ``os._exit``: 0 when it is written, 1 on any
    error.  Returns the child's pid and the read end of its pipe.

    The child shares this process's ``Tables`` copy-on-write, and it
    runs no exit handler and flushes no buffer of this process's files.
    """
    import pickle

    r, w = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(r)
                with open(w, "wb", closefd=False) as out:
                    pickle.dump(_scan_partition(*args), out, pickle.HIGHEST_PROTOCOL)
                code = 0
            finally:
                os._exit(code)
    except BaseException:
        os.close(r)
        raise
    finally:
        os.close(w)
    return pid, r


def _census(
    tables: treeclasses.Tables, tol: float, workers: int, near_k: int, witness_cap: int = 0,
) -> tuple[Counter, list, list[tuple[int, ...]]]:
    """The class census of the order of ``tables``, as trees by sign and
    a near list, and its first ``witness_cap`` negative trees in stream
    order, found by this process's witness pass for any worker count.

    With one part (one worker, one CPU, or no ``os.fork``) this process
    folds every unit too, from the same ``tables``.  With more, one
    forked child per part, and so no more than CPUs, takes the fold
    units in turn (``_start_fold``) while this process runs the witness
    pass.  The merge reads entries, not parts, so the result does not
    depend on the worker count.  A child that dies raises
    ChildProcessError.  No child outlives the call, whatever it raises.
    """
    parts = min(workers, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    if parts == 1:
        partials = [_scan_partition(tables, 1, 0, tol, near_k)]
        witnesses = _witnesses(tables, tol, witness_cap)
    else:
        # imported here: every verify and near-ties process imports this module
        import pickle
        import signal

        children = []  # (pid, read end of its pipe), by part
        codes = []  # exit codes of the children reaped, by part
        try:
            # fork is safe here: a census process starts no thread
            for part in range(parts):
                children.append(_start_fold((tables, parts, part, tol, near_k)))
            witnesses = _witnesses(tables, tol, witness_cap)
            results = []
            for _, r in children:
                with open(r, "rb", closefd=False) as f:
                    results.append(f.read())
            for pid, _ in children:
                codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        finally:
            for part, (pid, r) in enumerate(children):
                os.close(r)
                if part >= len(codes):  # not reaped
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
        for part, code in enumerate(codes):
            if code:
                how = (f"was killed by {signal.Signals(-code).name}" if code < 0
                       else f"exited with status {code}")
                raise ChildProcessError(f"a census worker died: part {part} {how}")
        partials = [pickle.loads(data) for data in results]
    signs = sum((s for s, _ in partials), Counter())
    near = _nearest([e for _, part_near in partials for e in part_near], near_k)[0]
    return signs, near, witnesses


def _near_ties(tables: treeclasses.Tables, near: list, k: int) -> list[TieRecord]:
    """The k trees of the near list's classes, listed from the order's
    ``tables``, with the smallest |gap|; equal gaps in stream order,
    which is ascending graph6 order
    (tests/test_treegen.py::test_stream_in_ascending_graph6_order).
    The trees are ranked by their classes' |G|, and a printed
    row's ABC, ABS and |gap| are the doubles of its class's
    ``pairs_report``, made once per printed class."""
    classes = {cls: a for a, cls, _ in near}
    rows = [(a, seq, cls) for cls, a in classes.items() for seq in tables.expand(cls)]
    rows.sort(key=lambda r: r[1], reverse=True)  # the stream's order
    rows.sort(key=lambda r: r[0])
    reports = {cls: pairs_report(tables.pairs(cls)) for cls in {r[2] for r in rows[:k]}}
    ties = []
    for _, seq, cls in rows[:k]:
        r = reports[cls]
        ties.append(TieRecord(treegen.sequence_to_graph6(seq), r.abc, r.abs, abs(r.gap)))
    return ties


def classify_trees(
    n: int,
    tol: float = DEFAULT_ZERO_TOL,
    workers: int = 1,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> ClassificationRecord:
    """Full sign census over all free trees of order n.

    The result is independent of the worker count.
    """
    if n < 3:
        raise ValueError(f"census needs order >= 3, got {n}")
    treegen.check_order(n)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if witness_cap < 0:
        raise ValueError(f"witness cap must be >= 0, got {witness_cap}")
    _check_tol(tol)
    tables = treeclasses.Tables(n)  # the folds, witness pass and near-tie listing share it
    signs, near, witnesses = _census(tables, tol, workers, 1, witness_cap=witness_cap)
    best = _near_ties(tables, near, 1)[0]
    return ClassificationRecord(
        order=n,
        total=signs.total(),
        positive=signs[Sign.POSITIVE],
        negative=signs[Sign.NEGATIVE],
        zero=signs[Sign.ZERO_WITHIN_TOL],
        tol=tol,
        min_abs_gap=best.abs_gap,
        min_abs_gap_graph6=best.graph6,
        negative_witnesses=tuple(treegen.sequence_to_graph6(seq) for seq in witnesses),
        witness_cap=witness_cap,
    )


def find_near_ties(n: int, top_k: int) -> list[TieRecord]:
    """The top_k trees of order n with the smallest |ABC - ABS|,
    ascending; ties broken by graph6 string.  More than MAX_NEAR_TIES
    trees to list is a ValueError, raised before any tree is made."""
    if n < 3:
        raise ValueError(f"near-tie search needs order >= 3, got {n}")
    treegen.check_order(n)
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    tables = treeclasses.Tables(n)
    near = _census(tables, DEFAULT_ZERO_TOL, 1, min(top_k, MAX_NEAR_TIES + 1))[1]
    if min(top_k, sum(trees for _, _, trees in near)) > MAX_NEAR_TIES:
        raise ValueError(f"top_k {top_k} would list more than {MAX_NEAR_TIES} trees")
    return _near_ties(tables, near, top_k)


# --- statement verifiers ----------------------------------------------

class Statement(NamedTuple):
    """A statement checked graph by graph: for every graph of the
    universe that meets ``hypothesis``, the degree pairs that ``pairs``
    reads from it (its own edges', or its line graph's) must meet
    ``conclusion``."""

    name: str
    hypothesis: Callable[[Graph], bool]
    pairs: Callable[[Graph], list[tuple[int, int]]]
    conclusion: Callable[[Graph, list[tuple[int, int]], float], bool]  # (graph, pairs, tol)
    min_order: int  # smallest internal universe order the CLI checks
    reports_margin: bool  # report the smallest -gap over the hypothesis graphs


def _min_degree2(g: Graph) -> bool:
    return g.n >= 3 and min_degree(g) >= 2


def _zero_exactly_on_cycles(g: Graph, pairs: list, tol: float) -> bool:
    sign = certified_sign(pairs, tol)
    return (sign is not Sign.POSITIVE
            and (sign is Sign.ZERO_WITHIN_TOL) == (classify_shape(g) is Shape.CYCLE))


def _line_graph_root(k: Graph) -> bool:
    return k.n >= 5 and classify_shape(k) not in (Shape.PATH, Shape.CYCLE)


def _gap_negative(g: Graph, pairs: list, tol: float) -> bool:
    return certified_sign(pairs, tol) is Sign.NEGATIVE


def _bounded_pendents(g: Graph) -> bool:
    """At least one edge, and at most floor(m/2) pendent vertices."""
    return g.m >= 1 and g.degrees.count(1) <= g.m // 2


def bounded_pendents_no_degree2(g: Graph) -> bool:
    """t2 hypothesis: at least one edge, pendent count <= floor(m/2),
    and no vertex of degree 2."""
    return _bounded_pendents(g) and 2 not in g.degrees


def bounded_pendents_isolated_degree2(g: Graph) -> bool:
    """t3 hypothesis: at least one edge, pendent count <= floor(m/2),
    and no degree-2 vertex has a neighbor of degree 2, 3, or 4."""
    deg = g.degrees
    return _bounded_pendents(g) and not any(
        d == 2 and any(deg[w] in (2, 3, 4) for w in g.adj[v]) for v, d in enumerate(deg))


STATEMENTS = {
    s.name: s
    for s in (
        # p1: min degree >= 2 forces gap <= 0, zero exactly on cycles
        Statement("p1", _min_degree2, Graph.edge_degree_pairs, _zero_exactly_on_cycles, 1,
                  False),
        # t1: the line graph of a connected root of order >= 5, other than
        # a path or cycle, has ABS > ABC
        Statement("t1", _line_graph_root, line_graph_pairs, _gap_negative, 5, True),
        # t2: at most floor(m/2) pendent vertices and no degree-2 vertex
        # force ABS > ABC
        Statement("t2", bounded_pendents_no_degree2, Graph.edge_degree_pairs, _gap_negative,
                  1, True),
        # t3: at most floor(m/2) pendent vertices and no degree-2 vertex
        # with a neighbor of degree 2, 3 or 4 force ABS > ABC
        Statement("t3", bounded_pendents_isolated_degree2, Graph.edge_degree_pairs,
                  _gap_negative, 1, True),
    )
}


def verify_statement(
    statement: Statement,
    universes: Sequence[GraphUniverse],
    tol: float = DEFAULT_ZERO_TOL,
) -> VerificationReport:
    """Check ``statement`` on every graph of ``universes`` at ``tol``,
    which must be finite and above 0.

    The graphs are taken to be connected, as every universe checks when
    it is built or loaded, and so is the line graph of a connected root:
    the pairs are scored with no connectivity search."""
    _check_tol(tol)
    t0 = time.perf_counter()
    checked = holds = 0
    failures = []
    min_margin = None
    for u in universes:
        for g in u:
            checked += 1
            if not statement.hypothesis(g):
                continue
            holds += 1
            pairs = statement.pairs(g)
            if statement.reports_margin:
                gap = pairs_report(pairs).gap
                if min_margin is None or -gap < min_margin:
                    min_margin = -gap
            if not statement.conclusion(g, pairs, tol):
                failures.append(to_graph6(g))
    return VerificationReport(
        statement=statement.name,
        universe=", ".join(f"{u.source}:n={u.order}({len(u)})" for u in universes),
        checked=checked,
        hypothesis_holds=holds,
        conclusion_failures=tuple(failures),
        elapsed=time.perf_counter() - t0,
        min_margin=min_margin,
    )


def _random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(rng.randrange(i), i) for i in range(1, n)]


def _sorted_pairs(g: Graph) -> list[tuple[int, int]]:
    """The degree pairs of ``g``'s edges, each as (min, max), sorted."""
    return sorted((a, b) if a <= b else (b, a) for a, b in g.edge_degree_pairs())


def verify_subdivision_invariance(trials: int = 10_000, seed: int = 0) -> VerificationReport:
    """p2: inserting a vertex on an edge at a degree-2 vertex keeps the
    gap fixed.  Randomized trees and unicyclic graphs, seeded.

    Each trial is decided exactly, with no tolerance: the subdivided
    graph's degree pairs must be the original's plus one (2, 2), whose
    ABC and ABS terms are both sqrt(1/2).  It is the one pair with
    a + b >= 3 that adds 0 to the gap: ab = a + b means (a-1)(b-1) = 1."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    t0 = time.perf_counter()
    checked = 0
    failures = []
    while checked < trials:
        n = rng.randint(3, P2_MAX_ORDER)
        edges = _random_tree_edges(rng, n)
        if rng.random() < 0.5:
            tree = set(edges)  # each edge is (parent, child), parent < child
            non_edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree
            ]
            if non_edges:
                edges.append(rng.choice(non_edges))
        g = from_edge_list(n, edges)
        deg2 = [v for v in range(n) if g.degrees[v] == 2]
        if not deg2:
            continue
        checked += 1
        x = rng.choice(deg2)
        w = rng.choice(g.adj[x])
        subdivided = subdivide_at_degree2(g, x, (x, w))
        if _sorted_pairs(subdivided) != sorted([*_sorted_pairs(g), (2, 2)]):
            failures.append(to_graph6(g))
    return VerificationReport(
        statement="p2",
        universe=f"seeded random trees/unicyclic, seed={seed}, trials={trials}",
        checked=checked,
        hypothesis_holds=checked,
        conclusion_failures=tuple(failures),
        elapsed=time.perf_counter() - t0,
    )
