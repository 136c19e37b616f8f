"""Census and verification engine.

Reproduces the tree censuses (sign of the ABC-ABS gap per order, near
ties), and empirically verifies the structural statements over
enumerated universes: the min-degree-2 bound (p1), subdivision
invariance of the gap (p2), line graphs (t1), and the two
pendent-count hypotheses (t2, t3).
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import treegen
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
    gap_extended_precision,
    index_report,
    sign_of_gap,
)
from .linegraph import line_graph
from .smallgraphs import GraphUniverse

DEFAULT_WITNESS_CAP = 100
NEGATIVE_SEARCH_MAX_ORDER = 20  # smallest_negative_tree gives up past this order
P2_MAX_ORDER = 12  # largest order of verify_subdivision_invariance's random graphs


@dataclass(frozen=True)
class ClassificationRecord:
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


@dataclass(frozen=True)
class TieRecord:
    graph6: str
    abc: float
    abs: float
    abs_gap: float


@dataclass(frozen=True)
class VerificationReport:
    statement: str
    universe: str
    checked: int
    hypothesis_holds: int
    conclusion_failures: tuple[str, ...]  # graph6 witnesses
    elapsed: float
    min_margin: float | None = None

    @property
    def ok(self) -> bool:
        return not self.conclusion_failures


# --- tree census ------------------------------------------------------

@dataclass
class _Scan:
    """What one pass over the tree stream keeps, per partition or merged.

    Trees are held as level sequences with their stream index; graph6
    strings are made only for the trees a view finally reports.

    The stream is in ascending graph6 order, so among trees of equal
    |gap| the lower stream index has the smaller graph6 string.  It runs
    through level sequences in decreasing lexicographic order; where two
    first differ, the later one gives that vertex an earlier parent,
    which sets an earlier graph6 bit (checked by
    tests/test_treegen.py::test_stream_in_ascending_graph6_order).
    """

    positive: int = 0
    negative: int = 0
    zero: int = 0
    # (|gap|, index, sequence, abc, abs) of the near_k smallest, ascending
    near: list = field(default_factory=list)
    # (index, sequence) of the first witness_cap negative trees
    witnesses: list = field(default_factory=list)
    # (index, sequence, gap, gap_extended_precision) of every |gap| <= tol,
    # kept only when the caller asks (near_zero_candidates)
    rechecked: list = field(default_factory=list)


def _scan_partition(args) -> _Scan:
    """Score every ``parts``-th tree of order n, from stream index ``part``.

    This is the only loop over the tree stream in this module; every
    census view reads its result.
    """
    n, parts, part, tol, witness_cap, near_k, keep_rechecked = args
    s = _Scan()
    bound = float("inf")  # |gap| of the near_k-th tree kept so far
    idx = part
    for seq in treegen.partitioned_sequences(n, parts, part):
        abc, abs_ = treegen.abc_abs_sums(seq)
        gap = abc - abs_
        a = abs(gap)
        if a < bound:  # a later tree tied with the near_k-th ranks after it
            s.near.append((a, idx, seq, abc, abs_))
            if len(s.near) == 2 * near_k:
                s.near.sort()
                del s.near[near_k:]
                bound = s.near[-1][0]
        sign = sign_of_gap(gap, tol)
        if sign is Sign.ZERO_WITHIN_TOL:
            # re-verify at extended precision before counting as zero
            hp = gap_extended_precision(treegen.degree_pairs(seq))
            if keep_rechecked:
                s.rechecked.append((idx, seq, gap, float(hp)))
            if abs(hp) > tol:
                sign = Sign.POSITIVE if hp > 0 else Sign.NEGATIVE
            else:
                s.zero += 1
        if sign is Sign.POSITIVE:
            s.positive += 1
        elif sign is Sign.NEGATIVE:
            s.negative += 1
            if len(s.witnesses) < witness_cap:
                s.witnesses.append((idx, seq))
        idx += parts
    s.near.sort()
    del s.near[near_k:]
    return s


def _scan(
    n: int, tol: float, workers: int, witness_cap: int, near_k: int,
    keep_rechecked: bool = False,
) -> _Scan:
    """One pass over all free trees of order n.

    Partitions are index-strided slices of the deterministic stream and
    the merge orders everything by stream index, so the result does not
    depend on the worker count.
    """
    jobs = [(n, workers, part, tol, witness_cap, near_k, keep_rechecked)
            for part in range(workers)]
    if workers == 1:
        partials = [_scan_partition(jobs[0])]
    else:
        # the executor may fork all its processes at once: no more than CPUs
        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            partials = list(pool.map(_scan_partition, jobs))
    return _Scan(
        positive=sum(p.positive for p in partials),
        negative=sum(p.negative for p in partials),
        zero=sum(p.zero for p in partials),
        near=sorted(c for p in partials for c in p.near)[:near_k],
        witnesses=sorted(w for p in partials for w in p.witnesses)[:witness_cap],
        rechecked=sorted(r for p in partials for r in p.rechecked),
    )


def _graph6(seq: tuple[int, ...]) -> str:
    return to_graph6(treegen.sequence_to_graph(seq))


def _near_ties(scan: _Scan) -> list[TieRecord]:
    return [
        TieRecord(graph6=_graph6(seq), abc=abc, abs=abs_, abs_gap=a)
        for a, _, seq, abc, abs_ in scan.near
    ]


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
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if witness_cap < 0:
        raise ValueError(f"witness cap must be >= 0, got {witness_cap}")
    scan = _scan(n, tol, workers, witness_cap, 1)
    best = _near_ties(scan)[0]
    return ClassificationRecord(
        order=n,
        total=scan.positive + scan.negative + scan.zero,
        positive=scan.positive,
        negative=scan.negative,
        zero=scan.zero,
        tol=tol,
        min_abs_gap=best.abs_gap,
        min_abs_gap_graph6=best.graph6,
        negative_witnesses=tuple(_graph6(seq) for _, seq in scan.witnesses),
        witness_cap=witness_cap,
    )


def find_near_ties(n: int, top_k: int) -> list[TieRecord]:
    """The top_k trees of order n with the smallest |ABC - ABS|,
    ascending; ties broken by graph6 string."""
    if n < 3:
        raise ValueError(f"near-tie search needs order >= 3, got {n}")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    return _near_ties(_scan(n, DEFAULT_ZERO_TOL, 1, 0, top_k))


def near_zero_candidates(
    n: int, threshold: float = 1e-6
) -> list[tuple[str, float, float]]:
    """Trees of order n with |gap| <= threshold, with the gap re-evaluated
    at extended precision: (graph6, gap, gap_extended)."""
    scan = _scan(n, threshold, 1, 0, 1, keep_rechecked=True)
    return [(_graph6(seq), gap, hp) for _, seq, gap, hp in scan.rechecked]


@dataclass(frozen=True)
class NegativeTreeResult:
    order: int
    graph: Graph
    graph6: str
    gap: float
    unique: bool


def smallest_negative_tree(tol: float = DEFAULT_ZERO_TOL) -> NegativeTreeResult:
    """Scan orders 3, 4, ... and return the first tree whose census sign
    at ``tol`` is negative (ABC < ABS); among several, the smallest
    graph6 string, which is the first in stream order."""
    for n in range(3, NEGATIVE_SEARCH_MAX_ORDER + 1):
        scan = _scan(n, tol, 1, 1, 1)
        if scan.negative:
            seq = scan.witnesses[0][1]
            abc, abs_ = treegen.abc_abs_sums(seq)
            return NegativeTreeResult(
                order=n,
                graph=treegen.sequence_to_graph(seq),
                graph6=_graph6(seq),
                gap=abc - abs_,
                unique=scan.negative == 1,
            )
    raise RuntimeError(f"no negative tree found up to order {NEGATIVE_SEARCH_MAX_ORDER}")


# --- statement verifiers ----------------------------------------------

@dataclass(frozen=True)
class Statement:
    """A statement checked graph by graph: every graph of the universe
    that meets ``hypothesis`` must, after ``transform`` (None: the graph
    itself), have a gap that meets ``conclusion``."""

    name: str
    hypothesis: Callable[[Graph], bool]
    transform: Callable[[Graph], Graph] | None
    conclusion: Callable[[Graph, float, float], bool]  # (graph, gap, tol)
    min_order: int  # smallest internal universe order the CLI checks
    reports_margin: bool  # report the smallest -gap over the hypothesis graphs
    tol: float  # zero tolerance when the caller gives none


def _min_degree2(g: Graph) -> bool:
    return g.n >= 3 and min_degree(g) >= 2


def _zero_exactly_on_cycles(g: Graph, gap: float, tol: float) -> bool:
    return gap <= tol and (abs(gap) <= tol) == (classify_shape(g) is Shape.CYCLE)


def _line_graph_root(k: Graph) -> bool:
    return k.n >= 5 and classify_shape(k) not in (Shape.PATH, Shape.CYCLE)


def _gap_negative(g: Graph, gap: float, tol: float) -> bool:
    return gap < -tol


def bounded_pendents_no_degree2(g: Graph) -> bool:
    """t2 hypothesis: at least one edge, pendent count <= floor(m/2),
    and no vertex of degree 2."""
    if g.m < 1:
        return False
    pendents = sum(1 for d in g.degrees if d == 1)
    return pendents <= g.m // 2 and all(d != 2 for d in g.degrees)


def bounded_pendents_isolated_degree2(g: Graph) -> bool:
    """t3 hypothesis: at least one edge, pendent count <= floor(m/2),
    and no degree-2 vertex has a neighbor of degree 2, 3, or 4."""
    if g.m < 1:
        return False
    pendents = sum(1 for d in g.degrees if d == 1)
    if pendents > g.m // 2:
        return False
    for v in range(g.n):
        if g.degrees[v] == 2 and any(g.degrees[w] in (2, 3, 4) for w in g.adj[v]):
            return False
    return True


STATEMENTS = {
    s.name: s
    for s in (
        Statement("p1", _min_degree2, None, _zero_exactly_on_cycles, 1, False, 1e-12),
        # line_graph is looked up per call, so a wrapper installed on
        # survey.line_graph (perfbench/tracer.py) sees every call
        Statement("t1", _line_graph_root, lambda k: line_graph(k), _gap_negative, 5, True,
                  DEFAULT_ZERO_TOL),
        Statement("t2", bounded_pendents_no_degree2, None, _gap_negative, 1, True,
                  DEFAULT_ZERO_TOL),
        Statement("t3", bounded_pendents_isolated_degree2, None, _gap_negative, 1, True,
                  DEFAULT_ZERO_TOL),
    )
}


def verify_statement(
    statement: Statement,
    universes: GraphUniverse | Sequence[GraphUniverse],
    tol: float | None = None,
) -> VerificationReport:
    """Check ``statement`` on every graph of ``universes`` at ``tol``
    (None: the statement's own tolerance)."""
    if tol is None:
        tol = statement.tol
    if isinstance(universes, GraphUniverse):
        universes = [universes]
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
            h = g if statement.transform is None else statement.transform(g)
            gap = index_report(h).gap
            if statement.reports_margin and (min_margin is None or -gap < min_margin):
                min_margin = -gap
            if not statement.conclusion(g, gap, tol):
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


def verify_min_degree2(
    universes: GraphUniverse | Sequence[GraphUniverse],
    tol: float | None = None,
) -> VerificationReport:
    """p1: min degree >= 2 forces gap <= 0, zero exactly on cycles."""
    return verify_statement(STATEMENTS["p1"], universes, tol)


def verify_line_graphs(
    universes: GraphUniverse | Sequence[GraphUniverse],
    tol: float | None = None,
) -> VerificationReport:
    """t1: the line graph of any connected root of order >= 5 other
    than a path or cycle has ABS > ABC (gap strictly negative)."""
    return verify_statement(STATEMENTS["t1"], universes, tol)


def verify_no_degree2_bound(universes, tol: float | None = None) -> VerificationReport:
    """t2: the no-degree-2 / bounded-pendent hypothesis forces ABS > ABC."""
    return verify_statement(STATEMENTS["t2"], universes, tol)


def verify_isolated_degree2_bound(universes, tol: float | None = None) -> VerificationReport:
    """t3: the isolated-degree-2 / bounded-pendent hypothesis forces
    ABS > ABC."""
    return verify_statement(STATEMENTS["t3"], universes, tol)


def _random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(rng.randrange(i), i) for i in range(1, n)]


def verify_subdivision_invariance(
    trials: int = 10_000,
    seed: int = 0,
    tol: float = 1e-12,
) -> VerificationReport:
    """p2: inserting a vertex on an edge at a degree-2 vertex keeps the
    gap fixed.  Randomized trees and unicyclic graphs, seeded."""
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
            non_edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if (u, v) not in edges and (v, u) not in edges
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
        subdivided = index_report(subdivide_at_degree2(g, x, (x, w))).gap
        if abs(index_report(g).gap - subdivided) > tol:
            failures.append(to_graph6(g))
    return VerificationReport(
        statement="p2",
        universe=f"seeded random trees/unicyclic, seed={seed}, trials={trials}",
        checked=checked,
        hypothesis_holds=checked,
        conclusion_failures=tuple(failures),
        elapsed=time.perf_counter() - t0,
    )
