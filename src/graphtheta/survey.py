"""Census and verification engine.

Reproduces the tree censuses (sign of the ABC-ABS gap per order, near
ties), and empirically verifies the structural statements over
enumerated universes: the min-degree-2 bound (p1), subdivision
invariance of the gap (p2), line graphs (t1), and the two
pendent-count hypotheses (t2, t3).
"""

from __future__ import annotations

import math
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    certified_sign,
    gap_extended_precision,
    index_report,
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
class _Census:
    """What the class census keeps, per part or merged.

    Classes are ``treeclasses`` packed ints.  Trees are made only for the
    classes a view finally reports, and graph6 only for those trees.
    """

    signs: Counter = field(default_factory=Counter)  # Sign -> trees
    # class -> [|gap|, trees, abc, abs] of every class whose |gap| is at
    # most that of the near_k-th tree, ranked by |gap|
    near: dict = field(default_factory=dict)

    def add(self, other: "_Census") -> None:
        self.signs += other.signs
        for cls, (a, trees, abc, abs_) in other.near.items():
            self.add_near(cls, a, trees, abc, abs_)

    def add_near(self, cls: int, a: float, trees: int, abc: float, abs_: float) -> None:
        if cls in self.near:  # one class can come from several fold units
            self.near[cls][1] += trees
        else:
            self.near[cls] = [a, trees, abc, abs_]

    def trim(self, k: int) -> float:
        """Drop the classes ranked after the k-th tree; return that
        tree's |gap| (inf while fewer than k trees are kept)."""
        trees = 0
        for a, count, _, _ in sorted(self.near.values()):
            trees += count
            if trees >= k:
                for cls in [c for c, v in self.near.items() if v[0] > a]:
                    del self.near[cls]
                return a
        return math.inf


def _scored(tables: treeclasses.Tables, units: list[int], tol: float):
    """(class, trees, abc, abs, sign at tol) for every class of the
    given fold units, one fold live at a time.  A class is yielded once
    per fold unit it comes from."""
    for unit in units:
        for cls, trees in tables.classes(unit).items():
            yield (cls, trees, *tables.score(cls, tol))


def _scan_partition(args) -> _Census:
    """Count and score the classes of order n in every ``parts``-th fold
    unit (``treeclasses.Tables.units``), from unit ``part``.

    This is the census pool's entry point.  One fold is live at a time:
    each class is scored as it comes, with one certified sign, and
    dropped.  The merge of the near classes stays exact: a part keeps
    every class whose |gap| is at most that of the part's own near_k-th
    tree, which is never below the merged near_k-th tree's |gap|.
    """
    n, parts, part, tol, near_k = args
    tables = treeclasses.Tables(n)
    c = _Census()
    bound = math.inf  # |gap| of the near_k-th tree kept so far
    for cls, trees, abc, abs_, sign in _scored(tables, tables.units[part::parts], tol):
        c.signs[sign] += trees
        a = abs(abc - abs_)
        if a <= bound:
            c.add_near(cls, a, trees, abc, abs_)
            if len(c.near) >= 2 * near_k:
                bound = c.trim(near_k)
    c.trim(near_k)
    return c


def _witnesses(n: int, tol: float, cap: int) -> list[tuple[int, ...]]:
    """The first ``cap`` trees of order n, in stream order, whose census
    sign at ``tol`` is negative.  The stream stops at the cap-th (and is
    not started for a cap of 0).

    A tree is signed by its class: each class met is scored once, and
    the memo holds only the classes of the streamed prefix."""
    found: list[tuple[int, ...]] = []
    if cap:
        tables = treeclasses.Tables(n)
        negative: dict[int, bool] = {}  # class -> its sign is negative
        for seq in treegen.free_tree_sequences(n):
            cls = tables.class_of(seq)
            neg = negative.get(cls)
            if neg is None:
                neg = negative[cls] = tables.score(cls, tol)[2] is Sign.NEGATIVE
            if neg:
                found.append(seq)
                if len(found) == cap:
                    break
    return found


def _census(
    n: int, tol: float, workers: int, near_k: int, witness_cap: int = 0,
) -> tuple[_Census, list[tuple[int, ...]]]:
    """The class census of order n, and its first ``witness_cap``
    negative trees in stream order.

    With one worker the census comes first, so the witness pass stops
    at the last negative tree (and is not started when there is none).
    With several workers, the pool's parts, one per process and so no
    more than CPUs, take the fold units in turn while this process runs
    the witness pass, up to the cap.  The merge is keyed by class, so
    the result does not depend on the worker count.  A pool worker that
    dies raises ChildProcessError.
    """
    parts = min(workers, os.cpu_count() or 1)
    jobs = [(n, parts, part, tol, near_k) for part in range(parts)]
    if workers == 1:
        partials = [_scan_partition(jobs[0])]
        negatives = partials[0].signs[Sign.NEGATIVE]
        witnesses = _witnesses(n, tol, min(witness_cap, negatives))
    else:
        # imported here: only a pool needs multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # the executor may fork all its processes at once: no more than CPUs
        try:
            with ProcessPoolExecutor(max_workers=parts) as pool:
                results = pool.map(_scan_partition, jobs)  # submitted here, read below
                witnesses = _witnesses(n, tol, witness_cap)
                partials = list(results)
        except BrokenProcessPool as exc:
            raise ChildProcessError(f"a census worker died: {exc}") from exc
    census = _Census()
    for p in partials:
        census.add(p)
    census.trim(near_k)
    return census, witnesses


def _near_ties(n: int, census: _Census, k: int) -> list[TieRecord]:
    """The k trees of the census's near classes with the smallest |gap|;
    equal gaps in stream order, which is ascending graph6 order
    (tests/test_treegen.py::test_stream_in_ascending_graph6_order)."""
    tables = treeclasses.Tables(n)
    rows = [(a, seq, abc, abs_) for cls, (a, _, abc, abs_) in census.near.items()
            for seq in tables.expand(cls)]
    rows.sort(key=lambda r: r[1], reverse=True)  # the stream's order
    rows.sort(key=lambda r: r[0])
    return [TieRecord(graph6=treegen.sequence_to_graph6(seq), abc=abc, abs=abs_, abs_gap=a)
            for a, seq, abc, abs_ in rows[:k]]


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
    census, witnesses = _census(n, tol, workers, 1, witness_cap=witness_cap)
    best = _near_ties(n, census, 1)[0]
    return ClassificationRecord(
        order=n,
        total=census.signs.total(),
        positive=census.signs[Sign.POSITIVE],
        negative=census.signs[Sign.NEGATIVE],
        zero=census.signs[Sign.ZERO_WITHIN_TOL],
        tol=tol,
        min_abs_gap=best.abs_gap,
        min_abs_gap_graph6=best.graph6,
        negative_witnesses=tuple(treegen.sequence_to_graph6(seq) for seq in witnesses),
        witness_cap=witness_cap,
    )


def find_near_ties(n: int, top_k: int) -> list[TieRecord]:
    """The top_k trees of order n with the smallest |ABC - ABS|,
    ascending; ties broken by graph6 string."""
    if n < 3:
        raise ValueError(f"near-tie search needs order >= 3, got {n}")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    return _near_ties(n, _census(n, DEFAULT_ZERO_TOL, 1, top_k)[0], top_k)


def near_zero_candidates(
    n: int, threshold: float = 1e-6
) -> list[tuple[str, float, float]]:
    """Trees of order n with |gap| <= threshold, with the gap re-evaluated
    at extended precision: (graph6, gap, gap_extended), in stream order."""
    if not 0 < threshold < math.inf:  # also false for NaN
        raise ValueError(f"threshold must be finite and positive, got {threshold}")
    tables = treeclasses.Tables(n)
    band = {}  # class -> (gap, gap_extended_precision)
    for cls, _, abc, abs_, _ in _scored(tables, tables.units, DEFAULT_ZERO_TOL):
        if abs(abc - abs_) <= threshold and cls not in band:
            band[cls] = (abc - abs_, gap_extended_precision(tables.pairs(cls)))
    rows = sorted(((seq, gap, hp) for cls, (gap, hp) in band.items()
                   for seq in tables.expand(cls)), reverse=True)
    return [(treegen.sequence_to_graph6(seq), gap, float(hp)) for seq, gap, hp in rows]


@dataclass(frozen=True)
class NegativeTreeResult:
    order: int
    graph: Graph
    graph6: str
    gap: float
    unique: bool


def smallest_negative_tree() -> NegativeTreeResult:
    """Census orders 3, 4, ... and return the first tree whose census
    sign is negative (ABC < ABS); among several, the smallest graph6
    string, which is the first in stream order.  The tree stream is
    started only at the first order whose census counts a negative
    tree."""
    for n in range(3, NEGATIVE_SEARCH_MAX_ORDER + 1):
        census, found = _census(n, DEFAULT_ZERO_TOL, 1, 1, witness_cap=1)
        if found:
            tables = treeclasses.Tables(n)
            abc, abs_, _ = tables.score(tables.class_of(found[0]), DEFAULT_ZERO_TOL)
            return NegativeTreeResult(
                order=n,
                graph=treegen.sequence_to_graph(found[0]),
                graph6=treegen.sequence_to_graph6(found[0]),
                gap=abc - abs_,
                unique=census.signs[Sign.NEGATIVE] == 1,
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
    # (graph, transformed graph, gap of the transformed graph, tol)
    conclusion: Callable[[Graph, Graph, float, float], bool]
    min_order: int  # smallest internal universe order the CLI checks
    reports_margin: bool  # report the smallest -gap over the hypothesis graphs
    tol: float  # zero tolerance when the caller gives none


def _min_degree2(g: Graph) -> bool:
    return g.n >= 3 and min_degree(g) >= 2


def _zero_exactly_on_cycles(g: Graph, h: Graph, gap: float, tol: float) -> bool:
    return gap <= tol and (abs(gap) <= tol) == (classify_shape(g) is Shape.CYCLE)


def _line_graph_root(k: Graph) -> bool:
    return k.n >= 5 and classify_shape(k) not in (Shape.PATH, Shape.CYCLE)


def _gap_negative(g: Graph, h: Graph, gap: float, tol: float) -> bool:
    return certified_sign(gap, h.edge_degree_pairs(), tol) is Sign.NEGATIVE


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
            if not statement.conclusion(g, h, gap, tol):
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
