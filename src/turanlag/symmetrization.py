"""Link-equality classes, vertex cloning, and the symmetrization driver.

Two vertices are equivalent when their links coincide (equivalent vertices are
automatically nonadjacent).  Symmetrizing v to u replaces v's edges with
clones of u's link, which merges v's class into u's, so the driver
terminates: the class count strictly decreases each round.  One driver
serves both entry points: it follows every round with minimum-degree vertex
deletion until the graph is dense at the given threshold, with one exception
rule: when the minimum-degree vertex sits in the class that just received
clones, a donor is deleted instead (while any remain).  ``run_plain`` is that
driver at threshold 0, where no vertex is ever deleted.

The driver, ``symmetrize`` and the trace replay keep links[v], the set of
e - {v} over the live edges through v, next to the edge set, and update both
as edges go and come; a degree is len(links[v]), and the live vertices are
the keys of links.  One helper clones (walking the donors' links drops every
edge through a donor, then each donor gains {w} + D for D in u's link) and
one deletes a vertex, so the driver and its replay share both.

Every run returns a replayable trace; replaying a trace against the input
reproduces the output bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .hypergraph import Hypergraph, VertexSet, blowup

__all__ = [
    "SymmetrizationStep",
    "SymmetrizationTrace",
    "SymmetrizationOutcome",
    "CoreRepresentatives",
    "equivalence_classes",
    "symmetrize",
    "core_representatives",
    "is_alpha_dense",
    "run_plain",
    "run_with_cleaning",
    "replay_trace",
    "intermediate_graphs",
    "is_blowup_of_quotient",
]


@dataclass(frozen=True)
class SymmetrizationStep:
    kind: str                     # "symmetrize" | "clean"
    donor_class: tuple[int, ...]  # class whose members were cloned (empty for clean)
    target: int                   # receiving vertex (-1 for clean steps)
    removed: tuple[int, ...]      # vertices deleted this round (empty for symmetrize)
    edges_before: int
    edges_after: int
    flagged: bool = False         # exception rule wanted a donor, but all were gone

    def to_dict(self) -> dict:
        return {**asdict(self), "donor_class": list(self.donor_class),
                "removed": list(self.removed)}


@dataclass(frozen=True)
class SymmetrizationTrace:
    steps: tuple[SymmetrizationStep, ...] = ()

    def to_dict(self) -> dict:
        return {"steps": [s.to_dict() for s in self.steps]}


@dataclass(frozen=True)
class SymmetrizationOutcome:
    result: Hypergraph       # compacted onto the surviving vertices
    trace: SymmetrizationTrace
    kept: tuple[int, ...]    # surviving original labels, ascending


# -- equivalence classes -------------------------------------------------


def _add_edge(edges: set, links: dict, e: frozenset) -> None:
    edges.add(e)
    for x in e:
        links[x].add(e - {x})


def _link_index(G: Hypergraph) -> tuple[set, dict]:
    """The edges of G as frozensets, and links[v], the set of e - {v} over
    the edges e through v, for every vertex."""
    edges: set = set()
    links: dict[int, set] = {v: set() for v in range(G.n)}
    for e in G.edges:
        _add_edge(edges, links, frozenset(e))
    return edges, links


def equivalence_classes(G: Hypergraph) -> list[VertexSet]:
    """Partition of the vertices into classes of identical links, sorted by
    smallest member."""
    _, links = _link_index(G)
    groups: dict = {}
    for v in range(G.n):
        groups.setdefault(frozenset(links[v]), []).append(v)
    return sorted((tuple(sorted(g)) for g in groups.values()), key=lambda c: c[0])


def symmetrize(G: Hypergraph, v: int, u: int) -> Hypergraph:
    """Make v a clone of u: drop v's edges, add {v} + D for D in the link of u.

    Requires {u, v} uncovered; edges through both u and v never arise because
    u's link avoids v by nonadjacency.
    """
    if u == v:
        raise ValueError("symmetrize needs two distinct vertices")
    for w in (u, v):
        if not 0 <= w < G.n:
            raise ValueError(f"vertex {w} out of range")
    if (min(u, v), max(u, v)) in G.covered_pairs:
        raise ValueError(f"cannot symmetrize covered pair {{{u}, {v}}}")
    edges, links = _link_index(G)
    _clone(edges, links, (v,), u)
    return Hypergraph(G.n, G.r, edges)


class CoreRepresentatives(NamedTuple):
    S: VertexSet
    quotient: Hypergraph
    sizes: tuple[int, ...]


def core_representatives(G: Hypergraph) -> CoreRepresentatives:
    """Smallest-label representative per class, the induced graph on them
    relabeled 0..|S|-1, and the class sizes aligned with S."""
    classes = equivalence_classes(G)
    S = tuple(c[0] for c in classes)
    return CoreRepresentatives(S, G.induced(S, relabel=True),
                               tuple(len(c) for c in classes))


def is_blowup_of_quotient(G: Hypergraph) -> bool:
    """Check the fixed-point contract: relabeling classes onto consecutive
    blocks turns G into exactly the blowup of its representative quotient."""
    classes = equivalence_classes(G)
    quotient = G.induced(tuple(c[0] for c in classes), relabel=True)
    mapping = {v: i for i, v in enumerate(v for c in classes for v in c)}
    return (blowup(quotient, tuple(len(c) for c in classes)).edges
            == G.relabel(mapping).edges)


# -- density threshold ---------------------------------------------------


def is_alpha_dense(G: Hypergraph, alpha) -> bool:
    """Minimum degree at least alpha * C(n-1, r-1), compared exactly.

    Vacuously true when n < r (the threshold is zero) and for n = 0.
    """
    af = Fraction(alpha)
    if G.n == 0:
        return True
    dmin = min(G.degrees)
    return Fraction(dmin) >= af * math.comb(G.n - 1, G.r - 1)


# -- drivers --------------------------------------------------------------


def _select_pair(links: dict):
    """Deterministic choice of a nonadjacent nonequivalent pair (u, v) with
    d(u) >= d(v) among the live vertices (the keys of links): maximize d(u),
    then smallest u, then smallest v."""
    deg = {v: len(lk) for v, lk in links.items()}
    order = sorted(links)
    unpaired: set[int] = set()  # equivalent to a u that found no v
    for u in sorted(order, key=lambda t: -deg[t]):
        if u in unpaired:
            continue
        neighbours = set().union(*links[u])  # v with {u, v} covered
        for v in order:
            if v == u or deg[v] > deg[u] or v in neighbours:
                continue
            if links[u] == links[v]:
                unpaired.add(v)
                continue
            return u, v
    return None


def _compact(edges: set, alive: Iterable[int], r: int) -> tuple[Hypergraph, tuple[int, ...]]:
    kept = tuple(sorted(alive))
    pos = {v: i for i, v in enumerate(kept)}
    return Hypergraph(len(kept), r, [[pos[v] for v in e] for e in edges]), kept


def _drop_vertex_edges(edges: set, links: dict, w: int) -> None:
    """Remove every edge through w from edges and from the links."""
    ws = frozenset((w,))
    for D in links[w]:
        e = D | ws
        edges.discard(e)
        for x in D:
            links[x].discard(e - {x})
    links[w].clear()


def _clone(edges: set, links: dict, donors: Iterable[int], u: int) -> None:
    """Replace the edges through each donor w by {w} + D for D in the link
    of u (taken before any edge goes), in edges and in the links."""
    link_u = tuple(links[u])
    for w in donors:
        _drop_vertex_edges(edges, links, w)
    for w in donors:
        links[w].update(link_u)
        ws = frozenset((w,))
        for D in link_u:
            e = D | ws
            edges.add(e)
            for x in D:
                links[x].add(e - {x})


def _delete_vertex(edges: set, links: dict, w: int) -> None:
    _drop_vertex_edges(edges, links, w)
    del links[w]


def _run(G: Hypergraph, af: Fraction) -> SymmetrizationOutcome:
    """The one driver: cloning rounds, each followed by minimum-degree
    cleaning at threshold af (no degree is below a zero threshold); stops
    when no pair is left and nothing was cleaned.  The live vertices are the
    keys of links."""
    edges, links = _link_index(G)
    steps: list[SymmetrizationStep] = []
    while links:
        sel = _select_pair(links)
        donors: tuple[int, ...] = ()
        protected: set[int] = set()
        if sel is not None:
            u, v = sel
            donors = tuple(sorted(w for w in links if links[w] == links[v]))
            protected = {w for w in links if links[w] == links[u]}
            before = len(edges)
            _clone(edges, links, donors, u)
            steps.append(SymmetrizationStep("symmetrize", donors, u, (),
                                            before, len(edges)))
        removed: list[int] = []
        flagged = False
        before = len(edges)
        while links:
            victim = min(links, key=lambda t: (len(links[t]), t))
            if len(links[victim]) >= af * math.comb(len(links) - 1, G.r - 1):
                break
            if victim in protected:
                live_donors = [w for w in donors if w in links]
                if live_donors:
                    victim = live_donors[0]
                else:
                    flagged = True
            _delete_vertex(edges, links, victim)
            removed.append(victim)
        if removed:
            steps.append(SymmetrizationStep("clean", (), -1,
                                            tuple(sorted(removed)),
                                            before, len(edges), flagged))
        elif sel is None:
            break
    result, kept = _compact(edges, links, G.r)
    return SymmetrizationOutcome(result, SymmetrizationTrace(tuple(steps)), kept)


def run_plain(G: Hypergraph) -> SymmetrizationOutcome:
    """Repeat: pick a nonadjacent nonequivalent pair (u, v) with d(u) >= d(v)
    and clone v's whole class to u, until no such pair remains.

    At the fixed point the representative quotient covers pairs and the graph
    is a blowup of it; the edge count never decreases.  This is the cleaning
    driver at alpha = 0.
    """
    return _run(G, Fraction(0))


def run_with_cleaning(G: Hypergraph, alpha) -> SymmetrizationOutcome:
    """Symmetrization rounds interleaved with minimum-degree cleaning.

    After each cloning round, while the surviving graph is below the density
    threshold, delete the minimum-degree vertex (ties by label) -- except that
    when that vertex sits in the class that received the clones, the
    smallest surviving donor is deleted instead; rounds where the exception
    fired with no donors left are flagged.  A sparse fixed point (no pair
    left) is cleaned the same way, without the exception.  The output is
    empty or dense at the threshold.  alpha = 0 never cleans: that is
    ``run_plain``.
    """
    af = Fraction(alpha)
    if not 0 <= af <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return _run(G, af)


# -- trace replay ----------------------------------------------------------


def _apply_step(edges: set, links: dict, step: SymmetrizationStep) -> None:
    if step.kind == "symmetrize":
        _clone(edges, links, step.donor_class, step.target)
    else:
        for z in step.removed:
            _delete_vertex(edges, links, z)


def replay_trace(G: Hypergraph, trace: SymmetrizationTrace) -> SymmetrizationOutcome:
    """Mechanically apply recorded steps to the input; reproduces the original
    run's output exactly."""
    edges, links = _link_index(G)
    for step in trace.steps:
        _apply_step(edges, links, step)
    result, kept = _compact(edges, links, G.r)
    return SymmetrizationOutcome(result, trace, kept)


def intermediate_graphs(G: Hypergraph, trace: SymmetrizationTrace):
    """Yield the graph after each recorded step, on the original label space
    (deleted vertices simply lose their edges)."""
    edges, links = _link_index(G)
    for step in trace.steps:
        _apply_step(edges, links, step)
        yield Hypergraph(G.n, G.r, edges)
