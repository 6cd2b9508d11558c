"""Builders for the named extremal configurations.

Multipartite Turan hypergraphs, generalized triangles, expanded cliques with
an embedded pattern (which subsume expanded cliques and fans), edge
enlargements of 2-graphs, and the family-membership certificate search.
Whether a graph is free of the sigma or the cancellative family is asked of
``extremal.SigmaPredicate`` and ``extremal.CancellativePredicate``.  A
handful of small-graph generators (paths, stars, brooms, random trees, random
hypergraphs) round out the module as conveniences for the CLI and the test
corpora.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .hypergraph import (
    Embedding,
    Hypergraph,
    VertexSet,
    _base_plan,
    _bits,
    _cliques,
    _edge_masks,
    _embed,
    _pair_masks,
)

__all__ = [
    "PartitionedHypergraph",
    "ExpandedClique",
    "turan_hypergraph",
    "generalized_triangle",
    "expanded_clique_with_embedded",
    "enlargement",
    "contains_family_member",
    "complete_hypergraph",
    "single_edge",
    "path_graph",
    "star_graph",
    "broom_graph",
    "random_tree",
    "random_hypergraph",
]


@dataclass(frozen=True)
class PartitionedHypergraph:
    """A hypergraph together with an explicit vertex partition."""

    graph: Hypergraph
    parts: tuple[VertexSet, ...]


def turan_hypergraph(n: int, r: int, num_parts: int) -> PartitionedHypergraph:
    """Complete num_parts-partite r-graph on n vertices, near-equal parts.

    Parts are consecutive blocks with sizes ceil(n/l) or floor(n/l), larger
    parts first; edges are exactly the r-sets meeting r distinct parts.
    """
    if r < 1:
        raise ValueError("uniformity must be at least 1")
    if num_parts < r:
        raise ValueError(f"need at least r={r} parts, got {num_parts}")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    q, rem = divmod(n, num_parts)
    sizes = [q + 1] * rem + [q] * (num_parts - rem)
    parts: list[VertexSet] = []
    start = 0
    for s in sizes:
        parts.append(tuple(range(start, start + s)))
        start += s
    edges = []
    for pick in itertools.combinations(range(num_parts), r):
        # pick is sorted and the parts ascend, so every transversal is sorted
        edges.extend(itertools.product(*(parts[i] for i in pick)))
    return PartitionedHypergraph(Hypergraph._trusted(n, r, edges), tuple(parts))


def generalized_triangle(r: int) -> Hypergraph:
    """The three-edge r-graph on 2r-1 vertices: two edges sharing r-1 vertices
    plus a third edge through their symmetric difference."""
    if r < 2:
        raise ValueError("generalized triangle needs r >= 2")
    e1 = tuple(range(r))
    e2 = tuple(range(r - 1)) + (r,)
    e3 = (r - 1,) + tuple(range(r, 2 * r - 1))
    return Hypergraph._trusted(2 * r - 1, r, [e1, e2, e3])


@dataclass(frozen=True)
class ExpandedClique:
    """Core of p vertices with an embedded pattern: every core pair not covered
    by the pattern receives a private padding edge through r-2 fresh vertices."""

    graph: Hypergraph
    core: VertexSet
    pads: dict  # (i, j) uncovered core pair -> tuple of r-2 fresh vertices


def expanded_clique_with_embedded(F: Hypergraph, p: int) -> ExpandedClique:
    """Build the expanded p-clique with embedded F.

    F occupies vertices 0..n(F)-1; vertices n(F)..p-1 complete the core.  Pads
    are allocated in lexicographic order of the uncovered pairs, consecutively
    after vertex p-1, so the construction is deterministic and round-trippable.
    """
    if F.r < 2:
        raise ValueError("expanded clique needs uniformity >= 2")
    if p < F.n:
        raise ValueError(f"core size p={p} must be at least n(F)={F.n}")
    covered = F.covered_pairs
    uncovered = [
        (i, j)
        for i, j in itertools.combinations(range(p), 2)
        if (i, j) not in covered
    ]
    edges = [tuple(e) for e in F.edge_list]
    pads: dict[tuple[int, int], VertexSet] = {}
    nxt = p
    for i, j in uncovered:
        pad = tuple(range(nxt, nxt + F.r - 2))
        nxt += F.r - 2
        pads[(i, j)] = pad
        edges.append(tuple(sorted((i, j) + pad)))
    return ExpandedClique(Hypergraph._trusted(nxt, F.r, edges), tuple(range(p)), pads)


def enlargement(T: Hypergraph, r_target: int) -> Hypergraph:
    """Append one fixed set of r_target-2 fresh vertices to every edge of a
    2-graph; r_target=2 returns T itself."""
    if T.r != 2:
        raise ValueError("enlargement starts from a 2-graph")
    if r_target < 2:
        raise ValueError("target uniformity must be at least 2")
    d = tuple(range(T.n, T.n + r_target - 2))
    return Hypergraph._trusted(T.n + r_target - 2, r_target, [e + d for e in T.edge_list])


def contains_family_member(G: Hypergraph, F: Hypergraph, p: int) -> Optional[Embedding]:
    """Certificate that G contains a member of the family of F-expansions:
    a p-set C whose pairs are all covered in G and with a copy of F inside
    G[C].  Returns None when no member exists.

    Search: p-cliques of the covered-pair graph are enumerated in ascending
    vertex order (that is the binding constraint), then the embedding engine
    looks for F inside the clique.  The certificate records the first edge,
    in edge_list order, covering each core pair, so coverage is auditable
    even though it is checked in the host.
    """
    if F.r != G.r:
        raise ValueError(f"uniformity mismatch: pattern r={F.r}, host r={G.r}")
    if p < F.n:
        raise ValueError(f"core size p={p} must be at least n(F)={F.n}")
    if p > G.n:
        return None
    plans, edges, adj = (_base_plan(F),), _edge_masks(G), _pair_masks(G)
    for core in _cliques(adj, (1 << G.n) - 1, p):
        mapping = _embed(plans, (), edges, G.degrees, adj, _bits(core))
        if mapping is not None:
            covering = {pr: next(e for e in G.edge_list if pr[0] in e and pr[1] in e)
                        for pr in itertools.combinations(core, 2)}
            return Embedding(mapping, core, covering)
    return None


# -- small-graph generators (CLI and corpus conveniences) ---------------


def complete_hypergraph(m: int, r: int) -> Hypergraph:
    return Hypergraph._trusted(m, r, itertools.combinations(range(m), r))


def single_edge(r: int) -> Hypergraph:
    return Hypergraph._trusted(r, r, [tuple(range(r))])


def path_graph(k: int) -> Hypergraph:
    return Hypergraph(k, 2, [(i, i + 1) for i in range(k - 1)])


def star_graph(k: int) -> Hypergraph:
    return Hypergraph(k, 2, [(0, i) for i in range(1, k)])


def broom_graph(handle: int, leaves: int) -> Hypergraph:
    """Path on ``handle`` vertices with ``leaves`` extra leaves at its end."""
    if handle < 1:
        raise ValueError("handle must have at least one vertex")
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, handle + i) for i in range(leaves)]
    return Hypergraph(handle + leaves, 2, edges)


def random_tree(k: int, seed: int = 0) -> Hypergraph:
    """Uniform random labeled tree on k vertices (Prufer decode), seeded."""
    if k < 1:
        raise ValueError("tree needs at least one vertex")
    if k <= 2:
        return Hypergraph(k, 2, [(0, 1)] if k == 2 else [])
    rng = random.Random(seed)
    prufer = [rng.randrange(k) for _ in range(k - 2)]
    degree = [1] * k
    for v in prufer:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(k) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, w), max(u, w)))
    return Hypergraph(k, 2, edges)


def random_hypergraph(n: int, r: int, *, edge_count: Optional[int] = None,
                      density: Optional[float] = None, rng=None) -> Hypergraph:
    """Seeded random r-graph: either a fixed edge count (sampled without
    replacement) or independent edges at the given density."""
    if rng is None:
        rng = random.Random(0)
    elif isinstance(rng, int):
        rng = random.Random(rng)
    cands = list(itertools.combinations(range(n), r))
    if edge_count is not None:
        if edge_count > len(cands):
            raise ValueError("edge_count exceeds the number of possible edges")
        edges = rng.sample(cands, edge_count)
    elif density is not None:
        edges = [e for e in cands if rng.random() < density]
    else:
        raise ValueError("provide edge_count or density")
    return Hypergraph._trusted(n, r, edges)
