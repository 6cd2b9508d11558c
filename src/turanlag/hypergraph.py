"""r-uniform hypergraphs and the primitive operations everything else consumes.

Vertices are dense integer labels 0..n-1; isolated vertices are representable
(n may exceed the support of the edge set).  Edges are stored as sorted tuples
inside a frozenset, so membership tests are O(1) and every Hypergraph value is
immutable, hashable, and safe to share across threads.

Edges are validated once, where they enter the library: the public
constructor ``Hypergraph(n, r, edges)`` sorts, dedupes and range-checks
every edge, and ``hgio`` checks each parsed edge with its line.  Edge sets
the library built or checked itself go through the private
``Hypergraph._trusted``, which checks only n and r.
Its callers must pass edges that are sorted tuples of exactly r distinct ints
in 0..n-1; duplicates collapse as in any set.  The differential test in
``tests/test_properties.py`` holds every such producer to that contract.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

Edge = tuple[int, ...]
VertexSet = tuple[int, ...]

__all__ = [
    "Edge",
    "VertexSet",
    "Hypergraph",
    "Embedding",
    "falling_factorial",
    "blowup",
    "find_embedding",
    "max_matching",
    "kernel_degree",
]


def falling_factorial(m: int, r: int) -> int:
    """m(m-1)...(m-r+1); the empty product 1 when r = 0."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if m < r:
        raise ValueError(f"falling factorial needs m >= r, got m={m}, r={r}")
    return math.perm(m, r)


def _check_sizes(n: int, r: int) -> None:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if r < 1:
        raise ValueError("uniformity must be at least 1")


def _as_edge(e: Iterable[int], r: int, n: int) -> Edge:
    t = tuple(sorted(e))
    if len(t) != r or len(set(t)) != len(t):
        raise ValueError(f"edge {t!r} must have exactly {r} distinct vertices")
    if t and (t[0] < 0 or t[-1] >= n):
        raise ValueError(f"edge {t!r} has vertices outside 0..{n - 1}")
    return t


@dataclass(frozen=True)
class Hypergraph:
    """Immutable r-uniform hypergraph on vertex labels 0..n-1.

    The constructor is the validating boundary: any iterable of iterables is
    accepted for ``edges``; each edge is normalized to a sorted tuple and
    validated (exactly r distinct vertices, all in range).  Duplicate edges
    collapse silently, as sets do.  Edge sets the library built itself skip
    the per-edge checks through ``_trusted``.
    """

    n: int
    r: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        _check_sizes(self.n, self.r)
        norm = frozenset(_as_edge(e, self.r, self.n) for e in self.edges)
        object.__setattr__(self, "edges", norm)

    @classmethod
    def _trusted(cls, n: int, r: int, edges: Iterable[Edge]) -> "Hypergraph":
        """The graph with exactly these edges, stored as given: the caller
        guarantees sorted tuples of r distinct ints in 0..n-1."""
        _check_sizes(n, r)
        G = object.__new__(cls)
        object.__setattr__(G, "n", n)
        object.__setattr__(G, "r", r)
        object.__setattr__(G, "edges", frozenset(edges))
        return G

    # -- basic views ---------------------------------------------------

    @cached_property
    def edge_list(self) -> tuple[Edge, ...]:
        """Edges in sorted order (the canonical iteration order)."""
        return tuple(sorted(self.edges))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return tuple(deg)

    @cached_property
    def covered_pairs(self) -> frozenset[tuple[int, int]]:
        """All pairs {u, v} contained together in some edge, as sorted tuples."""
        return self.shadow(2) if self.r >= 2 else frozenset()

    def degree(self, S: Iterable[int] = ()) -> int:
        """Number of edges containing the vertex set S (d_G(S))."""
        ss = frozenset(S)
        if not ss:
            return len(self.edges)
        return sum(1 for e in self.edges if ss.issubset(e))

    # -- primitive operations ------------------------------------------

    def link(self, S: Iterable[int]) -> "Hypergraph":
        """Link of S: the (r-|S|)-graph {e - S : e in E, S subset of e}.

        Kept on the same vertex label space; its edge count is d_G(S).
        """
        ss = frozenset(S)
        if len(ss) >= self.r:
            raise ValueError(f"link needs |S| < r, got |S|={len(ss)}, r={self.r}")
        if any(v < 0 or v >= self.n for v in ss):
            raise ValueError("link set has out-of-range vertices")
        new_edges = [tuple(v for v in e if v not in ss) for e in self.edges if ss.issubset(e)]
        return Hypergraph._trusted(self.n, self.r - len(ss), new_edges)

    def shadow(self, p: int) -> frozenset[VertexSet]:
        """The p-shadow: all p-sets contained in some edge."""
        if not 1 <= p <= self.r:
            raise ValueError(f"shadow order must satisfy 1 <= p <= r, got {p}")
        out = set()
        for e in self.edges:
            out.update(itertools.combinations(e, p))
        return frozenset(out)

    def covers_pairs(self) -> bool:
        """True iff every pair of vertices lies in a common edge (vacuously for n <= 1)."""
        if self.n <= 1:
            return True
        return len(self.covered_pairs) == math.comb(self.n, 2)

    # -- structural helpers --------------------------------------------

    def induced(self, verts: Iterable[int], *, relabel: bool = False) -> "Hypergraph":
        """Subgraph of edges lying entirely inside ``verts``.

        With relabel=True the surviving vertices are renumbered 0..k-1 in
        ascending original order, which keeps every edge sorted.
        """
        vs = sorted(set(verts))
        if vs and (vs[0] < 0 or vs[-1] >= self.n):
            raise ValueError("induced set has out-of-range vertices")
        inside = set(vs)
        kept = [e for e in self.edges if inside.issuperset(e)]
        if not relabel:
            return Hypergraph._trusted(self.n, self.r, kept)
        pos = {v: i for i, v in enumerate(vs)}
        return Hypergraph._trusted(len(vs), self.r, [tuple(pos[v] for v in e) for e in kept])

    def relabel(self, mapping) -> "Hypergraph":
        """Apply a relabeling (dict or sequence old -> new) that sends
        0..n-1 to distinct values in 0..n-1; anything else raises ValueError."""
        try:
            image = [mapping[v] for v in range(self.n)]
        except (KeyError, IndexError):
            raise ValueError(f"relabeling must map every vertex of 0..{self.n - 1}") from None
        if sorted(image) != list(range(self.n)):
            raise ValueError(f"relabeling must send 0..{self.n - 1} to distinct values in range")
        return Hypergraph._trusted(self.n, self.r,
                                   [tuple(sorted(image[v] for v in e)) for e in self.edges])

    def with_edges(self, extra: Iterable[Iterable[int]]) -> "Hypergraph":
        """This graph plus the edges ``extra``, which are validated."""
        return Hypergraph._trusted(self.n, self.r,
                                   self.edges.union(_as_edge(e, self.r, self.n) for e in extra))

    def __repr__(self) -> str:  # compact, deterministic
        return f"Hypergraph(n={self.n}, r={self.r}, edges={len(self.edges)})"


def blowup(L: Hypergraph, sizes: Iterable[int]) -> Hypergraph:
    """Replace vertex i of L by a class of sizes[i] fresh vertices.

    Classes are consecutive blocks in input order; the edge set is the union
    over e in L of all transversals of e's classes, so the edge count is
    sum over e of prod(sizes[i] for i in e).
    """
    sizes = list(sizes)
    if len(sizes) != L.n:
        raise ValueError(f"need one class size per vertex of L ({L.n}), got {len(sizes)}")
    if any(s <= 0 for s in sizes):
        raise ValueError("class sizes must be positive")
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    classes = [range(offsets[i], offsets[i + 1]) for i in range(L.n)]
    # e is sorted and the blocks ascend, so every transversal is sorted
    return Hypergraph._trusted(offsets[-1], L.r, [
        combo for e in L.edges for combo in itertools.product(*(classes[i] for i in e))])


# -- vertex bitmasks ---------------------------------------------------


def _bits(vertices: Iterable[int]) -> int:
    """The bitmask with bit v set for each v in vertices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _pair_masks(G: Hypergraph) -> list[int]:
    """Adjacency bitmasks of the covered-pair graph: bit v of entry u is set
    when u and v lie together in some edge."""
    adj = [0] * G.n
    for u, v in G.covered_pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _cliques(adj: list[int], cand: int, size: int) -> Iterator[VertexSet]:
    """The size-cliques of the graph with adjacency bitmasks adj whose
    vertices lie in the bitmask cand, as ascending tuples in lexicographic
    order; a branch stops once too few candidates are left."""
    if size == 0:
        yield ()
        return
    while cand.bit_count() >= size:
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        for rest in _cliques(adj, cand & adj[v], size - 1):
            yield (v,) + rest


# -- containment -------------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """Certificate that a host contains a member of a family of expansions.

    ``mapping`` is an injective pattern-to-host vertex map; ``core`` is a
    p-set of host vertices whose pairs are all covered in the host and whose
    induced subgraph holds the mapped pattern; ``covering`` records one
    witness edge per core pair for auditability.
    """

    mapping: dict
    core: VertexSet
    covering: dict


# The embedding engine.  A pattern F is compiled once into plans: a vertex
# order and, for each position, the degree its image needs, the pattern edges
# whose last vertex it is (as sorted tuples of positions) and its earlier
# covered-pair neighbours.  The base order is by decreasing degree, then
# label; an anchored plan puts a pattern edge's vertices first, at the
# positions of the sorted host edge's vertices they map onto.
# The search runs on plain indexed data: a set of edge bitmasks, a degree
# array and the adjacency bitmasks of the covered-pair graph.  A position's
# candidates are the unused allowed hosts adjacent to the images of its
# placed neighbours, visited in ascending order.  A candidate outside that
# set, or of too small a degree, cannot extend to a copy, so the first copy
# found is the first in the plain backtracking order over all hosts.


def _plan(F: Hypergraph, order: list[int]) -> tuple:
    """(order, steps) with steps[i] = (need, checks, neighbours) for order[i]."""
    rank = {v: i for i, v in enumerate(order)}
    checks: list[list[tuple[int, ...]]] = [[] for _ in order]
    for fe in F.edge_list:
        pos = tuple(sorted(rank[v] for v in fe))
        checks[pos[-1]].append(pos)
    covered = F.covered_pairs
    steps = tuple(
        (F.degrees[v], tuple(sorted(checks[i])),
         tuple(j for j in range(i) if (min(v, order[j]), max(v, order[j])) in covered))
        for i, v in enumerate(order))
    return tuple(order), steps


def _base_plan(F: Hypergraph) -> tuple:
    return _plan(F, sorted(range(F.n), key=lambda v: (-F.degrees[v], v)))


def _anchored_plans(F: Hypergraph) -> tuple:
    """The plans seeded with a sorted host edge: for each pattern edge fe in
    edge_list order and each permutation p of range(r), fe[j] at position
    p[j], then the other vertices in base order.  A search reads only the
    steps past position r, so of the plans equal there only the first is
    kept; a later one would run only after it failed, and fail alike."""
    base, r = _base_plan(F)[0], F.r
    plans: dict[tuple, tuple] = {}
    for fe in F.edge_list:
        rest = [v for v in base if v not in fe]
        for p in itertools.permutations(range(r)):
            order, steps = _plan(F, [v for _, v in sorted(zip(p, fe))] + rest)
            plans.setdefault(steps[r:], (order, steps))
    return tuple(plans.values())


def _place(steps, i, img, bit, used, edges, deg, adj, allowed) -> bool:
    """Extend the images img[:i] (bit[j] = 1 << img[j]) to every position."""
    if i == len(steps):
        return True
    need, checks, nbrs = steps[i]
    cand = allowed & ~used
    for j in nbrs:
        cand &= adj[img[j]]
    while cand:
        low = cand & -cand
        cand ^= low
        h = low.bit_length() - 1
        if deg[h] < need:
            continue
        img[i], bit[i] = h, low
        for c in checks:
            m = 0
            for j in c:
                m |= bit[j]
            if m not in edges:
                break
        else:
            if _place(steps, i + 1, img, bit, used | low, edges, deg, adj, allowed):
                return True
    return False


def _embed(plans, seed, edges, deg, adj, allowed) -> Optional[dict]:
    """First copy under the plans in turn, or None.  The seed, () or a
    sorted host edge e, fills each plan's first positions.  With e, other
    pattern edges map onto edges that meet a vertex outside e, so neither
    the presence of e in ``edges`` nor the pairs only e covers change the
    answer."""
    r, used = len(seed), _bits(seed)
    for order, steps in plans:
        img = list(seed) + [0] * (len(order) - r)
        if _place(steps, r, img, [1 << h for h in img], used, edges, deg, adj, allowed):
            return dict(zip(order, img))
    return None


def _edge_masks(G: Hypergraph) -> set[int]:
    return {_bits(e) for e in G.edges}


def find_embedding(G: Hypergraph, F: Hypergraph) -> Optional[dict]:
    """First copy of F in G as a pattern-to-host vertex map, or None.

    The copy is the first in backtracking order: pattern vertices by
    decreasing degree, then label, host vertices in ascending order.  The
    search states run the same engine on live indexes, with plans compiled
    once per pattern: the subgraph state seeds the anchored plans, repeats
    collapsed, with the new edge; the family paths run this plan in a core.
    """
    if F.r != G.r:
        raise ValueError(f"uniformity mismatch: pattern r={F.r}, host r={G.r}")
    if F.n > G.n:
        return None
    return _embed((_base_plan(F),), (), _edge_masks(G), G.degrees,
                  _pair_masks(G), (1 << G.n) - 1)


# -- matching and sunflowers -------------------------------------------


def max_matching(G: Hypergraph) -> int:
    """Exact maximum number of pairwise disjoint edges, by branch and bound."""
    masks = [_bits(e) for e in G.edge_list]
    E = len(masks)
    if E == 0:
        return 0
    r, n = G.r, G.n
    best = 0

    def rec(i: int, used: int, count: int, free: int) -> None:
        nonlocal best
        if count > best:
            best = count
        cap = free // r
        for j in range(i, E):
            if count + min(E - j, cap) <= best:
                return
            mj = masks[j]
            if used & mj:
                continue
            rec(j + 1, used | mj, count + 1, free - r)

    rec(0, 0, 0, n)
    return best


def kernel_degree(G: Hypergraph, D: Iterable[int]) -> int:
    """Largest s such that s edges through D pairwise intersect exactly in D.

    Equals the maximum matching of the link of D (petals must be disjoint),
    and 0 when no edge contains D.
    """
    return max_matching(G.link(D))
