"""Exact small-n Turan search, heuristic lower bounds, and cleanup procedures.

The exact search is a DFS over the C(n, r) candidate edges in colex order,
include-branch first, keeping freeness incrementally.  A predicate's
``state(n, r)`` is the edge set ``current``, kept with an index by ``add``
and ``remove``, and ``can_add(e)``, which inspects only configurations
through the new edge: it assumes that e is not in the state and that the
current edge set is predicate-free (every search adds only edges that
passed it).  The subgraph and family states keep the embedding engine's
indexes live (the edge bitmasks, the degrees and the covered-pair adjacency
with pair counts), and run plans compiled once per pattern: the subgraph
state seeds the anchored plans, repeats collapsed, with e, so it searches
only copies with a pattern edge on e; the family state runs the base plan
in the cores through a pair of e.  The sigma and cancellative families
share one bitmask index, ``_ThreeEdgeState``.

The search solves the sizes 0, ..., n in turn and takes three things
from the size below.  Every predicate here is closed under deleting a
vertex, so a free G on k vertices has e(G) - d(v) = e(G - v) <= ex(k-1)
for each vertex v; a size that ran out of time gives no bound, and C(k-1, r)
stands in for ex(k-1).
  * Seed: the (k-1) witness plus an isolated vertex replaces the incumbent
    when it has more edges and the predicate accepts it (a pattern with
    isolated vertices can reject it).
  * Ceiling: averaging over v gives ex(k) <= floor(ex(k-1) * k / (k - r))
    (Katona, Nemetz and Simonovits 1964; C(k, r) for k <= r).  An incumbent
    that reaches it is exact: no graph on k vertices has more edges.  If
    the seeds reach it, no DFS runs; if the DFS's incumbent reaches it, the
    DFS stops there, as every subtree left holds nothing better.
  * Degree bound: a graph with more than best edges gives every vertex
    degree at least need = best + 1 - ex(k-1).  avail[v], v's degree plus
    its undecided candidates, bounds the degree of v in every completion.
    Only an exclude child lowers it, and only at the r vertices of the
    excluded edge, so the child is tested there; when best rises, every
    vertex is tested at that node.  (A vertex that falls short after a rise
    elsewhere is caught at the next exclude child through it.)
The plain counting bound (included + remaining <= best) is tested at each
exclude child too; an include child keeps its parent's sum and avail
against the same incumbent, so it always passes.  Once best >= ex(k-1),
need >= 1: every vertex must be covered, which subsumes pinning vertex 0.
Each size starts from the best free balanced multipartite graph as its
incumbent, so the bounds bite at once.  The search runs no random code.

The DFS visits one labelling per isomorphism class, or a few: a lex-leader
cut.  Read a graph as its 0/1 vector over the candidates in colex order;
among all relabellings of a graph, its leader is the one whose vector is
largest, and the DFS keeps only subtrees that can hold a leader.
  * Adjacent swaps.  Swapping the labels j - 1 and j moves only the edges
    that hold exactly one of them, and the first of those in colex order
    are the T + {j - 1}, T a subset of {0, ..., j - 2}, followed by their
    partners T + {j} in the same order of T.  So the swapped vector is
    larger exactly when, at the first T where the pair differs, T + {j} is
    an edge and T + {j - 1} is not; later edges decide a tie.  The DFS
    meets T + {j} in the block of candidates with largest vertex j, after
    its partner.  While every pair of the block so far has been equal
    (``tied``, reset at the first candidate of each block), it cuts the
    include child of T + {j} when the partner was excluded, and an exclude
    child whose partner was included breaks the tie.
  * The first candidate.  A graph with an edge has a relabelling that
    holds {0, ..., r - 1}, so its leader holds it; the exclude child of
    the first candidate holds no leader but the empty graph, which never
    beats the incumbent and covers no pair.  (This stands in for the
    vertex-0 pin where the seed from below is not free and need stays
    below 1.)
A leader passes every such comparison.  Freeness does not depend on
labels, and the counting, degree and ceiling bounds cut only subtrees in
which no graph beats the incumbent, so the leader of any graph with more
edges than the incumbent is still reached: the value and the exact flag are
those of the DFS without the cut, and only the witness (the first the DFS
reaches) and the node count move.  A cut include child is not a node, like
one that can_add refuses; the exclude child of the first candidate counts
one node, like one that fails a bound.

One DFS, ``_leader_dfs``, keeps the cut, can_add and the node count; the
exact search (``_exhaust``) and the density search's hosts
(``_covering_hosts``) each pass it their own test of the exclude child.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .hypergraph import (
    Edge,
    Embedding,
    Hypergraph,
    _anchored_plans,
    _base_plan,
    _bits,
    _cliques,
    _embed,
    find_embedding,
)
from .constructions import (
    contains_family_member,
    expanded_clique_with_embedded,
    turan_hypergraph,
)

__all__ = [
    "ForbiddenPredicate",
    "SubgraphPredicate",
    "FamilyPredicate",
    "SigmaPredicate",
    "CancellativePredicate",
    "SearchResult",
    "ExactSearchRefused",
    "brute_force_ex",
    "local_search_lower",
    "kernel_clean",
    "family_free_subgraph",
    "FamilyFreeExtraction",
]

_HOST_NODE_BUDGET = 1 << 18  # leader-DFS nodes per host size in _covering_hosts
_FAMILY_CHECK_LIMIT = 10  # family_free_subgraph checks outputs up to this order


class ExactSearchRefused(ValueError):
    """Raised when C(n, r) candidates are too deep to walk (``_check_walk_depth``)."""


# -- predicates -----------------------------------------------------------


class ForbiddenPredicate:
    """Monotone forbidden-configuration predicate: if G violates it, every
    supergraph does.  ``state(n, r)`` builds the incremental index used by the
    searches; ``is_free`` is the standalone check, run on that state unless a
    predicate overrides it."""

    kind = "abstract"

    def is_free(self, G: Hypergraph) -> bool:
        """Add G's edges, in edge_list order, to a fresh state; G is free
        unless can_add refuses one of them."""
        state = self.state(G.n, G.r)
        for e in G.edge_list:
            if not state.can_add(e):
                return False
            state.add(e)
        return True

    def state(self, n: int, r: int):
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind


class SubgraphPredicate(ForbiddenPredicate):
    kind = "subgraph"

    def __init__(self, pattern: Hypergraph):
        if len(pattern.edges) == 0 and pattern.n == 0:
            raise ValueError("a pattern with no vertices is contained in every "
                             "graph, so it forbids everything")
        self.pattern = pattern
        self.plans = _anchored_plans(pattern)

    def is_free(self, G: Hypergraph) -> bool:
        """The whole-graph search: a pattern with no edges is held by a graph
        with enough vertices, but no added edge completes it."""
        return find_embedding(G, self.pattern) is None

    def state(self, n: int, r: int):
        if r != self.pattern.r:
            raise ValueError("predicate uniformity mismatch")
        return _SubgraphState(n, self.plans)

    def describe(self) -> str:
        return f"subgraph(n={self.pattern.n},r={self.pattern.r},e={len(self.pattern.edges)})"


class _EmbedState:
    """The embedding engine's indexes, kept as edges come and go: the edge
    bitmasks, the degrees, and the covered-pair adjacency bitmasks with the
    number of edges covering each pair."""

    def __init__(self, n: int):
        self.n = n
        self.current: set[Edge] = set()
        self.masks: set[int] = set()
        self.deg = [0] * n
        self.adj = [0] * n
        self.cover = [0] * (n * n)
        self._prep: dict[Edge, tuple] = {}

    def _prepare(self, e: Edge):
        got = self._prep.get(e)
        if got is None:
            pairs = tuple((u * self.n + v, u, v, 1 << u, 1 << v)
                          for u, v in itertools.combinations(e, 2))
            got = self._prep[e] = (_bits(e), pairs)
        return got

    def _update(self, e: Edge, step: int) -> None:
        """Index (step 1) or unindex (step -1) the edge e."""
        em, pairs = self._prepare(e)
        if step > 0:
            self.masks.add(em)
        else:
            self.masks.discard(em)
        deg, adj, cover = self.deg, self.adj, self.cover
        for v in e:
            deg[v] += step
        for k, u, v, bu, bv in pairs:
            cover[k] += step
            if cover[k]:
                adj[u] |= bv
                adj[v] |= bu
            else:
                adj[u] &= ~bv
                adj[v] &= ~bu

    def add(self, e: Edge) -> None:
        self.current.add(e)
        self._update(e, 1)

    def remove(self, e: Edge) -> None:
        self.current.discard(e)
        self._update(e, -1)


class _SubgraphState(_EmbedState):
    """Copies of F through the new edge: with the current edge set F-free,
    adding e creates a copy only if some pattern edge maps onto e.  can_add
    seeds with e the anchored plans the predicate compiled once for F."""

    def __init__(self, n: int, plans: tuple):
        super().__init__(n)
        self.plans = plans
        self.hosts = (1 << n) - 1

    def can_add(self, e: Edge) -> bool:
        return _embed(self.plans, e, self.masks, self.deg, self.adj,
                      self.hosts) is None


class _FamilyState(_EmbedState):
    """Family members through the new edge, on the cores that hold a pair
    of it.

    Let the current edge set be free and adding e create a member: a p-core
    C, every pair of it covered, with a copy of F inside C.  If the copy
    uses e, then e lies inside C.  If it does not, some pair of C was not
    covered before, as otherwise the member was there already; that pair is
    covered only by e.  Either way C holds a pair of e (for r >= 2; for
    r = 1 the same argument puts e itself in C).  So can_add enumerates
    the cliques of the covered-pair graph, with e indexed, through each
    pair {a, b} of e, and runs the engine inside each.  A core is taken at
    its two smallest vertices in e only: the pair's other vertices avoid
    the vertices of e below b other than a.
    """

    def __init__(self, n: int, r: int, F: Hypergraph, p: int):
        super().__init__(n)
        self.plans = (_base_plan(F),)
        self.anchor = min(2, r)
        self.rest = p - self.anchor  # core vertices besides the pair of e
        self._anchors: dict[Edge, tuple] = {}

    def _pairs(self, e: Edge):
        """(pair, its bitmask, the vertices the rest of its cores may use)."""
        got = self._anchors.get(e)
        if got is None:
            full = (1 << self.n) - 1
            got = self._anchors[e] = tuple(
                (S, _bits(S), full & ~_bits(v for v in e if v < S[-1] and v not in S))
                for S in itertools.combinations(e, self.anchor))
        return got

    def can_add(self, e: Edge) -> bool:
        if self.rest < 0:
            return True  # no core holds a pair
        self._update(e, 1)
        try:
            masks, deg, adj, plans = self.masks, self.deg, self.adj, self.plans
            for S, core, cand in self._pairs(e):
                for v in S:
                    cand &= adj[v]
                for rest in _cliques(adj, cand, self.rest):
                    if _embed(plans, (), masks, deg, adj, core | _bits(rest)) is not None:
                        return False
            return True
        finally:
            self._update(e, -1)


class _ThreeEdgeState:
    """Bitmask index for three distinct edges A, B, C with A ^ B inside C and
    |A ^ B| <= max_diff: sigma is max_diff = 2, cancellative max_diff = r.

    |A ^ B| is even, so A and B share at least share = r - max_diff // 2
    vertices and meet in the bucket of a shared subset of that size.  A new
    edge e is rejected as the containing edge when a stored pairwise
    difference is an even subset of e (``diff_count``), and as one of the
    pair when, for some B in its buckets, a stored edge contains e ^ B
    (``subset_count`` of the even subsets up to max_diff).  A pair sharing j
    vertices meets in C(j, share) buckets, on add and on remove alike, so
    ``diff_count`` holds each difference with that multiplicity.
    """

    def __init__(self, r: int, max_diff: int):
        self.current: set[Edge] = set()
        self.share = r - max_diff // 2
        self.max_diff = max_diff
        self.buckets: dict[int, set[int]] = {}
        self.subset_count: dict[int, int] = {}
        self.diff_count: dict[int, int] = {}
        self._prep: dict[Edge, tuple] = {}

    def _prepare(self, e: Edge):
        got = self._prep.get(e)
        if got is None:
            shares = tuple(_bits(s) for s in itertools.combinations(e, self.share))
            evens = tuple(_bits(s) for k in range(2, self.max_diff + 1, 2)
                          for s in itertools.combinations(e, k))
            got = (_bits(e), shares, evens)
            self._prep[e] = got
        return got

    def can_add(self, e: Edge) -> bool:
        em, shares, evens = self._prepare(e)
        diff_count = self.diff_count
        for d in evens:
            if diff_count.get(d, 0):
                return False
        subset_count, buckets = self.subset_count, self.buckets
        for s in shares:
            for bm in buckets.get(s, ()):
                if subset_count.get(em ^ bm, 0):
                    return False
        return True

    def add(self, e: Edge) -> None:
        em, shares, evens = self._prepare(e)
        self.current.add(e)
        diff_count = self.diff_count
        for s in shares:
            bucket = self.buckets.setdefault(s, set())
            for bm in bucket:
                d = em ^ bm
                diff_count[d] = diff_count.get(d, 0) + 1
            bucket.add(em)
        for d in evens:
            self.subset_count[d] = self.subset_count.get(d, 0) + 1

    def remove(self, e: Edge) -> None:
        em, shares, evens = self._prepare(e)
        self.current.discard(e)
        diff_count = self.diff_count
        for s in shares:
            bucket = self.buckets[s]
            bucket.discard(em)
            for bm in bucket:
                diff_count[em ^ bm] -= 1
        for d in evens:
            self.subset_count[d] -= 1


class FamilyPredicate(ForbiddenPredicate):
    kind = "family"

    def __init__(self, pattern: Hypergraph, p: int):
        if p < pattern.n:
            raise ValueError("core size must be at least n(F)")
        self.pattern = pattern
        self.p = p

    def is_free(self, G: Hypergraph) -> bool:
        """The whole-graph search: a core of p <= 1 vertices is held by a
        graph with p vertices, but no added edge completes it."""
        return contains_family_member(G, self.pattern, self.p) is None

    def state(self, n: int, r: int):
        if r != self.pattern.r:
            raise ValueError("predicate uniformity mismatch")
        return _FamilyState(n, r, self.pattern, self.p)

    def describe(self) -> str:
        return f"family(p={self.p},n(F)={self.pattern.n},r={self.pattern.r})"


class SigmaPredicate(ForbiddenPredicate):
    """Forbid the three-edge family: D1, D2 sharing r-1 vertices with their
    symmetric difference inside a third edge."""

    kind = "sigma"

    def __init__(self, r: int):
        if r < 2:
            raise ValueError("sigma family needs r >= 2")
        self.r = r

    def state(self, n: int, r: int):
        if r != self.r:
            raise ValueError("predicate uniformity mismatch")
        return _ThreeEdgeState(r, 2)

    def describe(self) -> str:
        return f"sigma(r={self.r})"


class CancellativePredicate(ForbiddenPredicate):
    """Forbid three distinct edges where one contains the symmetric difference
    of the other two."""

    kind = "cancellative"

    def state(self, n: int, r: int):
        return _ThreeEdgeState(r, r)


# -- search results ---------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    value: int
    witness: Hypergraph
    exact: bool
    nodes_explored: int
    elapsed: float


def _colex_candidates(n: int, r: int) -> list[Edge]:
    return sorted(itertools.combinations(range(n), r), key=lambda e: e[::-1])


def brute_force_ex(n: int, r: int, forbidden: ForbiddenPredicate, *,
                   max_seconds: Optional[float] = None,
                   seed: int = 0) -> SearchResult:
    """Exact maximum edge count of a predicate-free r-graph on n vertices.

    Exhausts the 2^C(n,r) subset tree with incremental freeness checks,
    keeping one labelling per isomorphism class or a few; refuses when
    C(n, r) is too deep to walk.  The sizes 0, ..., n are solved in turn,
    each with the bound and witness of the size below (see the module
    docstring), so a call does the work of a sweep up to n.  The search runs
    no random code: ``seed`` is accepted and ignored, kept only for callers
    that still pass it.

    nodes_explored counts the nodes of the search at n only; the sizes
    below are not in it.  A size closed by its ceiling before the DFS counts
    one node, its root.  The DFS counts each call, and each exclude child
    that fails the counting or the degree bound or is the first candidate's,
    which gets no call; an include child that the lex-leader cut or can_add
    refuses is not counted.  A time budget is one deadline for all sizes;
    each size reads it at the first call once 4096 of its own nodes have
    passed since its last reading.  Once it has passed, the result is a
    best-so-far bound with exact=False instead of exhausting.
    """
    return list(_solve_sizes(n, r, forbidden, max_seconds))[-1]


def _solve_sizes(n: int, r: int, forbidden: ForbiddenPredicate,
                 max_seconds: Optional[float]) -> Iterator[SearchResult]:
    """Yield brute_force_ex's result for each size k = 0, ..., n, elapsed
    counted from the start of the pass; sizes below r close at ceiling 0.
    Refuses, before any size is solved, when C(n, r) is too deep to walk."""
    _check_walk_depth(n, r)
    t0 = time.perf_counter()
    deadline = None if max_seconds is None else t0 + max_seconds
    res = None
    for k in range(n + 1):
        res = _exhaust(k, r, forbidden, _multipartite_seed(k, r, forbidden), res, t0, deadline)
        yield res


def _check_walk_depth(n: int, r: int) -> None:
    """Refuse a walk over C(n, r) candidates when it reaches half the
    recursion limit: ``_leader_dfs`` recurses once per candidate, and the
    other half is left to the caller's frames and the pattern search."""
    depth, limit = math.comb(n, r), sys.getrecursionlimit() // 2
    if depth >= limit:
        raise ExactSearchRefused(f"C({n},{r}) = {depth} candidates are too deep to walk: "
                                 f"the lex-leader walk recurses once per candidate "
                                 f"and needs fewer than half the recursion limit, {limit}")


class _Stop(Exception):
    """Raised by a hook of ``_leader_dfs`` to end the whole walk at once."""


def _leader_dfs(k: int, r: int, state, avail: list, enter, keep,
                deadline: Optional[float] = None, budget=math.inf) -> tuple[int, bool]:
    """Walk the subset tree over the colex candidates on k vertices, include
    child first, on the predicate state, keeping only subtrees that can hold
    a lex leader (see the module docstring).  Return the node count and
    whether the deadline or the node budget stopped the walk; both are read
    where ``brute_force_ex`` says, so a walk ends complete or at the first
    reading at or past ``budget`` nodes.

    A node is a call at candidate index i, with ``count`` of the first i
    candidates in the state; i == C(k, r) is a leaf.  ``enter(i, count)``
    runs at each node an include child reached and at each leaf, and
    returns True to end the node.  The exclude child of e = cands[i] is
    tried when ``keep(i, e, count)`` holds, with avail lowered at e: the
    caller's list, from C(k-1, r-1) per vertex, stays each vertex's degree
    plus its undecided candidates.  A hook may raise _Stop to end the walk,
    leaving the state as it is.
    """
    cands = _colex_candidates(k, r)
    m = len(cands)
    # steps[i]: cands[i] = T + {j}; its partner T + {j - 1} when j - 1 is
    # not in T (so decided earlier), else None; and whether cands[i] opens
    # the block of j
    steps = [(e, e[:-1] + (e[-1] - 1,) if e[-1] and e[-1] - 1 not in e else None,
              i == 0 or e[-1] != cands[i - 1][-1]) for i, e in enumerate(cands)]
    current, can_add, s_add, s_remove = state.current, state.can_add, state.add, state.remove
    nodes = 0
    next_check = 4096  # the node count at which the limits are next read
    aborted = False

    def dfs(i: int, count: int, tied: bool, rose: bool) -> None:
        nonlocal nodes, next_check, aborted
        nodes += 1
        if nodes >= next_check:
            next_check = nodes + 4096
            if nodes >= budget or deadline is not None and time.perf_counter() > deadline:
                aborted = True
                raise _Stop
        # an exclude child keeps its parent's count, so before the leaf only
        # a node that an include child reached can bring news
        if (rose or i == m) and (enter(i, count) or i == m):
            return
        e, p, opens = steps[i]
        tied = tied or opens
        pinned = tied and p is not None  # e, p decide the swap of j - 1 and j
        held = pinned and p in current
        if (held or not pinned) and can_add(e):
            s_add(e)
            dfs(i + 1, count + 1, tied, True)
            s_remove(e)
        if held:
            tied = False  # excluding e makes the swapped vector smaller
        # at i = 0 the exclude child holds no leader but the empty graph
        if i == 0 or not keep(i, e, count):
            nodes += 1
        else:
            for v in e:
                avail[v] -= 1
            dfs(i + 1, count, tied, False)
            for v in e:
                avail[v] += 1

    try:
        dfs(0, 0, True, False)
    except _Stop:
        pass
    return nodes, aborted


def _exhaust(k: int, r: int, forbidden: ForbiddenPredicate, inc: Hypergraph,
             below: Optional[SearchResult], t0: float,
             deadline: Optional[float]) -> SearchResult:
    """Solve size k from the free incumbent graph inc and the result for
    size k - 1, if any; elapsed counts from t0."""
    m = math.comb(k, r)
    best, best_edges = len(inc.edges), set(inc.edges)
    lo = math.comb(max(k - 1, 0), r)  # ex(k - 1), or no bound below
    if below is not None:
        if below.exact:
            lo = below.value
        if (below.value > best
                and forbidden.is_free(Hypergraph._trusted(k, r, below.witness.edges))):
            best, best_edges = below.value, set(below.witness.edges)
    ceiling = m if k <= r else lo * k // (k - r)
    if best >= ceiling:
        return SearchResult(best, Hypergraph._trusted(k, r, best_edges), True, 1,
                            time.perf_counter() - t0)

    state = forbidden.state(k, r)
    current = state.current
    # a graph with more than best edges gives each vertex at least
    # need = best + 1 - lo.  Below the ceiling the root meets it: every
    # vertex has C(k-1, r-1) >= ceiling - lo >= need
    avail = [math.comb(k - 1, r - 1)] * k
    need = best + 1 - lo

    def enter(i: int, count: int) -> bool:
        nonlocal best, best_edges, need
        if count > best:
            best, best_edges, need = count, set(current), count + 1 - lo
            if best >= ceiling:
                raise _Stop  # nothing beats it: the size is exact
            return min(avail) < need  # some vertex falls short in every completion
        return False

    def keep(i: int, e: Edge, count: int) -> bool:
        # the exclude child lowers avail only at e
        if count + (m - i - 1) <= best:
            return False
        for v in e:
            if avail[v] <= need:
                return False
        return True

    nodes, aborted = _leader_dfs(k, r, state, avail, enter, keep, deadline)
    return SearchResult(best, Hypergraph._trusted(k, r, best_edges), not aborted, nodes,
                        time.perf_counter() - t0)


def _covering_hosts(k: int, r: int, forbidden: ForbiddenPredicate) -> tuple[list, bool]:
    """The maximal predicate-free r-graphs on k vertices that cover every
    pair, as frozensets: the lex leader of each isomorphism class the walk
    reached, once each, in decreasing vector order; and whether the walk
    ended within ``_HOST_NODE_BUDGET`` nodes.  A stopped walk returns the
    leaders it found.

    The leader DFS's exclude child of e is cut when some pair of e is
    covered by no current edge and by no later candidate that can_add
    accepts now.  can_add only loses candidates deeper in the tree, as the
    predicate is monotone, so the subtree holds no graph that covers the
    pair.  A pair's last candidate is either included or excluded with the
    pair covered, so every leaf covers every pair; the leaves to which no
    candidate can be added are kept.  Relabelling keeps freeness,
    maximality and pair covering, and neither cut drops a leader.

    The include-first walk reaches leaves in decreasing vector order, so the
    first leaf of each class is its leader, also in a stopped walk.  A leaf
    is dropped when a kept leaf with its edge count and sorted degrees
    embeds in it (``find_embedding``): two graphs on k vertices with one
    edge count are isomorphic exactly when one embeds in the other.
    """
    cands = _colex_candidates(k, r)
    m = len(cands)
    state = forbidden.state(k, r)
    current, can_add = state.current, state.can_add
    # split[i]: for each pair of cands[i], the candidates through it before i
    # and those after i
    split = [tuple((tuple(c for c in cands[:i] if a in c and b in c),
                    tuple(c for c in cands[i + 1:] if a in c and b in c))
                   for a, b in itertools.combinations(e, 2))
             for i, e in enumerate(cands)]
    hosts = []

    def enter(i: int, count: int) -> bool:
        if i == m and not any(e not in current and can_add(e) for e in cands):
            hosts.append(frozenset(current))
        return False

    def keep(i: int, e: Edge, count: int) -> bool:
        return all(any(c in current for c in before) or any(map(can_add, after))
                   for before, after in split[i])

    _, aborted = _leader_dfs(k, r, state, [math.comb(k - 1, r - 1)] * k, enter, keep,
                             budget=_HOST_NODE_BUDGET)
    leaders, kept = [], {}
    for edges in hosts:
        G = Hypergraph._trusted(k, r, edges)
        same = kept.setdefault((len(edges), tuple(sorted(G.degrees))), [])
        if all(find_embedding(G, H) is None for H in same):
            same.append(G)
            leaders.append(edges)
    return leaders, not aborted


def _refill_rounds(state, cands, rng, rounds: int) -> Iterator[set]:
    """``local_search_lower``'s loop.  Yield the state's live edge set after
    each of ``rounds`` rounds, each of which drops one or two random edges
    with probability 0.35 (none from the empty graph), then adds, in a random
    order, each candidate that keeps it free.  Only this changes the state.

    The predicate is monotone, so a candidate that fails during a pass fails
    on every superset; after a pass the set is maximal, and a round that
    drops nothing adds nothing.  Such a round still draws its order, so the
    random stream is that of a round that runs its pass."""
    current = state.current
    maximal = False
    for _ in range(rounds):
        if current and rng.random() < 0.35:
            drop = rng.sample(sorted(current), min(1 + (rng.random() < 0.3),
                                                   len(current)))
            for e in drop:
                state.remove(e)
            maximal = False
        order = rng.sample(cands, len(cands))
        if not maximal:
            for e in order:
                if e not in current and state.can_add(e):
                    state.add(e)
            maximal = True
        yield current


def _multipartite_seed(n: int, r: int, forbidden: ForbiddenPredicate) -> Hypergraph:
    """The largest predicate-free graph among the empty graph and the
    balanced multipartite graphs with r to n parts, the first on ties;
    raises ValueError when not even the empty graph is free."""
    best = Hypergraph(n, r, [])
    if not forbidden.is_free(best):
        # possible only for edgeless patterns fitting inside n vertices
        raise ValueError("no predicate-free graph exists on this vertex count")
    for parts in range(r, n + 1):
        T = turan_hypergraph(n, r, parts).graph
        if len(T.edges) > len(best.edges) and forbidden.is_free(T):
            best = T
    return best


def local_search_lower(n: int, r: int, forbidden: ForbiddenPredicate, *,
                       seed: int = 0, iters: int = 2000) -> SearchResult:
    """Randomized add/remove/refill hill climb; value <= ex(n, predicate).

    Seeds: the empty graph and every predicate-free balanced multipartite
    graph with between r and n parts.  iters=0 returns the best seed as-is.
    """
    if iters < 0:
        raise ValueError(f"iters must be nonnegative, got {iters}")
    t0 = time.perf_counter()
    best_graph = _multipartite_seed(n, r, forbidden)
    if iters == 0:
        return SearchResult(len(best_graph.edges), best_graph, False, 0,
                            time.perf_counter() - t0)

    cands = _colex_candidates(n, r)
    state = forbidden.state(n, r)
    for e in best_graph.edge_list:
        state.add(e)
    best, best_set = len(best_graph.edges), set(best_graph.edges)
    for edges in _refill_rounds(state, cands, random.Random(seed), iters):
        if len(edges) > best:
            best, best_set = len(edges), set(edges)
    return SearchResult(best, Hypergraph._trusted(n, r, best_set), False, iters,
                        time.perf_counter() - t0)


# -- cleanup procedures ------------------------------------------------------


def kernel_clean(G: Hypergraph, p: int, d: int) -> Hypergraph:
    """While some d-set has nonzero degree at most p * C(n, r-d-1), drop all
    edges through it.

    Afterwards every d-set with nonzero degree supports more than p pairwise
    disjoint petals (its kernel degree exceeds p), and the total loss is at
    most p * C(n, d) * C(n, r-d-1) edges.  Idempotent.

    The result does not depend on the order of removals.  Call a subgraph
    clean when each of its d-sets has degree 0 or above the threshold.  The
    union of two clean subgraphs is clean (a d-set's degree in the union is
    at least its degree in either part), so G has a unique largest clean
    subgraph H.  A removal never takes an edge of H: a d-set whose degree is
    at most the threshold has at most that many H-edges through it, hence
    none.  The loop stops only on a clean subgraph containing H, which is H.

    So the loop runs on a live index: through[D] holds the edges through
    each d-set D, and a stack holds the d-sets whose count is at most the
    threshold.  Counts only fall, so a d-set is pushed at most once: at the
    start, or when its count falls to exactly the threshold.  Popping one
    drops its remaining edges (none, if others took them meanwhile), so the
    stack empties only when every count is 0 or above the threshold.
    """
    if not 0 < d < G.r:
        raise ValueError(f"need 0 < d < r, got d={d}, r={G.r}")
    threshold = p * math.comb(G.n, G.r - d - 1)
    edges = set(G.edges)
    through: dict[Edge, set] = {}
    for e in edges:
        for D in itertools.combinations(e, d):
            through.setdefault(D, set()).add(e)
    stack = [D for D, es in through.items() if len(es) <= threshold]
    while stack:
        for e in tuple(through[stack.pop()]):
            edges.discard(e)
            for D in itertools.combinations(e, d):
                es = through[D]
                es.discard(e)
                if len(es) == threshold:
                    stack.append(D)
    return Hypergraph._trusted(G.n, G.r, edges)


@dataclass(frozen=True)
class FamilyFreeExtraction:
    graph: Hypergraph
    violation: Optional[Embedding]  # family member found post-hoc, if any
    checked: bool                   # whether the post-hoc check ran


def family_free_subgraph(G: Hypergraph, F: Hypergraph, m: int) -> FamilyFreeExtraction:
    """Pair cleanup at the expansion threshold: when G contains no copy of the
    expanded clique itself, the output contains no member of its whole family.

    Applies kernel_clean with d=2 and p = vertex count of the expanded
    (m+1)-clique with embedded F; on at most 10 vertices the family check
    runs post-hoc and a found member (precondition violation upstream) is
    returned as a diagnostic rather than raising.
    """
    if G.r < 3:
        raise ValueError("pair cleanup needs uniformity >= 3")
    if F.r != G.r:
        raise ValueError("uniformity mismatch")
    p = expanded_clique_with_embedded(F, m + 1).graph.n
    cleaned = kernel_clean(G, p, 2)
    if cleaned.n <= _FAMILY_CHECK_LIMIT:
        violation = contains_family_member(cleaned, F, m + 1)
        return FamilyFreeExtraction(cleaned, violation, True)
    return FamilyFreeExtraction(cleaned, None, False)
