"""Shared brute-force oracles for the test suite.

These deliberately re-derive answers by exhaustive enumeration, independent of
the library's search strategies, so the two routes cross-check each other.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

from turanlag import (
    DensitySearchResult,
    Hypergraph,
    SymmetrizationOutcome,
    SymmetrizationStep,
    SymmetrizationTrace,
)
from turanlag.extremal import (
    ForbiddenPredicate,
    SearchResult,
    _check_walk_depth,
    _colex_candidates,
    _covering_hosts,
    local_search_lower,
)
from turanlag.lagrangian import _SUPPORT_EPS, _TOL, lagrangian

_PRESEARCH_ITERS = 400  # colex_dfs_oracle's local-search rounds for its incumbent


def brute_contains(G: Hypergraph, F: Hypergraph) -> bool:
    """Exhaustive containment: try every injective map of F's vertices."""
    if F.r != G.r or F.n > G.n:
        return False
    fedges = F.edge_list
    for image in itertools.permutations(range(G.n), F.n):
        if all(tuple(sorted(image[v] for v in e)) in G.edges for e in fedges):
            return True
    return False


def brute_family(G: Hypergraph, F: Hypergraph, p: int) -> bool:
    """Exhaustive family membership: every p-subset as a candidate core."""
    if p > G.n:
        return False
    covered = G.covered_pairs
    for core in itertools.combinations(range(G.n), p):
        if any(pr not in covered for pr in itertools.combinations(core, 2)):
            continue
        induced = G.induced(core)
        if F.n == 0 or brute_contains_in(induced, F, core):
            return True
    return False


def brute_contains_in(G: Hypergraph, F: Hypergraph, allowed) -> bool:
    allowed = tuple(allowed)
    if F.n > len(allowed):
        return False
    fedges = F.edge_list
    for image in itertools.permutations(allowed, F.n):
        if all(tuple(sorted(image[v] for v in e)) in G.edges for e in fedges):
            return True
    return False


def backtracking_embedding(G: Hypergraph, F: Hypergraph, allowed=None,
                           require_edge=None):
    """The plain backtracking embedding search, tried host by host with no
    adjacency or edge-mask index: pattern vertices by decreasing degree, then
    label, host candidates ascending, each pattern edge checked once its last
    vertex is placed.  With require_edge, every pattern edge in turn is
    seeded onto each ordering of that host edge.  find_embedding must return
    the same first mapping."""
    hosts = sorted(allowed) if allowed is not None else list(range(G.n))
    if F.n > len(hosts):
        return None
    host_edges, host_deg = G.edges, G.degrees
    degF = F.degrees
    fedges = F.edge_list

    def solve(order: list[int], seed: dict):
        rank = {v: i for i, v in enumerate(order)}
        check_at: list[list] = [[] for _ in order]
        for fe in fedges:
            check_at[max(rank[v] for v in fe)].append(fe)
        assign = dict(seed)
        used = set(seed.values())

        def ok_at(i: int) -> bool:
            return all(tuple(sorted(assign[v] for v in fe)) in host_edges
                       for fe in check_at[i])

        start = len(seed)
        if not all(ok_at(i) for i in range(start)):
            return None

        def rec(i: int) -> bool:
            if i == len(order):
                return True
            v = order[i]
            for h in hosts:
                if h in used or host_deg[h] < degF[v]:
                    continue
                assign[v] = h
                used.add(h)
                if ok_at(i) and rec(i + 1):
                    return True
                used.discard(h)
                del assign[v]
            return False

        return dict(assign) if rec(start) else None

    base_order = sorted(range(F.n), key=lambda v: (-degF[v], v))
    if require_edge is None:
        return solve(base_order, {})
    req = tuple(sorted(require_edge))
    if req not in host_edges or len(req) != F.r:
        return None
    for fe in fedges:
        for perm in itertools.permutations(req):
            seed = dict(zip(fe, perm))
            order = list(fe) + [v for v in base_order if v not in seed]
            res = solve(order, seed)
            if res is not None:
                return res
    return None


def colex_dfs_oracle(n: int, r: int, forbidden: ForbiddenPredicate, *,
                     max_seconds: Optional[float] = None,
                     seed: int = 0) -> SearchResult:
    """The exact search before its bounds from the size below and its
    lex-leader cut: one DFS at n over every labelling, seeded by the
    presearch alone, with the counting bound and the vertex-0 pin.
    brute_force_ex must give its values and exact flags in at most as many
    nodes; so this is also the oracle for the symmetry cut.

    Exact maximum edge count of a predicate-free r-graph on n vertices.

    Exhausts the 2^C(n,r) subset tree with incremental freeness checks;
    refuses, by the library's own guard, when C(n, r) is too deep to walk.
    A time budget, read at the first call once 4096 nodes have passed since
    the last reading, makes the result a best-so-far bound with exact=False
    instead of exhausting.  The root and each exclude child are tested
    against the counting bound before their call; one that fails it counts
    as a node without a call.
    """
    _check_walk_depth(n, r)
    m = math.comb(n, r)
    t0 = time.perf_counter()
    cands = _colex_candidates(n, r)
    # heuristic incumbent so the counting bound prunes from the start; it
    # raises ValueError when not even the empty graph is predicate-free
    inc = local_search_lower(n, r, forbidden, seed=seed, iters=_PRESEARCH_ITERS)
    best, best_edges = inc.value, set(inc.witness.edges)

    state = forbidden.state(n, r)
    last_zero = max((i for i, e in enumerate(cands) if e[0] == 0), default=-1)

    nodes = 0
    next_check = 4096  # the node count at which the deadline is next read
    aborted = False
    deadline = None if max_seconds is None else t0 + max_seconds
    can_add, s_add, s_remove = state.can_add, state.add, state.remove

    def dfs(i: int, count: int, has_zero: bool) -> None:
        nonlocal nodes, next_check, best, best_edges, aborted
        nodes += 1
        if deadline is not None and nodes >= next_check:
            next_check = nodes + 4096
            if time.perf_counter() > deadline:
                aborted = True
                return
        if count > best:
            best = count
            best_edges = set(state.current)
        if i == m or (not has_zero and i > last_zero):
            return  # a leaf, or completions leave vertex 0 isolated (isomorphs are visited)
        e = cands[i]
        if can_add(e):
            s_add(e)
            dfs(i + 1, count + 1, has_zero or e[0] == 0)
            s_remove(e)
        if aborted:
            return
        if count + (m - i - 1) <= best:
            nodes += 1  # the exclude child fails the counting bound on entry
        else:
            dfs(i + 1, count, has_zero)

    if m <= best:
        nodes = 1  # the root fails the counting bound: the presearch is optimal
    else:
        dfs(0, 0, False)
    elapsed = time.perf_counter() - t0
    return SearchResult(best, Hypergraph(n, r, best_edges), not aborted,
                        nodes, elapsed)


def refill_rounds_oracle(state, cands, rng, rounds: int):
    """``extremal._refill_rounds`` with a full pass every round: each round
    drops one or two random edges with probability 0.35 (none from the empty
    graph), then tries every candidate in a random order."""
    current = state.current
    for _ in range(rounds):
        if current and rng.random() < 0.35:
            drop = rng.sample(sorted(current), min(1 + (rng.random() < 0.3),
                                                   len(current)))
            for e in drop:
                state.remove(e)
        for e in rng.sample(cands, len(cands)):
            if e not in current and state.can_add(e):
                state.add(e)
        yield current


def density_dfs_oracle(state, cands, i: int = 0):
    """Yield the state's live edge set at every maximal predicate-free graph
    that adds to it only candidates from index i on, in include-first order:
    every labelling, pair-covering or not, with no cut."""
    if i == len(cands):
        # a graph that is not maximal is skipped: its superset leaf covers it
        if not any(e not in state.current and state.can_add(e) for e in cands):
            yield state.current
        return
    e = cands[i]
    if state.can_add(e):
        state.add(e)
        yield from density_dfs_oracle(state, cands, i + 1)
        state.remove(e)
    yield from density_dfs_oracle(state, cands, i + 1)


def per_host_density_search(forbidden: ForbiddenPredicate, t_max: int, r: int,
                            seed: int) -> DensitySearchResult:
    """``lagrangian_density_search`` on a predicate as a loop over its hosts:
    at each host order the predicate leaves free, an 8-restart ``lagrangian``
    call per host of ``_covering_hosts``, in order, keeping a value only when
    it beats the best by more than 1e-12."""
    best_val, best_wit, exact, evaluated = 0.0, Hypergraph(t_max, r, []), True, 0
    for t in range(r, t_max + 1):
        if not forbidden.is_free(Hypergraph(t, r, [])):
            continue
        hosts, finished = _covering_hosts(t, r, forbidden)
        exact = exact and finished
        for edges in hosts:
            G = Hypergraph(t, r, edges)
            evaluated += 1
            est = lagrangian(G, restarts=8, seed=seed)
            if est.value > best_val + 1e-12:
                best_val, best_wit = est.value, G
    return DensitySearchResult(best_val, best_wit, exact, evaluated)


def colex_lex_leader(G: Hypergraph) -> Hypergraph:
    """The relabelling of G whose 0/1 vector over the candidates in colex
    order is largest, first position most significant, found by trying all
    n! permutations: the copy of G that the exact search's lex-leader cut
    must keep."""
    cands = _colex_candidates(G.n, G.r)
    best_vec, best_edges = None, None
    for perm in itertools.permutations(range(G.n)):
        edges = {tuple(sorted(perm[v] for v in e)) for e in G.edges}
        vec = [e in edges for e in cands]
        if best_vec is None or vec > best_vec:
            best_vec, best_edges = vec, edges
    return Hypergraph(G.n, G.r, best_edges)


def brute_matching(G: Hypergraph) -> int:
    """Maximum matching by checking all edge subsets."""
    edges = G.edge_list
    best = 0
    for k in range(len(edges), 0, -1):
        if k <= best:
            break
        for combo in itertools.combinations(edges, k):
            seen: set[int] = set()
            ok = True
            for e in combo:
                if any(v in seen for v in e):
                    ok = False
                    break
                seen.update(e)
            if ok:
                best = max(best, k)
                break
    return best


def brute_is_cancellative(G: Hypergraph) -> bool:
    for a, b, c in itertools.permutations(G.edge_list, 3):
        if (set(a) ^ set(b)).issubset(c):
            return False
    return True


def brute_sigma(G: Hypergraph) -> bool:
    """Some two edges share r-1 vertices and a third contains their
    symmetric difference."""
    for a, b, c in itertools.permutations(G.edge_list, 3):
        if len(set(a) & set(b)) == G.r - 1 and (set(a) ^ set(b)).issubset(c):
            return True
    return False


def enumerate_mad(G: Hypergraph) -> tuple[Fraction, tuple[int, ...]]:
    """Maximum average degree d(G) = max over nonempty W of 2 e(G[W]) / |W|
    of a 2-graph with at least one vertex, as (value, witness), by
    enumerating every vertex subset with an incremental edge-count table;
    the witness is the first densest subset in bitmask order."""
    n = G.n
    adj = [0] * n
    for u, v in G.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    size = 1 << n
    ecount = bytearray(size) if math.comb(n, 2) < 256 else [0] * size
    best_e, best_k, best_w = 0, 1, 1  # subset {0}
    for w in range(1, size):
        low = w & -w
        v = low.bit_length() - 1
        prev = w ^ low
        c = ecount[prev] + (adj[v] & prev).bit_count()
        ecount[w] = c
        k = w.bit_count()
        if c * best_k > best_e * k:
            best_e, best_k, best_w = c, k, w
    verts = tuple(i for i in range(n) if (best_w >> i) & 1)
    return Fraction(2 * best_e, best_k), verts


def sort_simplex_projection(v: np.ndarray) -> np.ndarray:
    """The plain sort-based simplex projection, with no cap and no corner
    handling: at cap 1 the capped projection must match it bit for bit."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, len(v) + 1)
    cond = u - css / ks > 0
    rho = np.nonzero(cond)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def bisection_capped_projection(v: np.ndarray, cap: float) -> np.ndarray:
    """Capped-simplex projection by 100 halvings of the threshold tau in
    clip(v - tau, 0, cap), whose sum falls as tau grows."""
    lo = float(v.min()) - 1.0
    hi = float(v.max())
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, cap).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - hi, 0.0, cap)


def one_graph_edges(A) -> np.ndarray:
    """The (|E|, r) vertex array of the one graph of the library's edge
    arrays, whose index row lists the vertices column by column."""
    (idx,) = A.idx
    return np.ascontiguousarray(idx.reshape(A.r, -1).T)


def add_at_gradient(A, x: np.ndarray) -> np.ndarray:
    """Gradient of p_G on the library's edge arrays, one column at a time:
    the product of the other columns by np.delete and np.prod, accumulated
    per vertex by np.add.at.  The vectorized gradient must match it bit for
    bit."""
    edges = one_graph_edges(A)
    lam = np.zeros(A.n)
    cols = x[edges]
    for j in range(A.r):
        if A.r == 1:
            others = np.ones(len(edges))
        else:
            others = np.prod(np.delete(cols, j, axis=1), axis=1)
        np.add.at(lam, edges[:, j], others)
    return A.rf * lam


# -- the serial ascent: one start at a time, on 1D vectors ----------------
# The lockstep engine of turanlag.lagrangian runs each start as one row of an
# array; every row must match these, byte for byte.


def serial_project(v: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection of v onto {x >= 0, sum x = 1, x <= cap}: the s
    largest coordinates sit at the cap for the least s at which the sort-based
    simplex projection of the rest onto total 1 - s*cap stays within it (Wang &
    Lu 2015); s = 0 at cap 1 is the simplex projection.  The rest is zero when
    it has no mass left (n*cap <= 1 or s*cap = 1)."""
    n = len(v)
    u = np.sort(v)[::-1]
    for s in range(n + 1):
        rest = 1.0 - s * cap
        if s == n or rest <= 0.0:
            break
        free = u[s:]
        css = np.cumsum(free) - rest
        ks = np.arange(1, n - s + 1)
        cond = free - css / ks > 0
        cond[0] = True  # exactly rest > 0, whatever the rounding
        rho = np.nonzero(cond)[0][-1]
        tau = css[rho] / (rho + 1.0)
        if free[0] - tau <= cap:
            x = np.maximum(v - tau, 0.0)
            return np.minimum(x, cap, out=x) if s else x  # clips the s largest
    x = np.zeros(n)
    x[np.argsort(-v, kind="stable")[:s]] = cap
    return x


def serial_p(A, x: np.ndarray) -> float:
    return float(A.rf * x[one_graph_edges(A)].prod(axis=1).sum())


def serial_grad(A, x: np.ndarray) -> np.ndarray:
    """others[j] is the product of the other columns of each edge, folded from
    the left in column order, summed per vertex in j-major order."""
    idx = one_graph_edges(A).T.ravel()
    cols = x[idx].reshape(A.r, -1)
    others = np.empty_like(cols)
    others[0] = 1.0
    np.cumprod(cols[:-1], axis=0, out=others[1:])
    for k in range(1, A.r):
        others[:k] *= cols[k]
    return A.rf * np.bincount(idx, weights=others.ravel(), minlength=A.n)


def serial_transfer(A, x: np.ndarray, lam: np.ndarray, cap: float,
                    tol: float) -> bool:
    """One pairwise transfer, in place, from the min-gradient support vertex a
    to the max-gradient support vertex b below the cap, lam the gradient at x:
    move min(gap / (2 r!), x_a), cut to b's headroom.  False when no such pair
    exists or the gradient gap is within tol / 4."""
    support = np.nonzero(x > _SUPPORT_EPS)[0]
    if len(support) < 2:
        return False
    rec_pool = support[x[support] < cap - 1e-12]
    if len(rec_pool) == 0:
        return False
    b = rec_pool[np.argmax(lam[rec_pool])]
    a = support[np.argmin(lam[support])]
    if a == b:
        return False
    gap = lam[b] - lam[a]
    if gap <= tol * 0.25:
        return False
    d = min(gap / (2.0 * A.rf), x[a], cap - x[b])
    if d <= 0:
        return False
    x[a] -= d
    x[b] += d
    return True


def serial_cannot_gain(A, lam: np.ndarray, val: float, d: np.ndarray) -> bool:
    """True when no step shorter than the one that moved x by d, along the
    gradient lam at x where p_G(x) = val, can raise p_G by more than 1e-16
    (the stop rule of the lagrangian module docstring)."""
    dd = float(d @ d)
    size = len(one_graph_edges(A))
    higher = A.rf * size * math.comb(A.r, 2) * dd * (1.0 + math.sqrt(dd)) ** (A.r - 2)
    return float((lam - A.r * val) @ d) + higher <= 1e-16


def serial_ascend(A, x0: np.ndarray, cap: float, max_iters: int,
                  searches: Optional[list] = None) -> tuple[np.ndarray, float]:
    """One ascent from x0 on its own; each row of the lockstep engine must
    take exactly these steps.  Each line search appends to ``searches`` the
    number of candidates it tried and how it ended: "gain", "stop" (the stop
    rule), "cap" (60 halvings) or "guard" (a step below 1e-20)."""
    x = serial_project(np.asarray(x0, dtype=float), cap)
    val = serial_p(A, x)
    lam = serial_grad(A, x)  # the gradient at x, recomputed whenever x moves
    t = 1.0
    for _ in range(max_iters):
        progressed = False
        # gradient step with backtracking
        tt = t
        for c in range(1, 61):
            cand = serial_project(x + tt * lam, cap)
            pv = serial_p(A, cand)
            if pv > val + 1e-16:
                x, val, t = cand, pv, tt * 2.0
                lam = serial_grad(A, x)
                progressed = True
                end = "gain"
                break
            if serial_cannot_gain(A, lam, val, cand - x):
                end = "stop"
                break
            tt *= 0.5
            if tt < 1e-20:
                end = "guard"
                break
        else:
            end = "cap"
        if searches is not None:
            searches.append((c, end))
        # pairwise transfer step, in place: x is a projection owned here
        if serial_transfer(A, x, lam, cap, _TOL):
            lam = serial_grad(A, x)
            nv = serial_p(A, x)
            if nv > val:
                progressed = True
            val = nv
        if not progressed:
            break
    # support cleanup with reprojection, then a final equalization pass
    y = x.copy()
    y[y < _SUPPORT_EPS] = 0.0
    y = y / y.sum()
    if y.max() > cap + 1e-15:
        y = serial_project(y, cap)
    if not np.array_equal(x, y):
        x, lam = y, serial_grad(A, y)
    for _ in range(300):
        if not serial_transfer(A, x, lam, cap, _TOL):
            break
        lam = serial_grad(A, x)
    val = serial_p(A, x)
    return x, val


def _fr_derivative_numerator(r: int) -> list[int]:
    """Integer coefficients (ascending) of N'(x)(x+r-3) - r N(x), where
    N = prod_{i=1}^{r-1}(x+i-2); its sign is the sign of f_r' for x > 3-r."""
    N = [1]
    for i in range(1, r):
        c = i - 2
        new = [0] * (len(N) + 1)
        for k, a in enumerate(N):
            new[k] += c * a
            new[k + 1] += a
        N = new
    dN = [k * a for k, a in enumerate(N)][1:]
    s = r - 3
    term = [0] * (len(dN) + 1)
    for k, a in enumerate(dN):
        term[k] += s * a
        term[k + 1] += a
    g = [t - r * a for t, a in zip(term, N)]
    while len(g) > 1 and g[-1] == 0:
        g.pop()
    return g


def _poly_sign(coeffs: list[int], x: Fraction) -> int:
    acc = Fraction(0)
    for a in reversed(coeffs):
        acc = acc * x + a
    return (acc > 0) - (acc < 0)


def exact_poly_value(G: Hypergraph, x) -> Fraction:
    """p_G at the float weights x, in exact rational arithmetic."""
    xs = [Fraction(float(v)) for v in x]
    return math.factorial(G.r) * sum(math.prod(xs[v] for v in e) for e in G.edge_list)


def rescanning_kernel_clean(G: Hypergraph, p: int, d: int) -> Hypergraph:
    """Kernel cleanup by full passes: every pass scans all edges for each
    d-set in lexicographic order, until a pass removes nothing."""
    threshold = p * math.comb(G.n, G.r - d - 1)
    edges = set(G.edges)
    changed = True
    while changed:
        changed = False
        for D in itertools.combinations(range(G.n), d):
            ds = set(D)
            hits = [e for e in edges if ds.issubset(e)]
            if hits and len(hits) <= threshold:
                edges.difference_update(hits)
                changed = True
    return Hypergraph(G.n, G.r, edges)


def _rebuilt_links(edges: set, alive) -> dict:
    lk: dict[int, set] = {v: set() for v in alive}
    for e in edges:
        for v in e:
            lk[v].add(e - {v})
    return {v: frozenset(s) for v, s in lk.items()}


def rebuilding_symmetrization(G: Hypergraph, alpha) -> SymmetrizationOutcome:
    """The symmetrization driver with every link and degree rebuilt from the
    edge set at each step: pick the pair, clone the donor class, then delete
    minimum-degree vertices while below alpha * C(|alive| - 1, r - 1)."""
    af = Fraction(alpha)
    edges = {frozenset(e) for e in G.edges}
    alive = set(range(G.n))
    steps = []
    while alive:
        links = _rebuilt_links(edges, alive)
        deg = {v: len(links[v]) for v in alive}
        sel = None
        for u in sorted(alive, key=lambda t: (-deg[t], t)):
            neighbours = frozenset().union(*links[u])
            sel = next(((u, v) for v in sorted(alive)
                        if v != u and deg[v] <= deg[u] and v not in neighbours
                        and links[u] != links[v]), None)
            if sel is not None:
                break
        donors, protected = (), set()
        if sel is not None:
            u, v = sel
            donors = tuple(sorted(w for w in alive if links[w] == links[v]))
            protected = {w for w in alive if links[w] == links[u]}
            before = len(edges)
            edges = {e for e in edges if not any(w in e for w in donors)}
            edges |= {D | {w} for w in donors for D in links[u]}
            steps.append(SymmetrizationStep("symmetrize", donors, u, (),
                                            before, len(edges)))
        removed, flagged, before = [], False, len(edges)
        while alive:
            deg = {w: sum(w in e for e in edges) for w in alive}
            victim = min(alive, key=lambda t: (deg[t], t))
            if deg[victim] >= af * math.comb(len(alive) - 1, G.r - 1):
                break
            if victim in protected:
                live_donors = [w for w in donors if w in alive]
                if live_donors:
                    victim = live_donors[0]
                else:
                    flagged = True
            alive.discard(victim)
            edges = {e for e in edges if victim not in e}
            removed.append(victim)
        if removed:
            steps.append(SymmetrizationStep("clean", (), -1, tuple(sorted(removed)),
                                            before, len(edges), flagged))
        elif sel is None:
            break
    kept = tuple(sorted(alive))
    pos = {v: i for i, v in enumerate(kept)}
    result = Hypergraph(len(kept), G.r, [tuple(sorted(pos[v] for v in e)) for e in edges])
    return SymmetrizationOutcome(result, SymmetrizationTrace(tuple(steps)), kept)


# -- the link-based symmetrization, kept as the oracle of the class state ----


def _link_add_edge(edges: set, links: dict, e: frozenset) -> None:
    edges.add(e)
    for x in e:
        links[x].add(e - {x})


def _link_index(G: Hypergraph) -> tuple[set, dict]:
    edges: set = set()
    links: dict[int, set] = {v: set() for v in range(G.n)}
    for e in G.edges:
        _link_add_edge(edges, links, frozenset(e))
    return edges, links


def _link_select_pair(links: dict):
    deg = {v: len(lk) for v, lk in links.items()}
    order = sorted(links)
    unpaired: set[int] = set()
    for u in sorted(order, key=lambda t: -deg[t]):
        if u in unpaired:
            continue
        neighbours = set().union(*links[u])
        for v in order:
            if v == u or deg[v] > deg[u] or v in neighbours:
                continue
            if links[u] == links[v]:
                unpaired.add(v)
                continue
            return u, v
    return None


def _link_compact(edges: set, alive, r: int):
    kept = tuple(sorted(alive))
    pos = {v: i for i, v in enumerate(kept)}
    return Hypergraph(len(kept), r, [[pos[v] for v in e] for e in edges]), kept


def _link_drop_vertex_edges(edges: set, links: dict, w: int) -> None:
    ws = frozenset((w,))
    for D in links[w]:
        e = D | ws
        edges.discard(e)
        for x in D:
            links[x].discard(e - {x})
    links[w].clear()


def _link_clone(edges: set, links: dict, donors, u: int) -> None:
    link_u = tuple(links[u])
    for w in donors:
        _link_drop_vertex_edges(edges, links, w)
    for w in donors:
        links[w].update(link_u)
        ws = frozenset((w,))
        for D in link_u:
            e = D | ws
            edges.add(e)
            for x in D:
                links[x].add(e - {x})


def _link_delete_vertex(edges: set, links: dict, w: int) -> None:
    _link_drop_vertex_edges(edges, links, w)
    del links[w]


def link_symmetrization_oracle(G: Hypergraph, alpha) -> SymmetrizationOutcome:
    """The symmetrization driver on vertex-level edges and links, updated as
    edges go and come: the library's driver before it ran on twin classes.
    ``alpha = 0`` is ``run_plain``."""
    af = Fraction(alpha)
    edges, links = _link_index(G)
    steps = []
    while links:
        sel = _link_select_pair(links)
        donors: tuple[int, ...] = ()
        protected: set[int] = set()
        if sel is not None:
            u, v = sel
            donors = tuple(sorted(w for w in links if links[w] == links[v]))
            protected = {w for w in links if links[w] == links[u]}
            before = len(edges)
            _link_clone(edges, links, donors, u)
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
            _link_delete_vertex(edges, links, victim)
            removed.append(victim)
        if removed:
            steps.append(SymmetrizationStep("clean", (), -1,
                                            tuple(sorted(removed)),
                                            before, len(edges), flagged))
        elif sel is None:
            break
    result, kept = _link_compact(edges, links, G.r)
    return SymmetrizationOutcome(result, SymmetrizationTrace(tuple(steps)), kept)


def link_replay_oracle(G: Hypergraph, trace: SymmetrizationTrace):
    """The link-based replay: the outcome ``replay_trace`` gives and the list
    of graphs ``intermediate_graphs`` yields, on the original labels."""
    edges, links = _link_index(G)
    graphs = []
    for step in trace.steps:
        if step.kind == "symmetrize":
            _link_clone(edges, links, step.donor_class, step.target)
        else:
            for z in step.removed:
                _link_delete_vertex(edges, links, z)
        graphs.append(Hypergraph(G.n, G.r, edges))
    result, kept = _link_compact(edges, links, G.r)
    return SymmetrizationOutcome(result, trace, kept), graphs


def link_symmetrize_oracle(G: Hypergraph, v: int, u: int) -> Hypergraph:
    """v made a clone of u on the vertex-level links."""
    edges, links = _link_index(G)
    _link_clone(edges, links, (v,), u)
    return Hypergraph(G.n, G.r, edges)


@pytest.fixture
def t363() -> Hypergraph:
    """T_3(6,3) built directly from its parts, bypassing the library builder."""
    parts = [(0, 1), (2, 3), (4, 5)]
    edges = [tuple(sorted(c)) for c in itertools.product(*parts)]
    return Hypergraph(6, 3, edges)
