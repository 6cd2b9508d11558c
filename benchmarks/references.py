"""Independent references for the benchmark's correctness checks.

Everything here is written from the definitions with the standard library
only, and shares no code with `turanlag`: edges are plain tuples of vertex
labels and graphs are (n, edges) pairs.  The checks are deliberately naive;
they run outside the timed region on the small graphs the workloads use.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction

# -- closed forms ------------------------------------------------------------


def complete_lagrangian(m: int, r: int) -> float:
    """lambda(K_m^(r)) = m(m-1)...(m-r+1) / m^r, normalized as r! sum prod x."""
    return math.perm(m, r) / m**r


def turan_size(n: int, r: int, parts: int) -> int:
    """Edge count of the complete balanced `parts`-partite r-graph on n vertices."""
    q, rem = divmod(n, parts)
    sizes = [q + 1] * rem + [q] * (parts - rem)
    return sum(math.prod(c) for c in itertools.combinations(sizes, r))


def capped_c5_value(beta: float) -> float:
    """Capped Lagrangian of the 5-cycle at the caps the benchmark uses
    (0.3 and 0.4).

    For 1/3 <= beta <= 1/2 the optimum is (beta, beta, 1 - 2 beta) on a path,
    value 2 beta (1 - beta); for 0.3 it is (eps, beta, beta, beta, eps) on the
    whole cycle with eps = (1 - 3 beta) / 2, value 2 (2 beta^2 + 2 beta eps +
    eps^2).  `grid_max` cross-checks both from below.
    """
    if beta >= 1 / 3:
        return 2 * beta * (1 - beta)
    eps = (1 - 3 * beta) / 2
    return 2 * (2 * beta * beta + 2 * beta * eps + eps * eps)


# -- polynomial and weights --------------------------------------------------


def poly(r: int, edges, x) -> float:
    """p_G(x) = r! * sum over edges of prod x_i, with compensated summation."""
    return math.factorial(r) * math.fsum(math.prod(x[v] for v in e) for e in edges)


def weight_problems(x, n: int, cap=None) -> list[str]:
    out = []
    if len(x) != n:
        out.append(f"weight vector has {len(x)} entries for {n} vertices")
    if any(v < 0 for v in x):
        out.append("negative weight")
    if abs(math.fsum(x) - 1.0) > 1e-9:
        out.append(f"weights sum to {math.fsum(x)!r}")
    if cap is not None and max(x) > cap + 1e-9:
        out.append(f"weight {max(x)!r} above the cap {cap}")
    return out


def grid_max(r: int, n: int, edges, steps: int, cap: float) -> float:
    """Best p_G over the capped-simplex grid with spacing 1/steps: a lower
    reference that any maximizer must reach."""
    top = min(steps, math.floor(cap * steps + 1e-9))
    best = 0.0

    def rec(i: int, left: int, x: list) -> None:
        nonlocal best
        if i == n - 1:
            if left <= top:
                best = max(best, poly(r, edges, x + [left / steps]))
            return
        for k in range(min(left, top) + 1):
            rec(i + 1, left - k, x + [k / steps])

    rec(0, steps, [])
    return best


# -- 2-graphs ----------------------------------------------------------------


def clique_number(n: int, edges) -> int:
    """Largest clique, by plain Bron-Kerbosch with pivoting over sets."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    best = 1 if n else 0

    def bk(size: int, cand: set, excl: set) -> None:
        nonlocal best
        if not cand and not excl:
            best = max(best, size)
            return
        pivot = max(cand | excl, key=lambda u: len(adj[u] & cand))
        for v in list(cand - adj[pivot]):
            bk(size + 1, cand & adj[v], excl & adj[v])
            cand = cand - {v}
            excl = excl | {v}

    bk(0, set(range(n)), set())
    return best


# -- forbidden configurations ------------------------------------------------


def contains_copy(n: int, edges, pn: int, pattern) -> bool:
    """Some injective map of the pattern's vertices sends every pattern edge
    onto a host edge (not necessarily induced)."""
    host = {tuple(sorted(e)) for e in edges}
    if len(pattern) > len(host):
        return False
    for image in itertools.permutations(range(n), pn):
        if all(tuple(sorted(image[v] for v in pe)) in host for pe in pattern):
            return True
    return False


def cancellative(edges) -> bool:
    """No three distinct edges A, B, C with A ^ B inside C."""
    sets = [frozenset(e) for e in edges]
    for a, b in itertools.combinations(sets, 2):
        d = a ^ b
        if any(c != a and c != b and d <= c for c in sets):
            return False
    return True


def sigma_free(edges) -> bool:
    """No two edges sharing all but one vertex whose symmetric difference
    lies in a third edge."""
    sets = [frozenset(e) for e in edges]
    for a, b in itertools.combinations(sets, 2):
        if len(a & b) == len(a) - 1:
            d = a ^ b
            if any(d <= c for c in sets if c != a and c != b):
                return False
    return True


def family_free(n: int, edges, pattern_n: int, pattern, p: int) -> bool:
    """No p-set whose pairs are all covered by edges of the host and whose
    induced subgraph contains a copy of the pattern."""
    covered = set()
    for e in edges:
        covered.update(itertools.combinations(sorted(e), 2))
    for core in itertools.combinations(range(n), p):
        if not all(pr in covered for pr in itertools.combinations(core, 2)):
            continue
        inside = set(core)
        sub = [e for e in edges if inside.issuperset(e)]
        pos = {v: i for i, v in enumerate(core)}
        relabelled = [tuple(sorted(pos[v] for v in e)) for e in sub]
        if contains_copy(p, relabelled, pattern_n, pattern):
            return False
    return True


# -- symmetrization and cleanup ----------------------------------------------


def links(n: int, edges) -> list[frozenset]:
    out = [set() for _ in range(n)]
    for e in edges:
        for v in e:
            out[v].add(tuple(u for u in e if u != v))
    return [frozenset(s) for s in out]


def symmetrization_fixed_point(n: int, edges) -> bool:
    """Every pair of vertices that no edge covers has identical links."""
    lk = links(n, edges)
    covered = set()
    for e in edges:
        covered.update(itertools.combinations(sorted(e), 2))
    return all(lk[u] == lk[v] for u, v in itertools.combinations(range(n), 2)
               if (u, v) not in covered)


def dense_or_empty(n: int, r: int, edges, alpha: Fraction) -> bool:
    """Empty, or minimum degree at least alpha * C(n-1, r-1), exactly."""
    if n == 0:
        return True
    deg = [0] * n
    for e in edges:
        for v in e:
            deg[v] += 1
    return Fraction(min(deg)) >= alpha * math.comb(n - 1, r - 1)


def has_disjoint(edges, k: int) -> bool:
    """Some k edges are pairwise disjoint (exhaustive branching)."""
    edges = [frozenset(e) for e in edges]

    def rec(i: int, used: frozenset, need: int) -> bool:
        if need == 0:
            return True
        if len(edges) - i < need:
            return False
        if not edges[i] & used and rec(i + 1, used | edges[i], need - 1):
            return True
        return rec(i + 1, used, need)

    return rec(0, frozenset(), k)


def kernel_problems(n: int, r: int, before, after, p: int, d: int) -> list[str]:
    """Postconditions of the kernel cleanup: a subgraph of the input, the loss
    bound, and every d-set of nonzero degree has more than p disjoint petals."""
    out = []
    before, after = set(before), set(after)
    if not after <= before:
        out.append("output has edges the input lacks")
    cap = p * math.comb(n, d) * math.comb(n, r - d - 1)
    if len(before) - len(after) > cap:
        out.append(f"lost {len(before) - len(after)} edges, cap {cap}")
    petals: dict[tuple, list] = {}
    for e in after:
        for D in itertools.combinations(e, d):
            petals.setdefault(D, []).append(tuple(v for v in e if v not in D))
    for D, lk in sorted(petals.items()):
        if not has_disjoint(lk, p + 1):
            out.append(f"d-set {D} has kernel degree <= {p}")
            break
    return out


# -- digests -----------------------------------------------------------------


def digest(records) -> str:
    """sha256 of the canonical JSON of the records (floats by repr)."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
