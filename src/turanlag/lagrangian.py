"""Edge-polynomial optimization on the probability simplex.

For an r-graph G the edge polynomial is p_G(x) = r! * sum over edges of
prod(x_i), and its Lagrangian lambda(G) is the maximum of p_G over 1-sum
nonnegative weights.  The gradient coordinates are
lambda_i = r! * sum over link edges of i of prod(x_j), which satisfy the exact
identities p_G(x) = (1/r) * sum lambda_i x_i and max_i lambda_i >= r * p_G(x).

The ascent runs on the capped simplex {x >= 0, sum x = 1, x <= cap}, at
cap 1 for an uncapped run: projected gradient with backtracking line search,
polished by a pairwise weight transfer: moving d = (lam_b - lam_a) / (2 r!)
from the smallest-gradient support vertex a to the largest-gradient support
vertex b raises p_G by at least (lam_b - lam_a)^2 / (4 r!), so the move never
decreases the objective.

A line search accepts a step that raises p_G by more than 1e-16, halves it
otherwise (at most 60 times, down to 1e-20), and ends early once a failed
candidate moved x by d with

    (lambda - r p_G(x)).d + r! |E| C(r,2) |d|^2 (1 + |d|)^(r-2) <= 1e-16,

|d| the 2-norm.  No shorter step can then gain more than 1e-16.  The first
term is lambda.d, as d sums to 0.  The projection onto the capped simplex is
firmly nonexpansive, so neither lambda.d nor |d| grows as the step shrinks
(Calamai & More 1987).  Beyond lambda.d, each edge adds to
p_G(x + d) - p_G(x) at most r! sum_{k>=2} C(r,k) |d|^k, as weights lie in
[0, 1] and each |d_i| <= |d|; the second term covers that sum because
C(r,k) <= C(r,2) C(r-2,k-2).  The shift by r p_G(x), the common gradient
value on the support at an uncapped stationary point, keeps the rounding of
the candidate's sum (about n ulps of t*lambda at step t) out of the slope;
without it a long failed step can stop the search while a shorter one gains.
At a stationary x rounding also keeps the first candidate off x, so the test
"candidate equals x" would rarely fire.

Reported values are feasible-point evaluations and hence certified lower
bounds on lambda(G); the convergence flag asserts the KKT residual on the
capped simplex (see ``_residual``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .extremal import SubgraphPredicate, _colex_candidates, _greedy_fill
from .hypergraph import Hypergraph, VertexSet, _bits, _pair_masks, falling_factorial

__all__ = [
    "WeightVector",
    "LagrangianEstimate",
    "poly_value",
    "grad",
    "lagrangian",
    "lagrangian_constrained",
    "f_r_eval",
    "compute_Mr",
    "clique_number",
    "motzkin_straus_reference",
    "lagrangian_density_search",
    "DensitySearchResult",
    "stability_probe",
    "certificate_label",
]

_SUPPORT_EPS = 1e-9
_TOL = 1e-9  # KKT residual at which an ascent counts as converged
_MAX_ITERS = 5000  # gradient iterations per ascent

# Lagrangian-density search: ascent restarts per host, perturb-and-refill
# rounds per host order, and the largest C(t, r) searched exhaustively
_DENSITY_RESTARTS = 8
_DENSITY_ITERS = 150
_DENSITY_EXHAUSTIVE_CAP = 25


# -- weight vectors -----------------------------------------------------


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative vertex weights summing to 1 (renormalized on construction)."""

    weights: tuple[float, ...]

    def __post_init__(self):
        w = [float(v) for v in self.weights]
        if any(v < -1e-12 for v in w):
            raise ValueError("weights must be nonnegative")
        w = [max(v, 0.0) for v in w]
        if w:
            total = math.fsum(w)
            if total <= 0:
                raise ValueError("weights must have positive total")
            if abs(total - 1.0) > 1e-12:
                w = [v / total for v in w]
        object.__setattr__(self, "weights", tuple(w))

    @classmethod
    def uniform(cls, n: int) -> "WeightVector":
        return cls(tuple([1.0 / n] * n)) if n else cls(())

    def __array__(self, dtype=None):
        return np.asarray(self.weights, dtype=dtype)

    def __len__(self):
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def __getitem__(self, i):
        return self.weights[i]


def _as_floats(x, n: int) -> list[float]:
    xs = [float(v) for v in x]
    if len(xs) != n:
        raise ValueError(f"weight vector has length {len(xs)}, expected {n}")
    return xs


# -- exact-ish reference evaluations (compensated summation) ------------


def poly_value(G: Hypergraph, x) -> float:
    """p_G(x) = r! * sum over edges of prod(x_i), compensated summation.

    No simplex constraint is imposed on x, so finite differences of this
    function are meaningful.
    """
    xs = _as_floats(x, G.n)
    rf = math.factorial(G.r)
    return rf * math.fsum(math.prod(xs[v] for v in e) for e in G.edge_list)


def grad(G: Hypergraph, x) -> list[float]:
    """Gradient of p_G: coordinate i is r! times the weight of the link of i."""
    xs = _as_floats(x, G.n)
    rf = math.factorial(G.r)
    acc: list[list[float]] = [[] for _ in range(G.n)]
    for e in G.edge_list:
        for v in e:
            acc[v].append(math.prod(xs[u] for u in e if u != v))
    return [rf * math.fsum(terms) for terms in acc]


# -- capped-simplex projection -----------------------------------------


def _project(v: np.ndarray, cap: float) -> np.ndarray:
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


# -- ascent engine ------------------------------------------------------


class _Arrays(NamedTuple):
    edges: np.ndarray  # (E, r) vertex indices
    n: int
    r: int
    rf: int


def _arrays(G: Hypergraph) -> Optional[_Arrays]:
    if not G.edges:
        return None
    edges = np.array(G.edge_list, dtype=np.int64)
    return _Arrays(edges, G.n, G.r, math.factorial(G.r))


def _p_np(A: _Arrays, x: np.ndarray) -> float:
    return float(A.rf * x[A.edges].prod(axis=1).sum())


def _grad_np(A: _Arrays, x: np.ndarray) -> np.ndarray:
    """others[j] is the product of the other columns of each edge, folded from
    the left in column order, summed per vertex in j-major order."""
    idx = A.edges.T.ravel()
    cols = x[idx].reshape(A.r, -1)
    others = np.empty_like(cols)
    others[0] = 1.0
    np.cumprod(cols[:-1], axis=0, out=others[1:])
    for k in range(1, A.r):
        others[:k] *= cols[k]
    return A.rf * np.bincount(idx, weights=others.ravel(), minlength=A.n)


def _transfer(A: _Arrays, x: np.ndarray, lam: np.ndarray, cap: float,
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


def _cannot_gain(A: _Arrays, lam: np.ndarray, val: float, d: np.ndarray) -> bool:
    """True when no step shorter than the one that moved x by d, along the
    gradient lam at x where p_G(x) = val, can raise p_G by more than 1e-16
    (the stop rule of the module docstring)."""
    dd = float(d @ d)
    higher = A.rf * len(A.edges) * math.comb(A.r, 2) * dd * (1.0 + math.sqrt(dd)) ** (A.r - 2)
    return float((lam - A.r * val) @ d) + higher <= 1e-16


def _ascend(A: _Arrays, x0: np.ndarray, cap: float,
            max_iters: int) -> tuple[np.ndarray, float]:
    x = _project(np.asarray(x0, dtype=float), cap)
    val = _p_np(A, x)
    lam = _grad_np(A, x)  # the gradient at x, recomputed whenever x moves
    t = 1.0
    for _ in range(max_iters):
        progressed = False
        # gradient step with backtracking
        tt = t
        for _ in range(60):
            cand = _project(x + tt * lam, cap)
            pv = _p_np(A, cand)
            if pv > val + 1e-16:
                x, val, t = cand, pv, tt * 2.0
                lam = _grad_np(A, x)
                progressed = True
                break
            if _cannot_gain(A, lam, val, cand - x):
                break
            tt *= 0.5
            if tt < 1e-20:
                break
        # pairwise transfer step, in place: x is a projection owned here
        if _transfer(A, x, lam, cap, _TOL):
            lam = _grad_np(A, x)
            nv = _p_np(A, x)
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
        y = _project(y, cap)
    if not np.array_equal(x, y):
        x, lam = y, _grad_np(A, y)
    for _ in range(300):
        if not _transfer(A, x, lam, cap, _TOL):
            break
        lam = _grad_np(A, x)
    val = _p_np(A, x)
    return x, val


def _residual(G: Hypergraph, x, value: float, cap: float) -> float:
    """Largest violation at x of the KKT conditions on the capped simplex for
    one multiplier mu: lambda_i = mu on the support below the cap, >= mu at the
    cap, <= mu off the support.  mu = r*value (Euler's identity) when no
    coordinate is at the cap; else the minimizing mu, halfway between the max
    lambda over free and off-support and the min over free and at-cap ones."""
    lam = grad(G, x)
    off = [i for i, v in enumerate(x) if v <= _SUPPORT_EPS]
    at_cap = [i for i, v in enumerate(x) if v >= cap - 1e-12]
    free = [i for i, v in enumerate(x) if _SUPPORT_EPS < v < cap - 1e-12]
    if not at_cap:
        mu = G.r * value
        return max([abs(lam[i] - mu) for i in free] + [lam[i] - mu for i in off])
    lo = min(lam[i] for i in free + at_cap)
    hi = max((lam[i] for i in free + off), default=lo)
    return max(0.0, (hi - lo) / 2)


def _greedy_supports(G: Hypergraph) -> list[tuple[int, ...]]:
    """Maximal pairwise-covered vertex sets, grown greedily from every vertex
    and every covered pair, in degree-descending and label orders."""
    n = G.n
    adj = _pair_masks(G)
    deg = G.degrees
    by_degree = sorted(range(n), key=lambda v: (-deg[v], v))
    by_label = list(range(n))
    seeds: list[list[int]] = [[v] for v in range(n)]
    seeds += [[u, v] for u, v in sorted(G.covered_pairs)]
    out = set()
    for seed in seeds:
        mask = _bits(seed)
        for order in (by_degree, by_label):
            members = list(seed)
            mm = mask
            for u in order:
                if (mm >> u) & 1:
                    continue
                if (adj[u] & mm) == mm:
                    members.append(u)
                    mm |= 1 << u
            out.add(tuple(sorted(members)))
    return sorted(out)


@dataclass(frozen=True)
class LagrangianEstimate:
    """Best feasible value found, with its weights and convergence data.

    ``value`` is p_G at ``weights``, so always a certified lower bound on the
    Lagrangian; ``gradient_residual`` is the KKT violation at ``weights``
    (``_residual``).
    ``restarts_used`` counts the ascents that ran: the uniform start, the
    greedy-support starts and the seeded restarts (0 for an edgeless graph).
    For constrained runs ``beta`` echoes the cap and ``cap_binds`` reports
    whether the optimum sits on it.
    """

    value: float
    weights: WeightVector
    restarts_used: int
    converged: bool
    gradient_residual: float
    beta: Optional[float] = None
    cap_binds: Optional[bool] = None


def _optimize(G: Hypergraph, cap: Optional[float], restarts: int,
              seed: int) -> LagrangianEstimate:
    if restarts < 0:
        raise ValueError(f"restarts must be nonnegative, got {restarts}")
    n = G.n
    A = _arrays(G)
    if A is None:
        return LagrangianEstimate(0.0, WeightVector.uniform(n), 0, True, 0.0,
                                  beta=cap, cap_binds=None if cap is None else False)
    box = 1.0 if cap is None else cap

    starts: list[np.ndarray] = [np.full(n, 1.0 / n)]
    for sup in _greedy_supports(G):
        v = np.zeros(n)
        v[list(sup)] = 1.0 / len(sup)
        starts.append(v)
    for k in range(restarts):
        rng = np.random.default_rng([seed, k])
        starts.append(rng.dirichlet(np.ones(n)))

    best_x: Optional[np.ndarray] = None
    best_val = -1.0
    for x0 in starts:
        x, val = _ascend(A, x0, box, _MAX_ITERS)
        if val > best_val + 1e-15:
            best_val, best_x = val, x

    # value and residual at the weights reported, after any renormalization
    wv = WeightVector(tuple(float(v) for v in best_x))
    value = poly_value(G, wv.weights)
    resid = _residual(G, wv.weights, value, box)
    binds = None if cap is None else max(wv.weights) >= cap - 1e-9
    return LagrangianEstimate(value, wv, len(starts), resid <= _TOL, resid,
                              beta=cap, cap_binds=binds)


def lagrangian(G: Hypergraph, *, restarts: int = 50, seed: int = 0) -> LagrangianEstimate:
    """Multistart estimate of lambda(G).

    Starts: uniform weights, uniform weights on greedily grown pairwise-covered
    supports, and ``restarts`` seeded Dirichlet points.  The returned value is
    a certified lower bound (it is p_G at a feasible point); ``converged``
    reports whether its KKT residual is within 1e-9.
    """
    return _optimize(G, None, restarts, seed)


def lagrangian_constrained(G: Hypergraph, beta: float, *, restarts: int = 50,
                           seed: int = 0) -> LagrangianEstimate:
    """Estimate of the Lagrangian restricted to max_i x_i <= beta.

    The feasible region is the capped simplex; ``cap_binds`` reports whether
    the best point sits on the cap (when it does, the value is also the
    equality-constrained optimum for this beta).
    """
    if G.n == 0:
        raise ValueError("constrained Lagrangian needs at least one vertex")
    if not (1.0 / G.n - 1e-12 <= beta <= 1.0 + 1e-12):
        raise ValueError(f"beta must lie in [1/n, 1], got {beta}")
    return _optimize(G, float(beta), restarts, seed)


# -- closed forms -------------------------------------------------------


def f_r_eval(r: int, x):
    """prod_{i=1}^{r-1} (x+i-2) / (x+r-3)^r; exact when x is a Fraction."""
    if r < 2:
        raise ValueError("defined for r >= 2")
    if x < 0:
        raise ValueError("x must be nonnegative")
    base = x + r - 3
    if base <= 0:
        raise ValueError(f"pole or undefined region: x + r - 3 = {base} <= 0")
    num = 1
    for i in range(1, r):
        num = num * (x + i - 2)
    return num / base**r


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


def compute_Mr(r: int) -> float:
    """Rightmost local maximizer of f_r on [2, inf); 2 when f_r is decreasing
    there (and by convention for r = 1).

    The derivative's numerator polynomial has integer coefficients; roots are
    located numerically, then pinned down by exact-sign rational bisection, and
    a root counts as a maximum only when the sign crosses + to -.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if r == 1:
        return 2.0
    g = _fr_derivative_numerator(r)
    if len(g) <= 1:
        return 2.0
    roots = np.roots(np.array(g[::-1], dtype=float))
    reals = sorted(float(z.real) for z in roots if abs(z.imag) < 1e-9)
    candidates = [z for z in reals if z > 2.0 + 1e-9]
    best = 2.0
    for z in candidates:
        gaps = [abs(z - o) for o in reals if abs(z - o) > 1e-12]
        delta = min([1e-3] + [gp / 4 for gp in gaps])
        delta = min(delta, (z - 2.0) / 2)
        lo = Fraction(z - delta).limit_denominator(10**15)
        hi = Fraction(z + delta).limit_denominator(10**15)
        slo, shi = _poly_sign(g, lo), _poly_sign(g, hi)
        if not (slo > 0 and shi < 0):
            continue  # touch or wrong-direction crossing: not a maximum
        while hi - lo > Fraction(1, 10**11):
            mid = (lo + hi) / 2
            sm = _poly_sign(g, mid)
            if sm > 0:
                lo = mid
            elif sm < 0:
                hi = mid
            else:
                lo = hi = mid
        best = max(best, float((lo + hi) / 2))
    return best


# -- clique-number oracle (2-graphs) ------------------------------------


def clique_number(G: Hypergraph) -> int:
    """Exact clique number of a 2-graph by branch and bound."""
    if G.r != 2:
        raise ValueError("clique number is defined here for 2-graphs")
    n = G.n
    if n == 0:
        return 0
    adj = _pair_masks(G)
    best = 1

    def expand(size: int, cand: int) -> None:
        nonlocal best
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            if size + 1 > best:
                best = size + 1
            nxt = cand & adj[v]
            if nxt:
                expand(size + 1, nxt)

    expand(0, (1 << n) - 1)
    return best


def motzkin_straus_reference(G: Hypergraph) -> float:
    """Exact Lagrangian of a 2-graph: 1 - 1/omega(G) via the clique number.

    Serves as the independent oracle for the ascent on 2-graphs.
    """
    if G.r != 2:
        raise ValueError("the clique-number oracle applies to 2-graphs")
    w = clique_number(G)
    return 0.0 if w <= 0 else 1.0 - 1.0 / w


# -- Lagrangian density search ------------------------------------------


class DensitySearchResult(NamedTuple):
    best_value: float
    witness: Hypergraph
    exact: bool
    evaluated: int


def lagrangian_density_search(F: Hypergraph, t_max: int, *,
                              seed: int = 0) -> DensitySearchResult:
    """Lower bound on the Lagrangian density of F: max lambda(G) over F-free
    hosts on at most t_max vertices.

    Hosts with exactly t vertices are searched for each t <= t_max on the
    incremental state of ``SubgraphPredicate(F)``, the one the exact Turan
    search uses: exhaustively over maximal F-free graphs while C(t, r) <= 25,
    by 150 rounds of seeded add/remove local search beyond.  Each host gets
    an 8-restart ``lagrangian``.
    ``exact`` records whether every host size was exhausted (the value is a
    lower bound either way).
    """
    if t_max < F.r:
        raise ValueError("t_max must be at least the uniformity")
    r = F.r
    best_val = 0.0
    best_wit = Hypergraph(t_max, r, [])
    evaluated = 0
    exact = True
    if F.n == 0:
        # the empty pattern embeds in every host: no F-free host exists
        return DensitySearchResult(best_val, best_wit, exact, evaluated)
    pred = SubgraphPredicate(F)

    def consider(G: Hypergraph) -> None:
        nonlocal best_val, best_wit, evaluated
        evaluated += 1
        est = lagrangian(G, restarts=_DENSITY_RESTARTS, seed=seed)
        if est.value > best_val + 1e-12:
            best_val, best_wit = est.value, G

    for t in range(r, t_max + 1):
        if not pred.is_free(Hypergraph(t, r, [])):
            continue  # F (edgeless or tiny) already embeds in t isolated vertices
        cands = _colex_candidates(t, r)
        state = pred.state(t, r)
        if math.comb(t, r) <= _DENSITY_EXHAUSTIVE_CAP:
            _density_dfs(state, cands, consider)
        else:
            exact = False
            _density_local(state, cands, consider,
                           random.Random(seed * 1000003 + t), _DENSITY_ITERS)
    return DensitySearchResult(best_val, best_wit, exact, evaluated)


def _density_dfs(state, cands, consider) -> None:
    """Consider every maximal predicate-free graph, in include-first order."""
    current = state.current

    def rec(i: int) -> None:
        if i == len(cands):
            # a graph that is not maximal is skipped: its superset leaf covers it
            if not any(e not in current and state.can_add(e) for e in cands):
                consider(state.graph())
            return
        e = cands[i]
        if state.can_add(e):
            state.add(e)
            rec(i + 1)
            state.remove(e)
        rec(i + 1)

    rec(0)


def _density_local(state, cands, consider, rng: random.Random,
                   iters: int) -> None:
    """Greedy fill, then perturb-and-refill rounds; considers each result."""
    current = state.current
    _greedy_fill(state, rng.sample(cands, len(cands)))
    consider(state.graph())
    for _ in range(iters):
        if current and rng.random() < 0.5:
            for e in rng.sample(sorted(current), min(2, len(current))):
                state.remove(e)
        _greedy_fill(state, rng.sample(cands, len(cands)))
        consider(state.graph())


# -- stability probe ----------------------------------------------------


def stability_probe(x, eps: float) -> VertexSet:
    """Smallest set of coordinates, taken in decreasing-weight order (ties by
    label), whose total weight reaches 1 - eps.  Returned sorted ascending."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    xs = [float(v) for v in x]
    order = sorted(range(len(xs)), key=lambda i: (-xs[i], i))
    out: list[int] = []
    cum = 0.0
    for i in order:
        out.append(i)
        cum += xs[i]
        if cum >= 1.0 - eps:
            break
    return tuple(sorted(out))


# -- certificate labeling ------------------------------------------------


def certificate_label(G: Hypergraph, est: LagrangianEstimate) -> str:
    """Conservative exactness label for a reported Lagrangian value.

    'exact-motzkin-straus' when the clique-number oracle confirms a 2-graph
    value; 'exact-symmetric' when the support induces a complete r-graph whose
    known optimum matches; otherwise 'lower-bound'.
    """
    if G.r == 2 and G.n and abs(est.value - motzkin_straus_reference(G)) <= 1e-8:
        return "exact-motzkin-straus"
    support = [v for v in range(G.n) if G.degrees[v] > 0]
    m = len(support)
    if m >= G.r and len(G.edges) == math.comb(m, G.r):
        inside = set(support)
        if all(inside.issuperset(e) for e in G.edges):
            known = falling_factorial(m, G.r) / m**G.r
            if abs(est.value - known) <= 1e-9:
                return "exact-symmetric"
    return "lower-bound"
