"""Edge-polynomial optimization on the probability simplex.

For an r-graph G the edge polynomial is p_G(x) = r! * sum over edges of
prod(x_i), and its Lagrangian lambda(G) is the maximum of p_G over 1-sum
nonnegative weights.  The gradient coordinates are
lambda_i = r! * sum over link edges of i of prod(x_j), which satisfy the exact
identities p_G(x) = (1/r) * sum lambda_i x_i and max_i lambda_i >= r * p_G(x).

The ascent runs on the capped simplex {x >= 0, sum x = 1, x <= cap}, at
cap 1 for an uncapped run: projected gradient with backtracking line search,
each search followed by a pairwise weight transfer from the smallest-gradient
support vertex a to the largest-gradient support vertex b below the cap.
Along e_b - e_a the edge polynomial is exactly quadratic, the weight shifting
of Frankl & Rodl 1984:

    p_G(x + s(e_b - e_a)) = p_G(x) + gap s - c s^2,

gap = lambda_b - lambda_a, and c = r! sum over the edges through a and b of
the product of their other weights, the mixed second derivative, at most r!.
So a move d of at most gap / (2c) gains at least gap d / 2 in exact
arithmetic.  The final equalization passes move the maximizer,
d = min(gap / (2c), x_a, cap - x_b), or min(x_a, cap - x_b) when c = 0.  The
transfer after each line search moves min(gap / (2 r!), x_a, cap - x_b),
never more: with the maximizer there, small 3-graphs and 2-graphs kept
progressing through more line-search ticks (a 50-restart call on a single
3-edge took 19 instead of 10).  That transfer counts as progress only when
it raises p_G by more than 1e-16, the line search's own bar, so a row whose
search failed ends its loop instead of iterating on rounding-level gains.

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

All starts of one call run together, each as one row of an array, in
blocks of at most ``_BLOCK_ELEMS`` elements of (rows, r, |E|) temporaries,
``_RUNGS`` times that for a tick's candidates.
The rows run in lockstep and never interact: each keeps its own step,
halving count, iteration count and progress flag, so it takes the steps of
an ascent run on it alone, bit for bit.  A block's gradient bins (each row's
vertices offset by its row times n) are built once per block.

One tick of the line search tries a ladder of K = ``_RUNGS`` candidates per
row, at the steps tt, tt/2, ..., tt/2^(K-1) from the same x, and the row
takes its first decisive rung: one that gains, one where the stop rule
fires, or one after which the halving would pass the 1e-20 guard or the
60-halving cap.  A row with no decisive rung halves tt K times and goes on.
Each rung is the candidate a lone search tries at that point: x, lambda and
p_G(x) do not change within a search, and tt/2^j is exact, as tt >= 1e-20 is
a normal float.  So the first decisive rung is the candidate where the lone
search accepts or stops; the rungs past it are never read.

Two numpy forms would break the bit-identity.
``X[:, edges]`` is strided, and numpy folds its edge sums from the left
instead of summing pairwise as for one vector, so ``_p_np`` gathers with
``X.take``.  An einsum or ``(D * D).sum(axis=1)`` rounds dot products apart
from ``d @ d``, so ``_dots`` uses a stacked matmul, which matches it.

Reported values are feasible-point evaluations and hence certified lower
bounds on lambda(G); the convergence flag asserts the KKT residual on the
capped simplex (see ``_residual``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Union

import numpy as np

from .extremal import ForbiddenPredicate, SubgraphPredicate, _check_walk_depth, _covering_hosts
from .hypergraph import (Hypergraph, VertexSet, _bits, _cliques, _pair_masks,
                         falling_factorial)

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

_DENSITY_RESTARTS = 8  # ascent restarts per host in the Lagrangian-density search


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


def _project(V: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection of each row of V onto {x >= 0, sum x = 1, x <= cap}:
    the s largest coordinates sit at the cap for the least s at which the
    sort-based simplex projection of the rest onto total 1 - s*cap stays within
    it (Wang & Lu 2015); s = 0 at cap 1 is the simplex projection.  The rest is
    zero when it has no mass left (n*cap <= 1 or s*cap = 1).  Each pass of the
    s loop runs over the rows not yet resolved; when every row fits at s = 0,
    as in every uncapped call, the first pass returns with no gather."""
    m, n = V.shape
    U = np.sort(V, axis=1)[:, ::-1]
    X = np.empty_like(V)
    todo = np.arange(m)
    for s in range(n + 1):
        rest = 1.0 - s * cap
        if s == n or rest <= 0.0:
            break
        free = U[todo, s:] if s else U  # at s = 0 every row is open
        css = np.cumsum(free, axis=1) - rest
        cond = free - css / np.arange(1, n - s + 1) > 0
        cond[:, 0] = True  # exactly rest > 0, whatever the rounding
        rho = n - s - 1 - np.argmax(cond[:, ::-1], axis=1)  # the last True
        tau = css[np.arange(len(todo)), rho] / (rho + 1.0)
        fits = free[:, 0] - tau <= cap
        if not s and fits.all():  # as in every uncapped call
            return np.maximum(V - tau[:, None], 0.0)
        rows = todo[fits]
        x = np.maximum(V[rows] - tau[fits, None], 0.0)
        X[rows] = np.minimum(x, cap, out=x) if s else x  # clips the s largest
        todo = todo[~fits]
        if not len(todo):
            return X
    X[todo] = 0.0
    X[todo[:, None], np.argsort(-V[todo], axis=1, kind="stable")[:, :s]] = cap
    return X


# -- ascent engine ------------------------------------------------------

# Largest number of elements in a block's (rows, r, |E|) temporaries: the
# starts of one call run in blocks of rows, one block after another.
_BLOCK_ELEMS = 1 << 16

# Candidates per line-search tick of ``_ascend``: the steps tt, tt/2, ...,
# tt/2^(_RUNGS-1) from one point, projected and evaluated as one block.
_RUNGS = 3


class _Arrays(NamedTuple):
    edges: np.ndarray  # (E, r) vertex indices
    idx: np.ndarray  # edges.T.ravel(): the vertices column by column
    n: int
    r: int
    rf: int
    bins: Optional[np.ndarray] = None  # idx + k*n for the rows k of a block, row after row

    def for_rows(self, m: int) -> "_Arrays":
        """The same arrays with the bins of m rows."""
        return self._replace(bins=(self.idx + self.n * np.arange(m)[:, None]).ravel())


def _arrays(G: Hypergraph) -> Optional[_Arrays]:
    """The edge arrays of G, with no gradient bins (see ``_Arrays.for_rows``)."""
    if not G.edges:
        return None
    edges = np.array(G.edge_list, dtype=np.int64)
    return _Arrays(edges, edges.T.ravel(), G.n, G.r, math.factorial(G.r))


def _p_np(A: _Arrays, X: np.ndarray) -> np.ndarray:
    """p_G at each row of X, from the (rows, r, |E|) block of edge columns
    that ``_grad_np`` gathers.  The product over the columns folds each edge's
    weights from the left, as a product over one edge's r weights does, but
    runs over whole columns, several times faster on a large block.  The
    block it leaves is C-contiguous, so each row's edge terms are summed by
    numpy's pairwise sum, as for one vector; the strided X[:, edges] would
    fold them from the left instead."""
    m = len(X)
    cols = X.take(A.idx, axis=1).reshape(m, A.r, len(A.edges))
    return A.rf * cols.prod(axis=1).sum(axis=1)


def _grad_np(A: _Arrays, X: np.ndarray) -> np.ndarray:
    """The gradient at each row of X (see ``_gradient``)."""
    return _gradient(A, X, False)[1]


def _p_grad(A: _Arrays, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p_G and the gradient at each row of X, from one gather (see
    ``_gradient``); p_G has the bits of ``_p_np``."""
    return _gradient(A, X, True)


def _gradient(A: _Arrays, X: np.ndarray,
              value: bool) -> tuple[Optional[np.ndarray], np.ndarray]:
    """The gradient at each row of X, with p_G there when value is set.
    others[:, j] is the product of the other columns of each edge, folded
    from the left in column order, summed per vertex in j-major order by one
    np.bincount, with the vertices of row k offset by k*n: the prefix of
    ``A.bins``, so A must hold the bins of at least m rows
    (``_Arrays.for_rows``).  The prefix products take one multiply per
    column: a cumprod along the middle axis folds the same way, but slower.
    The last prefix, times the last column, is the product over all r
    columns folded from the left, as ``_p_np`` takes it."""
    m = len(X)
    cols = X.take(A.idx, axis=1).reshape(m, A.r, len(A.edges))
    others = np.empty_like(cols)
    others[:, 0] = 1.0
    for k in range(1, A.r):
        np.multiply(others[:, k - 1], cols[:, k - 1], out=others[:, k])
    p = A.rf * (others[:, -1] * cols[:, -1]).sum(axis=1) if value else None
    for k in range(1, A.r):
        others[:, :k] *= cols[:, k, None]
    lam = np.bincount(A.bins[:others.size], weights=others.ravel(), minlength=m * A.n)
    return p, A.rf * lam.reshape(m, A.n)


def _transfer(A: _Arrays, X: np.ndarray, lam: np.ndarray, cap: float,
              tol: float, exact: bool = False) -> np.ndarray:
    """One pairwise transfer in each row of X, in place, lam the gradient at
    X: from the min-gradient support vertex a to the max-gradient support
    vertex b below the cap.  Along e_b - e_a, p_G(x + s(e_b - e_a)) =
    p_G(x) + gap s - c s^2, with c = r! times the sum over the edges through
    a and b of the product of their other weights (``_pair_curvature``).
    The exact step moves the maximizer gap / (2c), all the way when c = 0;
    the plain step moves gap / (2 r!), never more, as c <= r!.  Either is cut
    to x_a and to b's headroom.  Returns the mask of rows that moved; a row
    does not when it has no such pair or its gradient gap is within tol / 4.
    The gap is read from the masked arrays, so it is -inf when the pool (or
    the support) is empty; with one support vertex either the pool is empty
    or a = b."""
    rows = np.arange(len(X))
    support = X > _SUPPORT_EPS
    up = np.where(support & (X < cap - 1e-12), lam, -np.inf)
    down = np.where(support, lam, np.inf)
    b, a = up.argmax(axis=1), down.argmin(axis=1)
    gap = up[rows, b] - down[rows, a]
    with np.errstate(divide="ignore", invalid="ignore"):  # c = 0: no maximizer
        step = gap / (2.0 * (_pair_curvature(A, X, a, b) if exact else A.rf))
    d = np.minimum(np.minimum(step, X[rows, a]), cap - X[rows, b])
    moved = (a != b) & (gap > tol * 0.25) & (d > 0)
    rows, d = rows[moved], d[moved]
    X[rows, a[moved]] -= d
    X[rows, b[moved]] += d
    return moved


def _pair_curvature(A: _Arrays, X: np.ndarray, a: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """The mixed second derivative of p_G in x_a and x_b at each row of X:
    r! times the sum over the edges through a and b of the product of their
    other weights, each folded from the left and summed as ``_p_np`` sums."""
    cols = X.take(A.idx, axis=1).reshape(len(X), A.r, len(A.edges))
    at_a, at_b = A.edges.T == a[:, None, None], A.edges.T == b[:, None, None]
    through = at_a.any(axis=1) & at_b.any(axis=1)
    cols[at_a | at_b] = 1.0
    return A.rf * np.where(through, cols.prod(axis=1), 0.0).sum(axis=1)


def _dots(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """p @ q for each pair of rows, rounded as for one pair of vectors (an
    einsum or (P * Q).sum(axis=1) rounds differently)."""
    return (P[:, None, :] @ Q[:, :, None]).ravel()


def _cannot_gain(A: _Arrays, S: np.ndarray, D: np.ndarray) -> np.ndarray:
    """For each row: True when no step shorter than the one that moved x by
    d, along the gradient lam at x, can raise p_G by more than 1e-16 (the
    stop rule of the module docstring); S holds lam - r p_G(x)."""
    dd = _dots(D, D)
    if A.r <= 3:  # a power of 0 or 1 (or a factor C(1, 2) = 0) is exact
        grow = (1.0 + np.sqrt(dd)) ** (A.r - 2)
    else:  # the power by the C library, as for one float: numpy's may round apart
        grow = np.array([(1.0 + math.sqrt(v)) ** (A.r - 2) for v in dd.tolist()])
    higher = A.rf * len(A.edges) * math.comb(A.r, 2) * dd * grow
    return _dots(S, D) + higher <= 1e-16


def _ascend(A: _Arrays, X0: np.ndarray, cap: float,
            max_iters: int) -> tuple[np.ndarray, np.ndarray]:
    """The ascent from each row of X0; returns the final rows and their values.

    The rows run in lockstep and never interact.  Each keeps its own step t,
    trial step tt, halving count, iteration count and progress flag, and so
    takes the steps it would take alone.  In one tick every row still in a
    line search evaluates a ladder of ``_RUNGS`` candidates, at tt, tt/2, ...,
    and takes its first decisive rung, or halves tt ``_RUNGS`` times when none
    is; the rows whose search ends then take their transfer step, and those
    that progressed below max_iters iterations start the next search."""
    X = _project(X0, cap)
    m, n = X.shape
    A = A.for_rows(m)
    val, lam = _p_grad(A, X)  # the gradient at X, recomputed for each row that moves
    t = np.ones(m)
    tt = np.ones(m)
    halvings = np.zeros(m, dtype=np.int64)
    iters = np.zeros(m, dtype=np.int64)
    progressed = np.zeros(m, dtype=bool)
    scale = 0.5 ** np.arange(_RUNGS)  # exact powers of two
    after = np.arange(1, _RUNGS + 1)  # the halvings made once each rung fails
    live = np.arange(m if max_iters > 0 else 0)  # the rows in a line search
    while len(live):
        # gradient step with backtracking: a ladder of candidates per live row
        L = len(live)
        steps = tt[live, None] * scale
        Xl, lamL, vl = X[live], lam[live], val[live]
        V = Xl[:, None] + steps[:, :, None] * lamL[:, None]
        cand = _project(V.reshape(L * _RUNGS, n), cap)
        pv = _p_np(A, cand).reshape(L, _RUNGS)
        D = cand - np.repeat(Xl, _RUNGS, axis=0)
        stop = _cannot_gain(A, np.repeat(lamL - A.r * vl[:, None], _RUNGS, axis=0),
                            D).reshape(L, _RUNGS)
        up = pv > vl[:, None] + 1e-16
        # a rung is decisive when it gains, the stop rule fires there, or the
        # halving after it reaches the 1e-20 guard or the 60-halving cap
        decisive = (up | stop | (steps * 0.5 < 1e-20)
                    | (halvings[live, None] + after >= 60))
        ends = decisive.any(axis=1)
        rows = np.flatnonzero(ends)
        rung = decisive[rows].argmax(axis=1)
        gains = up[rows, rung]
        won = live[rows[gains]]
        if len(won):
            wr, wj = rows[gains], rung[gains]
            best = cand[wr * _RUNGS + wj]
            X[won], val[won], t[won] = best, pv[wr, wj], steps[wr, wj] * 2.0
            lam[won] = _grad_np(A, best)
            progressed[won] = True
        ended = live[rows]
        live = live[~ends]
        tt[live] *= 0.5 ** _RUNGS
        halvings[live] += _RUNGS
        # pairwise transfer step for the rows whose search ended
        if not len(ended):
            continue
        Xe = X[ended]
        moved = _transfer(A, Xe, lam[ended], cap, _TOL)
        mv = ended[moved]
        if len(mv):
            X[mv] = Xm = Xe[moved]
            nv, lam[mv] = _p_grad(A, Xm)
            progressed[mv] |= nv > val[mv] + 1e-16  # the line search's bar
            val[mv] = nv
        iters[ended] += 1
        again = ended[progressed[ended] & (iters[ended] < max_iters)]
        tt[again] = t[again]
        halvings[again] = 0
        progressed[again] = False
        live = np.concatenate([live, again])
    # support cleanup with reprojection, then the final equalization passes
    Y = X.copy()
    Y[Y < _SUPPORT_EPS] = 0.0
    Y /= Y.sum(axis=1)[:, None]
    over = Y.max(axis=1) > cap + 1e-15
    if over.any():
        Y[over] = _project(Y[over], cap)
    diff = (X != Y).any(axis=1)
    X[diff] = Y[diff]
    lam[diff] = _grad_np(A, Y[diff])
    live = np.arange(m)
    for _ in range(300):
        Xl = X[live]
        moved = _transfer(A, Xl, lam[live], cap, _TOL, exact=True)
        live = live[moved]
        if not len(live):
            break
        X[live] = Xm = Xl[moved]
        lam[live] = _grad_np(A, Xm)
    return X, _p_np(A, X)


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


def _starts(G: Hypergraph, restarts: int, seed: int) -> Iterator[np.ndarray]:
    """The uniform start, the greedy-support starts, then the seeded ones.

    A seeded start is the flat Dirichlet draw of ``default_rng([seed, k])``,
    bit for bit: numpy draws it as standard exponentials (the gamma variates
    of shape 1), sums them from the left and scales by the sum's reciprocal,
    as done here without the general gamma path."""
    n = G.n
    yield np.full(n, 1.0 / n)
    for sup in _greedy_supports(G):
        v = np.zeros(n)
        v[list(sup)] = 1.0 / len(sup)
        yield v
    for k in range(restarts):
        e = np.random.default_rng([seed, k]).standard_exponential(n)
        yield e * (1.0 / np.cumsum(e)[-1])


def _optimize(G: Hypergraph, cap: Optional[float], restarts: int,
              seed: int) -> LagrangianEstimate:
    if restarts < 0:
        raise ValueError(f"restarts must be nonnegative, got {restarts}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    n = G.n
    A = _arrays(G)
    if A is None:
        return LagrangianEstimate(0.0, WeightVector.uniform(n), 0, True, 0.0,
                                  beta=cap, cap_binds=None if cap is None else False)
    box = 1.0 if cap is None else cap

    starts = _starts(G, restarts, seed)
    rows = max(1, _BLOCK_ELEMS // max(A.r * len(A.edges), n))
    used = 0
    best_x: Optional[np.ndarray] = None
    best_val = -1.0
    while block := list(itertools.islice(starts, rows)):
        used += len(block)
        X, vals = _ascend(A, np.array(block), box, _MAX_ITERS)
        for x, val in zip(X, vals):  # in start order
            if val > best_val + 1e-15:
                best_val, best_x = val, x

    # value and residual at the weights reported, after any renormalization
    wv = WeightVector(tuple(float(v) for v in best_x))
    value = poly_value(G, wv.weights)
    resid = _residual(G, wv.weights, value, box)
    binds = None if cap is None else max(wv.weights) >= cap - 1e-9
    return LagrangianEstimate(value, wv, used, resid <= _TOL, resid,
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
        side = "< 1/n" if beta < 1 else "> 1"
        raise ValueError(f"beta must lie in [1/n, 1], got beta {side} with n = {G.n}")
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


def compute_Mr(r: int) -> float:
    """The maximizer of f_r on [2, inf): the largest float at which f_r still
    rises, or 2 when f_r falls on all of it (and by convention for r = 1).

    With y = x + r - 3, f_r = y(y-1)...(y-r+2) / y^r, and for x > 1 the
    derivative of log f_r is (S(y) - 1)/y with S(y) = sum_{j=1}^{r-2} j/(y-j).
    S falls strictly in y, so f_r rises and then falls, and its one critical
    point is its only local maximum. For r <= 3, S(r-1) <= 1: f_r falls on
    (2, inf). For r >= 4, f_r rises at 2 (the term j = r-2 alone is r-2 >= 2)
    and falls at c+2 with c = C(r-1, 2) (there S <= c/(c+1) < 1), so float
    bisection on [2, c+2], with the sign of S - 1 taken exactly at
    Fraction(mid), ends on the float just below the critical point.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if r <= 3:
        return 2.0

    def rises(x: float) -> bool:
        y = Fraction(x) + r - 3
        return sum(j / (y - j) for j in range(1, r - 1)) > 1

    lo, hi = 2.0, math.comb(r - 1, 2) + 2.0
    while lo < (mid := (lo + hi) / 2) < hi:
        if rises(mid):
            lo = mid
        else:
            hi = mid
    return lo


# -- clique-number oracle (2-graphs) ------------------------------------


def clique_number(G: Hypergraph) -> int:
    """Exact clique number of a 2-graph: the clique size is raised while the
    shared enumerator ``_cliques`` still finds a clique one larger."""
    if G.r != 2:
        raise ValueError("clique number is defined here for 2-graphs")
    adj, everyone = _pair_masks(G), (1 << G.n) - 1
    w = 0
    while next(_cliques(adj, everyone, w + 1), None) is not None:
        w += 1
    return w


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
    """The best ascent value, its host, whether every host order's walk
    ended within the node budget, and the number of hosts evaluated: one
    per isomorphism class reached."""

    best_value: float
    witness: Hypergraph
    exact: bool
    evaluated: int


def lagrangian_density_search(forbidden: Union[ForbiddenPredicate, Hypergraph],
                              t_max: int, *, r: Optional[int] = None,
                              seed: int = 0) -> DensitySearchResult:
    """Lower bound on the Lagrangian density of a forbidden configuration:
    max lambda(G) over predicate-free r-graphs G on at most t_max vertices.

    ``forbidden`` is a predicate, with ``r`` given, or a pattern F, read as
    ``SubgraphPredicate(F)`` with r = F.r.  It suffices to search the hosts
    that cover every pair: some optimal weighting of G has a support S on
    which every pair is covered (Frankl and Rodl 1984, "Hypergraphs do not
    jump"), and G[S] lies in a maximal free graph on |S| vertices, which
    covers pairs too and has at least its Lagrangian.  For each t from r to
    t_max, ``extremal._covering_hosts`` gives these hosts on t vertices, the
    lex leader of each isomorphism class, from a leader DFS of at most
    ``extremal._HOST_NODE_BUDGET`` nodes.  Each class, also one a stopped
    walk found, gets an 8-restart ``lagrangian``, and the best is kept;
    ``evaluated`` counts the classes.  ``exact``
    records whether every walk ended within the budget (the value is a lower
    bound either way).  A t_max whose C(t_max, r) candidates are too deep to
    walk is refused with ``ExactSearchRefused``, by the guard the exact
    search shares (``extremal._check_walk_depth``).
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if isinstance(forbidden, Hypergraph):
        r = forbidden.r if r is None else r
    elif r is None:
        raise ValueError("a forbidden predicate needs the uniformity r")
    if t_max < r:
        raise ValueError("t_max must be at least the uniformity")
    _check_walk_depth(t_max, r)
    best_val, best_wit = 0.0, Hypergraph(t_max, r, [])
    evaluated, exact = 0, True
    if isinstance(forbidden, Hypergraph):
        if forbidden.n == 0:
            # the empty pattern embeds in every host: no F-free host exists
            return DensitySearchResult(best_val, best_wit, exact, evaluated)
        forbidden = SubgraphPredicate(forbidden)
    for t in range(r, t_max + 1):
        if not forbidden.is_free(Hypergraph(t, r, [])):
            continue  # the configuration already sits in t isolated vertices
        hosts, finished = _covering_hosts(t, r, forbidden)
        exact = exact and finished
        for edges in hosts:
            G = Hypergraph._trusted(t, r, edges)
            evaluated += 1
            est = lagrangian(G, restarts=_DENSITY_RESTARTS, seed=seed)
            if est.value > best_val + 1e-12:
                best_val, best_wit = est.value, G
    return DensitySearchResult(best_val, best_wit, exact, evaluated)


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
