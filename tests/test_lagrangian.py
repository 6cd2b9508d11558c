import collections
import importlib
import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from turanlag import (
    Hypergraph,
    WeightVector,
    blowup,
    certificate_label,
    clique_number,
    complete_hypergraph,
    compute_Mr,
    enlargement,
    f_r_eval,
    falling_factorial,
    generalized_triangle,
    grad,
    lagrangian,
    lagrangian_constrained,
    lagrangian_density_search,
    motzkin_straus_reference,
    path_graph,
    poly_value,
    random_hypergraph,
    single_edge,
    stability_probe,
    turan_hypergraph,
)
from turanlag.extremal import (
    CancellativePredicate, ExactSearchRefused, FamilyPredicate, SigmaPredicate,
    SubgraphPredicate, _colex_candidates, _covering_hosts, brute_force_ex,
)
from turanlag.lagrangian import (
    _arrays, _ascend, _cannot_gain, _dots, _grad_np, _greedy_supports,
    _p_grad, _p_np, _pair_curvature, _project, _residual, _starts, _transfer,
)

from conftest import (
    _fr_derivative_numerator, _poly_sign, add_at_gradient, bisection_capped_projection,
    colex_lex_leader, density_dfs_oracle, enumerate_mad, exact_poly_value,
    per_host_density_search, serial_ascend, serial_cannot_gain, serial_curvature, serial_grad,
    serial_p, serial_project, serial_transfer,
    sort_simplex_projection,
)

EXTREMAL = importlib.import_module("turanlag.extremal")
LAGRANGIAN = importlib.import_module("turanlag.lagrangian")
CONFTEST = importlib.import_module("conftest")


def f64(v) -> bytes:
    return np.float64(v).tobytes()


def cycle(n):
    return Hypergraph(n, 2, [(i, (i + 1) % n) for i in range(n)])


# -- poly_value / grad ------------------------------------------------------


def test_poly_value_examples():
    e = single_edge(3)
    assert poly_value(e, [1 / 3] * 3) == pytest.approx(2 / 9, abs=1e-15)
    g = Hypergraph(4, 3, [(0, 1, 2)])
    assert poly_value(g, [1, 0, 0, 0]) == 0.0
    k4 = complete_hypergraph(4, 3)
    assert poly_value(k4, [0.25] * 4) == pytest.approx(0.375, abs=1e-15)
    with pytest.raises(ValueError):
        poly_value(e, [0.5, 0.5])


def test_grad_examples():
    e = single_edge(3)
    lam = grad(e, [1 / 3] * 3)
    assert lam == pytest.approx([2 / 3] * 3)
    # identity p = (1/r) sum lambda_i x_i
    assert (1 / 3) * sum(l * x for l, x in zip(lam, [1 / 3] * 3)) == pytest.approx(2 / 9)
    g = Hypergraph(4, 3, [(0, 1, 2)])
    assert grad(g, [0.3, 0.3, 0.2, 0.2])[3] == 0.0


def test_grad_matches_finite_differences():
    rng = random.Random(2)
    h = 1e-5
    for _ in range(20):
        r = rng.choice((2, 3))
        n = rng.randint(r + 1, 8)
        g = random_hypergraph(n, r, density=0.6, rng=rng)
        x = [rng.random() for _ in range(n)]
        lam = grad(g, x)
        for i in range(n):
            xp, xm = list(x), list(x)
            xp[i] += h
            xm[i] -= h
            fd = (poly_value(g, xp) - poly_value(g, xm)) / (2 * h)
            assert abs(fd - lam[i]) <= 1e-6


def test_gradient_identity_tight():
    rng = random.Random(9)
    for _ in range(50):
        r = rng.choice((2, 3))
        n = rng.randint(r, 9)
        g = random_hypergraph(n, r, density=0.5, rng=rng)
        x = [rng.random() for _ in range(n)]
        s = sum(x) or 1.0
        x = [v / s for v in x]
        p = poly_value(g, x)
        lam = grad(g, x)
        assert abs(p - math.fsum(l * v for l, v in zip(lam, x)) / r) <= 1e-12
        if g.edges:
            assert max(lam) >= r * p - 1e-12


@st.composite
def gradient_inputs(draw):
    r = draw(st.integers(1, 5))
    n = draw(st.integers(r, 10))
    pool = list(itertools.combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
    x = draw(st.lists(st.just(0.0) | st.floats(0, 1), min_size=n, max_size=n))
    return Hypergraph(n, r, edges), np.array(x)


@given(gradient_inputs())
@settings(max_examples=200, deadline=None)
def test_grad_np_matches_add_at_oracle(inputs):
    g, x = inputs
    A = _arrays(g).for_rows(1)
    assert _grad_np(A, x[None])[0].tobytes() == add_at_gradient(A, x).tobytes()


# -- weight vectors -----------------------------------------------------------


def test_weight_vector_normalizes():
    w = WeightVector((2.0, 2.0))
    assert w.weights == (0.5, 0.5)
    assert len(WeightVector.uniform(4)) == 4
    with pytest.raises(ValueError):
        WeightVector((-0.5, 1.5))
    with pytest.raises(ValueError):
        WeightVector((0.0, 0.0))


# -- lagrangian ----------------------------------------------------------------


def test_lagrangian_complete_graphs():
    for m, r in ((3, 2), (4, 2), (4, 3), (5, 3)):
        est = lagrangian(complete_hypergraph(m, r), restarts=20, seed=0)
        want = falling_factorial(m, r) / m**r
        assert abs(est.value - want) <= 1e-8
        assert est.converged and est.gradient_residual <= 1e-9
        assert abs(poly_value(complete_hypergraph(m, r), est.weights) - est.value) <= 1e-10


def test_lagrangian_grid_oracle_k43():
    # dense simplex grid at resolution 1/60 confirms the uniform optimum
    k = complete_hypergraph(4, 3)
    best = 0.0
    for c in itertools.combinations(range(63), 3):
        parts = (c[0], c[1] - c[0] - 1, c[2] - c[1] - 1, 62 - c[2])
        x = [p / 60 for p in parts]
        best = max(best, poly_value(k, x))
    assert best <= 0.375 + 1e-12
    est = lagrangian(k, restarts=10, seed=0)
    assert est.value >= best - 1e-12
    assert abs(est.value - 0.375) <= 1e-8


def test_lagrangian_c5():
    est = lagrangian(cycle(5), restarts=50, seed=0)
    assert abs(est.value - 0.5) <= 1e-8
    assert abs(est.value - motzkin_straus_reference(cycle(5))) <= 1e-8


def test_lagrangian_empty():
    est = lagrangian(Hypergraph(4, 3, []))
    assert est.value == 0.0 and est.converged
    est0 = lagrangian(Hypergraph(0, 2, []))
    assert est0.value == 0.0


def test_lagrangian_at_least_uniform():
    rng = random.Random(31)
    for _ in range(10):
        g = random_hypergraph(rng.randint(3, 8), rng.choice((2, 3)),
                              density=0.5, rng=rng)
        est = lagrangian(g, restarts=5, seed=0)
        assert est.value >= poly_value(g, [1 / g.n] * g.n) - 1e-12


def test_lagrangian_monotone_under_edge_addition():
    rng = random.Random(17)
    g = random_hypergraph(6, 3, density=0.3, rng=rng)
    missing = [e for e in itertools.combinations(range(6), 3) if e not in g.edges]
    g2 = g.with_edges(missing[:2])
    v1 = lagrangian(g, restarts=10, seed=0).value
    v2 = lagrangian(g2, restarts=10, seed=0).value
    assert v2 >= v1 - 1e-9


def test_restarts_used_counts_the_starts():
    rng = random.Random(23)
    graphs = [cycle(5), complete_hypergraph(4, 3),
              random_hypergraph(7, 3, density=0.4, rng=rng)]
    for g in graphs:
        for restarts in (0, 3):
            est = lagrangian(g, restarts=restarts, seed=0)
            assert est.restarts_used == 1 + len(_greedy_supports(g)) + restarts
            capped = lagrangian_constrained(g, 0.4, restarts=restarts, seed=0)
            assert capped.restarts_used == est.restarts_used
    assert lagrangian(Hypergraph(4, 3, [])).restarts_used == 0


def test_seeded_starts_are_flat_dirichlet_draws():
    # the seeded starts skip numpy's gamma path but keep its bits
    for n in (1, 2, 3, 5, 8, 13, 21, 33):
        g = Hypergraph(n, 1, [(0,)])
        first = 1 + len(_greedy_supports(g))
        for seed in range(10):
            starts = list(_starts(g, 12, seed))[first:]
            assert len(starts) == 12
            for k, x in enumerate(starts):
                want = np.random.default_rng([seed, k]).dirichlet(np.ones(n))
                assert x.tobytes() == want.tobytes()


def estimate_bytes(est):
    return (f64(est.value), np.array(est.weights.weights).tobytes(), est.restarts_used,
            est.converged, f64(est.gradient_residual), est.beta, est.cap_binds)


FANO = Hypergraph(7, 3, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
                         (1, 4, 6), (2, 3, 6), (2, 4, 5)])
K4_MINUS = Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])


@pytest.mark.parametrize("g, beta", [
    (turan_hypergraph(10, 3, 3).graph, None),
    (FANO, None),
    (blowup(K4_MINUS, [2, 2, 2, 2]), None),
    (random_hypergraph(12, 2, density=0.5, rng=random.Random(12)), None),
    (cycle(5), 0.3),
    (cycle(5), 0.4),
], ids=["T_3(10,3)", "fano", "K4-x2", "G(12,1/2)", "C5@0.3", "C5@0.4"])
@pytest.mark.parametrize("rows", [1, 5])
def test_block_budget_leaves_estimates_unchanged(g, beta, rows, monkeypatch):
    # the starts run in blocks one after another; blocks of one row or of
    # five give the estimate of one block holding every start
    def run():
        if beta is None:
            return lagrangian(g, restarts=20, seed=31)
        return lagrangian_constrained(g, beta, restarts=20, seed=31)

    whole = run()
    monkeypatch.setattr(LAGRANGIAN, "_BLOCK_ELEMS", rows * max(g.r * len(g.edges), g.n))
    assert estimate_bytes(run()) == estimate_bytes(whole)


# -- the capped-simplex projection ---------------------------------------------


def project_one(v, cap):
    return _project(np.array([v], dtype=float), cap)[0]


@st.composite
def projection_inputs(draw):
    n = draw(st.integers(1, 30))
    scale = 10.0 ** draw(st.floats(-2, 2))
    digits = draw(st.integers(0, 3))  # coarse rounding makes ties
    raw = draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
    v = np.array([round(a, digits) * scale for a in raw])
    corners = [c for c in (1 / n, 1 / 2, 1 / 4, 1.0) if c >= 1 / n]
    cap = draw(st.sampled_from(corners) | st.floats(1 / n, 1.0))
    return v, cap


@given(projection_inputs())
@settings(max_examples=400, deadline=None)
def test_project_matches_oracles(inputs):
    v, cap = inputs
    x = project_one(v, cap)
    assert (x >= 0).all() and (x <= cap).all()
    assert abs(x.sum() - 1.0) <= 1e-12
    assert np.abs(x - bisection_capped_projection(v, cap)).max() <= 1e-12
    if cap == 1.0:
        plain = sort_simplex_projection(v)
        if plain.max() <= 1.0:
            assert x.tobytes() == plain.tobytes()


def test_project_corners():
    # the plain formula rounds this single coordinate above 1
    assert sort_simplex_projection(np.array([-1.21147351]))[0] > 1.0
    assert project_one([-1.21147351], 1.0).tolist() == [1.0]
    # n*cap <= 1 (no free coordinate left): every one at the cap, none at 0
    v = np.array([3.0, -1.0, 0.5, 0.5])
    assert project_one(v, 0.25).tolist() == [0.25] * 4
    assert project_one(v, 0.25 - 1e-13).tolist() == [0.25 - 1e-13] * 4
    # a tie at the cap 1/2 takes all the mass
    assert project_one([5.0, 5.0, 1.0, 0.0], 0.5).tolist() == [0.5, 0.5, 0, 0]
    # just below 1/2, two coordinates at the cap leave the rest 2^-53 of
    # mass, too little for the sort condition to see next to 50
    cap = float(np.nextafter(0.5, 0.0))
    x = project_one([100.0, 60.0, 50.0, 50.0], cap)
    assert x.tolist() == [cap, cap, 0, 0]


# -- the line-search stop rule ------------------------------------------------


@pytest.mark.parametrize("g", [complete_hypergraph(5, 3), cycle(5)],
                         ids=["K5(3)", "C5"])
def test_line_search_stops_at_a_stationary_start(g, monkeypatch):
    # uniform weights are stationary here: every candidate fails, and the
    # search ends in its first tick instead of halving 60 times
    calls = []

    def counting(V, cap):
        calls.append(len(V))  # one call per tick, whatever its ladder
        return _project(V, cap)

    monkeypatch.setattr(LAGRANGIAN, "_project", counting)
    A = _arrays(g)
    x0 = np.full((1, g.n), 1 / g.n)
    x, val = _ascend(A, x0, 1.0, 5000)
    assert len(calls) <= 4
    assert np.abs(x - x0).max() <= 1e-15 and val[0] == pytest.approx(_p_np(A, x0)[0])


@st.composite
def line_search_inputs(draw):
    r = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(r, 7))
    pool = list(itertools.combinations(range(n), r))
    g = Hypergraph(n, r, draw(st.lists(st.sampled_from(pool), min_size=1, unique=True)))
    cap = draw(st.sampled_from([1 / n, 1.0]) | st.floats(1 / n, 1.0))
    floats = st.lists(st.floats(0, 1), min_size=n, max_size=n)
    x = project_one(draw(floats), cap)
    if draw(st.booleans()):
        # near a stationary point, where the rule fires, at distances down
        # to rounding, where a too-eager rule would stop a gaining search
        x = _ascend(_arrays(g), x[None], cap, draw(st.integers(1, 50)))[0][0]
        x = project_one(x + 10.0 ** -draw(st.integers(3, 16)) * np.array(draw(floats)), cap)
    return g, cap, x, 2.0 ** draw(st.integers(-20, 10))


def _counting_gradients(monkeypatch) -> list:
    # the points of every gradient, alone or with p_G, in the order taken
    calls = []
    for name in ("_grad_np", "_p_grad"):
        def counting(A, X, fn=getattr(LAGRANGIAN, name)):
            calls.extend(X.copy())  # one point per row
            return fn(A, X)

        monkeypatch.setattr(LAGRANGIAN, name, counting)
    return calls


@pytest.mark.parametrize("g, points", [(complete_hypergraph(5, 3), 3), (cycle(5), 1)],
                         ids=["K5(3)", "C5"])
def test_ascent_at_a_stationary_start_takes_a_gradient_per_point(g, points, monkeypatch):
    # uniform weights are stationary.  On C5 x never moves, so one gradient
    # serves the whole ascent.  On K5(3) the first line search accepts a
    # candidate whose sum rounds above 1 and the final renormalization moves
    # x back, so three points are visited
    calls = _counting_gradients(monkeypatch)
    _ascend(_arrays(g), np.full((1, g.n), 1 / g.n), 1.0, LAGRANGIAN._MAX_ITERS)
    assert len(calls) <= points


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_ascent_takes_one_gradient_per_point(data):
    # every move of x is larger than rounding (an accepted step gains over
    # 1e-16, a transfer moves more than 1e-12), so a gradient taken at the
    # point of the previous one is a repeat
    g, cap, x, _ = data.draw(line_search_inputs())
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_gradients(mp)
        _ascend(_arrays(g), x[None], cap, LAGRANGIAN._MAX_ITERS)
    assert calls and not any(np.array_equal(a, b) for a, b in zip(calls, calls[1:]))


@given(line_search_inputs())
@settings(max_examples=300, deadline=None)
def test_line_search_stop_is_sound(inputs):
    # the line search of _ascend: once the rule fires at a failed step tt, no
    # candidate at tt or any shorter step down to the 1e-20 guard gains more
    # than 1e-16, counted exactly.  A rounded candidate is off the simplex:
    # its sum is off that of x, and each coordinate by up to an ulp of the
    # projected vector's largest entry, so the gain that mass can make at
    # the largest gradient does not count.
    g, cap, x, tt = inputs
    A = _arrays(g).for_rows(1)
    lam = _grad_np(A, x[None])
    val = _p_np(A, x[None])
    while tt >= 1e-20:
        cand = _project(x + tt * lam, cap)
        if _p_np(A, cand)[0] > val[0] + 1e-16:
            return  # accepted: the rule is not consulted
        if _cannot_gain(A, lam - g.r * val[:, None], cand - x)[0]:
            break
        tt *= 0.5
    lam = lam[0]
    base, mass = exact_poly_value(g, x), sum(map(Fraction, x))
    top = Fraction(float(lam.max()))
    while tt >= 1e-20:
        v = x + tt * lam
        cand = project_one(v, cap)
        drift = abs(sum(map(Fraction, cand)) - mass)
        ulps = Fraction(g.n * float(np.abs(v).max())) * Fraction(2.0 ** -52)
        assert exact_poly_value(g, cand) - base <= Fraction(1e-16) + top * (drift + ulps)
        tt *= 0.5


# -- the pairwise transfer step -----------------------------------------------


def test_transfer_step_never_decreases():
    rng = random.Random(4)
    for _ in range(25):
        r = rng.choice((2, 3))
        n = rng.randint(r + 1, 8)
        g = random_hypergraph(n, r, density=0.6, rng=rng)
        if not g.edges:
            continue
        A = _arrays(g).for_rows(1)
        v = np.array([rng.random() for _ in range(n)])
        for cap, x in ((1.0, v / v.sum()), (0.4, project_one(v, 0.4))):
            x = x[None]  # one row, moved in place
            for _ in range(50):
                before = _p_np(A, x)[0]
                if not _transfer(A, x, _grad_np(A, x), cap, 0.0)[0]:
                    break
                assert _p_np(A, x)[0] >= before - 1e-14
                assert x.min() >= 0.0 and x.max() <= cap + 1e-15


def _main_loop_iterations(g, x0, cap, max_iters, monkeypatch) -> list:
    """The main-loop iterations of a one-row ascent, in order: whether its
    line search gained and whether its transfer moved and raised p_G at
    all, and past 1e-16, as the engine compares them."""
    events = []
    transfer, grad_np = _transfer, _grad_np

    def logged_transfer(A, X, lam, cap, tol, exact=False):
        if exact:  # the final passes: the main loop is over
            return transfer(A, X, lam, cap, tol, exact)
        before = _p_np(A, X)
        moved = transfer(A, X, lam, cap, tol, exact)
        after = _p_np(A, X)
        events.append((bool(moved[0]), bool(after[0] > before[0]),
                       bool(after[0] > before[0] + 1e-16)))
        return moved

    def logged_grad(A, X):  # a line search's accepted candidate
        events.append("won")
        return grad_np(A, X)

    monkeypatch.setattr(LAGRANGIAN, "_transfer", logged_transfer)
    monkeypatch.setattr(LAGRANGIAN, "_grad_np", logged_grad)
    _ascend(_arrays(g), x0[None], cap, max_iters)
    iterations, won = [], False
    for e in events:
        if e == "won":
            won = True
        else:
            iterations.append((won, *e))
            won = False
    return iterations


# from the projection of [0.08, 0.95, 0.17], the eighth and last transfer
# raises p_G by one ulp of 2/9, 2.8e-17, after a line search that did not gain
ROUNDING_TRANSFER = (single_edge(3), 1.0, np.array([0.08, 0.95, 0.17]), 1.0)


@given(line_search_inputs())
@example(ROUNDING_TRANSFER)
@settings(max_examples=100, deadline=None)
def test_transfer_at_rounding_level_ends_the_loop(inputs):
    # a transfer counts as progress only past 1e-16, the line search's own
    # acceptance bar: after a search that did not gain, a transfer that
    # raises p_G by 1e-16 or less ends its row's loop, and one that raises
    # it by more goes on, below the iteration cap
    g, cap, x, _ = inputs
    max_iters = LAGRANGIAN._MAX_ITERS
    with pytest.MonkeyPatch.context() as mp:
        iterations = _main_loop_iterations(g, x, cap, max_iters, mp)
    for k, (won, moved, _, past_bar) in enumerate(iterations, start=1):
        assert (k < len(iterations)) == ((won or (moved and past_bar)) and k < max_iters)


def test_rounding_transfer_example_ends_on_a_rounding_gain(monkeypatch):
    # the pinned example reaches the case: its last transfer gains in floats,
    # by no more than 1e-16, after a line search that did not
    g, cap, x, _ = ROUNDING_TRANSFER
    *_, last = _main_loop_iterations(g, x, cap, LAGRANGIAN._MAX_ITERS, monkeypatch)
    assert last == (False, True, True, False)


# -- the lockstep engine against the serial ascent ------------------------------


@st.composite
def graphs_and_caps(draw, max_r=4, max_n=8):
    r = draw(st.integers(1, max_r))
    n = draw(st.integers(r, max_n))
    pool = list(itertools.combinations(range(n), r))
    g = Hypergraph(n, r, draw(st.lists(st.sampled_from(pool), min_size=1, unique=True)))
    cap = draw(st.sampled_from([1 / n, 1.0]) | st.floats(1 / n, 1.0))
    return g, cap


@st.composite
def lockstep_inputs(draw):
    g, cap = draw(graphs_and_caps())
    n = g.n
    point = st.lists(st.just(0.0) | st.floats(0, 1), min_size=n, max_size=n)
    rows = [[1 / n] * n] + draw(st.lists(point, max_size=8))
    rows += draw(st.lists(st.sampled_from(rows), max_size=12 - len(rows)))
    order = draw(st.permutations(range(len(rows))))
    return g, cap, np.array([rows[k] for k in order]), draw(st.sampled_from([1, 2, 3, 50, 5000]))


# with the stop rule off, the uniform row ends its first search at the
# 60-halving cap and [0.01, 0.8, 0.14] a later one at the 1e-20 guard
SINGLE_EDGE_ROWS = (single_edge(3), 1.0, np.array([[1 / 3] * 3, [0.01, 0.8, 0.14],
                                                    [0.03, 0.06, 0.39], [0.01, 0.8, 0.14]]), 50)
# with the stop rule off, its last search ends at the 1e-20 guard after 50
# candidates, on the second rung of a ladder of three
GUARD_ROWS = (single_edge(3), 1.0, np.array([[0.36, 0.04, 0.6]]), 50)


def serial_searches(inputs) -> list:
    """(candidates tried, how it ended) for each line search of the serial
    ascents from the rows of a lockstep input."""
    g, cap, X0, max_iters = inputs
    searches = []
    for row in X0:
        serial_ascend(_arrays(g), row, cap, max_iters, searches)
    return searches


def test_ladder_examples_end_searches_on_every_rung(monkeypatch):
    # with the stop rule off, the two examples end line searches on each rung
    # of a first ladder and past it, at the 60-halving cap, and at the 1e-20
    # guard part-way through a ladder, on its first and its second rung
    monkeypatch.setattr(CONFTEST, "serial_cannot_gain", lambda A, lam, val, d: False)
    K = LAGRANGIAN._RUNGS
    ends = {(end, (c - 1) % K + 1, c > K)
            for inputs in (SINGLE_EDGE_ROWS, GUARD_ROWS) for c, end in serial_searches(inputs)}
    assert {("gain", j, later) for j in range(1, K + 1) for later in (False, True)} <= ends
    assert ("cap", (60 - 1) % K + 1, True) in ends
    assert {("guard", 1, True), ("guard", 2, True)} <= ends


@given(lockstep_inputs(), st.booleans())
@example(SINGLE_EDGE_ROWS, False)
@example(SINGLE_EDGE_ROWS, True)
@example(GUARD_ROWS, False)
@settings(max_examples=120, deadline=None)
def test_lockstep_rows_match_serial_ascent(inputs, stop_rule):
    # every row takes the steps of a lone ascent, whatever tick the other
    # rows stop at and for whatever reason: the same points, as many
    # gradients, and a ladder of K projections for every K candidates, or
    # fewer, that a line search of the lone ascent tries.  The stop rule ends
    # nearly every failed line search; with it off in both engines, searches
    # also end at the 60-halving cap and, in about 2% of ascents, at the 1e-20
    # guard
    g, cap, X0, max_iters = inputs
    A = _arrays(g)
    work = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        if not stop_rule:
            mp.setattr(LAGRANGIAN, "_cannot_gain",
                       lambda A, S, D: np.zeros(len(D), dtype=bool))
            mp.setattr(CONFTEST, "serial_cannot_gain", lambda A, lam, val, d: False)

        def count(module, name, key, points):
            fn = getattr(module, name)

            def counted(*args):
                work[key] += points(*args)
                return fn(*args)

            mp.setattr(module, name, counted)

        count(LAGRANGIAN, "_project", ("project", "lockstep"), lambda V, cap: len(V))
        count(LAGRANGIAN, "_grad_np", ("grad", "lockstep"), lambda A, X: len(X))
        count(LAGRANGIAN, "_p_grad", ("grad", "lockstep"), lambda A, X: len(X))
        count(CONFTEST, "serial_project", ("project", "serial"), lambda v, cap: 1)
        count(CONFTEST, "serial_grad", ("grad", "serial"), lambda A, x: 1)
        X, vals = _ascend(A, X0.copy(), cap, max_iters)
        searches = []
        for row, x, val in zip(X0, X, vals):
            want, want_val = serial_ascend(A, row, cap, max_iters, searches)
            assert x.tobytes() == want.tobytes() and f64(val) == f64(want_val)
    K = LAGRANGIAN._RUNGS
    past = sum(K * -(-c // K) - c for c, _ in searches)  # rungs past each search's end
    assert work["project", "lockstep"] == work["project", "serial"] + past
    assert work["grad", "lockstep"] == work["grad", "serial"]


def test_project_rows_resolve_apart():
    # one block: rows that fit at s = 0, 1 and 2, ties at the cap, and rows
    # with no free coordinate left, at cap 1/n and above it
    V = np.array([[0.25] * 4, [1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
                  [5.0, 5.0, 1.0, 0.0], [5.0, 0.0, 5.0, 5.0], [3.0, -1.0, 0.5, 0.5],
                  [2.0, 2.0, 2.0, 2.0]])
    for cap in (0.25, 0.3, 0.5, 1.0):
        X = _project(V, cap)
        for v, x in zip(V, X):
            assert x.tobytes() == serial_project(v, cap).tobytes()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_project_rows_match_serial(data):
    n = data.draw(st.integers(1, 12))
    cap = data.draw(st.sampled_from([1 / n, 1 / 2, 1.0]) | st.floats(1 / n, 1.0))
    digits = data.draw(st.integers(0, 3))  # coarse rounding makes ties
    row = st.lists(st.floats(-2, 2).map(lambda a: round(a, digits)), min_size=n, max_size=n)
    V = np.array(data.draw(st.lists(row, min_size=1, max_size=10)))
    for v, x in zip(V, _project(V, cap)):
        assert x.tobytes() == serial_project(v, cap).tobytes()


def test_p_np_rows_from_a_strided_block():
    # rows of a strided and of a column-major block, on the graph where
    # gathering with X[:, edges] folds the edge terms from the left (about
    # half of these rows then round apart): every row's value must be that
    # of the row alone
    A = _arrays(turan_hypergraph(10, 3, 3).graph)
    W = np.random.default_rng(5).dirichlet(np.ones(10), size=400)
    for X in (W[::2], np.asfortranarray(W)):
        for x, val in zip(X, _p_np(A, X)):
            assert f64(val) == f64(serial_p(A, np.ascontiguousarray(x)))


@st.composite
def row_primitive_inputs(draw):
    g, cap = draw(graphs_and_caps(max_r=5, max_n=10))
    point = st.lists(st.just(0.0) | st.floats(0, 1), min_size=g.n, max_size=g.n)
    V = np.array(draw(st.lists(point, min_size=1, max_size=6)))
    return g, cap, V, draw(st.floats(1e-12, 2.0)), draw(st.sampled_from([0.0, 1e-9]))


def _quarter_tol_rows():
    # one row whose gradient gap is exactly tol / 4, and the same row at the
    # next smaller tol, where it moves
    g, V = Hypergraph(4, 2, [(0, 2), (1, 3)]), np.array([[0.3, 0.2, 0.24, 0.26]])
    lam = serial_grad(_arrays(g), serial_project(V[0], 1.0))
    tol = 4 * (lam.max() - lam.min())  # every vertex is in the support, below the cap
    return (g, 1.0, V, 0.5, tol), (g, 1.0, V, 0.5, np.nextafter(tol, 0.0))


AT_QUARTER_TOL, BELOW_QUARTER_TOL = _quarter_tol_rows()


# rows whose transfer ends only at the emptiness of the pool or at one
# support vertex (a = b), at a cap where every weight sits, at a gap of 0
# with tol 0, and at a gap of exactly tol / 4
@given(row_primitive_inputs())
@example((Hypergraph(3, 2, [(0, 2), (1, 2)]), 1.0,
          np.array([[0.0, 0.0, 1.0], [5e-10, 0.0, 1 - 5e-10]]), 0.5, 1e-9))
@example((Hypergraph(4, 2, [(0, 2), (0, 3), (2, 3)]), 0.5,
          np.array([[0.0, 0.0, 1.0, 1.0]]), 0.5, 1e-9))
@example((Hypergraph(3, 2, [(0, 1)]), 1 / 3, np.array([[0.2, 0.5, 0.3]]), 0.5, 1e-9))
@example((Hypergraph(3, 2, [(0, 2), (1, 2)]), 0.4, np.array([[1.0, 0.2, 1.0]]), 0.5, 0.0))
@example(AT_QUARTER_TOL)
@example(BELOW_QUARTER_TOL)
@settings(max_examples=150, deadline=None)
def test_row_primitives_match_serial(inputs):
    g, cap, V, step, tol = inputs
    A = _arrays(g).for_rows(len(V))
    X = _project(V, cap)
    before = X.copy()
    lam = _grad_np(A, X)
    D = _project(X + step * lam, cap) - X
    vals = _p_np(A, X)
    both = _p_grad(A, X)
    stop = _cannot_gain(A, lam - g.r * vals[:, None], D)
    Xe = X.copy()
    moved = _transfer(A, X, lam, cap, tol)  # in place
    moved_exact = _transfer(A, Xe, lam, cap, tol, exact=True)
    for k, x in enumerate(before):
        want = serial_grad(A, x)
        assert lam[k].tobytes() == want.tobytes() == both[1][k].tobytes()
        assert f64(vals[k]) == f64(serial_p(A, x)) == f64(both[0][k])
        assert stop[k] == serial_cannot_gain(A, want, serial_p(A, x), D[k])
        xe = x.copy()
        assert moved[k] == serial_transfer(A, x, want, cap, tol)
        assert X[k].tobytes() == x.tobytes()
        assert moved_exact[k] == serial_transfer(A, xe, want, cap, tol, exact=True)
        assert Xe[k].tobytes() == xe.tobytes()


@st.composite
def exact_transfer_inputs(draw):
    g, cap = draw(graphs_and_caps())
    point = st.lists(st.just(0.0) | st.floats(0, 1), min_size=g.n, max_size=g.n)
    return g, cap, project_one(draw(point), cap)


# the move stops at the pair's maximizer, at x_a, at b's headroom under a
# cap, and, with no edge through a and b (c = 0), at x_a
@given(exact_transfer_inputs())
@example((Hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)]), 1.0, np.array([0.05, 0.3, 0.35, 0.3])))
@example((Hypergraph(3, 2, [(0, 1), (1, 2)]), 1.0, np.array([0.1, 0.2, 0.7])))
@example((Hypergraph(3, 2, [(0, 1), (1, 2)]), 0.48, np.array([0.25, 0.4, 0.35])))
@example((Hypergraph(4, 2, [(0, 1), (2, 3)]), 1.0, np.array([0.3, 0.1, 0.35, 0.25])))
@settings(max_examples=200, deadline=None)
def test_exact_transfer_moves_to_the_pair_maximizer(inputs):
    # the final passes move min(gap / (2c), x_a, cap - x_b), all the way
    # when c = 0, counted exactly from the float weights and gradient, to
    # rounding.  Along e_b - e_a, p_G is exactly p_G(x) + gap s - c s^2 with
    # the exact gradient's gap, and the move never lowers p_G by more than
    # the rounding of the two weights it changes
    g, cap, x = inputs
    A = _arrays(g).for_rows(1)
    lam = _grad_np(A, x[None])[0]
    y = x[None].copy()
    if not _transfer(A, y, lam[None], cap, LAGRANGIAN._TOL, exact=True)[0]:
        return
    y = y[0]
    support = x > LAGRANGIAN._SUPPORT_EPS
    b = int(np.where(support & (x < cap - 1e-12), lam, -np.inf).argmax())
    a = int(np.where(support, lam, np.inf).argmin())
    rf, xs = math.factorial(g.r), [Fraction(v) for v in x]
    through = [e for e in g.edge_list if a in e and b in e]
    c = rf * sum(math.prod(xs[v] for v in e if v not in (a, b)) for e in through)
    cut = min(xs[a], Fraction(cap) - xs[b])
    want = min(Fraction(lam[b]) / (2 * c) - Fraction(lam[a]) / (2 * c), cut) if c else cut
    for moved in (xs[a] - Fraction(y[a]), Fraction(y[b]) - xs[b]):
        assert abs(moved - want) <= want * Fraction(2.0 ** -40) + Fraction(2.0 ** -53)

    def exact_p(w):
        return rf * sum(math.prod(w[v] for v in e) for e in g.edge_list)

    def exact_link(i):
        return rf * sum(math.prod(xs[v] for v in e if v != i) for e in g.edge_list if i in e)

    z = list(xs)
    z[a], z[b] = z[a] - want, z[b] + want
    assert exact_p(z) - exact_p(xs) == (exact_link(b) - exact_link(a)) * want - c * want**2
    drop = exact_poly_value(g, x) - exact_poly_value(g, y)
    assert drop <= Fraction(float(lam.max())) * Fraction(2.0 ** -52)
    assert serial_curvature(A, x, a, b) == _pair_curvature(A, x[None], np.array([a]), np.array([b]))[0]


def test_cannot_gain_takes_the_c_library_power():
    # rows on a single 5-edge where the slope is within an ulp of -higher:
    # (1 + |d|)^3 by numpy's power rounds apart from the C library's on an
    # x86_64 AVX-512 machine and flips each of these decisions
    A = _arrays(single_edge(5))
    rows = [
        ("-0x1.8b4379aed70dep+11", ["0x1.3e951dc888567p-7", "0x1.0c640b0cc06e8p-4",
          "-0x1.18b4fddab1d51p-7", "0x1.4cc915114bdf1p-5", "-0x1.b7849993212e3p-4"], True),
        ("-0x1.333cef329e18dp+12", ["0x1.15c623a251a05p-3", "0x1.a1b70cfd1a90dp-4",
          "-0x1.5b29558043c21p-2", "-0x1.701d334673537p-4", "0x1.87bf9a82e2453p-3"], True),
        ("0x1.6033c2629fd44p+11", ["-0x1.a3d634656914dp-4", "-0x1.a72bb4bad8654p-6",
          "0x1.b984020dd673ap-4", "0x1.b14431e576b30p-3", "-0x1.8735a2225255bp-3"], False),
        ("0x1.ab2ee72edffc3p+11", ["-0x1.199a4be72d35fp-6", "0x1.e7e60707be327p-4",
          "-0x1.fdc98948f86b1p-4", "0x1.f07f142168a96p-8", "0x1.ea111fc777dbcp-7"], False),
    ]
    lam = np.zeros((len(rows), 5))
    lam[:, 0] = [float.fromhex(c) for c, _, _ in rows]
    D = np.array([[float.fromhex(v) for v in d] for _, d, _ in rows])
    want = [w for _, _, w in rows]
    assert [serial_cannot_gain(A, l, 0.0, d) for l, d in zip(lam, D)] == want
    assert _cannot_gain(A, lam, D).tolist() == want  # p_G(x) = 0: lam is the shift


def test_row_dots_match_matmul():
    rng = np.random.default_rng(3)
    for n in range(1, 65):
        P, Q = rng.standard_normal((2, 16, n))
        for p, q, dot in zip(P, Q, _dots(P, Q)):
            assert f64(dot) == f64(p @ q)


def test_leader_concentration_on_two_graphs():
    # near-optimal weights admit a coordinate that is simultaneously close to
    # the max weight and the max gradient (transfer-step algebra)
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(4, 8)
        g = random_hypergraph(n, 2, density=0.6, rng=rng)
        if not g.edges:
            continue
        lam_true = motzkin_straus_reference(g)
        x = [rng.random() for _ in range(n)]
        s = sum(x)
        x = [v / s for v in x]
        eta = max(lam_true - poly_value(g, x), 1e-12)
        lam = grad(g, x)
        slack = 2 * math.factorial(2) * math.sqrt(eta)
        assert any(
            x[i] >= max(x) - slack and lam[i] >= max(lam) - slack
            for i in range(n)
        )


# -- constrained ----------------------------------------------------------------


def test_constrained_examples():
    e3 = single_edge(3)
    est = lagrangian_constrained(e3, 1 / 3, restarts=10, seed=0)
    assert abs(est.value - 2 / 9) <= 1e-8 and est.cap_binds
    est2 = lagrangian_constrained(e3, 1.0, restarts=10, seed=0)
    assert abs(est2.value - 2 / 9) <= 1e-8 and not est2.cap_binds
    k4 = complete_hypergraph(4, 2)
    est3 = lagrangian_constrained(k4, 0.25, restarts=10, seed=0)
    assert abs(est3.value - 0.75) <= 1e-8


def test_constrained_reports_value_at_its_weights():
    # below 1/n every weight sits at the cap and WeightVector renormalizes them
    k3 = complete_hypergraph(3, 2)
    beta = 1 / 3 - 1e-12
    est = lagrangian_constrained(k3, beta, restarts=2, seed=0)
    assert est.value == poly_value(k3, est.weights)
    assert est.gradient_residual == _residual(k3, est.weights, est.value, beta)


def test_capped_c5_converges_at_its_optimum():
    # optimum (beta, beta, 1 - 2 beta) on a path for beta = 0.4, and
    # (eps, beta, beta, beta, eps) with eps = (1 - 3 beta) / 2 for beta = 0.3
    for beta, want in ((0.3, 0.425), (0.4, 0.48)):
        est = lagrangian_constrained(cycle(5), beta, restarts=10, seed=0)
        assert abs(est.value - want) <= 1e-9 and est.cap_binds
        assert est.converged and est.gradient_residual <= 1e-9


def test_residual_is_the_kkt_violation():
    c5 = cycle(5)
    # feasible at cap 0.4, but vertex 1 (between the capped 0 and 2) is free
    # with gradient 1.6 against 0.4 at the cap: mu cannot serve both
    x = [0.4, 0.2, 0.4, 0.0, 0.0]
    assert _residual(c5, x, poly_value(c5, x), 0.4) == pytest.approx(0.6)
    assert _residual(c5, [0.4, 0.4, 0.2, 0, 0], 0.48, 0.4) <= 1e-12
    # uncapped: an off-support vertex with gradient above r*value counts
    k3 = complete_hypergraph(3, 2)
    x = [0.5, 0.5, 0.0]
    assert _residual(k3, x, poly_value(k3, x), 1.0) == pytest.approx(1.0)


def test_constrained_envelope():
    g = cycle(5)
    lam = lagrangian(g, restarts=30, seed=0).value
    best = max(
        lagrangian_constrained(g, b, restarts=30, seed=0).value
        for b in (0.2, 0.3, 0.4, 0.5, 0.7, 1.0)
    )
    assert abs(best - lam) <= 1e-6


def test_constrained_beta_bounds():
    e3 = single_edge(3)
    with pytest.raises(ValueError):
        lagrangian_constrained(e3, 0.1)
    with pytest.raises(ValueError):
        lagrangian_constrained(e3, 1.5)


# -- closed forms -----------------------------------------------------------------


def test_f_r_examples():
    assert f_r_eval(3, Fraction(3)) == Fraction(2, 9)
    for k in range(3, 9):
        for r in range(2, 6):
            lhs = (k - 2) * f_r_eval(r, Fraction(k))
            rhs = Fraction(falling_factorial(k + r - 3, r), (k + r - 3) ** r)
            assert lhs == rhs
    assert f_r_eval(3, 1000.0) < 1e-3  # decays at infinity
    with pytest.raises(ValueError):
        f_r_eval(2, 1.0)  # pole at x + r - 3 = 0
    with pytest.raises(ValueError):
        f_r_eval(3, -1.0)


def test_compute_Mr():
    assert compute_Mr(1) == 2.0
    assert abs(compute_Mr(2) - 2.0) <= 1e-9
    assert abs(compute_Mr(3) - 2.0) <= 1e-9
    assert abs(compute_Mr(4) - (2 + math.sqrt(3))) <= 1e-9
    vals = [compute_Mr(r) for r in range(2, 9)]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_mr_is_a_maximum_of_fr():
    for r in (4, 5, 6):
        m = compute_Mr(r)
        f0 = f_r_eval(r, m)
        assert f0 >= f_r_eval(r, m - 1e-4)
        assert f0 >= f_r_eval(r, m + 1e-4)


def test_mr_is_the_last_float_before_the_root_of_the_derivative():
    # the sign of f_r' is the sign of the integer polynomial g, taken exactly:
    # f_r still rises at M_r and already falls at the next float
    for r in range(4, 21):
        g = _fr_derivative_numerator(r)
        m = compute_Mr(r)
        assert _poly_sign(g, Fraction(m)) > 0, r
        assert _poly_sign(g, Fraction(math.nextafter(m, math.inf))) < 0, r
    assert compute_Mr(4) == 2 + math.sqrt(3)


# -- clique oracle ------------------------------------------------------------------


def test_motzkin_straus_reference():
    assert motzkin_straus_reference(complete_hypergraph(4, 2)) == pytest.approx(0.75)
    assert motzkin_straus_reference(cycle(5)) == pytest.approx(0.5)
    assert motzkin_straus_reference(Hypergraph(3, 2, [])) == 0.0
    with pytest.raises(ValueError):
        motzkin_straus_reference(complete_hypergraph(4, 3))


def test_clique_number_brute_agreement():
    rng = random.Random(13)
    for n in list(range(10)) * 2:  # n = 0 and 1 are the edge cases
        g = random_hypergraph(n, 2, density=rng.uniform(0.2, 0.9), rng=rng)
        best = min(n, 1)
        for k in range(2, n + 1):
            for sub in itertools.combinations(range(n), k):
                if all((a, b) in g.edges for a, b in itertools.combinations(sub, 2)):
                    best = max(best, k)
        assert clique_number(g) == best


# -- local-max corollary (2-graphs) ---------------------------------------------------


def test_local_max_bound_two_graphs():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(3, 9)
        g = random_hypergraph(n, 2, density=0.55, rng=rng)
        d = float(enumerate_mad(g)[0])
        x = [rng.random() for _ in range(n)]
        s = sum(x)
        x = [v / s for v in x]
        assert poly_value(g, x) <= max(x) * d + 1e-12


# -- density search -------------------------------------------------------------------


def test_density_search_triangle():
    res = lagrangian_density_search(complete_hypergraph(3, 2), 4, seed=0)
    assert abs(res.best_value - 0.5) <= 1e-6
    assert res.exact


def test_density_search_single_edge():
    res = lagrangian_density_search(single_edge(3), 4, seed=0)
    assert res.best_value == 0.0


def test_density_search_k4_free_hosts_reach_the_triangle():
    # K_4-free hosts on 5 vertices: the best is a triangle, 1 - 1/3
    res = lagrangian_density_search(complete_hypergraph(4, 2), 5)
    assert abs(res.best_value - 2 / 3) <= 1e-9
    assert res.exact


def test_density_search_matchings_on_eight_vertices():
    # a P3-free 2-graph is a matching, so omega <= 2 and the density is 1/2.
    # Only K_2 is a matching that covers pairs, so it is the one host, and
    # every size's walk finishes, C(8, 2) = 28 candidates included
    P3 = path_graph(3)
    res = lagrangian_density_search(P3, 8, seed=0)
    assert res.exact and res.evaluated == 1
    assert abs(res.best_value - 0.5) <= 1e-9
    assert SubgraphPredicate(P3).is_free(res.witness)


def test_density_search_f5_reaches_the_star_at_eight_vertices():
    # the star S_8 is F5-free, covers pairs and has 3! lambda = 4*6/(9*7) =
    # 8/21 > 3/8 (test_star_closed_form); the t = 8 walk finds it and ends
    res = lagrangian_density_search(generalized_triangle(3), 8)
    assert res.exact
    assert abs(res.best_value - 8 / 21) <= 1e-9
    assert SubgraphPredicate(generalized_triangle(3)).is_free(res.witness)
    assert res.witness.n == 8 and len(res.witness.edges) == 21


def test_density_search_budget_stops_the_walk(monkeypatch):
    # F5 at t = 8 needs 10,439 nodes; a budget of 4096 stops the walk at its
    # first reading, so the result is a lower bound, flagged, and the same
    # on every call
    monkeypatch.setattr(EXTREMAL, "_HOST_NODE_BUDGET", 4096)
    F5 = generalized_triangle(3)
    res = lagrangian_density_search(F5, 8)
    assert not res.exact
    assert SubgraphPredicate(F5).is_free(res.witness)
    assert res.best_value >= 3 / 8 - 1e-12
    assert lagrangian_density_search(F5, 8) == res


# (label, r, predicate, largest host order, r! lambda of the best host):
# every level is exhaustive
COVERING_CASES = [
    ("K3", 2, SubgraphPredicate(complete_hypergraph(3, 2)), 5, 1 / 2),
    ("K4", 2, SubgraphPredicate(complete_hypergraph(4, 2)), 5, 2 / 3),
    ("P3", 2, SubgraphPredicate(path_graph(3)), 5, 1 / 2),
    ("F5", 3, SubgraphPredicate(generalized_triangle(3)), 5, 3 / 8),
    ("edge-p4", 3, FamilyPredicate(single_edge(3), 4), 6, 2 / 9),
    ("sigma3", 3, SigmaPredicate(3), 5, 2 / 9),
    ("cancellative3", 3, CancellativePredicate(), 5, 2 / 9),
    ("cancellative4", 4, CancellativePredicate(), 5, 3 / 32),
]


def assert_lex_leaders_once(found, covering):
    # the hosts are exactly the lex leaders of the covering graphs, each once
    hosts = sorted(frozenset(h) for h in found)
    assert len(set(hosts)) == len(hosts)
    assert set(hosts) == {colex_lex_leader(G).edges for G in covering}


@pytest.mark.parametrize("r, pred, t", [
    (2, SubgraphPredicate(path_graph(3)), 8),
    (4, CancellativePredicate(), 7),
], ids=["P3-t8", "cancellative4-t7"])
def test_covering_hosts_match_labelled_oracle_past_25_candidates(r, pred, t):
    # C(t, r) = 28 and 35: the walk finishes within the budget and keeps the
    # leader of every labelled maximal host that covers pairs.  Here there is
    # none: the oracle's 105 and 3,122 maximal hosts all leave a pair
    # uncovered, and the walk must not invent one
    found, finished = _covering_hosts(t, r, pred)
    assert finished
    labelled = [Hypergraph(t, r, set(edges)) for edges in
                density_dfs_oracle(pred.state(t, r), _colex_candidates(t, r))]
    covering = [G for G in labelled if len(G.covered_pairs) == math.comb(t, 2)]
    assert_lex_leaders_once(found, covering)


@pytest.mark.parametrize("pred, labellings", [
    (SubgraphPredicate(complete_hypergraph(4, 3)), 277),
    (FamilyPredicate(K4_MINUS, 4), 66),
], ids=["K4-t6", "family-K4minus-t6"])
def test_covering_hosts_keep_one_leader_per_class(pred, labellings, monkeypatch):
    # the walk reaches 277 labellings of 9 classes and 66 of 3; the hosts
    # are the leaders of those labellings, each once.  The labelled oracle
    # takes 5 s and 13 s here, so the labellings are the walk's own leaves,
    # all kept when find_embedding finds nothing; the walk's cuts are held
    # to the oracle by the tests around this one
    found, finished = _covering_hosts(6, 3, pred)
    assert finished
    monkeypatch.setattr(EXTREMAL, "find_embedding", lambda G, F: None)
    leaves, _ = _covering_hosts(6, 3, pred)
    assert len(leaves) == labellings
    assert_lex_leaders_once(found, [Hypergraph(6, 3, edges) for edges in leaves])


@pytest.mark.parametrize("r, pred, top, value", [c[1:] for c in COVERING_CASES],
                         ids=[c[0] for c in COVERING_CASES])
def test_covering_hosts_match_labelled_oracle(r, pred, top, value):
    # the host mode keeps the leader of every isomorphism class of maximal
    # free graphs that cover pairs, once, and nothing else; the density
    # search over them reaches the largest Lagrangian of every labelled
    # maximal host
    best = 0.0
    for t in range(r, top + 1):
        found, finished = _covering_hosts(t, r, pred)
        assert finished
        labelled = [Hypergraph(t, r, set(edges)) for edges in
                    density_dfs_oracle(pred.state(t, r), _colex_candidates(t, r))]
        covering = [G for G in labelled if len(G.covered_pairs) == math.comb(t, 2)]
        assert_lex_leaders_once(found, covering)
        best = max([best] + [lagrangian(G, restarts=8).value for G in labelled])
    res = lagrangian_density_search(pred, top, r=r)
    assert res.exact and abs(res.best_value - best) <= 1e-12
    assert abs(res.best_value - value) <= 1e-12 and pred.is_free(res.witness)


@pytest.mark.parametrize("seed", [0, 53])
@pytest.mark.parametrize("r, pred, top", [c[1:4] for c in COVERING_CASES],
                         ids=[c[0] for c in COVERING_CASES])
def test_density_search_matches_the_per_host_loop(r, pred, top, seed):
    # the search keeps what a separate 8-restart lagrangian call per host
    # would
    assert (lagrangian_density_search(pred, top, r=r, seed=seed)
            == per_host_density_search(pred, top, r, seed))


def test_density_search_refuses_a_walk_deeper_than_half_the_recursion_limit():
    # the host walk recurses once per candidate: C(33, 2) = 528 reaches
    # 1000 // 2 at the default limit, and is refused before any walk
    assert sys.getrecursionlimit() == 1000
    with pytest.raises(ValueError, match=r"^C\(33,2\) = 528 "):
        lagrangian_density_search(complete_hypergraph(3, 2), 33)


def test_both_walks_refuse_with_one_guard():
    # the density search and the exact search share the depth guard: the
    # same exception with the same message at C(33, 2) = 528
    with pytest.raises(ExactSearchRefused) as exact:
        brute_force_ex(33, 2, SubgraphPredicate(complete_hypergraph(3, 2)))
    with pytest.raises(ExactSearchRefused) as density:
        lagrangian_density_search(complete_hypergraph(3, 2), 33)
    assert str(exact.value) == str(density.value)
    assert str(exact.value).startswith("C(33,2) = 528 ")


def test_density_search_predicate_needs_r():
    with pytest.raises(ValueError, match="uniformity r"):
        lagrangian_density_search(SigmaPredicate(3), 5)


@pytest.mark.parametrize("t", [5, 6, 7, 8])
def test_star_closed_form(t):
    # S_t, the triples through vertex 0, is F5-free and covers pairs.  Its
    # Lagrangian is max x (1 - x)^2 / 2 * (1 - 1/(t-1)) at x = 1/3, so
    # 3! lambda(S_t) = 4(t-2)/(9(t-1)): 10/27 < 3/8 at t = 7, 8/21 > 3/8 at
    # t = 8.  So the density search's 3/8 for F5 is a lower bound that
    # holds only up to t = 7
    S = Hypergraph(t, 3, [(0, a, b) for a, b in itertools.combinations(range(1, t), 2)])
    assert SubgraphPredicate(generalized_triangle(3)).is_free(S)
    assert len(S.covered_pairs) == math.comb(t, 2)
    assert abs(lagrangian(S).value - 4 * (t - 2) / (9 * (t - 1))) <= 1e-9


def test_density_search_zero_vertex_pattern():
    # the empty pattern embeds everywhere, so no host is F-free
    res = lagrangian_density_search(Hypergraph(0, 2, []), 4)
    assert res == (0.0, Hypergraph(4, 2, []), True, 0)


@pytest.mark.parametrize("F", [path_graph(3), Hypergraph(0, 2, [])],
                         ids=["P3", "empty-pattern"])
def test_density_search_rejects_negative_seed(F):
    # refused at entry with lagrangian's message, before any host is
    # searched, also when no host would reach lagrangian
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
        lagrangian_density_search(F, 4, seed=-1)


def test_density_search_skips_host_sizes_that_hold_the_pattern():
    # four isolated vertices embed in every host on 4 or 5 vertices, so only
    # t = 3 is searched, and its one maximal host is the single edge
    res = lagrangian_density_search(Hypergraph(4, 3, []), 5)
    assert abs(res.best_value - 2 / 9) <= 1e-12
    assert res.witness == Hypergraph(3, 3, [(0, 1, 2)])
    assert res.exact and res.evaluated == 1


def test_density_search_enlarged_path():
    F = enlargement(path_graph(3), 3)
    res = lagrangian_density_search(F, 4, seed=0)
    assert res.best_value >= 2 / 9 - 1e-9
    from turanlag import find_embedding

    assert find_embedding(res.witness, F) is None


# -- stability probe -------------------------------------------------------------------


def test_stability_probe():
    assert len(stability_probe([0.2] * 5, 0.5)) == 3
    assert stability_probe([0.97, 0.01, 0.01, 0.01], 0.05) == (0,)
    est = lagrangian(complete_hypergraph(4, 3), restarts=10, seed=0)
    assert len(stability_probe(est.weights, 0.01)) == 4
    with pytest.raises(ValueError):
        stability_probe([1.0], 0.0)
    with pytest.raises(ValueError):
        stability_probe([1.0], 1.0)


# -- blowup bound (small version of the acceptance check) -----------------------------


def test_blowup_bound_small():
    rng = random.Random(3)
    F = enlargement(path_graph(3), 3)
    from turanlag import SubgraphPredicate, blowup

    pred = SubgraphPredicate(F)
    for _ in range(5):
        st = pred.state(5, 3)
        cands = list(itertools.combinations(range(5), 3))
        rng.shuffle(cands)
        for e in cands:
            if st.can_add(e):
                st.add(e)
        L = Hypergraph(5, 3, st.current)
        est = lagrangian(L, restarts=10, seed=0)
        sizes = [rng.randint(1, 4) for _ in range(5)]
        n = sum(sizes)
        assert len(blowup(L, sizes).edges) <= est.value * n**3 / 6 + 1e-6 * n**3


# -- certificates ----------------------------------------------------------------------


def test_certificate_labels():
    k4 = complete_hypergraph(4, 2)
    est = lagrangian(k4, restarts=5, seed=0)
    assert certificate_label(k4, est) == "exact-motzkin-straus"
    k43 = complete_hypergraph(4, 3)
    est2 = lagrangian(k43, restarts=5, seed=0)
    assert certificate_label(k43, est2) == "exact-symmetric"
    g = Hypergraph(5, 3, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    est3 = lagrangian(g, restarts=5, seed=0)
    assert certificate_label(g, est3) == "lower-bound"
