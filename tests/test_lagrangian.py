import importlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from turanlag import (
    Hypergraph,
    WeightVector,
    certificate_label,
    clique_number,
    complete_hypergraph,
    compute_Mr,
    enlargement,
    f_r_eval,
    falling_factorial,
    grad,
    lagrangian,
    lagrangian_constrained,
    lagrangian_density_search,
    max_average_degree,
    motzkin_straus_reference,
    path_graph,
    poly_value,
    random_hypergraph,
    single_edge,
    stability_probe,
)
from turanlag.extremal import SubgraphPredicate, _colex_candidates
from turanlag.lagrangian import (
    _arrays, _ascend, _cannot_gain, _density_local, _grad_np, _greedy_supports,
    _p_np, _project, _residual, _transfer,
)

from conftest import (
    add_at_gradient, bisection_capped_projection, brute_contains,
    exact_poly_value, sort_simplex_projection,
)

LAGRANGIAN = importlib.import_module("turanlag.lagrangian")


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
    A = _arrays(g)
    assert _grad_np(A, x).tobytes() == add_at_gradient(A, x).tobytes()


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


# -- the capped-simplex projection ---------------------------------------------


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
    x = _project(v, cap)
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
    assert _project(np.array([-1.21147351]), 1.0).tolist() == [1.0]
    # n*cap <= 1 (no free coordinate left): every one at the cap, none at 0
    v = np.array([3.0, -1.0, 0.5, 0.5])
    assert _project(v, 0.25).tolist() == [0.25] * 4
    assert _project(v, 0.25 - 1e-13).tolist() == [0.25 - 1e-13] * 4
    # a tie at the cap 1/2 takes all the mass
    assert _project(np.array([5.0, 5.0, 1.0, 0.0]), 0.5).tolist() == [0.5, 0.5, 0, 0]
    # just below 1/2, two coordinates at the cap leave the rest 2^-53 of
    # mass, too little for the sort condition to see next to 50
    cap = float(np.nextafter(0.5, 0.0))
    x = _project(np.array([100.0, 60.0, 50.0, 50.0]), cap)
    assert x.tolist() == [cap, cap, 0, 0]


# -- the line-search stop rule ------------------------------------------------


@pytest.mark.parametrize("g", [complete_hypergraph(5, 3), cycle(5)],
                         ids=["K5(3)", "C5"])
def test_line_search_stops_at_a_stationary_start(g, monkeypatch):
    # uniform weights are stationary here: every candidate fails, and the
    # search ends at the first one instead of halving 60 times
    calls = []

    def counting(v, cap):
        calls.append(cap)
        return _project(v, cap)

    monkeypatch.setattr(LAGRANGIAN, "_project", counting)
    A = _arrays(g)
    x0 = np.full(g.n, 1 / g.n)
    x, val = _ascend(A, x0, 1.0, 5000)
    assert len(calls) <= 4
    assert np.abs(x - x0).max() <= 1e-15 and val == pytest.approx(_p_np(A, x0))


@st.composite
def line_search_inputs(draw):
    r = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(r, 7))
    pool = list(itertools.combinations(range(n), r))
    g = Hypergraph(n, r, draw(st.lists(st.sampled_from(pool), min_size=1, unique=True)))
    cap = draw(st.sampled_from([1 / n, 1.0]) | st.floats(1 / n, 1.0))
    floats = st.lists(st.floats(0, 1), min_size=n, max_size=n)
    x = _project(np.array(draw(floats)), cap)
    if draw(st.booleans()):
        # near a stationary point, where the rule fires, at distances down
        # to rounding, where a too-eager rule would stop a gaining search
        x = _ascend(_arrays(g), x, cap, draw(st.integers(1, 50)))[0]
        x = _project(x + 10.0 ** -draw(st.integers(3, 16)) * np.array(draw(floats)), cap)
    return g, cap, x, 2.0 ** draw(st.integers(-20, 10))


def _counting_gradients(monkeypatch) -> list:
    calls = []

    def counting(A, x):
        calls.append(x.copy())
        return _grad_np(A, x)

    monkeypatch.setattr(LAGRANGIAN, "_grad_np", counting)
    return calls


@pytest.mark.parametrize("g, points", [(complete_hypergraph(5, 3), 3), (cycle(5), 1)],
                         ids=["K5(3)", "C5"])
def test_ascent_at_a_stationary_start_takes_a_gradient_per_point(g, points, monkeypatch):
    # uniform weights are stationary.  On C5 x never moves, so one gradient
    # serves the whole ascent.  On K5(3) the first line search accepts a
    # candidate whose sum rounds above 1 and the final renormalization moves
    # x back, so three points are visited
    calls = _counting_gradients(monkeypatch)
    _ascend(_arrays(g), np.full(g.n, 1 / g.n), 1.0, LAGRANGIAN._MAX_ITERS)
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
        _ascend(_arrays(g), x, cap, LAGRANGIAN._MAX_ITERS)
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
    A = _arrays(g)
    lam = _grad_np(A, x)
    val = _p_np(A, x)
    while tt >= 1e-20:
        cand = _project(x + tt * lam, cap)
        if _p_np(A, cand) > val + 1e-16:
            return  # accepted: the rule is not consulted
        if _cannot_gain(A, lam, val, cand - x):
            break
        tt *= 0.5
    base, mass = exact_poly_value(g, x), sum(map(Fraction, x))
    top = Fraction(float(lam.max()))
    while tt >= 1e-20:
        v = x + tt * lam
        cand = _project(v, cap)
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
        A = _arrays(g)
        v = np.array([rng.random() for _ in range(n)])
        for cap, x in ((1.0, v / v.sum()), (0.4, _project(v, 0.4))):
            for _ in range(50):
                before = _p_np(A, x)
                if not _transfer(A, x, _grad_np(A, x), cap, 0.0):
                    break
                assert _p_np(A, x) >= before - 1e-14
                assert x.min() >= 0.0 and x.max() <= cap + 1e-15


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


# -- clique oracle ------------------------------------------------------------------


def test_motzkin_straus_reference():
    assert motzkin_straus_reference(complete_hypergraph(4, 2)) == pytest.approx(0.75)
    assert motzkin_straus_reference(cycle(5)) == pytest.approx(0.5)
    assert motzkin_straus_reference(Hypergraph(3, 2, [])) == 0.0
    with pytest.raises(ValueError):
        motzkin_straus_reference(complete_hypergraph(4, 3))


def test_clique_number_brute_agreement():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(3, 8)
        g = random_hypergraph(n, 2, density=rng.uniform(0.2, 0.9), rng=rng)
        best = 1
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
        d = float(max_average_degree(g).value)
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


def test_density_search_k4_runs_on_clique_state():
    # K_4-free hosts on 5 vertices: the best is a triangle, 1 - 1/3
    res = lagrangian_density_search(complete_hypergraph(4, 2), 5)
    assert abs(res.best_value - 2 / 3) <= 1e-9
    assert res.exact


def test_density_local_considers_maximal_free_graphs():
    k3 = complete_hypergraph(3, 2)
    cands = _colex_candidates(8, 2)
    seen = []
    _density_local(SubgraphPredicate(k3).state(8, 2), cands, seen.append,
                   random.Random(0), 20)
    assert len(seen) == 21
    for G in seen:
        assert not brute_contains(G, k3)
        assert all(brute_contains(G.with_edges([e]), k3)
                   for e in cands if e not in G.edges)


def test_density_search_zero_vertex_pattern():
    # the empty pattern embeds everywhere, so no host is F-free
    res = lagrangian_density_search(Hypergraph(0, 2, []), 4)
    assert res == (0.0, Hypergraph(4, 2, []), True, 0)


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
        L = st.graph()
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
