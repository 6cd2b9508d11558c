"""Randomized invariants, hypothesis-driven.

Each property states a contract from the operation definitions; the generators
stay small so every example runs an exhaustive oracle where one is used.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from turanlag import (
    CancellativePredicate,
    FamilyPredicate,
    Hypergraph,
    SigmaPredicate,
    SubgraphPredicate,
    blowup,
    brute_force_ex,
    complete_hypergraph,
    core_representatives,
    contains_family_member,
    enlargement,
    expanded_clique_with_embedded,
    equivalence_classes,
    find_embedding,
    generalized_triangle,
    kernel_degree,
    max_matching,
    path_graph,
    poly_value,
    grad,
    intermediate_graphs,
    kernel_clean,
    lagrangian,
    lagrangian_constrained,
    lagrangian_density_search,
    local_search_lower,
    random_hypergraph,
    replay_trace,
    run_plain,
    run_with_cleaning,
    single_edge,
    symmetrize,
    turan_hypergraph,
)

from turanlag.hgio import parse_hypergraph, serialize_hypergraph
from turanlag.hypergraph import (_anchored_plans, _base_plan, _bits, _edge_masks,
                                 _embed, _pair_masks)
from turanlag.verify import _fan_free_corpus

from conftest import (backtracking_embedding, brute_contains, brute_family,
                      brute_is_cancellative, brute_matching, brute_sigma,
                      rebuilding_symmetrization, rescanning_kernel_clean)


@st.composite
def hypergraphs(draw, max_n=7, rs=(2, 3)):
    r = draw(st.sampled_from(rs))
    n = draw(st.integers(min_value=r, max_value=max_n))
    cands = list(itertools.combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(cands), max_size=len(cands)))
    return Hypergraph(n, r, edges)


@st.composite
def dense_hypergraphs(draw, max_n=7, rs=(2, 3)):
    """Each candidate edge kept with probability 1/2, so cleanups have
    d-sets on both sides of their thresholds."""
    r = draw(st.sampled_from(rs))
    n = draw(st.integers(min_value=r, max_value=max_n))
    cands = list(itertools.combinations(range(n), r))
    keep = draw(st.lists(st.booleans(), min_size=len(cands), max_size=len(cands)))
    return Hypergraph(n, r, [e for e, k in zip(cands, keep) if k])


def sparse_or_dense(max_n, rs):
    return st.one_of(hypergraphs(max_n, rs), dense_hypergraphs(max_n, rs))


@st.composite
def weighted_graphs(draw):
    g = draw(hypergraphs())
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=g.n, max_size=g.n))
    total = sum(raw)
    return g, [v / total for v in raw]


@given(hypergraphs())
@settings(max_examples=80, deadline=None)
def test_handshake(g):
    assert sum(g.degrees) == g.r * len(g.edges)
    for v in range(g.n):
        assert g.degrees[v] == len(g.link([v]).edges)


@given(hypergraphs())
@settings(max_examples=60, deadline=None)
def test_shadow_properties(g):
    assert len(g.shadow(g.r)) == len(g.edges)
    sub_edges = g.edge_list[: len(g.edges) // 2]
    sub = Hypergraph(g.n, g.r, sub_edges)
    for p in range(1, g.r + 1):
        assert sub.shadow(p) <= g.shadow(p)


@given(hypergraphs())
@settings(max_examples=60, deadline=None)
def test_matching_frankl_bound(g):
    s = max_matching(g)
    assert s == brute_matching(g)
    assert len(g.edges) <= s * math.comb(g.n, g.r - 1)
    assert s <= g.n // g.r


@given(hypergraphs())
@settings(max_examples=60, deadline=None)
def test_kernel_degree_at_most_degree(g):
    for size in range(1, g.r):
        for D in itertools.combinations(range(g.n), size):
            kd = kernel_degree(g, D)
            assert kd <= g.degree(D)
            if g.degree(D) == 0:
                assert kd == 0


@given(hypergraphs(max_n=5), st.lists(st.integers(1, 3), min_size=5, max_size=5))
@settings(max_examples=40, deadline=None)
def test_blowup_counts(g, sizes):
    sizes = sizes[: g.n]
    while len(sizes) < g.n:
        sizes.append(1)
    b = blowup(g, sizes)
    assert len(b.edges) == sum(math.prod(sizes[i] for i in e) for e in g.edges)
    assert blowup(g, [1] * g.n).edges == g.edges


@given(hypergraphs(max_n=6), hypergraphs(max_n=4))
@settings(max_examples=60, deadline=None)
def test_containment_matches_brute_force(g, f):
    if f.r != g.r:
        return
    assert (find_embedding(g, f) is not None) == brute_contains(g, f)


@st.composite
def patterns(draw, r, max_n=5):
    """An r-graph on its edges' support and up to two isolated vertices,
    labels shuffled."""
    k = draw(st.integers(min_value=r, max_value=max_n))
    cands = list(itertools.combinations(range(k), r))
    edges = draw(st.lists(st.sampled_from(cands), max_size=4))
    used = sorted({v for e in edges for v in e})
    n = len(used) + draw(st.integers(0, 2))
    perm = draw(st.permutations(range(n)))
    pos = {v: perm[i] for i, v in enumerate(used)}
    return Hypergraph(n, r, [tuple(pos[v] for v in e) for e in edges])


@given(st.sampled_from((2, 3, 4)).flatmap(
    lambda r: st.tuples(hypergraphs(max_n=7, rs=(r,)), patterns(r))), st.data())
@settings(max_examples=200, deadline=None)
def test_find_embedding_matches_backtracking_oracle(gf, data):
    """find_embedding, and the engine on a host bitmask (the family paths)
    and anchored at a host edge (the subgraph state's path), return the
    oracle's first copy."""
    g, f = gf
    assert find_embedding(g, f) == backtracking_embedding(g, f)
    allowed = data.draw(st.lists(st.integers(0, g.n - 1), unique=True), label="allowed")
    index = (_edge_masks(g), g.degrees, _pair_masks(g))
    assert (_embed((_base_plan(f),), (), *index, _bits(allowed))
            == backtracking_embedding(g, f, allowed=allowed))
    if g.edges:
        e = data.draw(st.sampled_from(g.edge_list), label="require_edge")
        for a in (None, allowed):
            hosts = range(g.n) if a is None else a
            # like the oracle, give up when the allowed hosts cannot hold f
            got = (None if f.n > len(hosts) else
                   _embed(_anchored_plans(f), e, *index, _bits(hosts)))
            assert got == backtracking_embedding(g, f, allowed=a, require_edge=e)


@given(hypergraphs(max_n=6, rs=(3,)), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_family_matches_brute_force(g, p):
    f = single_edge(3)
    if p < f.n:
        return
    assert (contains_family_member(g, f, p) is not None) == brute_family(g, f, p)


@given(weighted_graphs())
@settings(max_examples=60, deadline=None)
def test_gradient_identity(gx):
    g, x = gx
    p = poly_value(g, x)
    lam = grad(g, x)
    assert abs(p - math.fsum(l * v for l, v in zip(lam, x)) / g.r) <= 1e-12
    assert 0.0 <= p <= 1.0 + 1e-12
    if g.edges:
        assert max(lam) >= g.r * p - 1e-12


@given(sparse_or_dense(7, (2, 3, 4)), st.one_of(st.none(), st.floats(0.0, 1.0)),
       st.integers(0, 99))
@settings(max_examples=60, deadline=None)
def test_ascent_value_is_p_G_at_its_weights_to_rounding(g, t, seed):
    """value is p_G at the reported weights up to the r + 1 roundings of its
    evaluation (r - 1 products, the fsum and the r! scaling), and those
    weights sum to 1 only to rounding, so value can sit a few ulps above
    lambda(G): the certified lower side is the rational point's exact p_G."""
    if t is None:
        est = lagrangian(g, restarts=4, seed=seed)
    else:
        est = lagrangian_constrained(g, 1 / g.n + t * (1 - 1 / g.n), restarts=4, seed=seed)
    w = [Fraction(v) for v in est.weights.weights]
    exact = math.factorial(g.r) * sum((math.prod(w[v] for v in e) for e in g.edge_list),
                                      Fraction(0))
    assert Fraction(est.value) <= exact * (1 + Fraction(1, 2**53)) ** (g.r + 1)
    assert abs(math.fsum(est.weights.weights) - 1) <= 1e-12


@given(hypergraphs())
@settings(max_examples=50, deadline=None)
def test_equivalence_classes_partition(g):
    classes = equivalence_classes(g)
    flat = sorted(v for c in classes for v in c)
    assert flat == list(range(g.n))
    covered = g.covered_pairs
    for c in classes:
        for a, b in itertools.combinations(c, 2):
            assert (a, b) not in covered


@given(hypergraphs())
@settings(max_examples=50, deadline=None)
def test_symmetrize_clone_merges_classes(g):
    covered = g.covered_pairs
    pair = next(
        (
            (u, v)
            for u in range(g.n)
            for v in range(g.n)
            if u != v and (min(u, v), max(u, v)) not in covered
        ),
        None,
    )
    if pair is None:
        return
    u, v = pair
    h = symmetrize(g, v, u)
    assert any(u in c and v in c for c in equivalence_classes(h))
    # clone gains exactly u's degree
    assert h.degrees[v] == g.degrees[u]


@given(hypergraphs())
@settings(max_examples=40, deadline=None)
def test_run_plain_monotone_and_blowup(g):
    out = run_plain(g)
    assert len(out.result.edges) >= len(g.edges)
    from turanlag import core_representatives, is_blowup_of_quotient

    assert core_representatives(out.result).quotient.covers_pairs()
    assert is_blowup_of_quotient(out.result)


@given(sparse_or_dense(12, (2, 3, 4)))
@settings(max_examples=60, deadline=None)
def test_symmetrization_driver_matches_rebuilding_oracle(g):
    assert run_plain(g) == rebuilding_symmetrization(g, 0)
    for alpha in (0, Fraction(1, 100), Fraction(1, 20), Fraction(1, 10),
                  Fraction(1, 2), 1):
        assert run_with_cleaning(g, alpha) == rebuilding_symmetrization(g, alpha)


@given(sparse_or_dense(9, (2, 3, 4, 5)))
@settings(max_examples=80, deadline=None)
def test_kernel_clean_matches_rescanning_oracle(g):
    for d in range(1, g.r):
        for p in range(4):
            assert kernel_clean(g, p, d) == rescanning_kernel_clean(g, p, d)


@given(sparse_or_dense(9, (2, 3, 4, 5)), st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_clean_commutes_with_relabelling(g, data):
    perm = data.draw(st.permutations(range(g.n)), label="perm")
    for d in range(1, g.r):
        for p in range(4):
            assert kernel_clean(g.relabel(perm), p, d) == kernel_clean(g, p, d).relabel(perm)


# -- trusted producers ---------------------------------------------------------
# Edge sets the library builds itself skip the per-edge checks
# (``Hypergraph._trusted``), so each producer must return exactly what the
# validating constructor makes of its own edges.


def assert_as_validated(H):
    """H equals the validated construction of its edges, and every edge is a
    sorted tuple of exactly r distinct ints."""
    assert H == Hypergraph(H.n, H.r, H.edges)
    for e in H.edges:
        assert type(e) is tuple and len(e) == H.r, e
        assert all(type(v) is int for v in e) and list(e) == sorted(set(e)), e


@given(sparse_or_dense(8, (2, 3, 4)), st.data())
@settings(max_examples=60, deadline=None)
def test_graph_producers_match_validated_construction(g, data):
    produced = [run_plain(g).result]
    for alpha in (0, Fraction(1, 10), Fraction(1, 2)):
        out = run_with_cleaning(g, alpha)
        produced += [out.result, replay_trace(g, out.trace).result,
                     *intermediate_graphs(g, out.trace),
                     core_representatives(out.result).quotient]
    produced.append(core_representatives(g).quotient)
    uncovered = [pr for pr in itertools.combinations(range(g.n), 2)
                 if pr not in g.covered_pairs]
    if uncovered:
        u, v = data.draw(st.sampled_from(uncovered), label="pair")
        produced += [symmetrize(g, v, u), symmetrize(g, u, v)]
    produced += [kernel_clean(g, p, d) for d in range(1, g.r) for p in range(3)]
    verts = data.draw(st.lists(st.integers(0, g.n - 1), unique=True), label="verts")
    produced += [g.induced(verts), g.induced(verts, relabel=True)]
    S = data.draw(st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.r - 1),
                  label="S")
    produced.append(g.link(S))
    sizes = data.draw(st.lists(st.integers(1, 2), min_size=g.n, max_size=g.n),
                      label="sizes")
    produced.append(blowup(g, sizes))
    produced.append(g.relabel(data.draw(st.permutations(range(g.n)), label="perm")))
    cands = list(itertools.combinations(range(g.n), g.r))
    extra = data.draw(st.lists(st.sampled_from(cands).flatmap(st.permutations).map(tuple),
                               max_size=3), label="extra")
    produced.append(g.with_edges(extra))
    parts = data.draw(st.integers(g.r, g.n + 1), label="parts")
    produced.append(turan_hypergraph(g.n, g.r, parts).graph)
    produced.append(parse_hypergraph(serialize_hypergraph(g)))
    for H in produced:
        assert_as_validated(H)


@given(hypergraphs(max_n=5, rs=(2, 3, 4)), st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_search_witnesses_match_validated_construction(f, extra):
    n = min(f.n + extra, 6)
    for pred in (SubgraphPredicate(f), CancellativePredicate()):
        if not pred.is_free(Hypergraph(n, f.r, [])):
            continue
        assert_as_validated(brute_force_ex(n, f.r, pred).witness)
        assert_as_validated(local_search_lower(n, f.r, pred, seed=1, iters=30).witness)


@pytest.mark.parametrize("F, t_max", [(path_graph(3), 5), (complete_hypergraph(3, 2), 5),
                                      (generalized_triangle(3), 5),
                                      (generalized_triangle(3), 7)])
def test_density_witness_matches_validated_construction(F, t_max):
    res = lagrangian_density_search(F, t_max)
    assert res.witness.edges
    assert_as_validated(res.witness)


def test_constructions_and_corpora_match_validated_construction():
    graphs = [complete_hypergraph(6, 3), single_edge(4), generalized_triangle(4),
              random_hypergraph(7, 3, edge_count=12, rng=1),
              random_hypergraph(6, 4, density=0.5, rng=2), enlargement(path_graph(4), 4),
              expanded_clique_with_embedded(generalized_triangle(3), 5).graph,
              expanded_clique_with_embedded(path_graph(3), 4).graph]
    graphs += [turan_hypergraph(n, r, parts).graph
               for n in range(7) for r in (2, 3) for parts in (r, r + 1, 5)]
    graphs += _fan_free_corpus(0)
    for H in graphs:
        assert_as_validated(H)


@given(hypergraphs(rs=(1, 2, 3, 4, 5)))
@settings(max_examples=150, deadline=None)
def test_three_edge_recognizers_match_brute(g):
    assert CancellativePredicate().is_free(g) == brute_is_cancellative(g)
    if g.r >= 2:  # SigmaPredicate(1) raises: the family needs r >= 2
        assert (not SigmaPredicate(g.r).is_free(g)) == brute_sigma(g)


# -- incremental predicate states ------------------------------------------------

K3, K4, F5 = complete_hypergraph(3, 2), complete_hypergraph(4, 2), generalized_triangle(3)
P3_PLUS = enlargement(path_graph(3), 3)  # two 3-edges sharing a pair
EDGE_AND_ISOLATED = Hypergraph(4, 3, [(0, 1, 2)])

# (predicate, r, largest n, state class, brute-force freeness oracle); for
# r = 3 a sigma member is exactly a cancellative violation, and for r = 5 two
# edges can differ in 4 vertices from n = 7 on
STATE_CASES = {
    "K3": (SubgraphPredicate(K3), 2, 6, "_SubgraphState",
           lambda g: not brute_contains(g, K3)),
    "K4": (SubgraphPredicate(K4), 2, 6, "_SubgraphState",
           lambda g: not brute_contains(g, K4)),
    "F5": (SubgraphPredicate(F5), 3, 6, "_SubgraphState",
           lambda g: not brute_contains(g, F5)),
    "P3+": (SubgraphPredicate(P3_PLUS), 3, 6, "_SubgraphState",
            lambda g: not brute_contains(g, P3_PLUS)),
    "edge-and-isolated": (SubgraphPredicate(EDGE_AND_ISOLATED), 3, 6, "_SubgraphState",
                          lambda g: not brute_contains(g, EDGE_AND_ISOLATED)),
    "family-p4": (FamilyPredicate(single_edge(3), 4), 3, 6, "_FamilyState",
                  lambda g: not brute_family(g, single_edge(3), 4)),
    "family-P3+-p5": (FamilyPredicate(P3_PLUS, 5), 3, 6, "_FamilyState",
                      lambda g: not brute_family(g, P3_PLUS, 5)),
    "sigma-r3": (SigmaPredicate(3), 3, 6, "_ThreeEdgeState", brute_is_cancellative),
    "sigma-r4": (SigmaPredicate(4), 4, 6, "_ThreeEdgeState",
                 lambda g: not brute_sigma(g)),
    "cancellative-r3": (CancellativePredicate(), 3, 6, "_ThreeEdgeState",
                        brute_is_cancellative),
    "cancellative-r4": (CancellativePredicate(), 4, 6, "_ThreeEdgeState",
                        brute_is_cancellative),
    "cancellative-r5": (CancellativePredicate(), 5, 7, "_ThreeEdgeState",
                        brute_is_cancellative),
}


@pytest.mark.parametrize("case", sorted(STATE_CASES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_state_can_add_matches_is_free(case, data):
    pred, r, max_n, cls, oracle = STATE_CASES[case]
    n = data.draw(st.integers(r, max_n), label="n")
    state = pred.state(n, r)
    assert type(state).__name__ == cls
    cands = list(itertools.combinations(range(n), r))
    current: set = set()

    def check() -> None:
        g = Hypergraph(n, r, current)
        assert state.current == current
        for f in cands:
            if f not in current:
                bigger = g.with_edges([f])
                assert state.can_add(f) == pred.is_free(bigger) == oracle(bigger)

    check()
    ops = data.draw(st.lists(st.tuples(st.booleans(), st.sampled_from(cands)),
                             max_size=20), label="ops")
    for add, e in ops:
        if add and e not in current and state.can_add(e):
            state.add(e)
            current.add(e)
        elif not add and e in current:
            state.remove(e)
            current.discard(e)
        else:
            continue
        check()


# -- anchored plans ----------------------------------------------------------------

FAN = expanded_clique_with_embedded(single_edge(3), 4).graph

# pattern -> anchored plans left, out of (pattern edges) * 3! = 18, 24, 12,
# 24 and 60, once plans that agree past the seeded edge collapse
PLAN_COUNTS = {"F5": (F5, 6), "fan": (FAN, 12), "P3+": (P3_PLUS, 3),
               "K4(3)": (complete_hypergraph(4, 3), 1),
               "K5(3)": (complete_hypergraph(5, 3), 1)}


@pytest.mark.parametrize("case", sorted(PLAN_COUNTS))
def test_anchored_plan_counts(case):
    F, count = PLAN_COUNTS[case]
    assert len(_anchored_plans(F)) == count


@pytest.mark.parametrize("case", ["F5", "fan", "P3+", "K4(3)"])
def test_anchored_embedding_matches_oracle_on_every_host_edge(case):
    """Seeded with each host edge in turn, the collapsed plans return the
    oracle's first copy through that edge; the hypothesis strategy above
    draws no pattern as large as the fan."""
    F = PLAN_COUNTS[case][0]
    plans = _anchored_plans(F)
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(3, 8)
        density = rng.uniform(0.2, 0.9)
        g = Hypergraph(n, 3, [e for e in itertools.combinations(range(n), 3)
                              if rng.random() < density])
        index = (_edge_masks(g), g.degrees, _pair_masks(g))
        for e in g.edge_list:
            assert (_embed(plans, e, *index, _bits(range(n)))
                    == backtracking_embedding(g, F, require_edge=e))
