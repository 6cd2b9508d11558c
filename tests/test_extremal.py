import dataclasses
import itertools
import math
import random

import pytest

from turanlag import (
    CancellativePredicate,
    ExactSearchRefused,
    FamilyPredicate,
    Hypergraph,
    SigmaPredicate,
    SubgraphPredicate,
    brute_force_ex,
    complete_hypergraph,
    contains_family_member,
    expanded_clique_with_embedded,
    family_free_subgraph,
    generalized_triangle,
    kernel_clean,
    kernel_degree,
    local_search_lower,
    path_graph,
    random_hypergraph,
    single_edge,
    star_graph,
    turan_hypergraph,
)

from turanlag import extremal
from turanlag.extremal import (
    ForbiddenPredicate,
    _colex_candidates,
    _exhaust,
    _refill_rounds,
    _solve_sizes,
)

from conftest import (brute_contains, brute_is_cancellative, colex_dfs_oracle,
                      colex_lex_leader, refill_rounds_oracle)


def k3():
    return complete_hypergraph(3, 2)


# -- exact search ------------------------------------------------------------


def test_mantel_small():
    for n in range(3, 6):
        res = brute_force_ex(n, 2, SubgraphPredicate(k3()))
        assert res.exact and res.value == (n // 2) * ((n + 1) // 2)
        assert len(res.witness.edges) == res.value
        assert SubgraphPredicate(k3()).is_free(res.witness)


def test_mantel_n4_full_enumeration_oracle():
    # all 2^6 graphs on 4 vertices, triangle-freeness by direct check
    cands = list(itertools.combinations(range(4), 2))
    best = 0
    for mask in range(1 << 6):
        edges = [cands[i] for i in range(6) if mask >> i & 1]
        g = Hypergraph(4, 2, edges)
        tri = any(
            (a, b) in g.edges and (a, c) in g.edges and (b, c) in g.edges
            for a, b, c in itertools.combinations(range(4), 3)
        )
        if not tri:
            best = max(best, len(edges))
    assert best == 4
    assert brute_force_ex(4, 2, SubgraphPredicate(k3())).value == 4


def test_cancellative_n5_full_enumeration_oracle():
    cands = list(itertools.combinations(range(5), 3))
    best = 0
    for mask in range(1 << 10):
        edges = [cands[i] for i in range(10) if mask >> i & 1]
        if len(edges) <= best:
            continue
        if brute_is_cancellative(Hypergraph(5, 3, edges)):
            best = len(edges)
    assert best == 4
    res = brute_force_ex(5, 3, CancellativePredicate())
    assert res.exact and res.value == 4
    assert CancellativePredicate().is_free(res.witness)


def test_sigma_equals_cancellative_for_r3():
    for n in (4, 5):
        a = brute_force_ex(n, 3, SigmaPredicate(3)).value
        b = brute_force_ex(n, 3, CancellativePredicate()).value
        assert a == b


def test_sigma_predicate_needs_r_at_least_2():
    with pytest.raises(ValueError, match="^sigma family needs r >= 2$"):
        SigmaPredicate(1)


def test_cancellative_r4_differs_from_sigma_state():
    # for r = 4 a violation can avoid any (r-1)-sharing pair entirely:
    # A, B with |A ^ B| = 4 contained in a third edge
    g = Hypergraph(6, 4, [(0, 1, 2, 3), (2, 3, 4, 5), (0, 1, 4, 5)])
    assert not CancellativePredicate().is_free(g)
    assert SigmaPredicate(4).is_free(g)
    with pytest.raises(ValueError, match="^predicate uniformity mismatch$"):
        SigmaPredicate(3).is_free(g)
    st = CancellativePredicate().state(6, 4)
    st.add((0, 1, 2, 3))
    st.add((2, 3, 4, 5))
    assert not st.can_add((0, 1, 4, 5))


def test_vertexless_pattern_forbids_everything():
    with pytest.raises(ValueError, match="contained in every graph, so it forbids everything"):
        SubgraphPredicate(Hypergraph(0, 2, []))


def test_exact_search_cap(monkeypatch):
    # the walk recurses once per candidate: C(16, 3) = 560 reaches
    # 1000 // 2 at the default limit, and is refused before any size
    monkeypatch.setattr(extremal, "_exhaust", None)  # a size solved would fail
    with pytest.raises(ExactSearchRefused, match=r"^C\(16,3\) = 560 "):
        brute_force_ex(16, 3, SigmaPredicate(3))


def test_exact_search_builds_no_random_generator(monkeypatch):
    # each size starts from the multipartite seeds, not from the hill climb
    def refuse(*args, **kwargs):
        raise AssertionError("the exact search built a random generator")

    monkeypatch.setattr(random, "Random", refuse)
    res = brute_force_ex(7, 3, CancellativePredicate())
    assert (res.value, res.exact) == (12, True)


def test_budget_abort():
    # K_4^(3)-free: the sizes below 7 finish in at most 126 nodes each, so
    # they never read the deadline, and n=7 needs 56,662 nodes to exhaust.
    # A zero budget stops the n=7 search at its first call once 4096 of its
    # nodes are counted.  Between two calls the DFS unwinds through at most
    # one level per candidate, and each level counts at most one exclude
    # child that fails a bound without a call, so that call comes at most
    # C(7, 3) nodes past 4096
    k4 = SubgraphPredicate(complete_hypergraph(4, 3))
    res = brute_force_ex(7, 3, k4, max_seconds=0)
    assert not res.exact
    assert 4096 <= res.nodes_explored <= 4096 + math.comb(7, 3)
    assert res.value <= 23
    assert k4.is_free(res.witness)


# (n, r, predicate, value, oracle's nodes, nodes): the oracle's counts are the
# DFS that called every child, pruned ones included; counting pruned children
# inline must not move them.  The search's counts are those of the DFS with
# the lex-leader cut
PINNED = [
    # the ceiling floor(9 * 7 / 5) = 12 closes the search at its root
    (7, 2, SubgraphPredicate(complete_hypergraph(3, 2)), 12, 12_895, 1),
    # the ceiling floor(4 * 6 / 3) = 8
    (6, 3, SigmaPredicate(3), 8, 5_630, 1),
    (6, 3, SubgraphPredicate(generalized_triangle(3)), 10, 5_556, 466),
    # the oracle's vertex-0 pin at work: without it the count is 307.  The
    # seeds hold 2 edges, below the ceiling floor(2 * 6 / 4) = 3, so the
    # search runs until its incumbent reaches the ceiling
    (6, 2, SubgraphPredicate(path_graph(3)), 3, 268, 16),
    (6, 4, CancellativePredicate(), 4, 1_155, 146),
    # ex(7) = 3 sits one below the ceiling floor(3 * 7 / 5) = 4
    (7, 2, SubgraphPredicate(path_graph(3)), 3, 1_028, 55),
]


@pytest.mark.parametrize("n, r, pred, value, nodes", [c[:5] for c in PINNED])
def test_nodes_explored_pinned(n, r, pred, value, nodes):
    res = colex_dfs_oracle(n, r, pred)
    assert res.exact and (res.value, res.nodes_explored) == (value, nodes)


@pytest.mark.parametrize("n, r, pred, value, nodes", [c[:4] + c[5:] for c in PINNED])
def test_search_nodes_pinned(n, r, pred, value, nodes):
    res = brute_force_ex(n, r, pred)
    assert res.exact and (res.value, res.nodes_explored) == (value, nodes)


@pytest.mark.parametrize("t", range(3, 8))
def test_complete_two_graph_sweeps_close_at_the_ceiling(t):
    # Turan's theorem: ex(n, K_t) = |T_2(n, t - 1)|.  The Turan seed reaches
    # the ceiling from the size below at every n > t, so only n = t runs a DFS
    pred = SubgraphPredicate(complete_hypergraph(t, 2))
    for n, res in enumerate(_solve_sizes(11, 2, pred, None)):
        assert res.exact and res.value == len(turan_hypergraph(n, 2, t - 1).graph.edges), n
        if n > t:
            assert res.nodes_explored == 1, n


# (label, r, predicate, largest n at which the oracle finishes within 1 s)
ORACLE_CASES = [
    ("K3", 2, SubgraphPredicate(complete_hypergraph(3, 2)), 7),
    ("K4", 2, SubgraphPredicate(complete_hypergraph(4, 2)), 7),
    ("K5", 2, SubgraphPredicate(complete_hypergraph(5, 2)), 7),
    ("P3", 2, SubgraphPredicate(path_graph(3)), 7),
    ("star3", 2, SubgraphPredicate(star_graph(3)), 7),
    ("F5", 3, SubgraphPredicate(generalized_triangle(3)), 6),
    ("K4^(3)", 3, SubgraphPredicate(complete_hypergraph(4, 3)), 6),
    ("edge-p3", 3, FamilyPredicate(single_edge(3), 3), 7),
    ("edge-p4", 3, FamilyPredicate(single_edge(3), 4), 6),
    ("edge-p5", 3, FamilyPredicate(single_edge(3), 5), 6),
    ("sigma3", 3, SigmaPredicate(3), 7),
    ("sigma4", 4, SigmaPredicate(4), 7),
    ("cancellative3", 3, CancellativePredicate(), 7),
    ("cancellative4", 4, CancellativePredicate(), 7),
]


def _random_patterns(r: int, seed: int) -> list:
    """Ten seeded r-graph patterns on at most 5 vertices, as ORACLE_CASES
    up to n = 6.  Each has an edge: an edgeless one leaves no free graph
    from its order on, and both searches raise there."""
    rng = random.Random(seed)
    cases = []
    for k in range(10):
        v = rng.randint(r, 5)
        F = random_hypergraph(v, r, edge_count=rng.randint(1, math.comb(v, r)), rng=rng)
        cases.append((f"random{r}-{k}", r, SubgraphPredicate(F), 6))
    return cases


ORACLE_CASES += _random_patterns(2, 1802) + _random_patterns(3, 1803)


@pytest.mark.parametrize("r, pred, top", [c[1:] for c in ORACLE_CASES],
                         ids=[c[0] for c in ORACLE_CASES])
def test_search_matches_colex_dfs_oracle(r, pred, top):
    # the bounds from the size below only prune subtrees that cannot beat
    # the incumbent, the lex-leader cut keeps the colex-largest copy of
    # every graph, and its first-candidate cut covers the oracle's vertex-0
    # pin, so the oracle, which walks every labelling, visits every node
    # the search does
    for n in range(top + 1):
        old = colex_dfs_oracle(n, r, pred)
        res = brute_force_ex(n, r, pred)
        assert (res.value, res.exact) == (old.value, old.exact), n
        assert res.nodes_explored <= old.nodes_explored, n
        assert len(res.witness.edges) == res.value and pred.is_free(res.witness)


def _passes_swap_comparisons(G: Hypergraph) -> bool:
    """The comparisons of the lex-leader cut, read off G: for each j, at the
    first T (the (r-1)-subsets of {0, ..., j-2} in colex order) where
    T + {j-1} and T + {j} differ, T + {j-1} is the edge; and G holds
    {0, ..., r-1} unless it has no edge."""
    if G.edges and tuple(range(G.r)) not in G.edges:
        return False
    for j in range(1, G.n):
        for T in _colex_candidates(j - 1, G.r - 1):
            low, high = T + (j - 1,) in G.edges, T + (j,) in G.edges
            if low != high:
                if high:
                    return False
                break
    return True


class _InsideOf(ForbiddenPredicate):
    """Free means a subgraph of the labelled graph L.  This depends on
    labels, so the exact search reaches e(L) edges only if its cut keeps L
    itself."""

    kind = "inside"

    def __init__(self, L: Hypergraph):
        self.L = L

    def is_free(self, G: Hypergraph) -> bool:
        return G.edges <= self.L.edges

    def state(self, n: int, r: int):
        return _InsideState(self.L.edges)


class _InsideState:
    def __init__(self, edges):
        self.edges = edges
        self.current = set()

    def can_add(self, e) -> bool:
        return e in self.edges

    def add(self, e) -> None:
        self.current.add(e)

    def remove(self, e) -> None:
        self.current.discard(e)


@pytest.mark.parametrize("r", [2, 3])
def test_lex_leader_passes_every_swap_comparison(r):
    # the colex-largest relabelling passes every comparison the cut makes,
    # and the DFS, run from an empty incumbent, keeps exactly the labelled
    # graphs that pass them: it reaches e(H) edges inside H just then
    rng = random.Random(1810 + r)
    cut = 0
    for _ in range(12):
        n = rng.randint(r, 6)
        G = random_hypergraph(n, r, density=rng.uniform(0.15, 0.85), rng=rng)
        L = colex_lex_leader(G)
        assert len(L.edges) == len(G.edges) and _passes_swap_comparisons(L), G
        perm = list(range(n))
        rng.shuffle(perm)
        for H in (L, G.relabel(perm)):
            res = _exhaust(n, r, _InsideOf(H), Hypergraph(n, r, []), None, 0.0, None)
            kept = _passes_swap_comparisons(H)
            assert res.exact and (res.value == len(H.edges)) == kept, H
            assert res.witness == H or not kept
            cut += not kept
    assert cut  # some relabelling is cut


def test_cancellative_n8_gives_bollobas_value():
    # ex(8) = |T_3(8,3)| = 18 for cancellative 3-graphs (Bollobas 1974)
    res = brute_force_ex(8, 3, CancellativePredicate())
    assert res.exact and res.value == 18 == len(turan_hypergraph(8, 3, 3).graph.edges)
    assert len(res.witness.edges) == 18 and brute_is_cancellative(res.witness)


@pytest.mark.parametrize("n, r, pred", [
    (9, 3, CancellativePredicate()),
    (9, 3, SigmaPredicate(3)),
    (9, 3, FamilyPredicate(single_edge(3), 4)),
    (8, 4, CancellativePredicate()),
    (8, 4, FamilyPredicate(single_edge(4), 5)),
], ids=["cancellative-9", "sigma-9", "family-edge-4-9", "cancellative-r4-8",
        "family-edge-5-r4-8"])
def test_turan_value_closes_at_the_ceiling_past_64_candidates(n, r, pred):
    # ex(n) = |T_r(n, r)| (Bollobas 1974 for r = 3, Sidorenko 1987 for r = 4;
    # the family form of ex(n, H^F_p) = |T_r(n, p - 1)| with F an edge).  The
    # Turan seed reaches the ceiling from ex(n - 1), so the root closes n
    res = brute_force_ex(n, r, pred)
    T = turan_hypergraph(n, r, r).graph
    assert res.exact and res.value == len(T.edges) and res.nodes_explored == 1
    assert len(res.witness.edges) == res.value and pred.is_free(res.witness)


def test_k4_3_free_n7():
    # the value the search without the lex-leader cut exhausted
    pred = SubgraphPredicate(complete_hypergraph(4, 3))
    res = brute_force_ex(7, 3, pred)
    assert res.exact and res.value == 23
    assert len(res.witness.edges) == 23 and pred.is_free(res.witness)


def test_k4_3_free_n8_stops_at_the_ceiling():
    # ex(7) = 23 gives the ceiling floor(23 * 8 / 5) = 36, and the DFS
    # stops at the first incumbent that reaches it; exhausting the tree
    # instead takes 10,451,373 nodes
    pred = SubgraphPredicate(complete_hypergraph(4, 3))
    res = brute_force_ex(8, 3, pred)
    assert res.exact and (res.value, res.nodes_explored) == (36, 13_707)
    assert len(res.witness.edges) == 36 and pred.is_free(res.witness)


@pytest.mark.parametrize("n, r, pred", [
    (6, 2, SubgraphPredicate(path_graph(3))),
    (6, 3, SubgraphPredicate(complete_hypergraph(4, 3))),
], ids=["P3", "K4^(3)"])
def test_incumbent_reaching_ceiling_mid_dfs_is_exact(n, r, pred):
    # the seeds sit below the ceiling from ex(n - 1), so the root does not
    # close the size; the DFS reaches the ceiling and stops there, with the
    # value and the exact flag of the oracle that exhausts its tree
    below = brute_force_ex(n - 1, r, pred)
    ceiling = below.value * n // (n - r)
    assert max(below.value, local_search_lower(n, r, pred, iters=0).value) < ceiling
    res = brute_force_ex(n, r, pred)
    assert res.exact and res.value == ceiling and res.nodes_explored > 1
    old = colex_dfs_oracle(n, r, pred)
    assert (res.value, res.exact) == (old.value, old.exact)


def test_size_below_out_of_time_gives_no_bound():
    # with the size below inexact, C(6, 2) stands in for ex(6), the ceiling
    # is C(7, 2) and the DFS runs; taking its value 9 as ex(6) would close
    # K3-free n=7 at the ceiling floor(9 * 7 / 5) = 12 in one node
    k3 = SubgraphPredicate(complete_hypergraph(3, 2))
    six = dataclasses.replace(brute_force_ex(6, 2, k3), exact=False)
    res = _exhaust(7, 2, k3, local_search_lower(7, 2, k3, iters=0).witness, six, 0.0, None)
    assert (res.value, res.exact) == (12, True) and res.nodes_explored > 1
    assert k3.is_free(res.witness) and len(res.witness.edges) == 12


def test_seed_with_isolated_vertex_must_be_free():
    # one edge plus two isolated vertices: ex(4) = 4, but every edge on five
    # or more vertices makes a copy, so the n=4 witness plus a vertex is not
    # free at n=5 and must not become the incumbent there
    pred = SubgraphPredicate(Hypergraph(5, 3, [(0, 1, 2)]))
    got = [brute_force_ex(n, 3, pred) for n in range(3, 8)]
    assert [res.value for res in got] == [1, 4, 0, 0, 0]
    assert all(res.exact for res in got)
    assert [colex_dfs_oracle(n, 3, pred).value for n in range(3, 8)] == [1, 4, 0, 0, 0]


def test_no_free_graph_raises():
    # two isolated vertices sit in the empty graph on two vertices, so the
    # size k = 2 has no free graph at all
    with pytest.raises(ValueError, match="no predicate-free graph"):
        brute_force_ex(4, 2, SubgraphPredicate(Hypergraph(2, 2, [])))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_root_fails_counting_bound_when_presearch_holds_every_edge(n):
    # K_6-free on at most 5 vertices: the multipartite seed with n parts is
    # K_n, and the root alone is counted
    res = brute_force_ex(n, 2, SubgraphPredicate(complete_hypergraph(6, 2)))
    assert res.exact and res.nodes_explored == 1
    assert res.value == math.comb(n, 2)
    assert res.witness == complete_hypergraph(n, 2)


def test_family_predicate_exact_small():
    # ex(n, all-pairs-covered 3-sets) vs forbidding the specific expansion
    fam = FamilyPredicate(Hypergraph(0, 3, []), 3)
    pattern = expanded_clique_with_embedded(Hypergraph(0, 3, []), 3).graph
    sub = SubgraphPredicate(pattern)
    for n in (4, 5):
        a = brute_force_ex(n, 3, fam).value
        b = brute_force_ex(n, 3, sub).value
        assert a <= b  # the family includes the specific member


def test_exact_invariant_under_pattern_relabeling():
    rng = random.Random(7)
    base = Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
    perm = list(range(4))
    rng.shuffle(perm)
    relabeled = base.relabel(perm)
    for n in (4, 5):
        assert (
            brute_force_ex(n, 2, SubgraphPredicate(base)).value
            == brute_force_ex(n, 2, SubgraphPredicate(relabeled)).value
        )


def test_exact_monotone_in_n():
    vals = [brute_force_ex(n, 3, SigmaPredicate(3)).value for n in range(3, 7)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# -- heuristic search -----------------------------------------------------------


def test_local_search_family_turan_seed():
    res = local_search_lower(9, 3, FamilyPredicate(Hypergraph(0, 3, []), 4),
                             seed=0, iters=50)
    assert res.value >= 27
    assert not res.exact


def test_local_search_mantel_n4():
    res = local_search_lower(4, 2, SubgraphPredicate(k3()), seed=0, iters=200)
    assert res.value == 4


def test_local_search_iters0_returns_turan_seed():
    res = local_search_lower(9, 3, SigmaPredicate(3), seed=0, iters=0)
    assert res.value == len(turan_hypergraph(9, 3, 3).graph.edges) == 27
    assert res.witness.edges == turan_hypergraph(9, 3, 3).graph.edges


def test_sigma_uniformity_mismatch_raises():
    # the standalone check refuses a host of the wrong uniformity as the
    # incremental state does, so iters=0 cannot report a value for it
    pred = SigmaPredicate(3)
    with pytest.raises(ValueError, match="uniformity"):
        pred.is_free(Hypergraph(6, 4, []))
    for iters in (0, 10):
        with pytest.raises(ValueError, match="uniformity"):
            local_search_lower(6, 4, pred, seed=0, iters=iters)


def test_local_search_deterministic():
    a = local_search_lower(7, 3, SigmaPredicate(3), seed=5, iters=100)
    b = local_search_lower(7, 3, SigmaPredicate(3), seed=5, iters=100)
    assert a.value == b.value and a.witness.edges == b.witness.edges


@pytest.mark.parametrize("pattern, n, seed, iters, value, witness", [
    (complete_hypergraph(4, 3), 6, 1, 30, 13,
     [(0, 1, 2), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 4), (0, 3, 5), (0, 4, 5),
      (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5)]),
    (complete_hypergraph(4, 3), 6, 2, 200, 14,
     [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
      (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5)]),
    (path_graph(3), 8, 2, 30, 4, [(0, 2), (1, 5), (3, 4), (6, 7)]),
], ids=["K4^3-n6-seed1", "K4^3-n6-seed2", "P3-n8-seed2"])
def test_local_search_pinned(pattern, n, seed, iters, value, witness):
    # the multipartite seeds are far below these values, so the witness
    # depends on every draw of the perturb-and-refill rounds
    res = local_search_lower(n, pattern.r, SubgraphPredicate(pattern),
                             seed=seed, iters=iters)
    assert res.value == value
    assert sorted(res.witness.edges) == witness


def test_local_search_witness_free():
    for pred in (SigmaPredicate(3), CancellativePredicate(),
                 FamilyPredicate(single_edge(3), 4)):
        res = local_search_lower(7, 3, pred, seed=3, iters=120)
        assert pred.is_free(res.witness)


@pytest.mark.parametrize("pred, n, r", [
    (SubgraphPredicate(k3()), 7, 2),
    (SubgraphPredicate(generalized_triangle(3)), 6, 3),
    (FamilyPredicate(single_edge(3), 4), 6, 3),
    (SigmaPredicate(3), 6, 3),
    (CancellativePredicate(), 6, 3),
], ids=["triangle", "subgraph", "family", "sigma", "cancellative"])
@pytest.mark.parametrize("seeded", [False, True], ids=["empty", "seeded"])
def test_refill_rounds_match_a_full_pass_every_round(pred, n, r, seeded):
    # a round that drops nothing skips its pass over a maximal set: every
    # yielded set and the random stream are those of a pass every round,
    # from fewer can_add calls
    start = []
    if seeded:
        start = next(T.edge_list for parts in range(r, n + 1)
                     if pred.is_free(T := turan_hypergraph(n, r, parts).graph) and T.edges)
    cands = _colex_candidates(n, r)
    calls = {}
    for seed in range(10):
        runs = []
        for refill in (_refill_rounds, refill_rounds_oracle):
            state = pred.state(n, r)
            for e in start:
                state.add(e)
            can_add = state.can_add

            def counted(e, refill=refill, can_add=can_add):
                calls[refill] = calls.get(refill, 0) + 1
                return can_add(e)

            state.can_add = counted
            rng = random.Random(seed)
            runs.append(([set(edges) for edges in refill(state, cands, rng, 40)],
                         rng.getstate()))
        assert runs[0] == runs[1]
    assert calls[_refill_rounds] < calls[refill_rounds_oracle]


def test_refill_rounds_yield_maximal_free_graphs():
    # after its pass each round's set is maximal: every candidate left out
    # makes a copy of the pattern
    cands = _colex_candidates(8, 2)
    seen = [Hypergraph(8, 2, edges) for edges in
            _refill_rounds(SubgraphPredicate(k3()).state(8, 2), cands,
                           random.Random(0), 20)]
    assert len(seen) == 20
    for G in seen:
        assert not brute_contains(G, k3())
        assert all(brute_contains(G.with_edges([e]), k3())
                   for e in cands if e not in G.edges)


# -- incremental states agree with the standalone predicates ---------------------


def test_states_agree_with_is_free():
    rng = random.Random(15)
    preds = [
        SubgraphPredicate(k3()),
        SubgraphPredicate(expanded_clique_with_embedded(single_edge(3), 4).graph),
        SigmaPredicate(3),
        CancellativePredicate(),
        FamilyPredicate(single_edge(3), 4),
    ]
    for pred in preds:
        r = 2 if pred.kind == "subgraph" and getattr(pred, "pattern").r == 2 else 3
        n = 6
        st = pred.state(n, r)
        added = []
        for e in rng.sample(list(itertools.combinations(range(n), r)), math.comb(n, r)):
            g_next = Hypergraph(n, r, added + [e])
            if st.can_add(e):
                assert pred.is_free(g_next), f"{pred.describe()} false add {e}"
                st.add(e)
                added.append(e)
            else:
                assert not pred.is_free(g_next), f"{pred.describe()} false block {e}"
        # removal keeps indices consistent
        for e in rng.sample(added, len(added) // 2):
            st.remove(e)
            added.remove(e)
        for e in itertools.combinations(range(n), r):
            if e in added:
                continue
            assert st.can_add(e) == pred.is_free(Hypergraph(n, r, added + [list(e)]))


# -- kernel cleanup ----------------------------------------------------------------


def test_kernel_clean_untouched():
    g = complete_hypergraph(6, 3)  # every pair degree 4 > 1*C(6,0)=1
    assert kernel_clean(g, 1, 2) == g


def test_kernel_clean_single_edge():
    g = Hypergraph(5, 3, [(0, 1, 2)])
    assert len(kernel_clean(g, 1, 2).edges) == 0


def test_kernel_clean_postcondition_random():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randint(5, 8)
        g = random_hypergraph(n, 3, density=rng.uniform(0.2, 0.8), rng=rng)
        for p, d in ((1, 1), (2, 2)):
            out = kernel_clean(g, p, d)
            assert len(g.edges) - len(out.edges) <= p * math.comb(n, d) * math.comb(n, 3 - d - 1)
            for D in itertools.combinations(range(n), d):
                if out.degree(D) > 0:
                    assert kernel_degree(out, D) > p
            assert kernel_clean(out, p, d) == out


def test_kernel_clean_validation():
    g = complete_hypergraph(5, 3)
    with pytest.raises(ValueError):
        kernel_clean(g, 1, 0)
    with pytest.raises(ValueError):
        kernel_clean(g, 1, 3)


# -- family-free extraction -----------------------------------------------------------


def test_family_free_subgraph_turan():
    t = turan_hypergraph(9, 3, 3).graph
    res = family_free_subgraph(t, single_edge(3), 3)
    assert res.checked and res.violation is None


def test_family_free_subgraph_random():
    pattern = expanded_clique_with_embedded(single_edge(3), 4).graph
    pred = SubgraphPredicate(pattern)
    rng = random.Random(55)
    for _ in range(15):
        n = rng.randint(6, 8)
        st = pred.state(n, 3)
        cands = list(itertools.combinations(range(n), 3))
        rng.shuffle(cands)
        for e in cands[: len(cands) // 2]:
            if st.can_add(e):
                st.add(e)
        g = Hypergraph(n, 3, st.current)
        res = family_free_subgraph(g, single_edge(3), 3)
        assert res.checked
        assert res.violation is None
        assert contains_family_member(res.graph, single_edge(3), 4) is None
        p = pattern.n
        assert len(g.edges) - len(res.graph.edges) <= p * math.comb(n, 2) * math.comb(n, 0)


def test_family_free_subgraph_reports_violation():
    # a host that contains the expansion pattern and is dense enough to
    # survive cleaning keeps a family member; it is reported, not raised
    g = complete_hypergraph(10, 3)  # every pair degree 8 > p = 7
    res = family_free_subgraph(g, single_edge(3), 3)
    assert res.checked
    assert res.graph == g
    assert res.violation is not None and len(res.violation.core) == 4


def test_family_free_subgraph_skips_check_beyond_ten_vertices():
    # K_11^(3) (pair degree 9 > p = 7) plus two edges through vertex 11,
    # whose pairs with 11 are too thin to survive cleaning
    k11 = complete_hypergraph(11, 3).edge_list
    g = Hypergraph(12, 3, [*k11, (0, 1, 11), (2, 3, 11)])
    res = family_free_subgraph(g, single_edge(3), 3)
    p = expanded_clique_with_embedded(single_edge(3), 4).graph.n
    assert not res.checked and res.violation is None
    assert res.graph == kernel_clean(g, p, 2) == Hypergraph(12, 3, k11)


def test_family_free_subgraph_validation():
    with pytest.raises(ValueError):
        family_free_subgraph(complete_hypergraph(4, 2), single_edge(2), 3)
