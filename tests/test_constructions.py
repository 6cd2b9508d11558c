import itertools
import math
import random

import pytest

from turanlag import (
    CancellativePredicate,
    Hypergraph,
    SigmaPredicate,
    complete_hypergraph,
    contains_family_member,
    enlargement,
    expanded_clique_with_embedded,
    find_embedding,
    generalized_triangle,
    path_graph,
    random_hypergraph,
    random_tree,
    single_edge,
    star_graph,
    turan_hypergraph,
)

from conftest import brute_family, brute_is_cancellative


# -- turan_hypergraph ----------------------------------------------------


def test_turan_sizes():
    assert len(turan_hypergraph(9, 3, 3).graph.edges) == 27
    assert len(turan_hypergraph(7, 3, 3).graph.edges) == 12  # parts 3,2,2


def test_turan_formula_small_sweep():
    for n in range(3, 31):
        got = len(turan_hypergraph(n, 3, 3).graph.edges)
        assert got == (n // 3) * ((n + 1) // 3) * ((n + 2) // 3)
    for r in (3, 4):
        for n in range(r, 25):
            got = len(turan_hypergraph(n, r, r).graph.edges)
            assert got == math.prod((n + i - 1) // r for i in range(1, r + 1))


def test_turan_parts_shape():
    t = turan_hypergraph(7, 3, 3)
    assert [len(p) for p in t.parts] == [3, 2, 2]  # larger parts first
    flat = [v for p in t.parts for v in p]
    assert flat == list(range(7))
    for e in t.graph.edges:
        for p in t.parts:
            assert len(set(e) & set(p)) <= 1


def test_turan_errors():
    with pytest.raises(ValueError):
        turan_hypergraph(5, 3, 2)


# -- generalized triangle --------------------------------------------------


def test_generalized_triangle():
    g = generalized_triangle(3)
    assert g.edges == frozenset({(0, 1, 2), (0, 1, 3), (2, 3, 4)})
    g2 = generalized_triangle(2)
    assert g2.edges == frozenset({(0, 1), (0, 2), (1, 2)})
    for r in range(2, 7):
        assert generalized_triangle(r).n == 2 * r - 1
        assert len(generalized_triangle(r).edges) == 3
    with pytest.raises(ValueError):
        generalized_triangle(1)


# -- cancellative ------------------------------------------------------------


def test_is_cancellative(t363):
    cancellative = CancellativePredicate()
    assert cancellative.is_free(t363)
    assert not cancellative.is_free(generalized_triangle(3))
    assert cancellative.is_free(Hypergraph(5, 3, [(0, 1, 2), (0, 1, 3)]))


def test_cancellative_agrees_with_brute():
    rng = random.Random(11)
    for _ in range(30):
        r = rng.choice((2, 3, 4))
        n = rng.randint(r + 1, 7)
        g = random_hypergraph(n, r, density=rng.uniform(0.2, 0.7), rng=rng)
        assert CancellativePredicate().is_free(g) == brute_is_cancellative(g)


# -- sigma family -------------------------------------------------------------


def test_contains_sigma():
    for r in range(2, 6):
        assert not SigmaPredicate(r).is_free(generalized_triangle(r))
    for n in range(3, 10):
        assert SigmaPredicate(3).is_free(turan_hypergraph(n, 3, 3).graph)
    # pairwise small intersections: no two edges share r-1 vertices
    g = Hypergraph(9, 3, [(0, 1, 2), (3, 4, 5), (0, 3, 6)])
    assert SigmaPredicate(3).is_free(g)


def test_sigma_witness_is_cancellative_violation():
    # wherever the sigma member exists, cancellativity fails too
    rng = random.Random(5)
    for _ in range(40):
        r = rng.choice((2, 3))
        n = rng.randint(r + 1, 7)
        g = random_hypergraph(n, r, density=rng.uniform(0.3, 0.8), rng=rng)
        if not SigmaPredicate(r).is_free(g):
            assert not CancellativePredicate().is_free(g)


# -- expanded cliques -----------------------------------------------------------


def test_expanded_clique_plain():
    # no embedded pattern: every core pair gets its own pad
    f = Hypergraph(0, 3, [])
    h = expanded_clique_with_embedded(f, 3)
    assert h.graph.n == 6 and len(h.graph.edges) == 3
    assert h.core == (0, 1, 2)
    pads = list(h.pads.values())
    assert all(len(b) == 1 for b in pads)
    assert len({v for b in pads for v in b}) == 3  # pairwise disjoint


def test_expanded_clique_fan():
    h = expanded_clique_with_embedded(single_edge(3), 4)
    g = h.graph
    assert g.n == 7 and len(g.edges) == 4
    apex = 3
    through = [e for e in g.edges if apex in e]
    assert len(through) == 3
    for a, b in itertools.combinations(through, 2):
        assert set(a) & set(b) == {apex}
    (base,) = [e for e in g.edges if apex not in e]
    assert all(len(set(base) & set(e)) == 1 for e in through)


def test_expanded_clique_of_sharing_pair_is_generalized_triangle():
    for r in (3, 4):
        L = Hypergraph(r + 1, r, [tuple(range(r)), tuple(range(r - 1)) + (r,)])
        h = expanded_clique_with_embedded(L, r + 1).graph
        t = generalized_triangle(r)
        assert h.n == t.n and len(h.edges) == len(t.edges)
        assert find_embedding(h, t) is not None
        assert find_embedding(t, h) is not None


def test_expanded_clique_core_covered():
    h = expanded_clique_with_embedded(single_edge(3), 5)
    covered = h.graph.covered_pairs
    for pr in itertools.combinations(h.core, 2):
        assert pr in covered


def test_expanded_clique_edge_count():
    f = Hypergraph(4, 3, [(0, 1, 2)])
    p = 6
    h = expanded_clique_with_embedded(f, p)
    covered = f.covered_pairs
    uncovered = [pr for pr in itertools.combinations(range(p), 2) if pr not in covered]
    assert len(h.graph.edges) == len(f.edges) + len(uncovered)
    assert h.graph.n == p + (f.r - 2) * len(uncovered)


def test_expanded_clique_errors():
    with pytest.raises(ValueError):
        expanded_clique_with_embedded(single_edge(3), 2)
    with pytest.raises(ValueError):
        expanded_clique_with_embedded(Hypergraph(2, 1, [(0,)]), 3)


# -- enlargement ---------------------------------------------------------------


def test_enlargement():
    f = enlargement(path_graph(3), 3)
    assert f.n == 4 and len(f.edges) == 2
    (a, b) = sorted(f.edges)
    assert len(set(a) & set(b)) == 2
    t = star_graph(4)
    assert enlargement(t, 2).edges == t.edges
    assert len(enlargement(t, 5).edges) == len(t.edges)
    with pytest.raises(ValueError):
        enlargement(single_edge(3), 4)
    with pytest.raises(ValueError):
        enlargement(path_graph(3), 1)


def test_enlargement_round_trip():
    t = random_tree(6, seed=4)
    f = enlargement(t, 4)
    body = f.induced(range(t.n), relabel=True)
    # removing the appended set from every edge recovers T
    stripped = Hypergraph(t.n, 2, [e[:2] for e in f.edge_list])
    assert stripped.edges == t.edges
    assert body.n == t.n and len(body.edges) == 0  # enlarged edges all leave T


# -- family membership -----------------------------------------------------------


def test_family_member_basic():
    f = Hypergraph(0, 3, [])
    t = turan_hypergraph(9, 3, 3).graph
    assert contains_family_member(t, f, 4) is None

    h = expanded_clique_with_embedded(single_edge(3), 4).graph
    emb = contains_family_member(h, single_edge(3), 4)
    assert emb is not None and emb.core == (0, 1, 2, 3)

    k4 = complete_hypergraph(4, 3)
    emb2 = contains_family_member(k4, single_edge(3), 4)
    assert emb2 is not None and emb2.core == (0, 1, 2, 3)


def test_family_member_certificate_is_valid():
    h = expanded_clique_with_embedded(single_edge(3), 5).graph
    emb = contains_family_member(h, single_edge(3), 5)
    assert emb is not None
    core = set(emb.core)
    assert len(core) == 5
    # mapping lands inside the core and maps the pattern edge onto a host edge
    assert set(emb.mapping.values()) <= core
    img = tuple(sorted(emb.mapping[v] for v in range(3)))
    assert img in h.edges
    # each covering edge really covers its pair
    for pr, e in emb.covering.items():
        assert set(pr) <= set(e) and e in h.edges


def test_family_member_agrees_with_brute():
    rng = random.Random(23)
    f = single_edge(3)
    for _ in range(40):
        n = rng.randint(4, 7)
        g = random_hypergraph(n, 3, density=rng.uniform(0.2, 0.8), rng=rng)
        p = rng.choice((3, 4))
        assert (contains_family_member(g, f, p) is not None) == brute_family(g, f, p)
    fe = Hypergraph(0, 3, [])
    for _ in range(20):
        n = rng.randint(4, 7)
        g = random_hypergraph(n, 3, density=rng.uniform(0.2, 0.8), rng=rng)
        assert (contains_family_member(g, fe, 4) is not None) == brute_family(g, fe, 4)


def test_family_member_errors():
    with pytest.raises(ValueError):
        contains_family_member(complete_hypergraph(4, 3), complete_hypergraph(3, 2), 4)
    with pytest.raises(ValueError):
        contains_family_member(complete_hypergraph(4, 3), complete_hypergraph(4, 3), 3)


def test_turan_family_free_for_every_pattern():
    # the (m+1)-clique in the 2-shadow is the binding constraint
    t = turan_hypergraph(9, 3, 3).graph
    sharing_pair = Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])
    for f in (Hypergraph(0, 3, []), single_edge(3), sharing_pair):
        assert contains_family_member(t, f, 4) is None


# -- generators ---------------------------------------------------------------


def test_tree_generators():
    for k in (2, 5, 9):
        t = random_tree(k, seed=1)
        assert t.n == k and len(t.edges) == k - 1
    assert len(path_graph(4).edges) == 3
    assert star_graph(5).degrees[0] == 4
    b = __import__("turanlag").broom_graph(3, 2)
    assert b.n == 5 and len(b.edges) == 4
    assert random_tree(6, seed=2).edges == random_tree(6, seed=2).edges


def test_random_hypergraph_determinism():
    a = random_hypergraph(7, 3, density=0.5, rng=42)
    b = random_hypergraph(7, 3, density=0.5, rng=42)
    assert a.edges == b.edges
    c = random_hypergraph(7, 3, edge_count=10, rng=1)
    assert len(c.edges) == 10
