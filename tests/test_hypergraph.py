import pytest

from turanlag import (
    Hypergraph,
    blowup,
    complete_hypergraph,
    falling_factorial,
    find_embedding,
    generalized_triangle,
    kernel_degree,
    max_matching,
    turan_hypergraph,
)
from conftest import brute_contains, brute_matching


# -- construction and validation ----------------------------------------


def test_edge_validation():
    with pytest.raises(ValueError):
        Hypergraph(3, 3, [(0, 1, 1)])
    with pytest.raises(ValueError):
        Hypergraph(3, 3, [(0, 1, 3)])
    with pytest.raises(ValueError):
        Hypergraph(3, 2, [(0, 1, 2)])
    with pytest.raises(ValueError):
        Hypergraph(-1, 2, [])
    with pytest.raises(ValueError):
        Hypergraph(3, 0, [])


def test_edges_normalized_and_deduped():
    g = Hypergraph(4, 2, [(1, 0), (0, 1), (2, 3)])
    assert g.edge_list == ((0, 1), (2, 3))
    assert len(g.edges) == 2


def test_trusted_constructor_still_checks_sizes():
    with pytest.raises(ValueError):
        Hypergraph._trusted(-1, 2, [])
    with pytest.raises(ValueError):
        Hypergraph._trusted(3, 0, [])
    assert Hypergraph._trusted(3, 2, [(0, 1)]) == Hypergraph(3, 2, [(1, 0)])


def test_isolated_vertices_representable():
    g = Hypergraph(10, 3, [(0, 1, 2)])
    assert g.n == 10 and g.degrees[9] == 0


# -- link ----------------------------------------------------------------


def test_link_basic():
    g = Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])
    lk = g.link([0, 1])
    assert lk.r == 1 and lk.edge_list == ((2,), (3,))
    assert g.degree([0, 1]) == 2


def test_link_vertex_in_no_edge():
    g = Hypergraph(4, 3, [(0, 1, 2)])
    lk = g.link([3])
    assert lk.r == 2 and len(lk.edges) == 0


def test_link_turan_derived(t363):
    # vertex 0 lies in one edge per pair of opposite-part vertices: 2*2 = 4
    lk = t363.link([0])
    assert len(lk.edges) == 4
    built = turan_hypergraph(6, 3, 3).graph
    assert built.edges == t363.edges
    assert len(built.link([0]).edges) == 4


def test_link_errors():
    g = Hypergraph(4, 3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        g.link([0, 1, 2])
    with pytest.raises(ValueError):
        g.link([7])


# -- induced, relabel, with_edges -------------------------------------------


def test_induced_rejects_out_of_range_vertices():
    g = Hypergraph(3, 2, [(0, 1), (1, 2)])
    for relabel in (False, True):
        with pytest.raises(ValueError):
            g.induced([0, 1, 7], relabel=relabel)
        with pytest.raises(ValueError):
            g.induced([-1, 0], relabel=relabel)
    assert g.induced([2, 1], relabel=True) == Hypergraph(2, 2, [(0, 1)])
    assert g.induced([0, 1]) == Hypergraph(3, 2, [(0, 1)])


def test_relabel_rejects_a_mapping_that_is_not_a_permutation():
    g = Hypergraph(3, 2, [(0, 1), (1, 2)])
    for bad in ({0: 0, 1: 1, 2: 0}, [0, 1, 3], [0, 1, -1], {0: 1, 1: 0}, [2, 1]):
        with pytest.raises(ValueError):
            g.relabel(bad)
    assert g.relabel({0: 2, 1: 0, 2: 1}).edge_list == ((0, 1), (0, 2))
    assert g.relabel([1, 0, 2]) == Hypergraph(3, 2, [(0, 1), (0, 2)])


def test_with_edges_validates_the_new_edges():
    g = Hypergraph(4, 2, [(0, 1)])
    assert g.with_edges([(3, 2), [1, 0]]).edge_list == ((0, 1), (2, 3))
    for bad in ([(0, 4)], [(1, 1)], [(0, 1, 2)], [(-1, 0)]):
        with pytest.raises(ValueError):
            g.with_edges(bad)


# -- shadow ----------------------------------------------------------------


def test_shadow():
    g = Hypergraph(3, 3, [(0, 1, 2)])
    assert g.shadow(2) == frozenset({(0, 1), (0, 2), (1, 2)})
    assert g.shadow(3) == frozenset({(0, 1, 2)})
    g2 = Hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)])
    assert len(g2.shadow(2)) == 5 and (0, 3) not in g2.shadow(2)
    with pytest.raises(ValueError):
        g.shadow(0)
    with pytest.raises(ValueError):
        g.shadow(4)


# -- covers_pairs ------------------------------------------------------------


def test_covers_pairs():
    assert complete_hypergraph(4, 3).covers_pairs()
    assert not Hypergraph(4, 3, [(0, 1, 2)]).covers_pairs()
    assert Hypergraph(1, 2, []).covers_pairs()
    assert Hypergraph(0, 2, []).covers_pairs()


def test_covers_pairs_turan_false(t363):
    assert not t363.covers_pairs()  # pairs inside a part are uncovered


# -- blowup -------------------------------------------------------------------


def test_blowup_counts():
    e = Hypergraph(3, 3, [(0, 1, 2)])
    b = blowup(e, [2, 2, 2])
    assert b.n == 6 and len(b.edges) == 8

    k3 = complete_hypergraph(3, 2)
    assert blowup(k3, [1, 1, 1]).edges == k3.edges

    b2 = blowup(e, [3, 3, 3])
    assert len(b2.edges) == 27
    assert b2.edges == turan_hypergraph(9, 3, 3).graph.edges


def test_blowup_identity_and_errors():
    g = generalized_triangle(3)
    assert blowup(g, [1] * g.n).edges == g.edges
    with pytest.raises(ValueError):
        blowup(g, [1] * (g.n - 1))
    with pytest.raises(ValueError):
        blowup(g, [0] + [1] * (g.n - 1))


# -- containment -------------------------------------------------------------


def test_contains_single_edge():
    f = Hypergraph(3, 3, [(0, 1, 2)])
    g = Hypergraph(5, 3, [(1, 3, 4)])
    emb = find_embedding(g, f)
    assert emb is not None
    img = tuple(sorted(emb[v] for v in (0, 1, 2)))
    assert img == (1, 3, 4)


def test_triangle_not_in_turan_threegraph():
    t = turan_hypergraph(9, 3, 3).graph
    assert find_embedding(t, generalized_triangle(3)) is None


def test_k4_not_in_tripartite():
    k4 = complete_hypergraph(4, 2)
    host = turan_hypergraph(8, 2, 3).graph
    assert find_embedding(host, k4) is None


def test_contains_uniformity_mismatch():
    with pytest.raises(ValueError):
        find_embedding(complete_hypergraph(4, 3), complete_hypergraph(3, 2))


def test_contains_agrees_with_brute_force():
    import random

    rng = random.Random(7)
    from turanlag import random_hypergraph

    for _ in range(40):
        r = rng.choice((2, 3))
        ng, nf = rng.randint(3, 6), rng.randint(r, 4)
        g = random_hypergraph(ng, r, density=rng.uniform(0.2, 0.8), rng=rng)
        f = random_hypergraph(nf, r, density=rng.uniform(0.2, 0.8), rng=rng)
        assert (find_embedding(g, f) is not None) == brute_contains(g, f)


# -- matching ----------------------------------------------------------------


def test_matching_examples(t363):
    g = Hypergraph(9, 3, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    assert max_matching(g) == 3
    assert max_matching(Hypergraph(5, 3, [(0, 1, 2), (0, 3, 4)])) == 1
    assert max_matching(t363) == 2
    assert max_matching(t363) == brute_matching(t363)


# -- kernel degree -------------------------------------------------------------


def test_kernel_degree_examples():
    g = Hypergraph(5, 3, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    assert kernel_degree(g, [0, 1]) == 3
    g2 = Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    assert kernel_degree(g2, [0]) == 1  # petals pairwise intersect
    assert kernel_degree(g2, [3, 2]) == 1
    assert kernel_degree(Hypergraph(5, 3, [(0, 1, 2)]), [3]) == 0
    with pytest.raises(ValueError):
        kernel_degree(g, [0, 1, 2])


# -- falling factorial -----------------------------------------------------------


def test_falling_factorial():
    assert falling_factorial(4, 3) == 24
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(5, 5) == 120
    with pytest.raises(ValueError):
        falling_factorial(2, 3)


# -- module-level invariants (spot versions; randomized ones in test_properties) --


def test_handshake(t363):
    assert sum(t363.degrees) == 3 * len(t363.edges)


def test_shadow_r_equals_edges(t363):
    assert len(t363.shadow(3)) == len(t363.edges)
