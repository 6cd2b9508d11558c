import random
from fractions import Fraction

import pytest

from turanlag import (
    Hypergraph,
    blowup,
    complete_hypergraph,
    contains_family_member,
    core_representatives,
    equivalence_classes,
    intermediate_graphs,
    is_alpha_dense,
    is_blowup_of_quotient,
    random_hypergraph,
    replay_trace,
    run_plain,
    run_with_cleaning,
    single_edge,
    symmetrize,
    turan_hypergraph,
)


# -- equivalence classes ---------------------------------------------------


def test_classes_tripartite():
    g = turan_hypergraph(6, 2, 3).graph
    assert equivalence_classes(g) == [(0, 1), (2, 3), (4, 5)]


def test_classes_complete():
    g = complete_hypergraph(4, 3)
    assert equivalence_classes(g) == [(0,), (1,), (2,), (3,)]


def test_classes_isolated_share():
    g = Hypergraph(5, 3, [(0, 1, 2)])
    assert (3, 4) in equivalence_classes(g)


def test_equivalent_vertices_are_nonadjacent():
    rng = random.Random(2)
    for _ in range(30):
        g = random_hypergraph(rng.randint(3, 8), rng.choice((2, 3)),
                              density=0.5, rng=rng)
        covered = g.covered_pairs
        for cls in equivalence_classes(g):
            for i in range(len(cls)):
                for j in range(i + 1, len(cls)):
                    assert (cls[i], cls[j]) not in covered


# -- symmetrize ---------------------------------------------------------------


def test_symmetrize_example():
    g = Hypergraph(4, 2, [(0, 1), (2, 3)])
    h = symmetrize(g, 2, 0)
    assert h.edges == frozenset({(0, 1), (1, 2)})


def test_symmetrize_degree_and_classes():
    g = Hypergraph(5, 3, [(0, 1, 2), (0, 1, 3)])
    h = symmetrize(g, 4, 0)  # isolated vertex gains clone of 0's link
    assert h.degrees[4] == g.degrees[0]
    classes = equivalence_classes(h)
    assert any(0 in c and 4 in c for c in classes)


def test_symmetrize_rejects_covered_pair():
    g = Hypergraph(3, 2, [(0, 1)])
    with pytest.raises(ValueError):
        symmetrize(g, 0, 1)
    with pytest.raises(ValueError):
        symmetrize(g, 1, 1)


# -- run_plain ------------------------------------------------------------------


def test_run_plain_fixed_point_turan():
    for n, r, parts in ((9, 3, 3), (8, 2, 4)):
        g = turan_hypergraph(n, r, parts).graph
        out = run_plain(g)
        assert out.result == g and len(out.trace.steps) == 0


def test_run_plain_two_disjoint_edges():
    g = Hypergraph(4, 2, [(0, 1), (2, 3)])
    out = run_plain(g)
    assert out.result.edges == frozenset({(0, 1), (0, 3), (1, 2), (2, 3)})
    kinds = [(s.kind, s.donor_class, s.target) for s in out.trace.steps]
    assert kinds == [("symmetrize", (2,), 0), ("symmetrize", (3,), 1)]
    assert len(out.result.edges) >= len(g.edges)


def test_run_plain_contracts_random():
    rng = random.Random(6)
    for _ in range(60):
        g = random_hypergraph(rng.randint(3, 8), rng.choice((2, 3)),
                              density=rng.uniform(0.2, 0.7), rng=rng)
        out = run_plain(g)
        assert len(out.result.edges) >= len(g.edges)
        for st in out.trace.steps:
            assert st.kind == "symmetrize"
            assert st.edges_after >= st.edges_before
        reps = core_representatives(out.result)
        assert reps.quotient.covers_pairs()
        assert is_blowup_of_quotient(out.result)
        assert blowup(reps.quotient, reps.sizes).n == out.result.n


# -- core representatives ----------------------------------------------------------


def test_core_representatives_turan():
    reps = core_representatives(turan_hypergraph(9, 3, 3).graph)
    assert reps.S == (0, 3, 6)
    assert reps.sizes == (3, 3, 3)
    assert reps.quotient.edges == frozenset({(0, 1, 2)})


def test_core_representatives_complete():
    g = complete_hypergraph(4, 3)
    reps = core_representatives(g)
    assert reps.quotient == g and reps.sizes == (1, 1, 1, 1)


def test_core_representatives_empty():
    reps = core_representatives(Hypergraph(5, 3, []))
    assert reps.S == (0,) and reps.quotient.n == 1 and reps.sizes == (5,)


# -- density -------------------------------------------------------------------------


def test_is_alpha_dense_exact():
    g = complete_hypergraph(4, 3)  # every degree is 3 = C(3,2)
    assert is_alpha_dense(g, 1)
    assert is_alpha_dense(g, Fraction(3, 3))
    g2 = Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])  # min degree 2
    assert is_alpha_dense(g2, Fraction(2, 3))
    assert not is_alpha_dense(g2, Fraction(2, 3) + Fraction(1, 1000))
    assert is_alpha_dense(Hypergraph(2, 3, []), 1)  # n < r: vacuous


# -- run_with_cleaning ------------------------------------------------------------------


def test_cleaning_alpha_zero_never_cleans():
    rng = random.Random(12)
    for _ in range(25):
        g = random_hypergraph(rng.randint(3, 7), rng.choice((2, 3)),
                              density=0.4, rng=rng)
        out = run_with_cleaning(g, 0)
        assert all(s.kind == "symmetrize" for s in out.trace.steps)
        assert out.kept == tuple(range(g.n))
        assert is_blowup_of_quotient(out.result)


def test_cleaning_complete_graph_fixed_point():
    g = complete_hypergraph(5, 3)
    out = run_with_cleaning(g, 1)
    assert out.result == g and len(out.trace.steps) == 0


def test_cleaning_hand_trace():
    g = Hypergraph(5, 3, [(0, 1, 2)])
    out = run_with_cleaning(g, Fraction(1, 2))
    assert out.result == Hypergraph(3, 3, [(0, 1, 2)])
    assert out.kept == (0, 1, 2)
    kinds = [(s.kind, s.donor_class, s.target, s.removed) for s in out.trace.steps]
    assert kinds == [("symmetrize", (3, 4), 0, ()), ("clean", (), -1, (3, 4))]
    assert not any(s.flagged for s in out.trace.steps)


def test_cleaning_outputs_empty_or_dense():
    rng = random.Random(44)
    for _ in range(60):
        g = random_hypergraph(rng.randint(3, 8), rng.choice((2, 3)),
                              density=rng.uniform(0.1, 0.8), rng=rng)
        for a in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            out = run_with_cleaning(g, a)
            assert out.result.n == 0 or is_alpha_dense(out.result, a)


def test_cleaning_sparse_fixed_point_still_dense():
    # covers pairs (so no symmetrization applies) but is not 3/4-dense
    g = Hypergraph(5, 3, [(0, 1, 2), (0, 3, 4), (1, 3, 4), (2, 3, 4)])
    assert g.covers_pairs()
    out = run_with_cleaning(g, Fraction(3, 4))
    assert out.result.n == 0 or is_alpha_dense(out.result, Fraction(3, 4))


def test_trace_replay_bit_exact():
    rng = random.Random(77)
    for _ in range(40):
        g = random_hypergraph(rng.randint(3, 8), rng.choice((2, 3)),
                              density=rng.uniform(0.2, 0.8), rng=rng)
        for a in (0, Fraction(1, 2)):
            out = run_with_cleaning(g, a)
            rep = replay_trace(g, out.trace)
            assert rep.result == out.result
            assert rep.kept == out.kept


def test_removed_sets_disjoint():
    rng = random.Random(91)
    for _ in range(30):
        g = random_hypergraph(rng.randint(4, 8), 3, density=0.3, rng=rng)
        out = run_with_cleaning(g, Fraction(3, 4))
        seen = set()
        for st in out.trace.steps:
            assert not (seen & set(st.removed))
            seen.update(st.removed)
        assert set(out.kept) == set(range(g.n)) - seen


def test_family_freeness_preserved():
    fam = single_edge(3)
    rng = random.Random(101)
    checked = 0
    for _ in range(60):
        g = random_hypergraph(rng.randint(4, 8), 3, density=0.35, rng=rng)
        if contains_family_member(g, fam, 4) is not None:
            continue
        checked += 1
        for out in (run_plain(g), run_with_cleaning(g, Fraction(1, 2))):
            for h in intermediate_graphs(g, out.trace):
                assert contains_family_member(h, fam, 4) is None
    assert checked >= 10


def test_alpha_validation():
    g = Hypergraph(3, 2, [(0, 1)])
    with pytest.raises(ValueError):
        run_with_cleaning(g, Fraction(5, 4))
    with pytest.raises(ValueError):
        run_with_cleaning(g, -0.1)
