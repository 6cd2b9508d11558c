import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from turanlag import (
    Hypergraph,
    SymmetrizationStep,
    SymmetrizationTrace,
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
from turanlag.symmetrization import _Classes, _steps

from conftest import (link_replay_oracle, link_symmetrization_oracle,
                      link_symmetrize_oracle)


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


# -- the class state against the link-based oracle -------------------------------------

ALPHAS = (0, Fraction(1, 100), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)


@st.composite
def graphs_with_isolated(draw):
    """r in {2, 3, 4}, n in 0..12; edges only among the first m vertices, so
    the last n - m are isolated, at a density drawn from sparse to dense."""
    r = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(0, 12))
    m = draw(st.integers(0, n))
    density = draw(st.sampled_from((0.1, 0.3, 0.6, 0.9)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cands = itertools.combinations(range(m), r)
    return Hypergraph(n, r, [e for e in cands if rng.random() < density])


def _assert_matches_link_oracle(g, alphas):
    assert run_plain(g) == link_symmetrization_oracle(g, 0)
    for alpha in alphas:
        out = run_with_cleaning(g, alpha)
        assert out == link_symmetrization_oracle(g, alpha)
        rep, graphs = link_replay_oracle(g, out.trace)
        assert replay_trace(g, out.trace) == rep
        assert list(intermediate_graphs(g, out.trace)) == graphs


@given(graphs_with_isolated())
@settings(max_examples=120, deadline=None)
def test_class_state_matches_link_oracle(g):
    _assert_matches_link_oracle(g, ALPHAS)
    covered = g.covered_pairs
    for u, v in itertools.permutations(range(min(g.n, 6)), 2):
        if (min(u, v), max(u, v)) not in covered:
            assert symmetrize(g, v, u) == link_symmetrize_oracle(g, v, u)


def test_class_state_matches_link_oracle_at_cleanup_size():
    # the size of the graphs the cleanup benchmark symmetrizes: 36-41 steps,
    # over 3,000 edges at the end
    g = random_hypergraph(45, 3, edge_count=300, rng=random.Random(0))
    _assert_matches_link_oracle(g, ALPHAS + (Fraction(1, 20),))
    u, v = next((u, v) for u, v in itertools.combinations(range(45), 2)
                if (u, v) not in g.covered_pairs)
    assert symmetrize(g, v, u) == link_symmetrize_oracle(g, v, u)
    assert symmetrize(g, u, v) == link_symmetrize_oracle(g, u, v)
    # labels past one machine word, so class masks of more than 64 bits; no
    # plain run of the 3-graph, whose output of about 80k edges makes the
    # oracle slow
    big = random_hypergraph(130, 3, edge_count=400, rng=random.Random(0))
    pairs = random_hypergraph(150, 2, edge_count=600, rng=random.Random(0))
    for g, alpha in ((big, Fraction(1, 100)), (big, Fraction(1, 20)), (pairs, 0)):
        out = run_with_cleaning(g, alpha) if alpha else run_plain(g)
        assert out == link_symmetrization_oracle(g, alpha)
        assert replay_trace(g, out.trace) == link_replay_oracle(g, out.trace)[0]


def _assert_class_state_consistent(state):
    edges = state.expand(state.members)
    assert state.edges == len(edges)
    degree = Counter(v for e in edges for v in e)
    for v, P in state.part.items():
        assert state.deg[P] == degree[v]
    qlinks = {P: set() for P in state.members}
    for E, classes in state.cedges.items():
        assert E == sum(1 << R for R in classes)
        for R in classes:
            qlinks[R].add(E ^ (1 << R))
    assert state.qlinks == qlinks


@given(graphs_with_isolated(), st.sampled_from(ALPHAS))
@settings(max_examples=80, deadline=None)
def test_class_state_bookkeeping_after_every_step(g, alpha):
    """The edge count, every live vertex's degree and the qlinks, read off
    the class edges, after each step of a driver trace."""
    state = _Classes(g)
    _assert_class_state_consistent(state)
    for _ in _steps(state, run_with_cleaning(g, alpha).trace):
        _assert_class_state_consistent(state)


@given(graphs_with_isolated(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_replay_of_any_clone_matches_link_oracle(g, rng):
    """Traces no driver writes: donors that are no twins of each other, some
    of them covered with each other, then deletions and a second clone.
    Before the second clone only the target's class has grown, so donors
    drawn from the other vertices are whole classes."""
    if g.n < 2:
        return
    steps = []
    live = list(range(g.n))
    for _ in range(2):
        now = link_replay_oracle(g, SymmetrizationTrace(tuple(steps)))[0]
        graph, kept = now.result, now.kept
        if len(kept) < 2:
            break
        u = rng.choice(kept)
        iu = kept.index(u)
        covered = {kept[a] for e in graph.edges if iu in e for a in e}
        grown = {v for s in steps for v in s.donor_class + (s.target,)}
        free = [v for v in kept if v != u and v not in covered and v not in grown]
        donors = tuple(sorted(rng.sample(free, rng.randint(0, len(free)))))
        steps.append(SymmetrizationStep("symmetrize", donors, u, (), 0, 0))
        gone = rng.sample(kept, rng.randint(0, len(kept) // 3))
        steps.append(SymmetrizationStep("clean", (), -1, tuple(gone), 0, 0))
    trace = SymmetrizationTrace(tuple(steps))
    rep, graphs = link_replay_oracle(g, trace)
    assert replay_trace(g, trace) == rep
    assert list(intermediate_graphs(g, trace)) == graphs


# -- replay of invalid traces -------------------------------------------------------------


def _trace(*steps):
    return SymmetrizationTrace(tuple(
        SymmetrizationStep("symmetrize", s[1], s[2], (), 0, 0) if s[0] == "s"
        else SymmetrizationStep("clean", (), -1, s[1], 0, 0) for s in steps))


def test_replay_rejects_a_deleted_donor():
    g = Hypergraph(5, 3, [(0, 1, 2)])
    trace = _trace(("s", (3, 4), 0), ("c", (3, 4)), ("s", (3,), 0))
    with pytest.raises(ValueError, match=r"^trace step 2 \(symmetrize\): vertex 3 is not live$"):
        replay_trace(g, trace)


def test_replay_rejects_donors_that_split_a_class():
    # step 0 makes 2, 3 and 4 clones of the isolated 4: one class
    g = Hypergraph(6, 2, [(0, 1)])
    trace = _trace(("s", (2, 3), 4), ("s", (2,), 0))
    with pytest.raises(ValueError, match=r"^trace step 1 \(symmetrize\): donors \[2\] split a class$"):
        replay_trace(g, trace)


def test_replay_rejects_a_target_covered_with_a_donor():
    g = Hypergraph(4, 3, [(0, 1, 2)])
    with pytest.raises(ValueError, match=r"^trace step 0 \(symmetrize\): target 0 is a donor or covered with one$"):
        replay_trace(g, _trace(("s", (2,), 0)))
    with pytest.raises(ValueError, match=r"^trace step 0 \(symmetrize\): target 3 is a donor or covered with one$"):
        replay_trace(g, _trace(("s", (3,), 3)))


def test_replay_rejects_a_vertex_removed_twice():
    g = Hypergraph(4, 2, [(0, 1)])
    trace = _trace(("c", (3,)), ("c", (2, 3)))
    with pytest.raises(ValueError, match=r"^trace step 1 \(clean\): vertex 3 is not live$"):
        replay_trace(g, trace)
    with pytest.raises(ValueError, match=r"^trace step 1 \(clean\): vertex 3 is not live$"):
        list(intermediate_graphs(g, trace))
