"""Twin classes, vertex cloning, and the symmetrization driver.

Two vertices are twins when their links coincide (twins are automatically
nonadjacent).  Symmetrizing v to u replaces v's edges with clones of u's
link, which makes v's twins u's, so the driver terminates: the number of
twin classes strictly decreases each round.  One driver serves both entry
points: it follows every round with minimum-degree vertex deletion until the
graph is dense at the given threshold, with one exception rule: when the
minimum-degree vertex is a twin of u from before the round, a donor is
deleted instead (while any remain).  ``run_plain`` is that driver at
threshold 0, where no vertex is ever deleted.

The driver, ``symmetrize`` and the trace replay run on classes, not on
vertex edges.  The live vertices are split into classes of twins, each one
vertex at the start, so the graph is exactly the blowup of its class graph:
a class edge is the set of classes of an edge, and the edges are the
transversals of the class edges.  A set of classes is an int mask with bit
P for class P, and qlinks[P] is the set of masks E ^ (1 << P) over the
class edges E through P.  Two vertices have equal links iff their classes
have equal qlinks: a member's link is the set of transversals of the D in
its class's qlinks, and a transversal determines its classes.  So classes
of twins need not be merged, and every link comparison compares qlinks.

Cloning the donors to u drops the class edges through the donors' classes
and moves the donors into u's class.  u is covered with no donor, so no
class edge through u's class meets a donor's class: u's link is unchanged,
every donor's link becomes it, and every class stays a set of twins.
Deleting a vertex takes it out of its class; a class left empty drops its
class edges.  deg[P], the degree of each member of P, is the sum over D in
qlinks[P] of the product of the sizes of the classes in D, and it and the
edge count move by k times such products when k members join or leave a
class.  Class edges only ever go, so the state stays as small as the input;
vertex edges are expanded only for a graph that is returned.

Every run returns a replayable trace; replaying a trace against the input
reproduces the output bit-exactly.  A step that names a vertex no longer
live, donors that split a class or a target covered with a donor raises
ValueError naming the step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, NamedTuple

from .hypergraph import Hypergraph, VertexSet, blowup

__all__ = [
    "SymmetrizationStep",
    "SymmetrizationTrace",
    "SymmetrizationOutcome",
    "CoreRepresentatives",
    "equivalence_classes",
    "symmetrize",
    "core_representatives",
    "is_alpha_dense",
    "run_plain",
    "run_with_cleaning",
    "replay_trace",
    "intermediate_graphs",
    "is_blowup_of_quotient",
]


@dataclass(frozen=True)
class SymmetrizationStep:
    kind: str                     # "symmetrize" | "clean"
    donor_class: tuple[int, ...]  # class whose members were cloned (empty for clean)
    target: int                   # receiving vertex (-1 for clean steps)
    removed: tuple[int, ...]      # vertices deleted this round (empty for symmetrize)
    edges_before: int
    edges_after: int
    flagged: bool = False         # exception rule wanted a donor, but all were gone

    def to_dict(self) -> dict:
        return {**asdict(self), "donor_class": list(self.donor_class),
                "removed": list(self.removed)}


@dataclass(frozen=True)
class SymmetrizationTrace:
    steps: tuple[SymmetrizationStep, ...] = ()

    def to_dict(self) -> dict:
        return {"steps": [s.to_dict() for s in self.steps]}


@dataclass(frozen=True)
class SymmetrizationOutcome:
    result: Hypergraph       # compacted onto the surviving vertices
    trace: SymmetrizationTrace
    kept: tuple[int, ...]    # surviving original labels, ascending


# -- twin classes -----------------------------------------------------------


class _Classes:
    """The live vertices as a blowup of their class graph.

    part[v] is the class of live vertex v, members[P] the live vertices of P
    in ascending order, cedges maps each class edge's mask to the tuple of
    its classes (at the start, the input edge itself), qlinks[P] the set of
    masks E ^ (1 << P) over the class edges E through P, deg[P] the degree
    of every member of P, and edges the vertex edge count.  A class starts
    as a single vertex and is named by it.
    """

    __slots__ = ("part", "members", "qlinks", "cedges", "deg", "edges")

    def __init__(self, G: Hypergraph):
        self.part = {v: v for v in range(G.n)}
        self.members = {v: [v] for v in range(G.n)}
        self.qlinks = qlinks = {v: set() for v in range(G.n)}
        self.cedges = cedges = {}
        bits = [1 << v for v in range(G.n)]
        for e in G.edges:
            E = sum(map(bits.__getitem__, e))
            cedges[E] = e
            for x in e:
                qlinks[x].add(E ^ bits[x])
        self.deg = {v: len(q) for v, q in qlinks.items()}
        self.edges = len(G.edges)

    def _grow(self, P: int, k: int) -> None:
        """Account for k more members of P (k < 0: fewer): each class edge
        through P moves deg[R], for each other class R in it, by k times the
        product of the sizes of its classes other than P and R, and the edge
        count by k * deg[P]."""
        members, deg, cedges, bit = self.members, self.deg, self.cedges, 1 << P
        for D in self.qlinks[P]:
            classes = cedges[D | bit]
            p = k
            for Q in classes:
                if Q != P:
                    p *= len(members[Q])
            for R in classes:
                if R != P:
                    deg[R] += p // len(members[R])
        self.edges += k * deg[P]

    def _drop(self, P: int) -> None:
        """Remove class P and its class edges, counted as _grow(P, -|P|)."""
        members, deg, qlinks, cedges = self.members, self.deg, self.qlinks, self.cedges
        a, bit = len(members.pop(P)), 1 << P
        for D in qlinks.pop(P):
            E = D | bit
            classes = cedges.pop(E)
            p = a
            for Q in classes:
                if Q != P:
                    p *= len(members[Q])
            for R in classes:
                if R != P:
                    deg[R] -= p // len(members[R])
                    qlinks[R].remove(E ^ (1 << R))
        self.edges -= a * deg.pop(P)

    def clone(self, donors: Iterable[int], u: int) -> None:
        """Make every donor a clone of u: drop the class edges through the
        donors' classes, then move the donors into u's class."""
        part, members = self.part, self.members
        donors = set(donors)
        try:
            P = part[u]
            classes = set(map(part.__getitem__, donors))
        except KeyError as exc:
            raise ValueError(f"vertex {exc.args[0]} is not live") from None
        if sum(map(len, map(members.__getitem__, classes))) != len(donors):
            raise ValueError(f"donors {sorted(donors)} split a class")
        covered = reduce(or_, self.qlinks[P], 1 << P)
        if any(covered >> Q & 1 for Q in classes):
            raise ValueError(f"target {u} is a donor or covered with one")
        for Q in classes:
            self._drop(Q)
        self._grow(P, len(donors))
        for w in donors:
            part[w] = P
        members[P] += donors
        members[P].sort()

    def delete(self, z: int) -> None:
        """Take z out of its class; a class left empty drops its class edges."""
        if z not in self.part:
            raise ValueError(f"vertex {z} is not live")
        P = self.part.pop(z)
        if len(self.members[P]) == 1:
            self._drop(P)
        else:
            self.members[P].remove(z)
            self._grow(P, -1)

    def expand(self, lab: dict) -> list:
        """The vertex edges, with lab[P] the labels of P's members: the
        transversals of every class edge, each sorted (members of different
        classes interleave)."""
        get = lab.__getitem__
        return [tuple(sorted(t)) for classes in self.cedges.values()
                for t in itertools.product(*map(get, classes))]


def equivalence_classes(G: Hypergraph) -> list[VertexSet]:
    """Partition of the vertices into classes of identical links, sorted by
    smallest member."""
    qlinks = _Classes(G).qlinks
    groups: dict = {}
    for v in range(G.n):
        groups.setdefault(frozenset(qlinks[v]), []).append(v)
    return sorted((tuple(g) for g in groups.values()), key=lambda c: c[0])


def symmetrize(G: Hypergraph, v: int, u: int) -> Hypergraph:
    """Make v a clone of u: drop v's edges, add {v} + D for D in the link of u.

    Requires {u, v} uncovered; edges through both u and v never arise because
    u's link avoids v by nonadjacency.  ``_Classes.clone`` raises ValueError
    for a vertex out of range, for u = v and for a covered pair.
    """
    st = _Classes(G)
    st.clone((v,), u)
    return Hypergraph._trusted(G.n, G.r, st.expand(st.members))


class CoreRepresentatives(NamedTuple):
    S: VertexSet
    quotient: Hypergraph
    sizes: tuple[int, ...]


def core_representatives(G: Hypergraph) -> CoreRepresentatives:
    """Smallest-label representative per class, the induced graph on them
    relabeled 0..|S|-1, and the class sizes aligned with S."""
    classes = equivalence_classes(G)
    S = tuple(c[0] for c in classes)
    return CoreRepresentatives(S, G.induced(S, relabel=True),
                               tuple(len(c) for c in classes))


def is_blowup_of_quotient(G: Hypergraph) -> bool:
    """Check the fixed-point contract: relabeling classes onto consecutive
    blocks turns G into exactly the blowup of its representative quotient."""
    classes = equivalence_classes(G)
    quotient = G.induced(tuple(c[0] for c in classes), relabel=True)
    mapping = {v: i for i, v in enumerate(v for c in classes for v in c)}
    return (blowup(quotient, tuple(len(c) for c in classes)).edges
            == G.relabel(mapping).edges)


# -- density threshold ---------------------------------------------------


def is_alpha_dense(G: Hypergraph, alpha) -> bool:
    """Minimum degree at least alpha * C(n-1, r-1), compared exactly.

    Vacuously true when n < r (the threshold is zero) and for n = 0.
    """
    af = Fraction(alpha)
    if G.n == 0:
        return True
    return min(G.degrees) * af.denominator >= af.numerator * math.comb(G.n - 1, G.r - 1)


# -- drivers --------------------------------------------------------------


def _select_pair(st: _Classes):
    """Deterministic choice of a nonadjacent nonequivalent pair (u, v) with
    d(u) >= d(v) among the live vertices: maximize d(u), then smallest u,
    then smallest v.  Read on classes: a vertex stands for its class, u and
    v are the smallest members of theirs, and equal links are equal qlinks."""
    deg, qlinks, members = st.deg, st.qlinks, st.members
    order = [P for _, P in sorted((m[0], P) for P, m in members.items())]
    for P in sorted(order, key=deg.__getitem__, reverse=True):
        dP, qP = deg[P], qlinks[P]
        covered = reduce(or_, qP, 1 << P)  # P and the classes covered with it
        for Q in order:
            if deg[Q] <= dP and not covered >> Q & 1 and qlinks[Q] != qP:
                return members[P][0], members[Q][0]
    return None


def _twins(st: _Classes, v: int) -> list[int]:
    """The live vertices whose links equal v's, ascending."""
    qlinks = st.qlinks
    q = qlinks[st.part[v]]
    return sorted(w for P, m in st.members.items() if qlinks[P] == q for w in m)


def _compact(st: _Classes, r: int) -> tuple[Hypergraph, tuple[int, ...]]:
    """The graph on the live vertices, relabelled 0.. in order, and their labels."""
    kept = tuple(sorted(st.part))
    lab = {P: [] for P in st.members}
    for i, v in enumerate(kept):
        lab[st.part[v]].append(i)
    return Hypergraph._trusted(len(kept), r, st.expand(lab)), kept


def _run(G: Hypergraph, af: Fraction) -> SymmetrizationOutcome:
    """The one driver: cloning rounds, each followed by minimum-degree
    cleaning at threshold af (no degree is below a zero threshold); stops
    when no pair is left and nothing was cleaned."""
    st = _Classes(G)
    deg, members, part = st.deg, st.members, st.part
    num, den = af.numerator, af.denominator  # d >= af * C, in integers
    steps: list[SymmetrizationStep] = []
    while part:
        sel = _select_pair(st)
        donors: tuple[int, ...] = ()
        protected: set[int] = set()
        if sel is not None:
            u, v = sel
            donors = tuple(_twins(st, v))
            protected = set(_twins(st, u))
            before = st.edges
            st.clone(donors, u)
            steps.append(SymmetrizationStep("symmetrize", donors, u, (),
                                            before, st.edges))
        removed: list[int] = []
        flagged = False
        before = st.edges
        while part:
            d, victim = min((deg[P], m[0]) for P, m in members.items())
            if d * den >= num * math.comb(len(part) - 1, G.r - 1):
                break
            if victim in protected:
                live_donors = [w for w in donors if w in part]
                if live_donors:
                    victim = live_donors[0]
                else:
                    flagged = True
            st.delete(victim)
            removed.append(victim)
        if removed:
            steps.append(SymmetrizationStep("clean", (), -1,
                                            tuple(sorted(removed)),
                                            before, st.edges, flagged))
        elif sel is None:
            break
    result, kept = _compact(st, G.r)
    return SymmetrizationOutcome(result, SymmetrizationTrace(tuple(steps)), kept)


def run_plain(G: Hypergraph) -> SymmetrizationOutcome:
    """Repeat: pick a nonadjacent nonequivalent pair (u, v) with d(u) >= d(v)
    and clone v's whole class to u, until no such pair remains.

    At the fixed point the representative quotient covers pairs and the graph
    is a blowup of it; the edge count never decreases.  This is the cleaning
    driver at alpha = 0.
    """
    return _run(G, Fraction(0))


def run_with_cleaning(G: Hypergraph, alpha) -> SymmetrizationOutcome:
    """Symmetrization rounds interleaved with minimum-degree cleaning.

    After each cloning round, while the surviving graph is below the density
    threshold, delete the minimum-degree vertex (ties by label) -- except that
    when that vertex sits in the class that received the clones, the
    smallest surviving donor is deleted instead; rounds where the exception
    fired with no donors left are flagged.  A sparse fixed point (no pair
    left) is cleaned the same way, without the exception.  The output is
    empty or dense at the threshold.  alpha = 0 never cleans: that is
    ``run_plain``.
    """
    af = Fraction(alpha)
    if not 0 <= af <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return _run(G, af)


# -- trace replay ----------------------------------------------------------


def _steps(st: _Classes, trace: SymmetrizationTrace):
    """Apply the recorded steps to the class state, yielding after each; a
    step that names a vertex no longer live, donors that split a class or a
    target covered with a donor raises ValueError naming the step."""
    for i, step in enumerate(trace.steps):
        try:
            if step.kind == "symmetrize":
                st.clone(step.donor_class, step.target)
            else:
                for z in step.removed:
                    st.delete(z)
        except ValueError as exc:
            raise ValueError(f"trace step {i} ({step.kind}): {exc}") from None
        yield


def replay_trace(G: Hypergraph, trace: SymmetrizationTrace) -> SymmetrizationOutcome:
    """Mechanically apply recorded steps to the input; reproduces the original
    run's output exactly."""
    st = _Classes(G)
    for _ in _steps(st, trace):
        pass
    result, kept = _compact(st, G.r)
    return SymmetrizationOutcome(result, trace, kept)


def intermediate_graphs(G: Hypergraph, trace: SymmetrizationTrace):
    """Yield the graph after each recorded step, on the original label space
    (deleted vertices simply lose their edges)."""
    st = _Classes(G)
    for _ in _steps(st, trace):
        yield Hypergraph._trusted(G.n, G.r, st.expand(st.members))
