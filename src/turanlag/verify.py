"""Executable verification suite.

Each check pins one operation-level contract at a fixed tolerance; the CLI
``verify`` command and tests/test_acceptance.py both run these.  Checks are
deterministic given the seed.  Reports serialize without per-check timings so
that identical runs produce byte-identical JSON.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable

from . import __version__
from .hypergraph import (
    Hypergraph,
    blowup,
    falling_factorial,
    kernel_degree,
    max_matching,
)
from .constructions import (
    complete_hypergraph,
    contains_family_member,
    enlargement,
    expanded_clique_with_embedded,
    path_graph,
    random_hypergraph,
    single_edge,
    turan_hypergraph,
)
from .lagrangian import (
    compute_Mr,
    f_r_eval,
    grad,
    lagrangian,
    motzkin_straus_reference,
    poly_value,
    stability_probe,
)
from .symmetrization import (
    intermediate_graphs,
    is_alpha_dense,
    is_blowup_of_quotient,
    replay_trace,
    run_plain,
    run_with_cleaning,
    core_representatives,
)
from .extremal import (
    CancellativePredicate,
    SigmaPredicate,
    SubgraphPredicate,
    _solve_sizes,
    family_free_subgraph,
    kernel_clean,
    local_search_lower,
)

__all__ = ["CheckResult", "VerifyReport", "run_check", "run_verify",
           "CHECKS", "SUITES", "check_names"]


@dataclass
class CheckResult:
    name: str
    suite: str
    status: str          # pass | fail | skipped
    measured: object
    expected: object
    tolerance: object
    elapsed: float
    detail: str = ""

    def to_dict(self) -> dict:
        d = asdict(self)
        del d["elapsed"]  # identical runs must serialize byte-identically
        return d


@dataclass
class VerifyReport:
    checks: list[CheckResult]
    seed: int
    version: str = __version__

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts["fail"] == 0

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "seed": self.seed,
            "summary": self.counts,
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_table(self) -> str:
        rows = [("check", "suite", "status", "measured", "expected", "elapsed")]
        for c in sorted(self.checks, key=lambda c: c.name):
            rows.append((c.name, c.suite, c.status, str(c.measured)[:34],
                         str(c.expected)[:34], f"{c.elapsed:.2f}s"))
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
                 for row in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        cnt = self.counts
        lines.append(f"total: {len(self.checks)} checks, {cnt['pass']} pass, "
                     f"{cnt['fail']} fail, {cnt['skipped']} skipped (seed {self.seed})")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# check implementations: each returns (ok, measured, expected, tolerance, detail)
# ---------------------------------------------------------------------------


def _exact_values(lo: int, hi: int, r: int, forbidden):
    """ex(n) for n = lo, ..., hi from one exact pass up to the first size not
    exhausted, a detail naming that size, and the elapsed time of the pass."""
    measured = {}
    for n, res in enumerate(_solve_sizes(hi, r, forbidden, None)):
        if n >= lo:
            measured[n] = res.value
            if not res.exact:
                return measured, f"n={n} not exhausted", res.elapsed
    return measured, "", res.elapsed


def _check_mantel(seed: int):
    k3 = SubgraphPredicate(complete_hypergraph(3, 2))
    measured, detail, elapsed = _exact_values(3, 7, 2, k3)
    expected = {n: (n // 2) * ((n + 1) // 2) for n in range(3, 8)}
    # timings gate the check but stay out of the deterministic report
    ok = not detail and measured == expected and elapsed <= 10.0
    return ok, measured, expected, 0, detail


def _check_cancellative(seed: int):
    measured, detail, _ = _exact_values(5, 6, 3, CancellativePredicate())
    expected = {5: 4, 6: 8}
    return not detail and measured == expected, measured, expected, 0, detail


def _check_sigma_lower(seed: int):
    measured = {}
    ok = True
    for n in range(3, 10):
        t = turan_hypergraph(n, 3, 3).graph
        free = SigmaPredicate(3).is_free(t)
        res = local_search_lower(n, 3, SigmaPredicate(3), seed=seed, iters=0)
        measured[n] = {"free": free, "lower": res.value, "turan": len(t.edges)}
        ok = ok and free and res.value >= len(t.edges)
    return ok, measured, "sigma-free and lower bound >= |T_3(n,3)| for n<=9", 0, ""


def _check_turan_size(seed: int):
    bad = []
    for n in range(3, 31):
        got = len(turan_hypergraph(n, 3, 3).graph.edges)
        want = (n // 3) * ((n + 1) // 3) * ((n + 2) // 3)
        if got != want:
            bad.append((n, 3, got, want))
    for r in (3, 4):
        for n in range(r, 31):
            got = len(turan_hypergraph(n, r, r).graph.edges)
            want = math.prod((n + i - 1) // r for i in range(1, r + 1))
            if got != want:
                bad.append((n, r, got, want))
    return not bad, bad or "all sizes match", "floor-product formulas", 0, ""


def _check_motzkin_straus(seed: int):
    rng = random.Random(seed * 7919 + 11)
    worst = 0.0
    for _ in range(30):
        n = rng.randint(4, 9)
        g = random_hypergraph(n, 2, density=rng.uniform(0.25, 0.85), rng=rng)
        est = lagrangian(g, restarts=50, seed=seed)
        oracle = motzkin_straus_reference(g)
        worst = max(worst, abs(est.value - oracle))
    return worst <= 1e-6, worst, 0.0, 1e-6, "max |estimate - (1 - 1/omega)| over 30 graphs"


def _check_complete_lagrangian(seed: int):
    worst = 0.0
    vals = {}
    for m, r in ((3, 2), (4, 2), (4, 3), (5, 3), (6, 3), (5, 4)):
        est = lagrangian(complete_hypergraph(m, r), restarts=50, seed=seed)
        want = falling_factorial(m, r) / m**r
        vals[f"K_{m}^({r})"] = est.value
        worst = max(worst, abs(est.value - want))
    return worst <= 1e-8, worst, 0.0, 1e-8, json.dumps(vals)


def _check_fr_mr(seed: int):
    for k in range(3, 9):
        for r in range(2, 6):
            lhs = (k - 2) * f_r_eval(r, Fraction(k))
            rhs = Fraction(falling_factorial(k + r - 3, r), (k + r - 3) ** r)
            if lhs != rhs:
                return False, str(lhs), str(rhs), 0, f"identity fails at k={k}, r={r}"
    m2, m3, m4 = compute_Mr(2), compute_Mr(3), compute_Mr(4)
    errs = {"M2": abs(m2 - 2), "M3": abs(m3 - 2), "M4": abs(m4 - (2 + math.sqrt(3)))}
    worst = max(errs.values())
    return worst <= 1e-9, {"M2": m2, "M3": m3, "M4": m4}, \
        {"M2": 2, "M3": 2, "M4": 2 + math.sqrt(3)}, 1e-9, ""


def _check_gradient_identities(seed: int):
    rng = random.Random(seed * 104729 + 3)
    worst_id, worst_fd, lam_ok = 0.0, 0.0, True
    for _ in range(100):
        r = rng.choice((2, 3))
        n = rng.randint(r + 1, 9)
        g = random_hypergraph(n, r, density=rng.uniform(0.2, 0.9), rng=rng)
        x = [rng.random() for _ in range(n)]
        s = sum(x)
        x = [v / s for v in x]
        p = poly_value(g, x)
        lam = grad(g, x)
        worst_id = max(worst_id, abs(p - math.fsum(li * xi for li, xi in zip(lam, x)) / r))
        if lam and max(lam) < r * p - 1e-12:
            lam_ok = False
        h = 1e-5
        for i in rng.sample(range(n), min(3, n)):
            xp = list(x)
            xm = list(x)
            xp[i] += h
            xm[i] -= h
            fd = (poly_value(g, xp) - poly_value(g, xm)) / (2 * h)
            worst_fd = max(worst_fd, abs(fd - lam[i]))
    ok = worst_id <= 1e-12 and worst_fd <= 1e-6 and lam_ok
    return ok, {"identity": worst_id, "fd": worst_fd, "max_lambda_ok": lam_ok}, \
        {"identity": 0.0, "fd": 0.0, "max_lambda_ok": True}, \
        {"identity": 1e-12, "fd": 1e-6}, ""


def _symmetrization_corpus(seed: int):
    rng = random.Random(seed * 2654435761 % (2**31) + 17)
    out = []
    for _ in range(200):
        r = rng.choice((2, 3))
        n = rng.randint(r + 1, 8)
        out.append(random_hypergraph(n, r, density=rng.uniform(0.15, 0.8), rng=rng))
    return out


def _check_symmetrization(seed: int):
    fam = single_edge(3)
    checked_free = 0
    for g in _symmetrization_corpus(seed):
        out = run_plain(g)
        for st in out.trace.steps:
            if st.kind == "symmetrize" and st.edges_after < st.edges_before:
                return False, "edge count dropped", "monotone", 0, repr(g)
        reps = core_representatives(out.result)
        if not reps.quotient.covers_pairs():
            return False, "quotient misses a pair", "covers pairs", 0, repr(g)
        if not is_blowup_of_quotient(out.result):
            return False, "not a blowup of quotient", "blowup", 0, repr(g)
        if g.r == 3 and contains_family_member(g, fam, 4) is None:
            checked_free += 1
            for h in intermediate_graphs(g, out.trace):
                if contains_family_member(h, fam, 4) is not None:
                    return False, "family member created", "freeness preserved", 0, repr(g)
    return True, {"graphs": 200, "family_free_inputs": checked_free}, \
        "all invariants hold", 0, ""


def _check_cleaning(seed: int):
    alphas = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for g in _symmetrization_corpus(seed):
        for a in alphas:
            out = run_with_cleaning(g, a)
            if out.result.n and not is_alpha_dense(out.result, a):
                return False, "output neither empty nor dense", str(a), 0, repr(g)
            rep = replay_trace(g, out.trace)
            if rep.result != out.result or rep.kept != out.kept:
                return False, "replay mismatch", "bit-exact replay", 0, repr(g)
    return True, {"graphs": 200, "alphas": [str(a) for a in alphas]}, \
        "empty-or-dense and replayable", 0, ""


def _check_frankl(seed: int):
    rng = random.Random(seed * 9176 + 29)
    for _ in range(200):
        n = rng.randint(4, 9)
        g = random_hypergraph(n, 3, density=rng.uniform(0.1, 0.9), rng=rng)
        s = max_matching(g)
        if len(g.edges) > s * math.comb(n, 2):
            return False, len(g.edges), s * math.comb(n, 2), 0, repr(g)
    return True, "200 graphs within bound", "|E| <= matching * C(n, r-1)", 0, ""


def _check_kernel_cleanup(seed: int):
    rng = random.Random(seed * 52361 + 5)
    cases = 0
    for _ in range(50):
        n = rng.randint(5, 8)
        g = random_hypergraph(n, 3, density=rng.uniform(0.2, 0.8), rng=rng)
        for p, d in ((1, 1), (2, 2), (1, 2)):
            out = kernel_clean(g, p, d)
            loss_cap = p * math.comb(n, d) * math.comb(n, g.r - d - 1)
            if len(g.edges) - len(out.edges) > loss_cap:
                return False, "edge loss exceeds cap", loss_cap, 0, f"{g!r} p={p} d={d}"
            for D in itertools.combinations(range(n), d):
                if out.degree(D) > 0 and kernel_degree(out, D) <= p:
                    return False, "kernel degree postcondition fails", \
                        "d*(D) > p wherever degree > 0", 0, f"{g!r} p={p} d={d} D={D}"
            if kernel_clean(out, p, d) != out:
                return False, "not idempotent", "idempotent", 0, f"{g!r} p={p} d={d}"
            cases += 1
    return True, {"cases": cases}, "postcondition + loss bound + idempotence", 0, ""


def _fan_free_corpus(seed: int):
    """Random 3-graphs built edge-by-edge while staying free of the expanded
    4-clique with an embedded single edge (no full copy of it)."""
    pattern = expanded_clique_with_embedded(single_edge(3), 4).graph
    pred = SubgraphPredicate(pattern)
    rng = random.Random(seed * 33391 + 41)
    out = []
    for _ in range(50):
        n = rng.randint(6, 8)
        st = pred.state(n, 3)
        cands = list(itertools.combinations(range(n), 3))
        rng.shuffle(cands)
        target = rng.randint(3, max(4, len(cands) // 3))
        for e in cands:
            if len(st.current) >= target:
                break
            if st.can_add(e):
                st.add(e)
        out.append(Hypergraph._trusted(n, 3, st.current))
    return out


def _check_family_extraction(seed: int):
    fam = single_edge(3)
    graphs = _fan_free_corpus(seed)
    for g in graphs:
        res = family_free_subgraph(g, fam, 3)
        if not res.checked:
            return False, "post-hoc check skipped", "checked", 0, repr(g)
        if res.violation is not None:
            return False, "family member survived extraction", "none", 0, repr(g)
    return True, {"graphs": len(graphs)}, "all outputs family-free", 0, ""


def _check_blowup_bound(seed: int):
    pattern = enlargement(path_graph(3), 3)  # two triples sharing two vertices
    pred = SubgraphPredicate(pattern)
    rng = random.Random(seed * 7121 + 13)
    worst = -1.0
    converged = 0
    for _ in range(20):
        nl = rng.randint(3, 6)
        st = pred.state(nl, 3)
        cands = list(itertools.combinations(range(nl), 3))
        rng.shuffle(cands)
        for e in cands:
            if st.can_add(e) and rng.random() < 0.8:
                st.add(e)
        L = Hypergraph._trusted(nl, 3, st.current)
        sizes = [rng.randint(1, 5) for _ in range(nl)]  # at most 30 vertices
        n = sum(sizes)
        est = lagrangian(L, restarts=20, seed=seed)
        converged += est.converged
        bound = est.value * n**3 / 6.0 + 1e-6 * n**3
        got = len(blowup(L, sizes).edges)
        worst = max(worst, got - bound)
        if got > bound:
            return False, got, bound, 1e-6, f"{L!r} sizes={sizes}"
    return True, {"max_excess": worst, "converged": converged}, \
        "|E(blowup)| within Lagrangian bound", 1e-6, ""


def _check_stability_probe(seed: int):
    results = {}
    ok = True
    for k, r in ((3, 3), (4, 3)):
        m = k + r - 3
        est = lagrangian(complete_hypergraph(m, r), restarts=50, seed=seed)
        probe = stability_probe(est.weights, 0.01)
        results[f"(k={k},r={r})"] = {"support": len(probe), "converged": est.converged}
        ok = ok and est.converged and len(probe) <= m
    return ok, results, "concentration on <= k+r-3 vertices", 0, ""


# name, suite, budget seconds, function
CHECKS: list[tuple[str, str, float, Callable]] = [
    ("mantel-exact", "extremal", 50.0, _check_mantel),
    ("cancellative-exact", "extremal", 300.0, _check_cancellative),
    ("sigma3-lower-bound", "extremal", 10.0, _check_sigma_lower),
    ("turan-size", "core", 1.0, _check_turan_size),
    ("motzkin-straus-agreement", "lagrangian", 60.0, _check_motzkin_straus),
    ("complete-lagrangian", "lagrangian", 30.0, _check_complete_lagrangian),
    ("fr-mr-closed-forms", "lagrangian", 1.0, _check_fr_mr),
    ("gradient-identities", "lagrangian", 30.0, _check_gradient_identities),
    ("symmetrization-invariants", "symmetrization", 300.0, _check_symmetrization),
    ("cleaning-contract", "symmetrization", 300.0, _check_cleaning),
    ("frankl-matching-bound", "core", 60.0, _check_frankl),
    ("kernel-degree-cleanup", "extremal", 60.0, _check_kernel_cleanup),
    ("family-free-extraction", "extremal", 300.0, _check_family_extraction),
    ("blowup-bound", "lagrangian", 120.0, _check_blowup_bound),
    ("stability-probe", "lagrangian", 30.0, _check_stability_probe),
]

SUITES = ("all", "core", "lagrangian", "symmetrization", "extremal")


def check_names(suite: str = "all") -> list[str]:
    return [name for name, s, _, _ in CHECKS if suite == "all" or s == suite]


def run_check(name: str, seed: int = 0) -> CheckResult:
    for cname, suite, budget, fn in CHECKS:
        if cname == name:
            t0 = time.perf_counter()
            try:
                ok, measured, expected, tolerance, detail = fn(seed)
            except Exception as exc:  # a crash is a failure, not an abort
                elapsed = time.perf_counter() - t0
                return CheckResult(name, suite, "fail", f"exception: {exc}",
                                   "no exception", 0, elapsed)
            elapsed = time.perf_counter() - t0
            status = "pass" if ok else "fail"
            if ok and elapsed > budget:
                status = "fail"
                detail = (detail + f" | exceeded budget {budget}s "
                          f"({elapsed:.1f}s)").strip(" |")
            return CheckResult(name, suite, status, measured, expected,
                               tolerance, elapsed, detail)
    raise KeyError(f"unknown check {name!r}")


def run_verify(suite: str = "all", seed: int = 0) -> VerifyReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    results = [run_check(name, seed) for name in check_names(suite)]
    return VerifyReport(results, seed)
