"""Traced runs: wrap the library's public functions from outside and derive
the per-layer metrics.

`Tracer.install()` replaces each listed function at every name it is bound
to in the loaded `turanlag` modules (the package namespace, its home module
and every module that imported it), wraps the forbidden-configuration
predicates so that `state()` returns a timing proxy for `can_add`, `add` and
`remove`, and counts `Hypergraph` constructions.  `Tracer.remove()` restores
every patch.

Each call opens a span whose parent is the span on top of the stack.  Self
time is the span's duration minus the durations of its children.  Spans are
folded into per-name totals as they close instead of being stored, because an
exhaustive search makes millions of `can_add` calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (home module, function): the public functions whose spans are recorded
FUNCTIONS = [
    ("lagrangian", "lagrangian"),
    ("lagrangian", "lagrangian_constrained"),
    ("lagrangian", "poly_value"),
    ("lagrangian", "grad"),
    ("lagrangian", "clique_number"),
    ("lagrangian", "lagrangian_density_search"),
    ("extremal", "brute_force_ex"),
    ("extremal", "local_search_lower"),
    ("extremal", "kernel_clean"),
    ("hypergraph", "find_embedding"),
    ("hypergraph", "max_matching"),
    ("hypergraph", "kernel_degree"),
    ("constructions", "contains_family_member"),
    ("symmetrization", "run_plain"),
    ("symmetrization", "run_with_cleaning"),
    ("symmetrization", "replay_trace"),
    ("symmetrization", "intermediate_graphs"),
    ("hgio", "parse_hypergraph"),
    ("hgio", "serialize_hypergraph"),
]

PREDICATES = ("SubgraphPredicate", "FamilyPredicate", "SigmaPredicate",
              "CancellativePredicate")
CAN_ADD_KINDS = ("clique", "subgraph", "family", "sigma", "cancellative")


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.extra = 0  # a count taken from results: nodes, rounds, accepts, ...


def _symmetrize_rounds(out) -> int:
    return sum(1 for s in out.trace.steps if s.kind == "symmetrize")


# function name -> how its results add to Stat.extra
_RESULT_COUNTS = {
    "lagrangian.lagrangian": lambda est: int(est.converged),
    "lagrangian.lagrangian_constrained": lambda est: int(est.converged),
    "lagrangian.lagrangian_density_search": lambda res: res.evaluated,
    "extremal.brute_force_ex": lambda res: res.nodes_explored,
    "symmetrization.run_plain": _symmetrize_rounds,
    "symmetrization.run_with_cleaning": _symmetrize_rounds,
}


class _TimedState:
    """Proxy for a predicate's incremental state with timed updates."""

    def __init__(self, inner, kind: str, tracer: "Tracer"):
        self._inner = inner
        self.can_add = tracer.wrap(f"extremal.can_add.{kind}", inner.can_add,
                                   count=bool)
        self.add = tracer.wrap(f"extremal.add.{kind}", inner.add)
        self.remove = tracer.wrap(f"extremal.remove.{kind}", inner.remove)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    def __init__(self):
        self.stack = [[0.0]]  # frames hold the time covered by child spans
        self.stats: dict[str, Stat] = {}
        self.constructed = 0
        self._undo: list = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def reset(self) -> None:
        for st in self.stats.values():
            st.__init__()
        self.constructed = 0

    def wrap(self, name: str, fn, count=None):
        """A traced stand-in for fn; `count(result)` adds to Stat.extra."""
        stack, clock, st = self.stack, time.perf_counter, self.stat(name)

        def close(t0: float, frame: list) -> None:
            dt = clock() - t0
            stack.pop()
            st.self_s += dt - frame[0]
            st.total_s += dt
            stack[-1][0] += dt

        if inspect.isgeneratorfunction(fn):
            # one span per step, so the consumer's work between steps is excluded
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                st.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(t0, frame)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(t0, frame)
            if count is not None:
                st.extra += count(out)
            return out

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "turanlag" or name.startswith("turanlag.")]
        for home, fname in FUNCTIONS:
            orig = getattr(sys.modules[f"turanlag.{home}"], fname)
            name = f"{home}.{fname}"
            wrapped = self.wrap(name, orig, _RESULT_COUNTS.get(name))
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, attr, wrapped)

        extremal = sys.modules["turanlag.extremal"]
        for cls_name in PREDICATES:
            cls = getattr(extremal, cls_name)
            self._set(cls, "state", self._state_proxy(cls.__dict__["state"]))

        Hypergraph = sys.modules["turanlag.hypergraph"].Hypergraph
        post_init = Hypergraph.__dict__["__post_init__"]

        def counted_post_init(graph):
            self.constructed += 1
            post_init(graph)

        self._set(Hypergraph, "__post_init__", counted_post_init)

    def _state_proxy(self, state):
        tracer = self

        def traced_state(pred, n, r):
            inner = state(pred, n, r)
            kind = "clique" if type(inner).__name__ == "_CliqueState" else pred.kind
            return _TimedState(inner, kind, tracer)

        return traced_state

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- metrics ---------------------------------------------------------------

    def self_sum(self) -> float:
        return sum(st.self_s for st in self.stats.values())

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per traced pass: counts and times are divided by
        the pass count, ratios are taken over all traced passes."""
        s = self.stat

        def per(x):
            return x / passes

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        lag, cap = s("lagrangian.lagrangian"), s("lagrangian.lagrangian_constrained")
        for fname, st in (("lagrangian", lag), ("lagrangian_constrained", cap)):
            put(f"lagrangian.{fname}.calls", per(st.calls), "count")
            put(f"lagrangian.{fname}.self_s", per(st.self_s), "s")
        for fname in ("poly_value", "grad", "clique_number"):
            put(f"lagrangian.{fname}.self_s", per(s(f"lagrangian.{fname}").self_s), "s")
        dens = s("lagrangian.lagrangian_density_search")
        put("lagrangian.lagrangian_density_search.self_s", per(dens.self_s), "s")
        put("lagrangian.lagrangian_density_search.evaluated", per(dens.extra), "count")
        put("lagrangian.converged_frac",
            ratio(lag.extra + cap.extra, lag.calls + cap.calls), "ratio")

        bf = s("extremal.brute_force_ex")
        put("extremal.brute_force_ex.calls", per(bf.calls), "count")
        put("extremal.brute_force_ex.self_s", per(bf.self_s), "s")
        put("extremal.brute_force_ex.nodes", per(bf.extra), "count")
        put("extremal.brute_force_ex.nodes_per_s", ratio(bf.extra, bf.total_s), "1/s")
        for fname in ("local_search_lower", "kernel_clean"):
            st = s(f"extremal.{fname}")
            put(f"extremal.{fname}.calls", per(st.calls), "count")
            put(f"extremal.{fname}.self_s", per(st.self_s), "s")
        for kind in CAN_ADD_KINDS:
            st = s(f"extremal.can_add.{kind}")
            put(f"extremal.can_add.{kind}.calls", per(st.calls), "count")
            put(f"extremal.can_add.{kind}.self_s", per(st.self_s), "s")
            put(f"extremal.can_add.{kind}.accept_frac", ratio(st.extra, st.calls), "ratio")

        fe = s("hypergraph.find_embedding")
        put("hypergraph.find_embedding.calls", per(fe.calls), "count")
        put("hypergraph.find_embedding.self_s", per(fe.self_s), "s")
        put("hypergraph.Hypergraph.constructed", per(self.constructed), "count")
        put("hypergraph.max_matching.self_s", per(s("hypergraph.max_matching").self_s), "s")
        put("hypergraph.kernel_degree.self_s", per(s("hypergraph.kernel_degree").self_s), "s")

        cfm = s("constructions.contains_family_member")
        put("constructions.contains_family_member.calls", per(cfm.calls), "count")
        put("constructions.contains_family_member.self_s", per(cfm.self_s), "s")

        plain, clean = s("symmetrization.run_plain"), s("symmetrization.run_with_cleaning")
        put("symmetrization.run_plain.calls", per(plain.calls), "count")
        put("symmetrization.run_plain.self_s", per(plain.self_s), "s")
        put("symmetrization.run_plain.rounds", per(plain.extra), "count")
        put("symmetrization.run_plain.s_per_round", ratio(plain.self_s, plain.extra), "s")
        put("symmetrization.run_with_cleaning.calls", per(clean.calls), "count")
        put("symmetrization.run_with_cleaning.self_s", per(clean.self_s), "s")
        put("symmetrization.run_with_cleaning.rounds", per(clean.extra), "count")
        for fname in ("replay_trace", "intermediate_graphs"):
            put(f"symmetrization.{fname}.self_s",
                per(s(f"symmetrization.{fname}").self_s), "s")
        return out
