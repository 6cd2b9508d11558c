"""turanlag benchmark: one closed-loop batch workload per invocation.

Run from the repository root:

    python3 benchmarks/run.py --workload verify-all --seed 0 --seconds 30 --trace 0

Workloads: verify-all, lagrangian, search, cleanup (see benchmarks/README.md).
The library is imported from ./src of the checkout; the command fails with
exit code 2 and prints no result when it is missing.

Untraced (--trace 0), the command times whole passes over the workload's
operations until --seconds have elapsed, then checks every output against an
independent reference outside the timed region and prints the end-to-end
metrics; times are scaled to a reference machine speed (see `_probe`).  Traced (--trace 1), it spends half the time untraced and the rest
in traced passes, and prints the per-layer metrics.  Human-readable lines go
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 when every output is
correct, 1 when some output failed its check.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-all", "lagrangian", "search", "cleanup")
SETUP_PROBES = 5
# time of one speed probe at the reference machine speed; reported times are
# wall times scaled by PROBE_REF_S / (probe time measured around them)
PROBE_REF_S = 0.0005


def _quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return (xs[0], xs[0], xs[0])
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def _loadavg() -> float:
    return os.getloadavg()[0]


def _probe_unit() -> int:
    """Fixed pure-Python work that shares no code with the library: integer
    arithmetic and tuple hashing into a set, like the library's hot loops."""
    x = 0
    seen = set()
    for i in range(3000):
        x += i * i % 7
        if i % 3 == 0:
            seen.add((i % 97, x % 89))
    return len(seen)


def _probe() -> float:
    """Current machine speed: median time of three probe units.

    On a shared machine the same call can take up to twice as long from one
    minute to the next; the probe slows down with it, so the ratio of a
    measured time to the probe time measured around it stays steady.
    """
    ts = []
    enabled = gc.isenabled()
    gc.disable()  # a collection would time the size of the heap, not the machine
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            _probe_unit()
            ts.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(ts)


def _import_library():
    if not (SRC / "turanlag" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'turanlag'}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    t0 = time.perf_counter()
    import turanlag
    import workloads
    return t0, turanlag, workloads


def _setup_probe(args) -> int:
    """Child mode: time the import and the input generation in this process,
    with the speed probe taken just before."""
    probe_s = statistics.median(_probe() for _ in range(5))
    t0, _, workloads = _import_library()
    workloads.build(args.workload, args.seed, args.size)
    print(json.dumps({"setup_s": time.perf_counter() - t0, "probe_s": probe_s}))
    return 0


def _measure_setup(args) -> list:
    """(wall time, probe time) of the setup, each from a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        got = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((got["setup_s"], got["probe_s"]))
    return samples


class Outputs:
    """Collects every output as it is produced.  Outputs of the first pass are
    kept for the reference checks; later passes are reduced to digests at
    once and must equal the first pass."""

    def __init__(self, workload, corrupt: bool):
        import references

        self.digest = references.digest
        self.workload = workload
        self.corrupt = corrupt
        self.first: dict = {}  # op name -> (record, pass index, digest)
        self.attempted = self.failed = 0
        self.problems: list = []

    def _fail(self, name: str, index: int, found: list) -> None:
        self.failed += 1
        self.problems.append(f"{name} (pass {index + 1}): " + "; ".join(found))

    def add(self, op, index: int, raw, error) -> None:
        self.attempted += 1
        if error is not None:
            self._fail(op.name, index, [f"raised {type(error).__name__}: {error}"])
            return
        try:
            rec = op.record(raw)
            if op.name not in self.first:
                if self.corrupt and not self.first:
                    self.workload.corrupt(rec)
                self.first[op.name] = (rec, index, self.digest(rec))
            elif self.digest(rec) != self.first[op.name][2]:
                self._fail(op.name, index, ["output differs from the first pass"])
        except Exception as exc:  # a crashing record counts as a failure
            self._fail(op.name, index, [f"record raised {type(exc).__name__}: {exc}"])

    def finish(self) -> str:
        """Check the first outputs against the references; returns the
        digest of all first outputs."""
        for op in self.workload.ops:
            if op.name not in self.first:
                continue
            rec, index, _ = self.first[op.name]
            try:
                found = op.check(rec)
            except Exception as exc:  # a crashing check counts as a failure
                found = [f"check raised {type(exc).__name__}: {exc}"]
            if found:
                self._fail(op.name, index, found)
        return self.digest([[name, rec] for name, (rec, _, _) in self.first.items()])


def _run_passes(ops, budget: float, outputs: Outputs, *, whole: bool = False) -> tuple:
    """Run passes over ops until `budget` seconds have elapsed.

    The first pass always runs whole.  After it, an operation starts only if
    its median time so far still fits in the budget (with whole=True, a pass
    starts only if the previous pass fits).  A speed probe runs before and
    after each operation.  Returns per-op samples of (wall time, mean of the
    probe times around it) and the wall times of complete passes.
    """
    times = {op.name: [] for op in ops}
    pass_times: list = []
    clock = time.perf_counter
    deadline = clock() + budget
    index = 0
    while True:
        start = clock()
        if index and whole and start + pass_times[-1] > deadline:
            break
        ran = 0
        for op in ops:
            if index and not whole and \
                    clock() + statistics.median(w for w, _ in times[op.name]) > deadline:
                continue
            raw = error = None
            before = _probe()
            t0 = clock()
            try:
                raw = op.call()
            except Exception as exc:  # a raising operation counts as failed
                error = exc
            wall = clock() - t0
            times[op.name].append((wall, (before + _probe()) / 2))
            ran += 1
            outputs.add(op, index, raw, error)
        if ran == len(ops):
            pass_times.append(clock() - start)
        index += 1
        if not whole and ran < len(ops):
            break
    return times, pass_times


def _env_line(turanlag, args, load_before, load_after) -> str:
    import networkx
    import numpy

    return (f"env python={sys.version.split()[0]} numpy={numpy.__version__} "
            f"networkx={networkx.__version__} turanlag={turanlag.__version__} "
            f"nproc={len(os.sched_getaffinity(0))} seed={args.seed} "
            f"loadavg_1m_before={load_before:.2f} loadavg_1m_after={load_after:.2f}")


def _walls(samples: list) -> list:
    return [wall for wall, _ in samples]


def _scaled(samples: list) -> list:
    """Wall times at the reference machine speed."""
    return [wall * PROBE_REF_S / probe for wall, probe in samples]


def _print_ops(times: dict, label: str) -> None:
    for name, samples in times.items():
        walls = _walls(samples)
        print(f"op {label} {name} n={len(walls)} median_s={statistics.median(walls):.6f} "
              f"min_s={min(walls):.6f} max_s={max(walls):.6f} "
              f"scaled_median_s={statistics.median(_scaled(samples)):.6f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smallest inputs, for the harness self-test")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage one output before checking (harness self-test)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return _setup_probe(args)

    load_before = _loadavg()
    t0, turanlag, workloads = _import_library()
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        workload = workloads.build(args.workload, args.seed, args.size)
        setup_here = time.perf_counter() - t0
        outputs = Outputs(workload, args.corrupt)
        if tracer:
            hgio = {name: tracer.stat(f"hgio.{name}").self_s
                    for name in ("parse_hypergraph", "serialize_hypergraph")}
            tracer.remove()
            budget = args.seconds / 2
        else:
            budget = args.seconds
        times, pass_times = _run_passes(workload.ops, budget, outputs)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.reset()
            tracer.install()
            t_times, t_pass_times = _run_passes(
                workload.ops, args.seconds - budget, outputs, whole=True)
    finally:
        if tracer:
            tracer.remove()
    setup = [] if tracer else _measure_setup(args)
    load_after = _loadavg()
    digest = outputs.finish()
    attempted, failed, problems = outputs.attempted, outputs.failed, outputs.problems

    print(f"# turanlag benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    print(_env_line(turanlag, args, load_before, load_after))
    _print_ops(times, "untraced")
    run_s = sum(statistics.median(_scaled(v)) for v in times.values())
    run_wall_s = sum(statistics.median(_walls(v)) for v in times.values())
    q1, q2, q3 = _quartiles(pass_times) if pass_times else (0.0, 0.0, 0.0)
    print(f"pass untraced complete={len(pass_times)} median_s={q2:.6f} "
          f"q1_s={q1:.6f} q3_s={q3:.6f}")
    probes = [probe for v in times.values() for _, probe in v]
    print(f"speed samples={len(probes)} mean_probe_s={statistics.fmean(probes):.7f} "
          f"reference_probe_s={PROBE_REF_S}")
    print(f"wall run_s={run_wall_s:.6f} (sum of per-op median wall times, unscaled)")
    metrics = {}
    if tracer:
        # means, not medians, so that the self times of the traced passes
        # (sums over whole passes) compare with the traced pass time
        _print_ops(t_times, "traced")
        passes = len(t_pass_times)
        traced_s = sum(statistics.fmean(_walls(v)) for v in t_times.values())
        untraced_s = sum(statistics.fmean(_walls(v)) for v in times.values())
        for name, st in sorted(tracer.stats.items()):
            print(f"span {name} calls={st.calls / passes:.1f} "
                  f"self_s={st.self_s / passes:.6f} total_s={st.total_s / passes:.6f}")
        print(f"trace passes={passes} traced_run_s={traced_s:.6f} "
              f"untraced_run_s={untraced_s:.6f} "
              f"self_sum_s={tracer.self_sum() / passes:.6f}")
        layer = tracer.layer_metrics(passes)
        for name in turanlag.verify.check_names("all"):
            samples = times.get(f"verify:{name}")
            layer[f"verify.{name}.s"] = (
                statistics.median(_walls(samples)) if samples else 0.0, "s")
        for name, value in hgio.items():
            layer[f"hgio.{name}.self_s"] = (value, "s")
        # scaled times, so that drift between the two phases cancels
        overhead = sum(statistics.fmean(_scaled(v)) for v in t_times.values()) / \
            sum(statistics.fmean(_scaled(v)) for v in times.values()) - 1.0
        layer["trace.overhead_frac"] = (overhead, "ratio")
        metrics = layer
    else:
        setup_ref = [wall * PROBE_REF_S / probe_s for wall, probe_s in setup]
        metrics["run_s"] = (run_s, "s")
        metrics["setup_s"] = (statistics.median(setup_ref), "s")
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        print(f"wall setup_s={statistics.median(w for w, _ in setup):.6f} "
              f"samples_s={','.join(f'{w:.6f}' for w, _ in setup)} "
              f"in_process_s={setup_here:.6f}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"metric fail_frac {failed / attempted!r} ratio "
          f"({failed} of {attempted} operations failed)")
    print(f"digest {args.workload} sha256:{digest}")
    for line in problems:
        print(f"FAILED {line}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
