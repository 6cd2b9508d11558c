"""Self-test of the benchmark harness at the smallest input size.

    python3 benchmarks/selftest.py

For every workload it checks that an untraced and a traced run print every
metric of BENCHMARK.json by name with its unit (both as a `metric` line and
in the final JSON object), that the traced self times fit inside the traced
pass time, and that a deliberately corrupted output is counted in fail_frac.
It also checks that the command fails without printing a result when only
BENCHMARK.json and the benchmark directory are present.  Exit code 0 when
every check holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_selftest"


def _run(args: list, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / SPEC["command"][1])] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _bench(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return _run(["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny", *extra])


def _printed_metrics(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        m = re.match(r"metric (\S+) (\S+) (\S+)", line)
        if m:
            out[m.group(1)] = (float(m.group(2)), m.group(3))
    return out


def _check_run(done, declared: list, problems: list, label: str) -> dict:
    if done.returncode != 0:
        problems.append(f"{label}: exit code {done.returncode}: {done.stderr[-400:]}")
        return {}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']} attempted={result['attempted']}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: JSON metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(want.items()))}")
    printed = _printed_metrics(done.stdout)
    for name, unit in want.items():
        if printed.get(name, (None, None))[1] != unit:
            problems.append(f"{label}: no 'metric {name} <value> {unit}' line")
    if "fail_frac" not in printed:
        problems.append(f"{label}: fail_frac is not printed")
    return result


def main() -> int:
    problems: list = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain = _check_run(_bench(workload, 0), SPEC["end_to_end"], problems,
                           f"{workload} trace=0")
        for name, metric in plain.get("metrics", {}).items():
            if not metric["value"] > 0:
                problems.append(f"{workload}: end-to-end metric {name} is not positive")

        traced = _bench(workload, 1)
        _check_run(traced, SPEC["per_layer"], problems, f"{workload} trace=1")
        m = re.search(r"traced_run_s=(\S+) .*self_sum_s=(\S+)", traced.stdout)
        if not m or float(m.group(2)) > float(m.group(1)):
            problems.append(f"{workload}: self times exceed the traced pass time")

        bad = _bench(workload, 0, "--corrupt")
        last = bad.stdout.strip().splitlines()[-1] if bad.stdout.strip() else "{}"
        result = json.loads(last)
        frac = _printed_metrics(bad.stdout).get("fail_frac", (0.0, ""))[0]
        if bad.returncode == 0 or result.get("correct") or not result.get("failed") \
                or not frac > 0:
            problems.append(f"{workload}: a corrupted output was not counted")
        print(f"{workload}: checked", flush=True)

    # a directory holding only BENCHMARK.json and the benchmark's own files
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        SCRATCH.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, SCRATCH / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        bare = _run(["--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                     "--seconds", "1", "--trace", "0"], cwd=SCRATCH)
        if bare.returncode == 0 or '"correct"' in bare.stdout:
            problems.append("without the library the command did not fail cleanly")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    for p in problems:
        print(f"FAILED {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
