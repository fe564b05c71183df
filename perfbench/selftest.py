"""Self-test of the benchmark on smoke-size inputs, one plain and one traced run each.

    python3 perfbench/selftest.py [--seed 0] [--size smoke]

For every workload it checks that:
  - the result line has exactly the contract keys, and its metric names are
    those BENCHMARK.json lists for the mode;
  - the run is correct: no failed record or call, counts equal those recorded;
  - the traced run reports the same per-check counts as the plain run;
  - every per-layer metric is nonzero on each workload COVERAGE lists for it,
    and division_table stays untouched on large-order;
  - no context is built cold inside the timed phase.
It prints the tracing overhead (traced wall time minus plain wall time) and
exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ALL = ("gate-quick", "class-sweeps", "large-order")
# per-layer metric prefix -> workloads on which it must be nonzero
COVERAGE = {
    "context.get_context_s": ALL,
    "psl.build_s": ("large-order", "class-sweeps"),
    "permgroup.closure_s": ("large-order",),
    "permgroup.classes_s": ("large-order",),
    "permgroup.index_of": ALL,
    "permgroup.division_table_s": ("gate-quick",),
    "permgroup.word_image_s": ("class-sweeps",),
    "chartable.tensor_s": ("large-order",),
    "chartable.recover_s": ("large-order",),
    "chartable.io_s": ("class-sweeps",),
    "subsets.build_s": ("class-sweeps",),
    "spectral.walk_matrix": ("gate-quick",),
    "spectral.lambda_direct": ("gate-quick", "large-order"),
    "spectral.arc_count_s": ("gate-quick",),
    "growth.product": ALL,
    "growth.pair_count": ("class-sweeps", "gate-quick"),
    "distributions.convolve": ("gate-quick", "large-order"),
    # raises CapExceeded above the dense cap, so it cannot run on large-order
    "distributions.weighted_lambda_s": ("gate-quick",),
    "reports.": ("class-sweeps",),
    "cli.main_self_s": ("class-sweeps",),
    "acceptance.": ("gate-quick",),
    "trace.": ALL,
}
# metric -> workloads on which it must stay exactly zero
ZERO_ON = {"permgroup.division_table_s": ("large-order",)}


def run_once(workload: str, seed: int, size: str, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--size", size,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads(
        (ROOT / ".bench_run" / f"{workload}-seed{seed}-{size}-trace{trace}.json").read_text()
    )
    return {"result": result, "details": details}


def check_workload(workload: str, seed: int, size: str, bench: dict) -> list[str]:
    problems = []
    plain = run_once(workload, seed, size, 0)
    traced = run_once(workload, seed, size, 1)
    for mode, out, listed in (
        ("plain", plain, bench["end_to_end"]),
        ("traced", traced, bench["per_layer"]),
    ):
        res = out["result"]
        if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"{mode}: result keys {sorted(res)}")
        if list(res["metrics"]) != [m["name"] for m in listed]:
            problems.append(f"{mode}: metric names differ from BENCHMARK.json")
        if not res["correct"]:
            shown = out["details"]["failures"][:5] + out["details"]["count_mismatches"][:5]
            problems.append(f"{mode}: not correct ({res['failed']} failed): {shown}")
        if out["details"]["cold_contexts_in_timed_phase"]:
            problems.append(f"{mode}: cold contexts in timed phase {out['details']['cold_contexts_in_timed_phase']}")
    if plain["details"]["counts"] != traced["details"]["counts"]:
        problems.append("traced per-check counts differ from the plain run's")
    metrics = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
    for prefix, where in COVERAGE.items():
        if workload not in where:
            continue
        for name in (k for k in metrics if k.startswith(prefix)):
            if not metrics[name] > 0:
                problems.append(f"per-layer {name} is {metrics[name]} on {workload}")
    for name, where in ZERO_ON.items():
        if workload in where and metrics[name] != 0:
            problems.append(f"per-layer {name} should stay 0 on {workload}, got {metrics[name]}")
    plain_wall = plain["result"]["metrics"]["wall_s"]["value"]
    print(
        f"{workload}: plain wall {plain_wall:.3f} s, traced wall {metrics['trace.wall_s']:.3f} s, "
        f"overhead {metrics['trace.wall_s'] - plain_wall:+.3f} s measured, "
        f"{metrics['trace.overhead_est_s']:.3f} s estimated from {metrics['trace.spans']:.0f} spans"
    )
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="benchmark self-test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="smoke")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    covered = {prefix for prefix in COVERAGE}
    unmatched = [m["name"] for m in bench["per_layer"] if not any(m["name"].startswith(c) for c in covered)]
    problems = [f"per-layer metric {n} has no coverage entry" for n in unmatched]
    for workload in names:
        problems += [f"{workload}: {p}" for p in check_workload(workload, args.seed, args.size, bench)]
    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
