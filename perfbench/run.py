"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gate-quick --seed 0 --seconds 10 --trace 0

With --trace 0 the run measures the end-to-end metrics with no wrappers
installed; with --trace 1 it installs the tracer and reports the per-layer
metrics instead.  --size smoke swaps in tiny inputs that finish in seconds.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Details (machine facts, per-check counts, report-body hash, failures) go to
.bench_run/ at the repository root, spans of a traced run as CSV beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_run"
# per workload, size and seed: [records, skips] of each check (record_counts.py)
EXPECTED_COUNTS = HERE / "expected_counts.json"

# BLAS threads, set before numpy loads; at most nproc, one for steady timings
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# cold context builds per plain run, both before and after the timed passes so
# that their median spans the run: each time at least SETUP_MIN_RUNS and
# SETUP_MIN_SECONDS in total, at most SETUP_MAX_RUNS; setup_s is the median
SETUP_MIN_RUNS = 5
SETUP_MAX_RUNS = 25
SETUP_MIN_SECONDS = 1.0

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "records_per_s": ("records/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="run whole passes until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    return p.parse_args(argv)


def metric_defs(trace: bool) -> dict:
    """name -> (unit, better) of the metrics this mode prints."""
    if not trace:
        return dict(END_TO_END)
    import tracer

    defs = {name: spec[:2] for name, spec in tracer.PER_LAYER.items()}
    defs.update(tracer.TRACE_METRICS)
    return defs


def check_contract(trace: bool, workload_names) -> None:
    """The metric and workload names printed must be those of BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer" if trace else "end_to_end"]}
    if listed != metric_defs(trace):
        raise SystemExit("perfbench: metric names or units differ from BENCHMARK.json")
    if [w["name"] for w in bench["workloads"]] != list(workload_names):
        raise SystemExit("perfbench: workload names differ from BENCHMARK.json")


def machine_facts(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def build_contexts(groups) -> float:
    """Seconds to build every context of the workload with the cache empty."""
    from normgrowth import context

    context._CACHE.clear()
    t0 = time.perf_counter()
    for spec, seed in groups:
        context.get_context(spec, seed=seed)
    return time.perf_counter() - t0


def summarize(tasks) -> tuple[int, dict, list[str]]:
    """Records, per-check [records, skips] counts, and failures of one pass."""
    records, counts, failures = 0, {}, []
    for task in tasks:
        if task.error:
            failures.append(f"{task.label}: {task.error}")
        for doc in task.docs:
            for r in doc.results:
                records += 1
                entry = counts.setdefault(f"{task.label}/{r.check}", [0, 0])
                entry[0] += 1
                entry[1] += int(r.skipped)
                if not r.passed and not r.skipped:
                    failures.append(f"{task.label}: {r.check} {r.group} {r.inputs} lhs={r.lhs!r} rhs={r.rhs!r}")
    return records, counts, failures


def count_mismatches(counts: dict, recorded: dict, seed: int) -> list[str]:
    """Per-check counts against those recorded for this seed.

    Seeds with a recording must match its [records, skips] exactly.  Other
    seeds must match the record counts of seed 0, which no seed changes;
    skips can move with the seed (a precondition met with equality).
    """
    if str(seed) in recorded:
        want, have = recorded[str(seed)], counts
    elif "0" in recorded:
        want = {k: v[0] for k, v in recorded["0"].items()}
        have = {k: v[0] for k, v in counts.items()}
    else:
        return ["no recorded counts for this workload and size"]
    return [
        f"{key}: got {have.get(key)}, recorded {want.get(key)}"
        for key in sorted(set(have) | set(want))
        if have.get(key) != want.get(key)
    ]


def body_sha256(tasks) -> str:
    """sha256 over every report body; criterion 1's own runtime is masked."""
    digest = hashlib.sha256()
    for task in tasks:
        for doc in task.docs:
            body = doc.body_dict()
            for rec in body["results"]:
                if rec["check"] == "specchi-eq-runtime":
                    rec["lhs"] = rec["margin"] = None
            digest.update(json.dumps(body, sort_keys=True).encode())
    return digest.hexdigest()


def cold_setups(groups) -> list[float]:
    """Repeated cold builds: at least SETUP_MIN_RUNS and SETUP_MIN_SECONDS."""
    times: list[float] = []
    while len(times) < SETUP_MAX_RUNS and (
        len(times) < SETUP_MIN_RUNS or sum(times) < SETUP_MIN_SECONDS
    ):
        times.append(build_contexts(groups))
    return times


def run(args) -> int:
    import tracer
    import workloads
    from normgrowth import context

    check_contract(bool(args.trace), workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    facts = machine_facts(args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))

    recorded = json.loads(EXPECTED_COUNTS.read_text(encoding="utf-8")).get(args.workload, {}).get(args.size, {})
    groups = wl.groups(args.seed, args.size)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    tr = tracer.Tracer() if args.trace else None
    try:
        if tr is not None:
            tr.install()
            setup_times = [build_contexts(groups)]
            cut = tr.mark()
        else:
            setup_times = cold_setups(groups)
        warm = set(context._CACHE)

        pass_times, attempted, failed = [], 0, 0
        failures, mismatches = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            tasks = wl.run(args.seed, args.size, str(workdir))
            pass_times.append(time.perf_counter() - t0)
            records, counts, pass_failures = summarize(tasks)
            pass_mismatches = count_mismatches(counts, recorded, args.seed)
            attempted += records + len(tasks)
            failed += len(pass_failures) + len(pass_mismatches)
            failures += pass_failures
            mismatches += pass_mismatches
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cold_in_timed = sorted(str(k) for k in set(context._CACHE) - warm)
        if tr is not None:
            tr.uninstall()
        else:
            setup_times += cold_setups(groups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = len(pass_times)
    wall = statistics.median(pass_times)
    sha = body_sha256(tasks)
    gate = "seed-specific" if str(args.seed) in recorded else "records only"
    print(f"passes: {passes}, seconds each: {[round(t, 3) for t in pass_times]}")
    print(f"records per pass: {records} in {len(tasks)} tasks")
    print(f"verdict: {'PASS' if not failures else 'FAIL'}; count gate ({gate}): "
          f"{'ok' if not mismatches else f'{len(mismatches)} mismatches'}")
    for line in (failures + mismatches)[:20]:
        print(f"  {line}")
    print(f"fail_ratio: {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    print(f"report bodies sha256: {sha}")
    if cold_in_timed:
        print(f"warning: contexts built cold in the timed phase: {cold_in_timed}")

    split = None
    if tr is not None:
        values = tr.per_layer(cut, passes)
        timed_spans = (len(tr.spans) - cut[0]) / passes
        values["trace.wall_s"] = wall
        values["trace.spans"] = timed_spans
        values["trace.overhead_est_s"] = timed_spans * tracer.span_cost()
        # one top-level get_context span per group, in setup order
        split = {spec: per for (spec, _), per in zip(groups, tr.self_by_root(cut[0]))}
        for spec, per in split.items():
            print(f"setup {spec}: " + ", ".join(f"{k} {v:.4f}" for k, v in sorted(per.items())))
        tr.dump(str(stem) + "-spans.csv")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "records_per_s": records / wall,
            "peak_rss_mb": peak_rss_mb,
        }
    defs = metric_defs(bool(args.trace))
    for name, value in values.items():
        print(f"metric {name} = {value:.6g} {defs[name][0]}")

    details = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "machine": facts,
        "setup_seconds": setup_times,
        "setup_split": split,
        "pass_seconds": pass_times,
        "records_per_pass": records,
        "counts": counts,
        "count_mismatches": mismatches,
        "failures": failures[:200],
        "cold_contexts_in_timed_phase": cold_in_timed,
        "body_sha256": sha,
        "metrics": values,
    }
    Path(str(stem) + ".json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": defs[name][0]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import normgrowth  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import normgrowth from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
