"""csgames benchmark: one workload, checked, with end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload count|filtered|convert --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  ``--trace 0`` runs fresh-interpreter passes of the workload one
after another, closed loop, for about ``--seconds`` (at least one pass), and
reports each metric over the passes (see ``end_to_end``).  ``--trace 1`` runs one untraced pass of the workload and
one traced pass of every workload, so every per-layer metric has a value;
the difference between the workload's traced and untraced wall time is the
tracing overhead.  Each run writes a full record (machine, passes, spans)
under ``perfbench/out/``; the last line of stdout is the result object.
See perfbench/README.md for what each workload loads and judges.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from spans import layer_self_times, span_totals

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("count", "filtered", "convert")

# A run must end within this many seconds, including its last pass.
RUN_DEADLINE_S = 170

# Required roles are tested in frozenset order, which follows the string hash
# seed: CG(10,3)+vetoer+semi-vetoer costs 0.3 s when vetoer comes first and
# 3 s otherwise.  A fixed seed keeps passes comparable; 0 gives the slow order.
CHILD_ENV = {"PYTHONHASHSEED": "0"}

# per-layer time metric -> name of the spans it sums
SPAN_METRICS = {
    "enumeration.prepare_s": "enumeration.prepare",
    "enumeration.count_s": "enumeration.count",
    "enumeration.single_row_s": "enumeration.single_row",
    "enumeration.stream_s": "enumeration.stream",
    "roles.filter_s": "roles.filter",
    "roles.structural_s": "roles.structural",
    "invariants.validate_s": "invariants.validate",
    "invariants.expand_s": "invariants.expand",
    "invariants.extract_s": "invariants.extract",
    "transforms.dual_invariants_s": "transforms.dual_invariants",
    "transforms.dual_s": "transforms.dual",
    "transforms.bijection_s": "transforms.bijection",
    "core.type_partition_s": "core.type_partition",
    "cli.dump_s": "cli.dump",
}
COUNTERS = (
    "enumeration.prepare_rows",
    "enumeration.matrices",
    "roles.filter_calls",
    "invariants.box_profiles",
    "invariants.min_winning",
    "transforms.bijection_calls",
)
LAYERS = ("enumeration", "roles", "invariants", "transforms", "core", "cli")


def run_pass(section: str, seed: int, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--section", section, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(
        cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV}, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{section} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from files only."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu or platform.processor() or None,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "loadavg_start": load,
    }


def op_latencies(result) -> list[float]:
    return [op[2] for op in result["ops"]]


def tally(passes) -> tuple[int, int]:
    ops = [op for p in passes for op in p["ops"]]
    return len(ops), sum(not op[1] for op in ops)


def end_to_end(passes) -> dict:
    """Set-up and memory: median over passes.  Times of the timed section: mean.

    The shared machine drifts between fast and slow phases that last about a
    minute.  The mean weighs them by their share of the run, where the median
    of a few passes jumps to whichever phase held most of them.
    """
    for p in passes:
        lat = op_latencies(p)
        p["game_p50_ms"] = statistics.median(lat)
        p["game_p99_ms"] = statistics.quantiles(lat, n=100, method="inclusive")[98]
    median = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    mean = lambda key: statistics.fmean(p[key] for p in passes)  # noqa: E731
    return {
        "setup_s": (median("setup_s"), "s"),
        "wall_s": (mean("wall_s"), "s"),
        "cpu_s": (mean("cpu_s"), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "game_p50_ms": (mean("game_p50_ms"), "ms"),
        "game_p99_ms": (mean("game_p99_ms"), "ms"),
    }


def per_layer(traced: list[dict], untraced_wall: float, workload: str) -> dict:
    spans = [s for p in traced for s in p["spans"]]
    counters: dict[str, int] = {}
    for p in traced:
        for k, v in p["counters"].items():
            counters[k] = counters.get(k, 0) + v
    totals = span_totals(spans)
    # span ids are per pass, so self time is summed pass by pass
    self_times: dict[str, float] = {}
    for p in traced:
        for layer, sec in layer_self_times(p["spans"]).items():
            self_times[layer] = self_times.get(layer, 0.0) + sec
    pool = next(p["pool"] for p in traced if p["pool"])
    own = next(p for p in traced if p["section"] == workload)
    out = {name: (totals.get(span, 0.0), "s") for name, span in SPAN_METRICS.items()}
    out.update({name: (counters.get(name, 0), "count") for name in COUNTERS})
    out["enumeration.pool_speedup"] = (pool["speedup"], "ratio")
    out["roles.filter_pass_ratio"] = (
        counters["roles.filter_kept"] / counters["roles.filter_examined"], "ratio")
    out.update({f"{layer}.self_s": (self_times.get(layer, 0.0), "s") for layer in LAYERS})
    out["trace.overhead_s"] = (own["wall_s"] - untraced_wall, "s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "csgames", "__init__.py")):
        print(f"error: no csgames package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    machine = machine_record(args.seed)
    # byte-compile before timing, so the first pass does not pay for it
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    if args.trace:
        untraced = [run_pass(args.workload, args.seed, False, deadline)]
        traced = [run_pass(s, args.seed, True, deadline) for s in WORKLOADS]
        passes = untraced + traced
        metrics = per_layer(traced, untraced[0]["wall_s"], args.workload)
    else:
        # closed loop: start another pass only while it should end within --seconds
        passes, longest = [], 0.0
        while not passes or time.monotonic() - started + longest <= args.seconds:
            t = time.monotonic()
            passes.append(run_pass(args.workload, args.seed, False, deadline))
            longest = max(longest, time.monotonic() - t)
        metrics = end_to_end(passes)

    attempted, failed = tally(passes)
    stream = next((p["stream"] for p in passes if p["stream"]), None)
    errors = [op for p in passes for op in p["ops"] if not op[1]][:20]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "game_samples_per_pass": None if args.trace else len(op_latencies(passes[0])),
        "stream": stream,
        "failures": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": passes,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json")
    with open(path, "w") as f:
        json.dump(record, f)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"nproc {machine['nproc']}  python {machine['python']}  load {machine['loadavg_start']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    print(f"  {'fail_ratio':32s} {failed / attempted:14.6f} ({failed}/{attempted})")
    if not args.trace:
        print(f"  {'game samples per pass':32s} {record['game_samples_per_pass']:14d}")
    if stream:
        print(f"  stream lines {stream['lines']}  sha256 {stream['sha256']}")
    for op in errors:
        print(f"  FAILED {op}")
    print(f"  record {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
