#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload figures|fuzz|sweep --seed N \\
        --seconds S --trace 0|1

Builds the C++ driver (perfbench/driver.cpp) against ../src into
.bench_build/perfbench, runs one workload for the timed window, checks
every op's output, and prints the metrics. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. README.md explains the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"

WORKLOADS = ("figures", "fuzz", "sweep")

# Knobs that change results or cost; unset before every run and recorded.
ENV_KNOBS = (
    "FPINT_SIM_SAMPLE", "FPINT_SIM_FAST", "FPINT_PASSES", "FPINT_FAULT",
    "FPINT_SANDBOX", "FPINT_TELEMETRY", "FPINT_VERIFY_EACH_PASS",
    "FPINT_PRINT_AFTER",
)

# A percentile is reported only with at least this many samples beyond it.
# The driver completes enough ops per window for TAIL_PCT.
MIN_BEYOND = 10
TAIL_PCT = 0.95
# Slack for span times, which the driver writes in ms.
SPAN_EPS_MS = 1e-3
DRIVER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
    "speedup_geomean": "x",
    "offload_pct": "%",
}

PASSES = ("opt", "profile", "partition", "fp-arg-passing", "regalloc")
LAYERS = ("bench", "core", "pass", "vm", "timing", "testgen", "support")

PER_LAYER = {
    "core.compile_ms": "ms",
    "core.compile_calls": "count",
    "core.measure_ms": "ms",
    **{f"pass.{p}_ms": "ms" for p in PASSES},
    "pass.changes": "count",
    "pass.analysis_hit_ratio": "ratio",
    "vm.trace_ms": "ms",
    "vm.trace_instrs": "count",
    "vm.trace_minstr_per_s": "Minstr/s",
    "timing.pack_ms": "ms",
    "timing.sim_ms": "ms",
    "timing.sim_calls": "count",
    "timing.mcycles_per_s": "Mcyc/s",
    "timing.sims_per_trace": "ratio",
    "testgen.generate_ms": "ms",
    "testgen.oracle_ms": "ms",
    "testgen.dyn_instrs": "count",
    "testgen.skipped": "count",
    "support.sandbox_ms": "ms",
    "support.spawns": "count",
    "support.pool_wait_ms": "ms",
    "bench.self_ms": "ms",
    "proc.user_ms_per_op": "ms",
    "proc.sys_ms_per_op": "ms",
    "proc.minflt_per_op": "count",
    **{f"share.{layer}": "%" for layer in LAYERS},
    "trace.ops_per_s": "ops/s",
    "fail_ratio": "ratio",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def percentile(values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank percentile q (0 < q < 1) of values. Refuses (raises
    ValueError) unless at least min_beyond samples lie beyond it."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"need {min_beyond}")
    return sorted(values)[rank - 1]


def clean_env(environ):
    """Returns (env, unset knob names, jobs). Jobs is FPINT_JOBS clamped
    to [1, nproc], nproc when unset or malformed."""
    env = dict(environ)
    unset = [k for k in ENV_KNOBS if env.pop(k, None) is not None]
    nproc = len(os.sched_getaffinity(0))
    try:
        jobs = int(env.get("FPINT_JOBS", nproc))
    except ValueError:
        jobs = nproc
    jobs = min(max(jobs, 1), nproc)
    env["FPINT_JOBS"] = str(jobs)
    return env, unset, jobs


def build():
    """Configures (once) and builds the driver; build output goes to
    stderr so the result line stays last on stdout."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"{ROOT / 'src'} missing: run from a full checkout")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), *gen,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "perfbench_driver", "-j", str(len(os.sched_getaffinity(0)))],
                   check=True, stdout=sys.stderr)


def run_driver(workload, seed, seconds, trace, env, extra=()):
    """Runs the driver once and returns its raw measurements."""
    out = BUILD_DIR / "runs" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [str(DRIVER), "--workload", workload, "--root", str(ROOT),
           "--out", str(out), "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), *extra]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    with open(out) as f:
        return json.load(f)


def failed_ops(raw):
    return sum(1 for op in raw["ops"] if op[3] == 1)


def latencies_ms(raw):
    return [end - start for _, start, end, _, _ in raw["ops"]]


def end_to_end(raw):
    ops = raw["ops"]
    lat = latencies_ms(raw)
    use = raw["usage"]
    rss_kb = max(use["maxrss_kb_self"], use["maxrss_kb_children"])
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "ops_per_s": len(ops) / raw["window_s"],
        "op_p50_ms": percentile(lat, 0.50),
        "op_p95_ms": percentile(lat, TAIL_PCT),
        "cpu_ms_per_op": (use["user_ms"] + use["sys_ms"]) / len(ops),
        "peak_rss_mb": rss_kb / 1024.0,
        "speedup_geomean": raw["speedup_geomean"],
        "offload_pct": raw["offload_pct"],
    }


def check_nesting(spans):
    """Raises ValueError unless, within every op, each span lies inside
    its parent and siblings do not overlap."""
    by_op = {}
    for op, idx, parent, name, start, end in spans:
        by_op.setdefault(op, {})[idx] = (parent, name, start, end)
    for op, table in by_op.items():
        kids = {}
        for idx, (parent, name, start, end) in table.items():
            if end < start - SPAN_EPS_MS:
                raise ValueError(f"op {op}: span {name} ends before it "
                                 f"starts")
            if parent < 0:
                continue
            _, pname, pstart, pend = table[parent]
            if start < pstart - SPAN_EPS_MS or end > pend + SPAN_EPS_MS:
                raise ValueError(
                    f"op {op}: span {name} [{start:.6f}, {end:.6f}] is not "
                    f"inside its parent {pname} [{pstart:.6f}, {pend:.6f}]")
            kids.setdefault(parent, []).append((start, end, name))
        for parent, group in kids.items():
            group.sort()
            for (_, a_end, a), (b_start, _, b) in zip(group, group[1:]):
                if b_start < a_end - SPAN_EPS_MS:
                    raise ValueError(f"op {op}: sibling spans {a} and {b} "
                                     f"overlap")


def span_times(spans):
    """Per span name: total duration and total self time, in ms. Self
    time is a span's duration minus the durations of its children."""
    child = {}
    for op, _, parent, _, start, end in spans:
        if parent >= 0:
            child[(op, parent)] = child.get((op, parent), 0.0) + end - start
    dur, self_t = {}, {}
    for op, idx, _, name, start, end in spans:
        d = end - start
        dur[name] = dur.get(name, 0.0) + d
        self_t[name] = self_t.get(name, 0.0) + d - child.get((op, idx), 0.0)
    return dur, self_t


def layer_of(name):
    return "bench" if name == "op" else name.split(".", 1)[0]


def per_layer(raw):
    ops = raw["ops"]
    n = len(ops)
    cnt = raw["counters"]
    # Nested spans make each op's layer self times sum to its wall time.
    check_nesting(raw["spans"])
    dur, self_t = span_times(raw["spans"])
    total_wall = sum(end - start for _, _, parent, _, start, end
                     in raw["spans"] if parent < 0)

    # runOracle hides its compiles from the fuzz ops; the traced fuzz run
    # replays them after the window and core/pass come from the replay.
    if raw["replay_units"]:
        check_nesting(raw["replay_spans"])
        c_dur, c_self = span_times(raw["replay_spans"])
        c_units, c_cnt = raw["replay_units"], raw["replay_counters"]
    else:
        c_dur, c_self, c_units, c_cnt = dur, self_t, n, cnt

    def per(table, name, units=n):
        return table.get(name, 0.0) / units

    hits, misses = c_cnt["analysis_hits"], c_cnt["analysis_misses"]
    trace_s = dur.get("vm.trace", 0.0) / 1e3
    sim_s = dur.get("timing.sim", 0.0) / 1e3
    traces = cnt["trace_captures"] or raw["setup_traces"]
    use = raw["usage"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, s in self_t.items():
        layer_self[layer_of(name)] += s

    m = {
        "core.compile_ms": per(c_dur, "core.compile", c_units),
        "core.compile_calls": c_cnt["compile_calls"],
        "core.measure_ms": per(c_self, "core.compile", c_units),
        **{f"pass.{p}_ms": per(c_dur, f"pass.{p}", c_units) for p in PASSES},
        "pass.changes": c_cnt["pass_changes"],
        "pass.analysis_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "vm.trace_ms": per(dur, "vm.trace"),
        "vm.trace_instrs": cnt["trace_instrs"],
        "vm.trace_minstr_per_s": cnt["trace_instrs"] / trace_s / 1e6
        if trace_s else 0.0,
        "timing.pack_ms": per(dur, "timing.pack"),
        "timing.sim_ms": per(dur, "timing.sim"),
        "timing.sim_calls": cnt["sim_calls"],
        "timing.mcycles_per_s": cnt["sim_cycles"] / sim_s / 1e6
        if sim_s else 0.0,
        "timing.sims_per_trace": cnt["sim_calls"] / traces if traces else 0.0,
        "testgen.generate_ms": per(dur, "testgen.generate"),
        "testgen.oracle_ms": per(dur, "testgen.oracle"),
        "testgen.dyn_instrs": cnt["dyn_instrs"],
        "testgen.skipped": cnt["skipped"],
        "support.sandbox_ms": per(self_t, "support.sandbox"),
        "support.spawns": cnt["spawns"],
        "support.pool_wait_ms": sum(op[1] - op[0] for op in ops) / n,
        "bench.self_ms": per(self_t, "op"),
        "proc.user_ms_per_op": use["user_ms"] / n,
        "proc.sys_ms_per_op": use["sys_ms"] / n,
        "proc.minflt_per_op": use["minflt"] / n,
        **{f"share.{layer}": 100.0 * layer_self[layer] / total_wall
           for layer in LAYERS},
        "trace.ops_per_s": n / raw["window_s"],
        "fail_ratio": failed_ops(raw) / n,
    }
    return m


def result_line(raw, trace):
    """The final JSON object for one run."""
    failed = failed_ops(raw)
    values = per_layer(raw) if trace else end_to_end(raw)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": len(raw["ops"]),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-golden", action="store_true",
                    help="self-test hook: feed the figures checker one "
                         "wrong golden cycle count")
    args = ap.parse_args(argv)

    env, unset, jobs = clean_env(os.environ)
    try:
        build()
        raw = run_driver(args.workload, args.seed, args.seconds, args.trace,
                         env, ["--corrupt-golden"] if args.corrupt_golden
                         else [])
        result = result_line(raw, args.trace)
    except (RuntimeError, ValueError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log(f"error: {e}")
        return 1

    lat = latencies_ms(raw)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} FPINT_JOBS={jobs} (driver used {raw['jobs']}) "
          f"unset=[{','.join(unset)}] ops={len(lat)} "
          f"window_s={raw['window_s']:.3f} setup_reps={len(raw['setup_s'])} "
          f"beyond_p95={len(lat) - math.ceil(TAIL_PCT * len(lat))}")
    for msg in raw["failures"]:
        print(f"perfbench: FAILED {msg}")
    for name, m in result["metrics"].items():
        print(f"perfbench:   {name:26s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
