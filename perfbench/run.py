"""kwcflow benchmark: steps/s and step latency per workload, or a traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload smooth-1d --seed 1 --seconds 30 --trace 0

The workloads are described in ``workloads.py``.  With ``--trace 0`` op
groups are run for about ``--seconds`` and the end-to-end metrics are
reported; with ``--trace 1`` the first quarter of the first op group drawn
from the seed is run alternately plain and traced, and the per-layer metrics
plus the tracing overhead are reported.  Op times are process CPU time (see
``workloads.clock``).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The spans of a traced run are written to
``perfbench/out/``.

BLAS is pinned to one thread, which also fixes the reduction order so CG
and Newton counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Each group times at least this many output writes: when a group has fewer
# ops, every op writes its outputs more than once.
OUTPUT_WRITES_PER_GROUP = 32
CALIBRATION_SHARE = 0.1     # calibration CPU time after each op, as a share of the op's own


def percentile(samples, q: float) -> float:
    """numpy's q-th percentile, refused unless at least ten samples lie above
    it, so that a reported tail percentile rests on more than a handful of values.
    """
    import numpy as np
    if len(samples) * (100.0 - q) / 100.0 < 10:
        raise ValueError(f"p{q:g} needs at least ten samples above it; got {len(samples)} samples")
    return float(np.percentile(samples, q))


def load_program():
    """Import the kwcflow sources of this checkout, pinned to one BLAS thread."""
    if not os.path.isfile(os.path.join(SRC, "kwcflow", "__init__.py")):
        raise SystemExit(f"kwcflow sources not found at {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import kwcflow
    if os.path.dirname(os.path.dirname(os.path.abspath(kwcflow.__file__))) != SRC:
        raise SystemExit(f"imported kwcflow from {kwcflow.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS}}


# -- running op groups ------------------------------------------------------------
# Modules that import numpy (workloads, tracing) are imported inside functions,
# after load_program() has pinned the BLAS threads.


def run_group(ops, workdir, reference, tracer=None, calibration=None) -> list:
    import workloads as W
    results = []
    writes = -(-OUTPUT_WRITES_PER_GROUP // len(ops))
    for op in ops:
        try:
            results.append(W.run_op(op, workdir, reference, tracer, writes))
        except Exception as exc:
            # A crash the program does not document is a wrong result; keep going.
            traceback.print_exc(file=sys.stderr)
            results.append(W.OpResult(op.key, 0, 0, 0.0, failure=repr(exc), wrong_output=True))
        if calibration is not None:
            r = results[-1]
            calibration.run(CALIBRATION_SHARE * (r.setup_s + r.run_s + (r.output_s or 0.0)))
    return results


def repeat_for(seconds: float, body) -> None:
    """Call ``body`` at least once, and again while the call is expected to end
    less than half a call's length after ``seconds`` of wall time."""
    start = time.perf_counter()
    took = []
    while not took or time.perf_counter() - start + statistics.mean(took) / 2 < seconds:
        t = time.perf_counter()
        body()
        took.append(time.perf_counter() - t)


def steps_per_s(results) -> float:
    """Completed steps over the stepping time of all ops, failed ones included."""
    seconds = sum(r.run_s for r in results)
    return sum(r.steps for r in results) / seconds if seconds > 0 else 0.0


def end_to_end_metrics(ops, scale: float = 1.0) -> dict:
    """Metrics over all ops of a run, with every time multiplied by ``scale``.

    Step times are percentiles of every completed step and the set-up time
    is the median over ops."""
    step_ms = [1e3 * s for r in ops for s in r.step_s]
    failed = sum(r.failure is not None for r in ops)
    return {
        "steps_per_s": (steps_per_s(ops) / scale, "1/s"),
        "step_ms_p50": (scale * percentile(step_ms, 50), "ms"),
        "step_ms_p90": (scale * percentile(step_ms, 90), "ms"),
        "setup_s": (scale * statistics.median(r.setup_s for r in ops), "s"),
        "ok_frac": (1.0 - failed / len(ops), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(tracer, traced_groups, plain_groups) -> dict:
    from tracing import exclusive_time, layer_totals
    ops = [r for g in traced_groups for r in g]
    steps = sum(r.attempted_steps for r in ops)
    c = tracer.counts
    run = layer_totals(tracer.spans, within="evolution.run")
    top = {}
    for name, start, end, parent in tracer.spans:
        if parent < 0:
            top.setdefault(name, []).append(1e3 * (end - start))

    def ms_per_step(name, key="inclusive_s"):
        return 1e3 * run.get(name, {}).get(key, 0.0) / steps

    def per_step(name):
        return run.get(name, {}).get("calls", 0) / steps

    save_calls = len(top.get("grid.save_field", [])) or 1
    outputs = [r.output_s for g in plain_groups for r in g if r.output_s is not None]
    theta_self = exclusive_time(tracer.spans, "elliptic.theta_solve",
                                ("elliptic.cg", "model.kernels"))
    return {
        "elliptic.eta_solve.ms_per_step": (ms_per_step("elliptic.eta_solve"), "ms"),
        "elliptic.eta_solve.cg_iters_per_step": (c["eta.cg_iterations"] / steps, "count"),
        "elliptic.theta_solve.ms_per_step": (ms_per_step("elliptic.theta_solve"), "ms"),
        "elliptic.theta_solve.newton_iters_per_step": (c["theta.newton_iterations"] / steps, "count"),
        "elliptic.theta_solve.cg_iters_per_step": (c["theta.cg_iterations"] / steps, "count"),
        "elliptic.theta_solve.fallback_frac": (c["theta.fallbacks"] / max(c["theta.calls"], 1), "frac"),
        "elliptic.theta_solve.failures": (c["theta.failures"] / len(traced_groups), "count"),
        "elliptic.theta_solve.self_ms_per_step": (1e3 * theta_self / steps, "ms"),
        "elliptic.cg.ms_per_step": (ms_per_step("elliptic.cg"), "ms"),
        "elliptic.cg.calls_per_step": (c["cg.calls"] / steps, "count"),
        "elliptic.cg.computed_mb_per_step": (c["cg.bytes"] / 1e6 / steps, "MB"),
        "model.kernels.ms_per_step": (ms_per_step("model.kernels"), "ms"),
        "model.kwc_energy.calls_per_step": (per_step("model.kwc_energy"), "count"),
        "model.kwc_energy.ms_per_step": (ms_per_step("model.kwc_energy"), "ms"),
        "model.validate_assumptions.ms": (statistics.median(top["model.validate_assumptions"]), "ms"),
        "grid.check_scalar.calls_per_step": (per_step("grid.check_scalar"), "count"),
        "grid.stencil.ms_per_step": (ms_per_step("grid.stencil"), "ms"),
        "grid.norms.ms_per_step": (ms_per_step("grid.norms"), "ms"),
        "grid.save_field.ms_per_call": (sum(top.get("grid.save_field", [])) / save_calls, "ms"),
        "grid.save_field.bytes": (c["grid.save_field.bytes"] / save_calls, "bytes"),
        "evolution.run.self_ms_per_step": (ms_per_step("evolution.run", "self_s"), "ms"),
        "evolution.forcing.ms_per_step": (ms_per_step("evolution.forcing"), "ms"),
        "evolution.write_timeseries.ms": (statistics.median(top.get("evolution.write_timeseries", [0.0])), "ms"),
        "output_s": (statistics.median(outputs) if outputs else 0.0, "s"),
        "config.parse.ms": (statistics.median(top["config.parse"]), "ms"),
        "config.initial_state.ms": (statistics.median(top["config.initial_state"]), "ms"),
        "trace.overhead_steps_per_s": (
            steps_per_s([r for g in plain_groups for r in g]) - steps_per_s(ops), "1/s"),
    }


def write_spans(path: str, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import numpy as np
    import workloads as W
    from tracing import Tracer
    if args.workload not in W.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(W.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    print(f"# kwcflow benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment: " + json.dumps(env))

    stream = W.op_groups(args.workload, args.seed)
    # All ops of a run write into one work directory, each overwriting the
    # files of the op before.  Creating files just after deleting thousands
    # made the kernel time of the writes drift by up to 1.7x between runs on
    # an ext4 file system mounted with discard; overwriting keeps it small.
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        with np.load(W.REFERENCE_PATH) as reference:
            if args.trace:
                # A quarter of a group lets a plain-and-traced pair run at least
                # twice within --seconds.
                first = next(stream)
                group = first[:max(1, len(first) // 4)]
                tracer = Tracer()
                plain, traced = [], []

                def run_plain():
                    plain.append(run_group(group, workdir, reference))

                def run_traced():
                    with tracer.installed():
                        traced.append(run_group(group, workdir, reference, tracer))

                def pair():
                    # Alternate which side runs first, so that a drift of the
                    # machine's speed does not always favour the same side.
                    sides = (run_plain, run_traced) if len(plain) % 2 == 0 else (run_traced, run_plain)
                    for side in sides:
                        side()

                repeat_for(args.seconds, pair)
                groups = traced
                metrics = per_layer_metrics(tracer, traced, plain)
            else:
                groups = []
                calibration = W.Calibration()
                repeat_for(args.seconds, lambda: groups.append(
                    run_group(next(stream), workdir, reference, calibration=calibration)))
                metrics = end_to_end_metrics([r for g in groups for r in g], calibration.scale)
                measured = end_to_end_metrics([r for g in groups for r in g])
    finally:
        shutil.rmtree(workdir)

    ops = [r for g in groups for r in g]
    failed = [r for r in ops if r.failure is not None]
    for r in failed:
        print(f"# failed op {r.key}: {r.failure}")
    print(f"# ops attempted {len(ops)}, failed {len(failed)} "
          f"(failed_frac {len(failed) / len(ops):.4f}); completed steps "
          f"{sum(r.steps for r in ops)}; {len(groups)} op groups at steps/s "
          + " ".join(f"{steps_per_s(g):.4g}" for g in groups))
    if args.trace:
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv")
        write_spans(path, tracer.spans)
        print(f"# {len(tracer.spans)} spans written to {path}")
    else:
        print(f"# calibration: {calibration.solves} solves in {calibration.seconds:.4g} s, "
              f"scale {calibration.scale:.4f}; metric, scaled value, measured value, unit")
    for name, (value, unit) in metrics.items():
        as_measured = "" if args.trace else f" {measured[name][0]:14.6g}"
        print(f"{name:45s} {value:14.6g}{as_measured} {unit}")

    result = {
        "correct": not any(r.wrong_output for r in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
