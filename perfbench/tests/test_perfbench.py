"""Tests of the benchmark itself: helpers, wrappers, failure accounting, smoke ops.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest

import run
import tracing
import workloads as W
from kwcflow import elliptic, evolution
from kwcflow.config import parse_config_dict
from kwcflow.evolution import Forcings
from kwcflow.grid import Grid


@pytest.fixture(scope="module")
def reference():
    with np.load(W.REFERENCE_PATH) as ref:
        yield ref


# -- helpers ----------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(range(100), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        run.percentile(range(99), 90)
    with pytest.raises(ValueError):
        run.percentile(range(19), 50)


# spans: run(0..10) > eta(1..3) > cg(1.5..2.5); run > theta(4..9) > cg(5..7), kernels(7..8) > stencil(7.2..7.4)
SPANS = [
    ["evolution.run", 0.0, 10.0, -1],
    ["elliptic.eta_solve", 1.0, 3.0, 0],
    ["elliptic.cg", 1.5, 2.5, 1],
    ["elliptic.theta_solve", 4.0, 9.0, 0],
    ["elliptic.cg", 5.0, 7.0, 3],
    ["model.kernels", 7.0, 8.0, 3],
    ["grid.stencil", 7.2, 7.4, 5],
    ["grid.stencil", 7.25, 7.3, 6],
    ["config.parse", 11.0, 12.0, -1],
]


def test_self_times_subtract_direct_children():
    selfs = tracing.self_times(SPANS)
    assert selfs == pytest.approx([10 - 2 - 5, 2 - 1, 1, 5 - 2 - 1, 2, 1 - 0.2, 0.2 - 0.05, 0.05, 1])


def test_layer_totals_count_outermost_time_and_sum_self():
    totals = tracing.layer_totals(SPANS, within="evolution.run")
    assert "config.parse" not in totals
    assert totals["elliptic.cg"] == {"calls": 2, "inclusive_s": pytest.approx(3.0),
                                     "self_s": pytest.approx(3.0)}
    stencil = totals["grid.stencil"]
    assert stencil["calls"] == 2
    assert stencil["inclusive_s"] == pytest.approx(0.2)      # nested stencil not counted twice
    assert stencil["self_s"] == pytest.approx(0.2)
    assert totals["evolution.run"]["self_s"] == pytest.approx(3.0)


def test_exclusive_time_removes_only_the_named_layers():
    # theta 5 s minus cg 2 s and kernels 1 s; the stencil inside kernels is not subtracted again
    assert tracing.exclusive_time(SPANS, "elliptic.theta_solve",
                                  ("elliptic.cg", "model.kernels")) == pytest.approx(2.0)


def test_cg_bytes_counts_matrix_and_vectors_per_iteration():
    grid = Grid(1, (8,), (1.0,))
    A = grid.stiffness_matrix
    per_iter = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + 8 * 8 * 19
    assert tracing.cg_bytes(A, 3) == 3 * per_iter


# -- wrappers -----------------------------------------------------------------------


def _current():
    return [vars(owner)[attr] for owner, attr, _, _ in tracing.LAYER_CALLS]


def test_tracer_restores_every_wrapped_name():
    before = _current()
    tracer = tracing.Tracer()
    with tracer.installed():
        inside = _current()
        assert all(a is not b for a, b in zip(before, inside))
        assert elliptic.cg is not before[2]
    assert all(a is b for a, b in zip(before, _current()))

    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(before, _current()))


def _short_op(op, steps):
    doc = dict(op.doc, params=dict(op.doc["params"], T=steps * op.doc["params"]["dt"]))
    return dataclasses.replace(op, doc=doc)


def _trajectory(op, tmp_path, stamped, tracer=None):
    cfg = parse_config_dict(W.op_config(op, str(tmp_path)))
    initial = cfg.make_initial_state()
    clock = W.StepClock(W.u_provider(cfg))
    if stamped:
        forcings = Forcings(cfg.grid, u=clock, v=cfg.raw["forcings"]["v"])
    else:
        forcings = cfg.make_forcings()
    with tracer.installed() if tracer else contextlib.nullcontext():
        traj = evolution.run(initial, cfg.model, cfg.params, forcings,
                             snapshot_stride=cfg.snapshot_stride)
    return traj, clock


@pytest.mark.parametrize("op", [_short_op(W.smooth_op(3), 60),
                                _short_op(W.grain_boundary_op(51, 6), 10)],
                         ids=["forced", "unforced"])
def test_stamped_and_traced_runs_are_bitwise_identical(op, tmp_path):
    plain, _ = _trajectory(op, tmp_path, stamped=False)
    stamped, clock = _trajectory(op, tmp_path, stamped=True)
    traced, _ = _trajectory(op, tmp_path, stamped=True, tracer=tracing.Tracer())
    assert len(clock.stamps) == len(plain.solve_reports)
    for other in (stamped, traced):
        assert len(other.snapshots) == len(plain.snapshots)
        for a, b in zip(plain.snapshots, other.snapshots):
            assert np.array_equal(a.eta, b.eta) and np.array_equal(a.theta, b.theta)
        assert [r["theta"].inner_iterations for r in other.solve_reports] == \
               [r["theta"].inner_iterations for r in plain.solve_reports]


def test_tracer_counts_the_solver_work(tmp_path, reference):
    tracer = tracing.Tracer()
    op = W.grain_boundary_op(51, 4)
    with tracer.installed():
        result = W.run_op(op, str(tmp_path), reference, tracer, output_writes=2)
    assert result.failure is None
    assert sum(s[0] == "grid.save_field" for s in tracer.spans) == 2 * 2 * 41
    c = tracer.counts
    assert c["theta.calls"] == c["eta.calls"] == result.steps == 40
    assert c["cg.calls"] == c["eta.calls"] + c["theta.newton_iterations"]  # no fallback
    assert c["cg.iterations"] == c["eta.cg_iterations"] + c["theta.cg_iterations"]
    assert c["grid.save_field.bytes"] > 0
    names = {s[0] for s in tracer.spans}
    assert {"evolution.run", "elliptic.theta_solve", "elliptic.cg", "grid.check_scalar",
            "grid.save_field", "config.parse"} <= names


# -- failure accounting and smoke ops --------------------------------------------------


def test_item4_op_is_drawn_for_every_seed():
    for seed in range(5):
        keys = [op.key for op in next(W.op_groups("grain-boundary", seed))]
        assert "grain-boundary:face=64:eps=2^-8" in keys


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_a_group_is_the_whole_pool_in_seed_order(workload):
    pool = sorted(op.key for op in W.workload_ops(workload))
    orders = set()
    for seed in range(5):
        stream = W.op_groups(workload, seed)
        keys = tuple(op.key for op in next(stream))
        assert sorted(keys) == pool
        assert keys == tuple(op.key for op in next(W.op_groups(workload, seed)))
        assert keys != tuple(op.key for op in next(stream))
        orders.add(keys)
    assert len(orders) == 5


def test_item4_op_is_reported_failed_not_skipped(tmp_path, reference):
    op = W.grain_boundary_op(W.GB_CENTER_FACE, 8)
    result = W.run_op(op, str(tmp_path), reference)
    assert result.failure is not None and "StepFailedError" in result.failure
    assert not result.wrong_output
    assert (result.steps, result.attempted_steps) == (0, 1)
    assert result.run_s > 0 and result.output_s is None

    (tmp_path / "b").mkdir()
    results = [result, W.run_op(W.grain_boundary_op(W.GB_CENTER_FACE, 4), str(tmp_path / "b"),
                                reference)]
    metrics = run.end_to_end_metrics(results + results[1:] * 9)
    assert metrics["ok_frac"][0] == pytest.approx(10 / 11)
    assert metrics["steps_per_s"][0] == pytest.approx(
        400 / (result.run_s + 10 * results[1].run_s))


@pytest.mark.parametrize("op", [W.smooth_op(2), W.grain_boundary_op(W.GB_CENTER_FACE, 10)],
                         ids=W.WORKLOADS)
def test_one_op_of_each_workload_passes_its_output_check(op, tmp_path, reference):
    result = W.run_op(op, str(tmp_path), reference)
    assert result.failure is None, result.failure
    assert len(result.step_s) == result.steps == round(op.doc["params"]["T"] / 1e-3)
    assert result.output_s > 0 and result.setup_s > 0


def test_output_check_rejects_a_wrong_final_field(tmp_path, reference):
    op = W.grain_boundary_op(51, 4)
    key = f"{op.key}:theta"
    tampered = {k: reference[k] for k in (f"{op.key}:eta", key)}
    tampered[key] = tampered[key] + 1e-4
    result = W.run_op(op, str(tmp_path), tampered)
    assert result.wrong_output and "theta differs from the reference" in result.failure


def _result(steps, failed):
    step_s = [0.01 + 1e-4 * i for i in range(steps)]
    return W.OpResult("op", steps, steps + failed, sum(step_s), step_s, 0.02,
                      None if failed else 0.1, "StepFailedError" if failed else None)


def test_mostly_failed_ops_still_give_every_metric():
    # Six of the first eight ops fail after two steps: their 92 step samples are
    # too few for a p90 of their own, but the run pools the samples of all ops.
    ops = [_result(2, True)] * 6 + [_result(40, False)] * 2 + [_result(40, False)] * 8
    metrics = run.end_to_end_metrics(ops)
    assert metrics["ok_frac"][0] == pytest.approx(1 - 6 / 16)
    samples = [1e3 * s for r in ops for s in r.step_s]
    assert metrics["step_ms_p90"][0] == pytest.approx(np.percentile(samples, 90))
    assert metrics["steps_per_s"][0] == pytest.approx(412 / sum(r.run_s for r in ops))
    with pytest.raises(ValueError):
        run.end_to_end_metrics([_result(2, True)] * 40)


def test_scale_multiplies_every_time_and_divides_the_rate():
    ops = [_result(40, False)] * 4
    plain, scaled = run.end_to_end_metrics(ops), run.end_to_end_metrics(ops, scale=0.8)
    for name in ("step_ms_p50", "step_ms_p90", "setup_s"):
        assert scaled[name][0] == pytest.approx(0.8 * plain[name][0])
    assert scaled["steps_per_s"][0] == pytest.approx(plain["steps_per_s"][0] / 0.8)
    assert scaled["ok_frac"] == plain["ok_frac"]


def test_calibration_scale_is_reference_over_measured_time_per_solve():
    cal = W.Calibration()
    cal.run(0.0)
    cal.run(0.02)
    assert cal.solves >= 2 and cal.seconds > 0
    assert cal.scale == pytest.approx(W.CALIBRATION_SOLVE_S * cal.solves / cal.seconds)


def test_main_prints_the_result_json_last(tmp_path, monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr("sys.stdout", out)
    # One short group, the c=0.5 ladder, in place of the whole pool.
    ladder = [W.grain_boundary_op(W.GB_CENTER_FACE, k) for k in W.GB_EPS_EXPONENTS]
    monkeypatch.setattr(W, "op_groups", lambda workload, seed: iter([ladder]))
    assert run.main(["--workload", "grain-boundary", "--seed", "1", "--seconds", "0",
                     "--trace", "0"]) == 0
    lines = out.getvalue().strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] == 4 and last["failed"] == 1
    assert "# failed op grain-boundary:face=64:eps=2^-8: StepFailedError" in "\n".join(lines)
    assert set(last["metrics"]) == {"steps_per_s", "step_ms_p50", "step_ms_p90", "setup_s",
                                    "ok_frac", "peak_rss_mb"}
