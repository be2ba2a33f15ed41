"""Self-test of the benchmark: wrong results count as failures, tracing leaves
no wrapper behind, and the metric lists match BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
from hele_homog import homog1d  # noqa: E402
from hele_homog.medium import builtin_medium, estimate_bounds  # noqa: E402


def test_benchmark_json_matches_the_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(jobs.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == tr.PER_LAYER
    assert doc["paths"] == [BENCH.name]


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_the_seed_draws_parameters_but_never_sizes(name, tmp_path):
    a = jobs.build(name, 5, tmp_path)
    b = jobs.build(name, 5, tmp_path)
    c = jobs.build(name, 6, tmp_path)
    assert a.params == b.params
    assert [j.name for j in a.jobs] == [j.name for j in c.jobs]
    if a.params:
        assert a.params != c.params


def _curve_checks(name, shift):
    g = builtin_medium(name)
    curve = homog1d.velocity_curve(g, 0.5, 1.0, 6, T=jobs.CURVE_T)
    b = estimate_bounds(g, resolution=256)
    slope = homog1d.harmonic_mean_oracle(g, 1.0) if name == "static_sin" else None
    return jobs.curve_checks(name, curve.q, curve.r_hat + shift, curve.T, b.m, b.M, slope)


@pytest.mark.parametrize("name", ["pinning", "static_sin"])
def test_r_hat_shifted_by_two_over_T_fails(name):
    assert all(c.ok for c in _curve_checks(name, 0.0))
    assert not all(c.ok for c in _curve_checks(name, 2.0 / jobs.CURVE_T))


def test_cli_exit_code_2_is_a_failed_job(tmp_path):
    out = tmp_path / "barrier.json"
    # the medium exceeds the fast bound M, so the superbarrier check fails
    job = jobs.cli_job("barrier", ["barrier", "verify", "--kind", "superbarrier",
                                   "--M", "0.5", "--t", "-0.1", "--samples", "8",
                                   "--medium", "1", "--dim", "2", "--out", str(out)],
                       {"out": out}, lambda o: [])
    assert job.run().rc == 2
    result = worker.run_pass(jobs.Workload("w", [job], {}))
    assert (result.attempted, result.failed) == (1, 1)


def test_a_raising_job_is_a_failed_job():
    def boom():
        raise RuntimeError("boom")

    result = worker.run_pass(jobs.Workload("w", [jobs.Job("boom", boom, list)], {}))
    assert (result.attempted, result.failed) == (1, 1)


def _fronts(heights):
    t = np.array([0.0, 0.5])
    y = np.arange(4) / 4.0
    h = np.asarray(heights, dtype=float)
    return np.stack([np.broadcast_to(t[:, None], h.shape),
                     np.broadcast_to(y, h.shape), h], axis=-1)


def test_front_outside_the_comparison_bounds_fails():
    m, M = 1.0, 2.5
    inside = _fronts([[1.0] * 4, [1.6, 1.7, 1.8, 1.9]])
    (ok,) = jobs.comparison_checks(inside, 1.0, 1.0, m, M)
    assert ok.ok and 0 < ok.ratio < 1
    hi = np.sqrt(1.0 + 2.0 * M * 0.5)
    outside = _fronts([[1.0] * 4, [1.6, 1.7, 1.8, 1.03 * hi]])
    (bad,) = jobs.comparison_checks(outside, 1.0, 1.0, m, M)
    assert not bad.ok and bad.ratio > 1
    slow = _fronts([[1.0] * 4, [0.97, 1.7, 1.8, 1.9]])
    assert not jobs.comparison_checks(slow, 1.0, 1.0, m, M)[0].ok


def _bindings():
    return {(name, key): value for name, module in sys.modules.items()
            if name == "hele_homog" or name.startswith("hele_homog.")
            for key, value in vars(module).items() if callable(value)}


def test_traced_pass_accounts_time_and_leaves_no_wrapper(tmp_path):
    front, summary, barrier = (tmp_path / n for n in ("f.csv", "s.json", "b.json"))
    work = jobs.Workload("tiny", [
        jobs.cli_job("sim", ["sim2d", "run", "--medium", "1", "--nx", "16", "--ny", "8",
                             "--T", "0.05", "--out", str(front),
                             "--summary", str(summary)],
                     {"out": front, "summary": summary}, lambda o: [], ny=8),
        jobs.cli_job("barrier", ["barrier", "verify", "--kind", "superbarrier",
                                 "--M", "1.2", "--t", "-0.1", "--samples", "8",
                                 "--medium", "1", "--dim", "2", "--out", str(barrier)],
                     {"out": barrier}, lambda o: []),
    ], {})
    before = _bindings()
    t = tr.Tracer()
    t.install()
    try:
        result = worker.run_pass(work, t, tag="p:")
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert result.failed == 0

    # calls made inside the package are caught: the CLI handlers call simulate,
    # the barrier field solves its radius through contracting_radius
    names = {s.name for s in t.spans}
    assert {"cli.main", "hs2d.simulate", "medium.eval_scaled",
            "barriers.check_superbarrier", "barriers.contracting_radius"} <= names
    own = tr.self_times(t.spans)
    for root in (s for s in t.spans if s.name == "job"):
        total = sum(own[id(s)] for s in t.spans if s.job == root.job)
        assert total == pytest.approx(root.end - root.start, abs=1e-9)
    m = tr.span_metrics(t.spans)
    assert m["hs2d.unknowns"] == 15 * 8
    sim_evals = [s for s in t.spans if s.name == "medium.eval_scaled" and s.job == "p:sim"]
    assert m["hs2d.steps"] == len(sim_evals) > 0
    assert m["cli.main.calls"] == 2
    assert result.fronts == m["hs2d.steps"] + 1 and result.curved_fronts == 0

    # the next untraced pass records nothing
    count = len(t.spans)
    worker.run_pass(work)
    assert len(t.spans) == count


def test_job_times_are_rescaled_by_the_reference_kernel():
    class TwiceAsFast:
        def sample(self, budget_s=0.0):
            return worker.REF_S / 2.0, worker.REF_S / 2.0

    def wait():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.01:
            pass

    work = jobs.Workload("w", [jobs.Job(str(i), wait, list) for i in range(2)], {})
    result = worker.run_pass(work, host=TwiceAsFast())
    assert result.norm_wall_s == pytest.approx(2.0 * result.wall_s)
    assert result.norm_cpu_s == pytest.approx(2.0 * result.cpu_s)
    assert worker.run_pass(work).norm_wall_s is None
