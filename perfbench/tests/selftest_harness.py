"""The tracer's bookkeeping, and the harness end to end on a tiny workload."""

from benchutil import tiny_config, tiny_runner

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

import run
import spans
from workloads import Workload


def test_union_and_self_time_count_overlapping_children_once():
    assert spans.union_ns([(0, 4), (2, 6), (8, 9), (20, 30)], 1, 25) == 5 + 1 + 5
    parent = spans.Span(0, "p", 0, 100, None, 1)
    kids = [spans.Span(1, "c", 10, 50, 0, 2), spans.Span(2, "c", 30, 60, 0, 3),
            spans.Span(3, "g", 12, 20, 1, 2)]
    assert spans.self_ns([parent, *kids]) == {0: 50, 1: 32, 2: 30, 3: 8}


def test_tracer_restores_the_original_and_parents_pool_threads():
    ns = SimpleNamespace(inner=lambda x: x + 1)

    def outer(xs):
        with ThreadPoolExecutor(2) as pool:
            return list(pool.map(ns.inner, xs))

    ns.outer = outer
    orig = ns.inner
    tr = spans.Tracer()
    tr.wrap(ns, "outer", "outer")
    tr.wrap(ns, "inner", "inner", lambda a, out: out)
    with tr:
        assert ns.outer([1, 2, 3]) == [2, 3, 4]
    assert ns.inner is orig
    top = next(s for s in tr.spans if s.name == "outer")
    inner = [s for s in tr.spans if s.name == "inner"]
    assert len(inner) == 3 and all(s.parent == top.sid for s in inner)
    assert sorted(s.value for s in inner) == [2, 3, 4]
    assert {s.tid for s in inner} != {threading.get_ident()}


def _tiny(learns=True, **kw):
    return Workload("tiny", lambda seed: tiny_config(seed, **kw), 1.0, learns)


@pytest.mark.parametrize("kw", [dict(algorithm="fedtt_plus", workers=2),
                                dict(algorithm="fedtt", dp=True)])
def test_traced_run_passes_every_check_and_matches_the_untraced_bytes(tmp_path, kw):
    # As on dp_cross_device, DP noise swamps the signal, so no learning check.
    metrics, problems, attempted, _ = run.run_traced(_tiny(learns="dp" not in kw, **kw), 3,
                                                  3.0, tmp_path)
    assert problems == []
    assert attempted == 2 * 3 * 3  # two runners, 1 + round(3.0 / 2) rounds, three clients
    assert metrics["fed.local_update.calls"][0] == 3
    assert metrics["fed.aggregate.drift"][0] > 0
    assert metrics["checkpoint.save_checkpoint.bytes"][0] > 0
    if kw.get("dp"):
        assert metrics["privacy.clip.calls"][0] == 3 * 2 * 8
    assert (metrics["privacy.dp_batch_gradient.ms"][0] > 0) == bool(kw.get("dp"))


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    metrics, problems, attempted, _ = run.run_untraced(_tiny(), 3, 2.0, tmp_path)
    assert problems == []
    assert attempted == 3 * 3
    assert set(metrics) == {"setup_s", "round_ms", "train_samples_per_s", "peak_rss_mb",
                            "uplink_kb_per_round"}
    assert all(v > 0 for v, _ in metrics.values())


def test_traced_run_flags_tracing_that_changes_the_output(tmp_path, monkeypatch):
    # Render each runner's metrics differently, as a tracer that moved a
    # float would.
    monkeypatch.setattr(run, "metrics_csv", lambda ms: str(id(ms)))
    _, problems, _, _ = run.run_traced(_tiny(), 3, 2.0, tmp_path)
    assert problems == ["traced metrics.csv differs from the untraced run's"]


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "dp_cross_device", "--seed", "1", "--seconds", "1"]) != 0
    assert "correct" not in capsys.readouterr().out


def test_result_line_is_the_contract_json(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    import workloads
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _tiny())
    assert run.main(["--workload", "tiny", "--seed", "2", "--seconds", "2"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["metrics"]["round_ms"]["unit"] == "ms"


def test_calibration_scales_round_times_by_the_host_speed(tmp_path):
    import calib

    assert calib.Calibration(8).batch == 1 and calib.Calibration(30).batch == 32
    cal = calib.Calibration(16)
    assert cal.pass_s(2) > 0

    class HalfSpeedHost:
        ref_s = cal.ref_s

        def pass_s(self, passes):
            return 2 * cal.ref_s

    r = run.Run(tiny_runner(), True, HalfSpeedHost(), 1)
    for t in range(3):
        r.step(timed=t > 0)
    assert r.scaled == [dt / 2 for dt in r.times]
