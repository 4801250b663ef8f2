"""Smoke-size runs of every workload, check, and the traced run.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as cli
from perfbench.probe import HOST_LAYERS, Probe
from perfbench.workloads import SPECS, run_rep

ROOT = Path(__file__).resolve().parent.parent
SMOKE = 0.05
SEED = 5


def smoke(name: str):
    return SPECS[name].scaled(SMOKE)


@pytest.fixture(scope="module")
def traced():
    """One untraced and one traced smoke run per workload."""
    out = {}
    for name in SPECS:
        base = run_rep(smoke(name), SEED)
        probe = Probe()
        rep = run_rep(smoke(name), SEED, probe=probe, check=False)
        out[name] = (base, rep, probe)
    return out


@pytest.mark.parametrize("name", sorted(SPECS))
def test_smoke_run_passes_every_check(name, traced):
    base, _rep, _probe = traced[name]
    assert base.violations == []
    assert base.failed == 0 and base.attempted == smoke(name).ops
    for key in ("sim_throughput_ops_s", "converge_ms", "read_p50_ms",
                "write_p50_ms"):
        assert base.sim[key] > 0, key


@pytest.mark.parametrize("name", sorted(SPECS))
def test_same_seed_gives_identical_simulated_metrics(name, traced):
    base, rep, _probe = traced[name]
    again = run_rep(smoke(name), SEED, check=False)
    assert json.dumps(again.sim, sort_keys=True) == json.dumps(
        base.sim, sort_keys=True)
    # The probe observes without perturbing.
    assert rep.sim == base.sim


def _counts(metrics):
    return {k: v for k, v in metrics.items() if not k.startswith("host.")}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_per_layer_counts_are_deterministic(name, traced):
    _base, _rep, probe = traced[name]
    again = Probe()
    run_rep(smoke(name), SEED, probe=again, check=False)
    assert _counts(again.metrics) == _counts(probe.metrics)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_traced_run_emits_every_layer_metric(name, traced):
    _base, _rep, probe = traced[name]
    listed = set(cli.listed("per_layer"))
    computed = set(probe.metrics) | {"host.profiled_s",
                                     "trace.overhead_ratio"}
    assert computed == listed
    shares = sum(probe.metrics[f"host.{layer}.self_share"]
                 for layer in HOST_LAYERS)
    assert math.isclose(shares, 1.0, rel_tol=1e-9)
    assert probe.profiled_s > 0
    spans = probe.spans
    assert spans and all(span[3] is not None for span in spans)
    ops = {span[5] for span in spans if span[1].startswith("ClientHandle.")}
    assert len(ops) >= smoke(name).ops - smoke(name).clients


def test_layer_counts_confirm_the_workload_split(traced):
    metrics = {name: traced[name][2].metrics for name in SPECS}
    only_hot = ("skew.fold_ratio", "cache.hit_ratio",
                "freshness.escalation_ratio", "repair.rows_scanned")
    for key in only_hot:
        assert metrics["hot_lossy"][key] > 0, key
        assert metrics["read_mostly"][key] == 0, key
        assert metrics["write_churn"][key] == 0, key
    assert (metrics["write_churn"]["sim.events_per_op"]
            > 3 * metrics["read_mostly"]["sim.events_per_op"])


def _without_view_rows(monkeypatch, attr):
    """Make every view read of ``ViewManager.<attr>`` return no rows."""
    from repro.views.manager import ViewManager

    original = getattr(ViewManager, attr)

    def emptied(self, *args, **kwargs):
        result = yield from original(self, *args, **kwargs)
        if attr == "view_get":
            return []
        return dataclasses.replace(result, results=())

    monkeypatch.setattr(ViewManager, attr, emptied)


def test_session_check_catches_a_missed_own_write(monkeypatch):
    _without_view_rows(monkeypatch, "view_get")
    rep = run_rep(smoke("write_churn"), SEED, check=False)
    assert any("session read" in v for v in rep.violations)


def test_bounded_read_audit_catches_missing_rows(monkeypatch):
    _without_view_rows(monkeypatch, "view_get_fresh")
    rep = run_rep(smoke("hot_lossy"), SEED)
    assert any("bounded-read audit" in v for v in rep.violations)


def test_divergence_check_catches_a_lost_view_row(monkeypatch):
    from repro.views.manager import ViewManager

    # Drop every propagation: the base moves, the view never follows.
    def lost(self, outbox, record):
        record.resolve()
        outbox.done(record)
        outbox.backpressure.release()
        return
        yield

    monkeypatch.setattr(ViewManager, "_process_record", lost)
    rep = run_rep(smoke("read_mostly"), SEED)
    assert any("divergent" in v for v in rep.violations)


def _cli(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _main(monkeypatch, capsys, factor, trace, spans_dir):
    """``run.main`` on hot_lossy scaled by ``factor``: (code, last line)."""
    monkeypatch.setitem(SPECS, "hot_lossy", SPECS["hot_lossy"].scaled(factor))
    code = cli.main(["--workload", "hot_lossy", "--seed", "3", "--seconds",
                     "0", "--trace", trace, "--spans-dir", str(spans_dir)])
    out, err = capsys.readouterr()
    return code, json.loads(out.strip().splitlines()[-1]), err


@pytest.mark.parametrize("trace, factor", [("0", 0.25), ("1", SMOKE)])
def test_command_prints_one_json_result(trace, factor, monkeypatch, capsys,
                                        tmp_path):
    code, result, err = _main(monkeypatch, capsys, factor, trace, tmp_path)
    assert code == 0, err
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    units = cli.listed("end_to_end" if trace == "0" else "per_layer")
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == units
    if trace == "1":
        assert list(tmp_path.glob("spans-hot_lossy-seed3.jsonl.gz"))


def test_command_fails_when_a_percentile_lacks_samples(monkeypatch, capsys,
                                                       tmp_path):
    code, result, err = _main(monkeypatch, capsys, SMOKE, "0", tmp_path)
    assert code == 1 and "too few samples" in err
    assert result["correct"] is False and result["metrics"] == {}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _cli(["--workload", "read_mostly", "--seed", "1", "--seconds",
                 "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_the_workloads():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(SPECS)
