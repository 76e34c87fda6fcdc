"""Tests for the benchmark itself (not collected by the tier-1 run).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Workloads are shrunk (fewer and smaller files, one set-up, short
windows) so each run takes seconds; the daemon child still builds its
full-size deployment, because it is its own process.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import procstat  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "WARMUP_S", 0.2)
    monkeypatch.setattr(workloads, "FLEET_FILES", 6)
    monkeypatch.setattr(workloads, "OUTSOURCE_SIZES", (2048, 6144))
    monkeypatch.setattr(workloads, "OUTSOURCE_WARM_BYTES", 512)


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7",
                     "--seconds", "1", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    declared = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in last["metrics"].items()
    }
    for name, metric in last["metrics"].items():
        assert NAME.fullmatch(name)
        assert isinstance(metric["value"], float)
        # every metric is also printed by name, with its unit
        assert any(line.split()[:1] == [name] and metric["unit"] in line
                   for line in lines)
    if not trace:
        assert all(m["value"] > 0 for m in last["metrics"].values())


def test_benchmark_json_names_match_harness():
    data = spec()
    # audit-open stays runnable but is not in BENCHMARK.json (README.md).
    assert [w["name"] for w in data["workloads"]] == [
        name for name in run.WORKLOADS if name != "audit-open"]
    assert {m["name"]: m["unit"] for m in data["end_to_end"]} == \
        harness.END_TO_END
    assert {m["name"]: m["unit"] for m in data["per_layer"]} == \
        harness.PER_LAYER


def test_planted_wrong_ground_truth_fails_the_run(tiny, monkeypatch):
    honest_truth = workloads.audit_truth

    def planted(workload):
        truth = honest_truth(workload)
        truth[workloads.audit_file_ids()[0]] = workloads.ROTTED
        return truth

    # Only the load generator's copy of the truth is wrong: the daemon
    # child serves the honest file, so its verdicts must be flagged.
    monkeypatch.setattr(workloads, "audit_truth", planted)
    result = harness.run("audit-sla", 3, 0.25, False)
    assert result.failed > 0
    assert result.extra["failed_share"].value > 0
    assert not result.correct


def test_verdict_check_rejects_partial_mac_detection():
    from repro.core.verification import GeoProofVerdict

    rotted = GeoProofVerdict(
        accepted=False, signature_ok=True, position_ok=True, macs_ok=False,
        timing_ok=True, challenge_ok=True, max_rtt_ms=1.0, rtt_max_ms=2.0,
        bad_mac_indices=(3, 9),
    )
    assert workloads.verdict_matches(workloads.ROTTED, 2, rotted)
    assert not workloads.verdict_matches(workloads.ROTTED, 3, rotted)
    assert not workloads.verdict_matches(workloads.HONEST, 2, rotted)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    # root [0, 10]: a [1, 4] (with leaf b [2, 3]), c [5, 9]
    tracer.enter("root")
    clock.now = 1.0
    tracer.enter("a")
    clock.now = 2.0
    tracer.enter("b", keep=False)
    clock.now = 3.0
    tracer.exit()
    clock.now = 4.0
    tracer.exit()
    clock.now = 5.0
    tracer.enter("c")
    clock.now = 9.0
    tracer.exit()
    clock.now = 10.0
    tracer.exit()
    # a second root [12, 13] of the same layer as a child
    clock.now = 12.0
    tracer.enter("c")
    clock.now = 13.0
    tracer.exit()

    layers = tracer.summary(wall_s=14.0)["layers"]
    assert layers["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0,
                              "items": 0}
    assert layers["a"]["self_s"] == 2.0
    assert layers["b"]["self_s"] == 1.0
    assert layers["c"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0,
                           "items": 0}
    assert tracer.root_s == 11.0
    assert sum(t["self_s"] for t in layers.values()) == tracer.root_s
    # kept spans: root, a, c, c -- b is aggregated only
    kept = [span for span in tracer.spans]
    assert [s[0] for s in kept] == ["root", "a", "c", "c"]
    assert [s[4] for s in kept] == [-1, 0, 0, -1]  # parent span ids
    metrics = tracing.layer_metrics(tracer.summary(wall_s=14.0))
    assert metrics["trace.unattributed_share"] == pytest.approx(3.0 / 14.0)


def test_wrappers_restore_the_originals():
    from repro.cloud.verifier import VerifierDevice

    original = VerifierDevice.__dict__["run_audits"]
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    assert VerifierDevice.__dict__["run_audits"] is not original
    installed.remove()
    assert VerifierDevice.__dict__["run_audits"] is original


def test_setup_probe_times_one_set_up_in_its_own_process():
    (setup_s,) = harness._probe_setups("outsource-bulk", 1, 1.0, 1)
    assert isinstance(setup_s, float) and setup_s > 0


@pytest.mark.skipif(not Path("/proc/self/clear_refs").exists(),
                    reason="needs Linux /proc")
def test_rss_peak_resets_to_the_current_footprint():
    ballast = bytearray(64 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])  # touch every page
    peak_mb = procstat.rss_peak_mb()
    del ballast
    procstat.reset_rss_peak()
    assert procstat.rss_peak_mb() < peak_mb - 32


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit-sla",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
