"""Tests of the benchmark itself. From the repository root:

    python3 -m pytest -q perfbench

They run one untraced and two traced passes of every workload, plus five
short runs of ``run.py`` as a subprocess (about a minute in all).
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import rtune  # noqa: E402
import rtune.cli  # noqa: E402
import rtune.replay  # noqa: E402
import rtune.tuner  # noqa: E402
import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The workload on which each layer is predicted to matter.
LAYER_WORKLOAD = {
    "replay": "tune_paper",
    "wavelet": "tune_paper",
    "forecaster": "desk_arms",
    "tuner": "desk_arms",
    "benchmark": "desk_arms",
    "metrics": "desk_arms",
    "data": "sweep_csv",
    "cli": "sweep_csv",
}


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """Per workload: one untraced pass, then two traced passes."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(0, tmp_path_factory.mktemp(name))
        workload.build()
        calibrator = calibration.Calibrator()
        tracer = tracing.Tracer()
        out[name] = [run.run_pass(workload, calibrator, None),
                     run.run_pass(workload, calibrator, tracer),
                     run.run_pass(workload, calibrator, tracer)]
    return out


def test_install_patches_every_binding():
    original = rtune.replay.build_replay_set
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unpatched_bindings() == []
        # bound by `from .replay import build_replay_set` in rtune.tuner
        assert rtune.tuner.build_replay_set.__wrapped__ is original
        assert rtune.cli.prepare_benchmark.__wrapped__ is rtune.benchmark.prepare_benchmark.__wrapped__
        assert hasattr(rtune.cli, "open")
    finally:
        tracer.uninstall()
    assert rtune.tuner.build_replay_set is original
    assert rtune.replay.build_replay_set is original
    assert not hasattr(rtune.cli, "open")
    assert not hasattr(rtune.Forecaster.forward, "__wrapped__")


@pytest.mark.parametrize("layer", sorted(LAYER_WORKLOAD))
def test_layer_records_calls_on_its_workload(passes, layer):
    spans = passes[LAYER_WORKLOAD[layer]][1]["spans"]
    calls = Counter(name.split(".", 1)[0] for _, _, name, _, _, _ in spans)
    assert calls[layer] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_keeps_results(passes, name):
    plain, traced, again = passes[name]
    for p in (plain, traced, again):
        assert p["failures"] == [] and p["failed"] == 0
    digests = [[o.digest for o in p["outcomes"]] for p in (plain, traced, again)]
    assert digests[0] == digests[1] == digests[2]
    quality = [[o.quality for o in p["outcomes"]] for p in (plain, traced, again)]
    assert quality[0] == quality[1] == quality[2]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_between_traced_passes(passes, name):
    first, second = passes[name][1]["layers"], passes[name][2]["layers"]
    counts = {k for k in first if run._unit(k) != "s"}
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_criterion_6_holds_on_default_seed_and_detects_a_break(passes):
    tables = [o.detail for o in passes["desk_arms"][0]["outcomes"]]
    assert workloads.criterion_6(tables) == ""
    broken = [dict(t, **{"r-tuning": dict(t["r-tuning"], old_mae=99.0)})
              for t in tables]
    assert "retention" in workloads.criterion_6(broken)


def test_sweep_inputs_read_back_exactly(tmp_path):
    workload = workloads.SweepCsv(0, tmp_path)
    workload.build()
    old, new, _ = rtune.gen_benchmark_tasks(0)
    for name, series in (("old", old), ("new", new)):
        parsed = rtune.read_series_csv(tmp_path / "inputs" / f"{name}.csv")
        assert [s.name for s in parsed] == [name]
        assert parsed[0].values.tobytes() == series.values.tobytes()


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_csv",
         "--seed", "0", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(trace):
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_spec(trace, section):
    result = _result(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected


def test_counts_and_quality_repeat_between_traced_runs():
    first, second = _result("1")["metrics"], _result("1")["metrics"]
    exact = {k for k, v in first.items() if v["unit"] != "s"}
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = _run(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
