"""Tests of the benchmark itself: span hooks, the tail rule, and a smoke run
of every workload that must emit every metric named in BENCHMARK.json."""

import importlib.util
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


run = _load_run()
import reference  # noqa: E402  (importable once run.py has put its directory on sys.path)
import spans  # noqa: E402


@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake_target")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    mod.leaf, mod.outer = leaf, outer
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_recorder_spans_self_time_and_restore(fake_module):
    originals = (fake_module.leaf, fake_module.outer)
    rec = run.SpanRecorder([
        run.Hook("perfbench_fake_target.outer", "fake.outer"),
        run.Hook("perfbench_fake_target.leaf", "fake.leaf"),
        run.Hook("perfbench_fake_target.gone", "fake.gone"),
        run.Hook("perfbench_no_such_module.f", "fake.nomod"),
    ])
    rec.install()
    assert rec.status == {
        "perfbench_fake_target.outer": "wrapped",
        "perfbench_fake_target.leaf": "wrapped",
        "perfbench_fake_target.gone": "absent",
        "perfbench_no_such_module.f": "absent",
    }
    assert fake_module.outer(1) == 4  # outside a request: passes through
    assert rec.spans == []
    with rec.request(7):
        assert fake_module.outer(1) == 4
    rec.restore()
    assert (fake_module.leaf, fake_module.outer) == originals

    by_name = {s[3]: s for s in rec.spans}
    assert set(by_name) == {"fake.leaf", "fake.outer", spans.REQUEST_SPAN}
    root, outer, leaf = by_name[spans.REQUEST_SPAN], by_name["fake.outer"], by_name["fake.leaf"]
    assert root[1] is None and outer[1] == root[0] and leaf[1] == outer[0]
    assert all(s[2] == 7 for s in rec.spans)
    assert outer[6] == pytest.approx((outer[5] - outer[4]) - (leaf[5] - leaf[4]))
    totals = rec.totals([7])
    assert totals["fake.leaf"][0] == 1 and totals["fake.outer"][0] == 1
    assert rec.totals([8]) == {}


def test_every_hook_is_restored_on_the_real_modules():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        importlib.import_module("relaxtik.cli")
    finally:
        sys.path.remove(str(ROOT / "src"))

    def current():
        out = {}
        for hook in run.HOOKS:
            module_name, _, attr = hook.target.rpartition(".")
            out[hook.target] = getattr(sys.modules.get(module_name), attr, None)
        return out

    before = current()
    rec = run.SpanRecorder(run.HOOKS)
    rec.install()
    assert set(rec.status.values()) <= {"wrapped", "absent"}
    wrapped = [t for t, s in rec.status.items() if s == "wrapped"]
    assert wrapped and all(current()[t] is not before[t] for t in wrapped)
    rec.restore()
    after = current()
    assert all(after[t] is before[t] for t in before)


def test_speed_probe_scales_by_the_kernel_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    probe = reference.SpeedProbe()
    with probe.time() as t:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Samples from the handler during the body, plus the bursts around it.
    assert len(probe.times) > 2 * reference.BURST
    assert 0.1 < t.wall < 0.2  # the handler's time is taken off
    assert t.scaled == pytest.approx(
        t.wall * reference.REF_NOMINAL_S / statistics.fmean(probe.times))


def test_tail_is_highest_percentile_with_ten_beyond():
    value, label = run.tail([float(i) for i in range(25)])
    assert value == 14.0 and label == "p60.0"
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(tmp_path, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())

    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    env = record["environment"]
    assert {"nproc", "python", "numpy", "blas", "thread_env", "git_commit"} <= set(env)
    assert env["seed"] == 3
    if trace:
        assert (tmp_path / f"{workload}-seed3-spans.csv").is_file()
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("work-")]


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH_DIR.name / RUN.name),
         "--workload", SPEC["workloads"][0]["name"], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
