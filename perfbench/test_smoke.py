"""Smoke test of the benchmark itself, at the tiny scale.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import loadgen  # noqa: E402
import metrics  # noqa: E402
import session  # noqa: E402
import workloads  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(trace):
    proc = _run("--workload", "all", "--seed", "5", "--seconds", "0", "--scale", "tiny",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = metrics.PER_LAYER if trace else [(n, u) for n, u, _, _ in metrics.END_TO_END]
    for w in workloads.NAMES:
        for name, unit in names:
            assert result["metrics"]["%s.%s" % (w, name)]["unit"] == unit
    text = "\n".join(lines[:-1])
    assert "PROBLEM" not in text
    for name, unit, _, _ in metrics.END_TO_END + [("draw_fail_rate", "ratio", 0, 0)]:
        assert text.count(" %s " % name) == len(workloads.NAMES)
        assert any(line.split()[0] == name and line.split()[2] == unit
                   for line in lines if len(line.split()) > 2)


class _Stub:
    """A sampler whose draws the check must reject (or accept, for FAIL)."""

    R = 1

    def __init__(self, es, draw):
        self.es = es
        self._draw = draw

    def process(self, updates):
        pass

    def draw(self):
        return self._draw(self.es)


def _raise(es):
    raise RuntimeError("stub")


@pytest.mark.parametrize("draw, failed_per_draw", [
    (lambda es: es.SampleResult.of(10 ** 9), 1),  # index outside the support
    (lambda es: es.SampleResult.of(1, frequency=-1), 1),  # wrong frequency
    (lambda es: es.SampleResult.bottom(), 1),  # BOTTOM on a nonempty stream
    (lambda es: es.SampleResult.fail(), 0),  # FAIL is a legal outcome
])
def test_stub_sampler_outputs_are_checked(draw, failed_per_draw):
    es, _ = session.import_program()
    wl = workloads.make("draw-wide", 1, "tiny")
    m = len(wl.entries)
    wl.specs = [workloads.Spec("stub", lambda es_, s: _Stub(es_, draw), m)]
    updates = [es.Update(c, time=t) for t, (c, _) in enumerate(wl.entries, 1)]
    out = session.replay(es, wl, updates, 1)
    assert out["attempted"] == 1 + 2 * wl.chunks  # constructor, chunks, draws
    assert out["failed"] == failed_per_draw * wl.chunks


def test_raising_draw_is_a_failed_operation():
    es, _ = session.import_program()
    wl = workloads.make("draw-wide", 1, "tiny")
    wl.specs = [workloads.Spec("stub", lambda es_, s: _Stub(es_, _raise), len(wl.entries))]
    updates = [es.Update(c, time=t) for t, (c, _) in enumerate(wl.entries, 1)]
    out = session.replay(es, wl, updates, 1)
    assert out["failed"] == 1  # the sampler is not called again after it raised


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_draws_equal_untraced(workload):
    records = []
    for trace in (0, 1):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "session.py"),
                               "--workload", workload, "--seed", "7", "--scale", "tiny",
                               "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["failed"] == 0, out["failures"]
        records.append(out["record"])
    assert records[0] == records[1]
    assert any(outcome == "index" for _, _, outcome, _ in records[0])


def test_streams_depend_only_on_seed():
    for name in workloads.NAMES:
        a = workloads.make(name, 11, "tiny").entries
        assert a == workloads.make(name, 11, "tiny").entries
        assert a != workloads.make(name, 12, "tiny").entries
    assert loadgen.derived_seed(3, "x") == loadgen.derived_seed(3, "x")


def test_host_speed_kernel_triggers_no_collection():
    collections = []

    def count(phase, info):
        collections.append(phase)

    hostspeed.reference()  # the first run may allocate while it warms up
    threshold = gc.get_threshold()
    gc.set_threshold(1)  # any tracked allocation would now start a collection
    gc.callbacks.append(count)
    try:
        hostspeed.reference()
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    assert collections == []


def test_benchmark_json_matches_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e, layers = metrics.benchmark_entries()
    assert bench["end_to_end"] == e2e
    assert bench["per_layer"] == layers
    assert bench["workloads"] == [{"name": n, "why": workloads.WHY[n]} for n in workloads.NAMES]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "insert-zipf", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
