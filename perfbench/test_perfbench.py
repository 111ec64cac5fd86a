"""Self-tests of the benchmark, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ctqw  # noqa: E402
import ctqw.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _failures_with(workload, corrupt) -> tuple[int, list]:
    op = workload.op

    def corrupted(i):
        outcome = op(i)
        corrupt(outcome)
        return outcome

    workload.op = corrupted
    failures: list = []
    result = run.measure(workload, 0.05, failures)
    return result["attempted"], failures


def test_one_perturbed_probability_is_a_failed_op(tmp_path):
    def perturb(outcome):
        outcome[1].probabilities[3, 1] += 1e-6

    attempted, failures = _failures_with(workloads.WalkMix(5, str(tmp_path), tiny=True), perturb)
    assert attempted >= 1 and len(failures) == attempted
    assert "field gap" in failures[0]


def test_one_flipped_pixel_is_a_failed_op(tmp_path):
    wl = workloads.VerifySuite(5, str(tmp_path), tiny=True)

    def flip(outcome):
        if not isinstance(outcome[0], tuple):  # a verify op, not the round trip
            return
        lines = Path(wl.rendered).read_text().splitlines(keepends=True)
        body = [k for k, line in enumerate(lines) if not line.startswith("#")]
        row = body[3]  # after "P2", the size line and the max value
        first, rest = lines[row].split(" ", 1)
        lines[row] = f"{(int(first) + 1) % 256} {rest}"
        Path(wl.rendered).write_text("".join(lines))

    attempted, failures = _failures_with(wl, flip)
    assert attempted >= wl.cycle and len(failures) == attempted // wl.cycle
    assert all("PGM" in failure for failure in failures)


def test_tracer_wraps_every_binding_and_restores_them():
    original = ctqw.walk.run_walk
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ctqw.run_walk is ctqw.walk.run_walk is ctqw.cli.run_walk
        assert ctqw.walk.run_walk is not original
        tracer.begin_op()
        ctqw.run_walk(ctqw.ring_spec(6), 0.3, ctqw.CouplingSeries.exp(), 0,
                      ctqw.TimeGrid(0.0, 1.0, 3))
        tracer.end_op(False)
    finally:
        tracer.uninstall()
    assert ctqw.run_walk is ctqw.walk.run_walk is ctqw.cli.run_walk is original
    assert isinstance(vars(ctqw.CouplingSeries)["exp"], classmethod)
    names = {span.name for span in tracer.spans}
    assert {"bench.op", "walk.run_walk", "spectral.circulant_amplitudes",
            "walk.TimeGrid.times"} <= names
    assert not any(name.startswith("closed_forms.") for name in names)
    self_s = tracer.self_times()
    assert all(s >= 0.0 for s in self_s)
    assert sum(self_s) <= tracer.spans[0].duration + 1e-9
