"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

Most tests drive the first few ops of each workload in-process; one runs the
command end to end on the cheapest workload, and one checks that the command
fails without the package.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

_, pfdamp = run.import_package()

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
#: ops per workload in the in-process tests (a prefix of each cycle)
SMALL_OPS = {"cli_mix": 8, "propagate": 12, "sweep_small": 6}


class Prefix:
    """A workload cut down to the first ``k`` ops of its cycle."""

    min_cycles = trace_cycles = 1

    def __init__(self, name: str, seed: int, workdir: str):
        self.wl = workloads.WORKLOADS[name](seed, workdir)
        self.name = name
        self.period = SMALL_OPS[name]

    def setup(self):
        self.wl.setup()

    def op(self, i):
        return self.wl.op(i)


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    return tmp_path


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_benchmark_json_names_the_traced_layers():
    assert _units(BENCH["per_layer"]) == spans.per_layer_units(spans.load_layers())
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(name, out_dir):
    wl = Prefix(name, 3, str(out_dir / "work"))
    metrics, tally, _ = run.run_untraced(wl, workloads, 0.0, 0.0, run.HostSpeed(np))
    assert {k: u for k, (_, u) in metrics.items()} == _units(BENCH["end_to_end"])
    assert all(v > 0 for v, _ in metrics.values())
    assert tally.attempted == SMALL_OPS[name]

    metrics, _, _ = run.run_traced(Prefix(name, 3, str(out_dir / "work")), workloads, pfdamp, spans, 3)
    assert {k: u for k, (_, u) in metrics.items()} == _units(BENCH["per_layer"])
    assert (out_dir / f"spans-{name}-seed3.csv").exists()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_call_counts_repeat_on_one_seed(name, out_dir):
    def counts():
        wl = Prefix(name, 5, str(out_dir / "work"))
        metrics, _, _ = run.run_traced(wl, workloads, pfdamp, spans, 5)
        return {k: v for k, (v, _) in metrics.items() if k.endswith(".calls")}

    first = counts()
    assert first == counts()
    assert sum(first.values()) > 0
    if name != "cli_mix":
        assert first["matfile.read_matrix.calls"] == 0
    if name == "sweep_small":
        assert first["linalg.expm.calls"] == 0


def _first_op(wl, kind: str):
    for i in range(wl.period):
        op = wl.op(i)
        if op.kind == kind:
            return op
    raise LookupError(kind)


def _bump_csv_value(text: str, row: int, col: int, factor: float) -> str:
    lines = text.splitlines()
    data = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][1:]
    cells = lines[data[row]].split(", ")
    cells[col] = repr(float(cells[col]) * factor)
    lines[data[row]] = ", ".join(cells)
    return "\n".join(lines) + "\n"


def _cli_corruptions():
    def evolve(r):
        r.stdout = _bump_csv_value(r.stdout, 10, 1, 1.01)

    def observe(r):
        r.stdout = _bump_csv_value(r.stdout, 10, 1, 1.01)

    def report(r):
        r.stdout = r.stdout.replace("damped: true", "damped: false")

    def verify(r):
        r.code = 1
        r.stdout = r.stdout.replace("result: PASS", "pair algebra: residual 0.5  [FAIL]\nresult: FAIL")

    return {"cli.evolve": evolve, "cli.observe": observe, "cli.report": report, "cli.verify": verify}


@pytest.mark.parametrize("kind", sorted(_cli_corruptions()))
def test_checker_rejects_a_corrupted_cli_result(kind, tmp_path):
    wl = workloads.CliMix(7, str(tmp_path))
    wl.setup()
    op = _first_op(wl, kind)
    result = workloads.run_op(op)
    assert workloads.check_op(op, result) is None
    bad = copy.deepcopy(result)
    _cli_corruptions()[kind](bad)
    failure = workloads.check_op(op, bad)
    assert failure is not None and failure.defect is None


def test_verify_failures_are_judged_against_the_family_scale():
    def failing(residual):
        return workloads.CliResult(1, f"intertwining: max residual {residual!r}  [FAIL]\nresult: FAIL\n", "")

    scale = 1.4e4
    assert workloads.check_verify(failing(1.3e-6), scale).defect == "verify_absolute_tol"
    assert workloads.check_verify(failing(0.5), scale).defect is None
    assert workloads.check_verify(failing(1.3e-6), np.nan).defect is None


def test_checker_rejects_a_traceback_on_malformed_input(tmp_path):
    wl = workloads.CliMix(7, str(tmp_path))
    wl.setup()
    op = _first_op(wl, "cli.malformed")
    result = workloads.run_op(op)
    assert workloads.check_op(op, result) is None
    bad = copy.deepcopy(result)
    bad.stderr = "Traceback (most recent call last):\n" + bad.stderr
    assert workloads.check_op(op, bad).defect is None


def _perturb_entry(entries, factor=1.01):
    entries = [np.array(e) for e in entries]
    entries[10] = entries[10] * factor
    return entries


@pytest.mark.parametrize("kind", ["propagate.schrodinger", "propagate.heisenberg", "propagate.closed_form"])
def test_checker_rejects_a_corrupted_trajectory(kind):
    wl = workloads.Propagate(9, "")
    wl.setup()
    op = _first_op(wl, kind)
    result = workloads.run_op(op)
    assert workloads.check_op(op, result) is None
    if kind == "propagate.closed_form":
        bad = _perturb_entry(result)
    else:
        bad = copy.deepcopy(result)
        bad.entries = _perturb_entry(bad.entries)
    assert workloads.check_op(op, bad).defect is None
    if kind == "propagate.heisenberg":
        bad = copy.deepcopy(result)
        bad.norms[100] *= 1.0 + 1e-6
        assert workloads.check_op(op, bad).defect is None


def test_checker_rejects_a_corrupted_sweep_draw():
    wl = workloads.SweepSmall(9, "")
    op = wl.op(1)
    result = workloads.run_op(op)
    assert workloads.check_op(op, result) is None
    for corrupt, factor in (("matrices", 1.01), ("norms", 1.0 + 1e-6)):
        bad = copy.deepcopy(result)
        getattr(bad, corrupt)[0, 10] *= factor
        assert workloads.check_op(op, bad).defect is None
    bad = copy.deepcopy(result)
    bad.report.damped = not bad.report.damped
    assert workloads.check_op(op, bad).defect is None


def test_known_defects_are_counted_as_failures():
    wl = workloads.Propagate(9, "")
    wl.setup()
    labels = [label for label, *_ in wl.scenarios]
    rescaled = labels.index("benaryeh2-rescaled")
    closed_form = 2 * len(labels) + rescaled  # the rescaled scenario's closed-form op
    op = wl.op(closed_form)
    assert op.kind == "propagate.closed_form"
    failure = workloads.check_op(op, workloads.run_op(op))
    assert failure is not None and failure.defect == "benaryeh2_scale_branch"


def test_only_the_power_iteration_cap_is_a_known_convergence_failure():
    def raising(exc):
        def call():
            raise exc
        return workloads.Op("propagate.heisenberg", call, lambda r: None)

    capped = raising(pfdamp.linalg.ConvergenceError("power iteration did not converge within 10000 iterations"))
    assert workloads.check_op(capped, workloads.run_op(capped)).defect == "power_iteration_cap"
    other = raising(pfdamp.linalg.ConvergenceError("Jacobi sweeps did not reduce off-diagonal mass"))
    assert workloads.check_op(other, workloads.run_op(other)).defect is None


def test_host_speed_scaling_ignores_one_stalled_kernel_sample():
    speed = run.HostSpeed(np)
    ref = run.REFERENCE_S
    speed.around = [(ref, ref), (2 * ref, 2 * ref), (2 * ref, 100 * ref), (2 * ref, 2 * ref)]
    assert speed.factors(0, 1) == [1.0]  # neighbours come from its own range only
    assert speed.factors(1, 4) == pytest.approx([0.5, 0.5, 0.5])
    _, wall = speed.timed(lambda: None)
    assert len(speed.around) == 5 and wall >= 0.0


def test_tail_has_ten_samples_beyond_it():
    xs = list(range(51))
    value, pct = run.tail(xs)
    assert pct == 80 and sum(x > value for x in xs) == 10


def test_oracle_matches_pfdamp_on_a_valid_build():
    from pfdamp import scenarios

    t = oracle.similarity(8, 11)
    s = scenarios.build_scenario(scenarios.AbstractNConfig(n_modes=3, omegas=(1.0, 2.0 + 0.5j, 0.7), t_matrix=t))
    model = oracle.abstract_n(t, (1.0, 2.0 + 0.5j, 0.7))
    assert np.abs(s.ham.h_eff - model["h"]).max() < 1e-12 * np.abs(model["h"]).max()
    for got, want in zip(s.numbers.n_ops, model["number_ops"]):
        assert np.abs(got - want).max() < 1e-10


def test_command_prints_the_result_contract(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_small", "--seed", "2", "--seconds", "0.5", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == set(_units(BENCH["end_to_end"]))


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
