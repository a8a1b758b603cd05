"""End-to-end tests for the command-line interface.

Every test drives ``pfdamp.cli.main`` in process and checks exit codes,
stdout/stderr content, and the CSV/report formats.
"""

import json

import numpy as np
import pytest

from pfdamp import matfile
from pfdamp.cli import main
from pfdamp.dynamics import bound_constant
from pfdamp.pseudofermion import (
    build_bases,
    canonical_fermions,
    export_family,
    import_family,
    intertwining_check,
    metric_operators,
    number_operators,
)
from pfdamp.scenarios import AbstractNConfig, build_abstractN

TWO_LEVEL = {
    "scenario": "benaryeh2",
    "params": {"gamma_a": 2.0, "gamma_b": 1.0, "v": 1.0},
}
FOUR_LEVEL = {
    "scenario": "bagarello4",
    "params": {"alpha": 2.0, "beta": 1.0, "omega1": 3.0, "omega2": 1.0},
}
ABSTRACT = {
    "scenario": "abstractN",
    "params": {"n_modes": 2, "omegas": [1.5, [0.7, 0.2]], "similarity_seed": 7},
}


def write_config(tmp_path, document, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def data_rows(text):
    """Parse CSV text into a float array, skipping comments and the header."""
    rows = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rows.append([float(tok) for tok in stripped.split(",")])
        except ValueError:
            assert stripped.startswith("t,"), f"unexpected non-data line: {line!r}"
    return np.array(rows)


class TestScenarioList:
    def test_exit_code_and_names(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("benaryeh2", "bagarello4", "abstractN"):
            assert name in out


class TestReport:
    def test_four_level_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FOUR_LEVEL)
        assert main(["report", cfg]) == 0
        out = capsys.readouterr().out
        assert "scenario: bagarello4" in out
        assert "gamma: 3" in out
        assert "threshold: 2" in out
        assert "damped: true" in out
        assert "envelope constant: 81" in out
        assert "(expected 0)" in out
        assert "-12j" in out  # generalized trace of the generator
        assert "fidelity cross-checks" in out

    def test_two_level_branch_and_omega(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_LEVEL)
        assert main(["report", cfg]) == 0
        out = capsys.readouterr().out
        assert "scenario: benaryeh2" in out
        assert "gamma: 1.5" in out
        assert "branch: oscillatory" in out
        assert "omega: 0.75" in out
        assert "damped: true" in out

    def test_growth_case_flagged(self, tmp_path, capsys):
        doc = {
            "scenario": "bagarello4",
            "params": {"alpha": 3.0, "beta": 1.0, "omega1": 2.0, "omega2": 1.0},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["report", cfg]) == 0
        out = capsys.readouterr().out
        assert "damped: false" in out
        assert "decay parameter: 0.5" in out


class TestEvolve:
    def test_default_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_LEVEL)
        assert main(["evolve", cfg]) == 0
        out = capsys.readouterr().out
        assert "# scenario: benaryeh2" in out
        rows = data_rows(out)
        assert rows.shape == (201, 1 + 2 * 2 + 1)
        assert rows[0, 0] == 0.0
        assert rows[-1, 0] == 20.0
        assert np.all(np.diff(rows[:, 0]) > 0)
        # norm column is the Euclidean norm of the components
        comps = rows[:, 1:-1:2] + 1j * rows[:, 2:-1:2]
        norms = np.sqrt((np.abs(comps) ** 2).sum(axis=1))
        assert np.abs(norms - rows[:, -1]).max() < 1e-12
        # t=0 row reproduces the default initial state (1, 0)
        assert rows[0, 1] == 1.0 and rows[0, 2] == 0.0
        assert rows[0, -1] == pytest.approx(1.0)
        # strong damping by t=20
        assert rows[-1, -1] < 1e-6

    def test_propagator_comment_names_route(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_LEVEL)
        assert main(["evolve", cfg, "--grid", "0,1,3"]) == 0
        assert "# propagator: spectral, cond(V) 1.7\n" in capsys.readouterr().out
        assert main(["observe", cfg, "--observable", "N1", "--grid", "0,1,3"]) == 0
        assert "# propagator: spectral, cond(V) 1.7\n" in capsys.readouterr().out
        # |v| = (gamma_a - gamma_b)/2: a defective generator, expm fallback
        doc = {
            "scenario": "benaryeh2",
            "params": {"gamma_a": 3.0, "gamma_b": 1.0, "v": 1.0},
        }
        assert main(["evolve", write_config(tmp_path, doc), "--grid", "0,1,3"]) == 0
        assert "# propagator: expm\n" in capsys.readouterr().out

    def test_custom_grid_and_out_file(self, tmp_path):
        cfg = write_config(tmp_path, TWO_LEVEL)
        out_path = tmp_path / "traj.csv"
        assert main(["evolve", cfg, "--grid", "0,2,5", "--out", str(out_path)]) == 0
        rows = data_rows(out_path.read_text())
        assert rows.shape[0] == 5
        assert np.allclose(rows[:, 0], [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, FOUR_LEVEL)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["evolve", cfg, "--grid", "0,5,40", "--out", str(first)]) == 0
        assert main(["evolve", cfg, "--grid", "0,5,40", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_bad_grid_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_LEVEL)
        assert main(["evolve", cfg, "--grid", "0,2"]) == 2
        assert "--grid" in capsys.readouterr().err
        assert main(["evolve", cfg, "--grid", "a,b,c"]) == 2
        assert main(["evolve", cfg, "--grid", "2,0,5"]) == 2
        assert main(["evolve", cfg, "--grid", "0,2,0"]) == 2


class TestObserve:
    def test_number_operator_and_envelope(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FOUR_LEVEL)
        assert main(["observe", cfg, "--observable", "N1", "--grid", "0,1,3"]) == 0
        out = capsys.readouterr().out
        assert "number operator N1" in out
        rows = data_rows(out)
        assert rows.shape == (3, 3)
        envelope = bound_constant(2) * np.exp(-2.0 * 3.0 * rows[:, 0])
        assert np.abs(rows[:, 2] - envelope).max() < 1e-12 * envelope.max()
        assert rows[0, 2] == pytest.approx(81.0)
        assert np.all(rows[:, 1] > 0)

    def test_matrix_file_observable(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_LEVEL)
        obs_path = tmp_path / "obs.txt"
        matfile.write_matrix(obs_path, np.eye(2, dtype=complex))
        assert (
            main(["observe", cfg, "--observable", str(obs_path), "--grid", "0,1,2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "matrix from" in out
        assert data_rows(out).shape == (2, 3)

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FOUR_LEVEL)
        obs_path = tmp_path / "obs.txt"
        matfile.write_matrix(obs_path, np.eye(2, dtype=complex))
        assert main(["observe", cfg, "--observable", str(obs_path)]) == 2
        assert "dimension" in capsys.readouterr().err

    def test_missing_observable_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_LEVEL)
        missing = str(tmp_path / "nope.txt")
        assert main(["observe", cfg, "--observable", missing]) == 2
        assert "--observable" in capsys.readouterr().err

    def test_mode_index_out_of_range_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ABSTRACT)
        assert main(["observe", cfg, "--observable", "N5"]) == 2
        assert "mode index" in capsys.readouterr().err

    def test_nonfinite_observable_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_LEVEL)
        obs_path = tmp_path / "obs.txt"
        obs_path.write_text("dim 2\nnan 0\n0 1\n")
        assert main(["observe", cfg, "--observable", str(obs_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "line 2, field 1" in captured.err and "not finite" in captured.err
        assert "Traceback" not in captured.out + captured.err


class TestVerify:
    def test_canonical_family_passes(self, tmp_path, capsys):
        manifest = export_family(canonical_fermions(2), tmp_path)
        assert main(["verify", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert out.count("[pass]") == 5

    def test_perturbed_family_fails(self, tmp_path, capsys):
        manifest = export_family(canonical_fermions(2), tmp_path)
        target = tmp_path / "mode1_a.txt"
        mat = matfile.read_matrix(target)
        mat[0, 1] += 0.05
        matfile.write_matrix(target, mat)
        assert main(["verify", str(manifest)]) == 1
        out = capsys.readouterr().out
        assert "result: FAIL" in out
        assert "[FAIL]" in out

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "none.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_manifest_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "family.json"
        bad.write_text("{\"n_modes\": 1}")
        assert main(["verify", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_residuals_are_relative_to_family_scale(self, tmp_path, capsys):
        # a valid N = 6 family whose absolute intertwining residual exceeds
        # the default tolerance; relative to ||S|| ||N_j|| it is tiny
        s = build_abstractN(
            AbstractNConfig(n_modes=6, omegas=(1.0,) * 6, similarity_seed=0)
        )
        manifest = export_family(s.family, tmp_path)
        family = import_family(manifest)
        metrics = metric_operators(build_bases(family))
        absolute = intertwining_check(metrics, number_operators(family)).max_residual
        assert absolute > 1e-10
        assert main(["verify", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert "intertwining: max relative residual" in out

    def test_strict_tolerance_flag(self, tmp_path, capsys):
        manifest = export_family(canonical_fermions(1), tmp_path)
        assert main(["--tol", "1e-15", "verify", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert "e-15" in out


class TestConfigErrors:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"scenario\": \"benaryeh2\",")
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "line" in err

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "nope", "params": {}})
        assert main(["report", cfg]) == 2
        assert "valid names" in capsys.readouterr().err

    def test_missing_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"scenario": "benaryeh2", "params": {"gamma_a": 2.0}}
        )
        assert main(["report", cfg]) == 2
        assert "gamma_b" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "none.json")]) == 2
        assert "error:" in capsys.readouterr().err


    def test_oversized_observable_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_LEVEL)
        obs_path = tmp_path / "obs.txt"
        obs_path.write_text("dim 65\n")
        assert main(["observe", cfg, "--observable", str(obs_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "dimension 65 outside [1, 64]" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_oversized_psi0_exits_2(self, tmp_path, capsys):
        doc = {
            "scenario": "abstractN",
            "params": {"n_modes": 1, "omegas": [1.0], "psi0": [1.0] * 70},
        }
        assert main(["evolve", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "params.psi0" in captured.err and "70" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_nonfinite_t_matrix_exits_2(self, tmp_path, capsys):
        (tmp_path / "t.txt").write_text("dim 2\n1 inf\n0 1\n")
        doc = {
            "scenario": "abstractN",
            "params": {"n_modes": 1, "omegas": [1.0], "t_matrix": "t.txt"},
        }
        assert main(["report", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "params.t_matrix: line 2, field 2" in captured.err
        assert "Traceback" not in captured.out + captured.err


class TestSeedHandling:
    def test_seed_override_changes_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ABSTRACT)
        assert main(["evolve", cfg, "--grid", "0,2,5", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["evolve", cfg, "--grid", "0,2,5", "--seed", "3"]) == 0
        again = capsys.readouterr().out
        assert main(["evolve", cfg, "--grid", "0,2,5", "--seed", "4"]) == 0
        other = capsys.readouterr().out
        assert first == again
        assert first != other

    def test_report_uses_config_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ABSTRACT)
        assert main(["report", cfg]) == 0
        out = capsys.readouterr().out
        assert "scenario: abstractN" in out
        assert "modes: 2" in out
        # default gamma sits 0.5 above the damping threshold
        assert "damped: true" in out
