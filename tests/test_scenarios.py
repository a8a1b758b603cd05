"""Built-in models: configuration, branches, spectra, cross-check records."""

import json
import os

import numpy as np
import pytest

from oracles import exp_fit_residual
from pfdamp import matfile, scenarios
from pfdamp.dynamics import (
    heisenberg_evolve,
    number_evolution_closed_form,
    schrodinger_evolve,
)
from pfdamp.linalg import SingularMatrixError, expm, general_eig, operator_norm
from pfdamp.pseudofermion import validate_family
from pfdamp.scenarios import (
    AbstractNConfig,
    Bagarello4Config,
    Benaryeh2Config,
    ConfigError,
    SamplingError,
    build_abstractN,
    build_bagarello4,
    build_benaryeh2,
    build_scenario,
    load_config,
    parse_config,
    random_similarity,
    reference_pair_matrices,
    similarity_matrix_4x4,
)

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "artifacts")


def standard_two_level():
    return build_benaryeh2(Benaryeh2Config(gamma_a=2.0, gamma_b=1.0, v=1.0))


def standard_four_level(alpha=2.0, beta=1.0, omega1=3.0, omega2=1.0):
    return build_bagarello4(
        Bagarello4Config(alpha=alpha, beta=beta, omega1=omega1, omega2=omega2)
    )


# ---------------------------------------------------------------------------
# configuration parsing


class TestParseConfig:
    def test_two_level_document(self):
        cfg = parse_config(
            {
                "scenario": "benaryeh2",
                "params": {"gamma_a": 2.0, "gamma_b": 1, "v": [1.0, -0.5]},
            }
        )
        assert isinstance(cfg, Benaryeh2Config)
        assert cfg.v == 1.0 - 0.5j

    def test_four_level_document(self):
        cfg = parse_config(
            {
                "scenario": "bagarello4",
                "params": {"alpha": 2, "beta": 1, "omega1": 3, "omega2": 1},
            }
        )
        assert isinstance(cfg, Bagarello4Config)

    def test_abstract_document_with_psi0(self):
        cfg = parse_config(
            {
                "scenario": "abstractN",
                "params": {
                    "n_modes": 1,
                    "omegas": [[1.5, 0.2]],
                    "similarity_seed": 3,
                    "gamma": 0.75,
                    "psi0": [[1, 0], [0, 1]],
                },
            }
        )
        assert isinstance(cfg, AbstractNConfig)
        assert cfg.omegas == (1.5 + 0.2j,)
        assert cfg.gamma == 0.75
        assert np.array_equal(cfg.psi0, np.array([1.0, 1.0j]))

    def test_seed_defaults_to_zero(self):
        cfg = parse_config(
            {"scenario": "abstractN", "params": {"n_modes": 1, "omegas": [1.0]}}
        )
        assert cfg.similarity_seed == 0

    @pytest.mark.parametrize(
        "document,fragment",
        [
            ([], "top level"),
            ({"params": {}}, "missing 'scenario'"),
            ({"scenario": "nope", "params": {}}, "unknown name"),
            ({"scenario": "benaryeh2", "params": {}, "x": 1}, "unknown keys"),
            ({"scenario": "benaryeh2", "params": []}, "params"),
            (
                {"scenario": "benaryeh2", "params": {"gamma_a": 1.0, "gamma_b": 1.0}},
                "missing required field 'v'",
            ),
            (
                {
                    "scenario": "benaryeh2",
                    "params": {"gamma_a": -1.0, "gamma_b": 1.0, "v": 1.0},
                },
                "strictly positive",
            ),
            (
                {
                    "scenario": "benaryeh2",
                    "params": {"gamma_a": 1.0, "gamma_b": 1.0, "v": "x"},
                },
                "params.v",
            ),
            (
                {
                    "scenario": "benaryeh2",
                    "params": {"gamma_a": 1.0, "gamma_b": 1.0, "v": 1.0, "zz": 0},
                },
                "unknown fields",
            ),
            (
                {
                    "scenario": "benaryeh2",
                    "params": {
                        "gamma_a": 1.0,
                        "gamma_b": 1.0,
                        "v": 1.0,
                        "psi0": [[1, 0]],
                    },
                },
                "length 1, expected 2",
            ),
            (
                {
                    "scenario": "bagarello4",
                    "params": {"alpha": 1, "beta": 1, "omega1": 3, "omega2": 1},
                },
                "must differ",
            ),
            (
                {
                    "scenario": "bagarello4",
                    "params": {"alpha": 0, "beta": 1, "omega1": 3, "omega2": 1},
                },
                "nonzero",
            ),
            (
                {
                    "scenario": "bagarello4",
                    "params": {"alpha": 2, "beta": 1, "omega1": 1, "omega2": 3},
                },
                "omega1 > omega2 > 0",
            ),
            (
                {"scenario": "abstractN", "params": {"n_modes": 7, "omegas": []}},
                "[1, 6]",
            ),
            (
                {"scenario": "abstractN", "params": {"n_modes": 2, "omegas": [1.0]}},
                "list of 2 entries",
            ),
            (
                {
                    "scenario": "abstractN",
                    "params": {"n_modes": True, "omegas": [1.0]},
                },
                "expected an integer",
            ),
            (
                {
                    "scenario": "abstractN",
                    "params": {"n_modes": 1, "omegas": [1.0], "gamma": "x"},
                },
                "params.gamma",
            ),
            (
                {
                    "scenario": "abstractN",
                    "params": {"n_modes": 1, "omegas": [1.0], "t_matrix": 5},
                },
                "file path",
            ),
        ],
    )
    def test_rejects_malformed(self, document, fragment):
        with pytest.raises(ConfigError, match=None) as err:
            parse_config(document)
        assert fragment in str(err.value)

    def test_t_matrix_loaded_relative_to_base_dir(self, tmp_path):
        matfile.write_matrix(tmp_path / "t.txt", np.eye(2))
        cfg = parse_config(
            {
                "scenario": "abstractN",
                "params": {"n_modes": 1, "omegas": [1.0], "t_matrix": "t.txt"},
            },
            base_dir=str(tmp_path),
        )
        assert np.array_equal(cfg.t_matrix, np.eye(2))

    def test_t_matrix_wrong_dimension(self, tmp_path):
        matfile.write_matrix(tmp_path / "t.txt", np.eye(3))
        with pytest.raises(ConfigError, match="dimension 3"):
            parse_config(
                {
                    "scenario": "abstractN",
                    "params": {"n_modes": 1, "omegas": [1.0], "t_matrix": "t.txt"},
                },
                base_dir=str(tmp_path),
            )

    def test_t_matrix_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="t_matrix"):
            parse_config(
                {
                    "scenario": "abstractN",
                    "params": {"n_modes": 1, "omegas": [1.0], "t_matrix": "nope.txt"},
                },
                base_dir=str(tmp_path),
            )

    def test_load_config_reports_json_position(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"scenario": }')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(p)

    def test_build_scenario_rejects_other_types(self):
        with pytest.raises(ConfigError):
            build_scenario({"scenario": "benaryeh2"})


# ---------------------------------------------------------------------------
# two-level model


class TestTwoLevel:
    def test_oscillatory_branch_data(self):
        s = standard_two_level()
        assert s.extras["branch"] == "oscillatory"
        assert s.extras["omega"] == pytest.approx(0.75)
        assert s.ham.gamma == pytest.approx(1.5)
        want = np.array([-1.5j + np.sqrt(0.75), -1.5j - np.sqrt(0.75)])
        got = np.array(s.extras["energies"])
        assert np.abs(got - want).max() < 1e-12

    def test_family_is_valid_single_mode(self):
        s = standard_two_level()
        assert s.family is not None and s.family.n_modes == 1
        assert validate_family(s.family).passed

    def test_eigenvector_overlap_value(self):
        # <eta_+, eta_-> = (2 gamma / |v|^2) (gamma - i sqrt(Omega))
        s = standard_two_level()
        eta_p, eta_m = s.extras["eta_plus"], s.extras["eta_minus"]
        gamma_small = s.extras["half_diff"]
        overlap = np.vdot(eta_p, eta_m)
        want = 2.0 * gamma_small * (gamma_small - 1j * np.sqrt(0.75))
        assert abs(overlap - want) < 1e-12

    @pytest.mark.parametrize(
        "gamma_a,gamma_b,v,branch",
        [
            (2.0, 1.0, 1.0, "oscillatory"),
            (3.0, 1.0, 1.0, "degenerate"),
            (3.0, 1.0, 0.5, "hyperbolic"),
            (3.0, 1.0, 0.0, "hyperbolic"),
            (1.5, 1.5, 0.8, "oscillatory"),
        ],
    )
    def test_closed_form_matches_direct(self, gamma_a, gamma_b, v, branch):
        s = build_benaryeh2(Benaryeh2Config(gamma_a=gamma_a, gamma_b=gamma_b, v=v))
        assert s.extras["branch"] == branch
        times = np.linspace(0.0, 6.0, 25)
        rng = np.random.default_rng(1)
        psi0 = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        direct = schrodinger_evolve(s.ham, psi0, times)
        closed = s.closed_form(psi0, times)
        dev = max(np.abs(e - c).max() for e, c in zip(direct.entries, closed))
        assert dev < 1e-10

    def test_uncoupled_equal_rates_are_degenerate(self):
        # Omega = 0 and H_traceless = 0: no pair exists
        s = build_benaryeh2(Benaryeh2Config(gamma_a=1.5, gamma_b=1.5, v=0.0))
        assert s.extras["branch"] == "degenerate" and s.family is None

    def test_degenerate_has_no_pair(self):
        s = build_benaryeh2(Benaryeh2Config(gamma_a=3.0, gamma_b=1.0, v=1.0))
        assert s.family is None and s.numbers is None
        with pytest.raises(ValueError):
            s.number_operator(1)

    def test_uncoupled_guard_produces_valid_pair(self):
        s = build_benaryeh2(Benaryeh2Config(gamma_a=3.0, gamma_b=1.0, v=0.0))
        assert validate_family(s.family).passed
        assert np.abs(s.extras["eta_plus"] - np.array([0.0, 1.0])).max() < 1e-14

    def test_equal_rates_give_uniform_decay(self):
        # Hermitian traceless part: the norm decays exactly at e^{-gamma t}
        s = build_benaryeh2(Benaryeh2Config(gamma_a=1.5, gamma_b=1.5, v=0.8))
        times = np.linspace(0.0, 4.0, 9)
        traj = schrodinger_evolve(s.ham, s.default_psi0, times)
        want = np.exp(-1.5 * times) * np.linalg.norm(s.default_psi0)
        assert np.abs(traj.norms - want).max() < 1e-12

    def test_always_damped(self):
        for cfg in [
            Benaryeh2Config(2.0, 1.0, 1.0),
            Benaryeh2Config(3.0, 1.0, 0.5),
            Benaryeh2Config(3.0, 1.0, 1.0),
        ]:
            assert build_benaryeh2(cfg).report().damped

    def test_mode_frequency_is_twice_root_discriminant(self):
        s = standard_two_level()
        assert s.omegas[0] == pytest.approx(2.0 * np.sqrt(0.75))
        # hyperbolic: purely imaginary frequency, threshold below gamma
        s2 = build_benaryeh2(Benaryeh2Config(gamma_a=3.0, gamma_b=1.0, v=0.5))
        assert s2.omegas[0] == pytest.approx(2.0j * np.sqrt(0.75))
        rep = s2.report()
        assert rep.threshold == pytest.approx(np.sqrt(0.75))
        assert rep.damped

    def test_number_evolution_rate_variant_recorded(self):
        s = standard_two_level()
        assert s.fidelity["number_evolution_half_rate_dev"] > 1e-3

    def test_psi0_override(self):
        cfg = Benaryeh2Config(2.0, 1.0, 1.0, psi0=np.array([0.0, 1.0 + 0.0j]))
        s = build_benaryeh2(cfg)
        assert np.array_equal(s.default_psi0, np.array([0.0, 1.0 + 0.0j]))


# ---------------------------------------------------------------------------
# four-level model


class TestFourLevel:
    def test_gamma_and_frequencies(self):
        s = standard_four_level()
        assert s.ham.gamma == pytest.approx(3.0)
        assert s.omegas == (3.0j, 1.0j)
        assert s.extras["gamma_formula"] == pytest.approx(3.0)

    def test_spectrum(self):
        s = standard_four_level()
        eig = general_eig(s.ham.h_eff)
        want = np.array([-5.0j, -4.0j, -2.0j, -1.0j])
        # the spectrum is purely imaginary, so order by imaginary part
        # (roundoff real parts of order 1e-16 make the default sort unstable)
        got = np.array(sorted(eig.values, key=lambda z: z.imag))
        assert np.abs(got - want).max() < 1e-10

    def test_family_valid_and_constructive_route_matches_reference(self):
        s = standard_four_level()
        assert validate_family(s.family).passed
        for key in ("a1", "b1", "a2", "b2"):
            assert s.fidelity[f"reference_matrix_dev_{key}"] < 1e-12

    def test_reference_formulas_at_generic_parameters(self):
        from pfdamp.pseudofermion import from_similarity

        alpha, beta = 3.5, 0.6
        fam = from_similarity(similarity_matrix_4x4(alpha, beta), 2)
        ref = reference_pair_matrices(alpha, beta)
        for j, key_a, key_b in ((1, "a1", "b1"), (2, "a2", "b2")):
            assert np.abs(fam.a(j) - ref[key_a]).max() < 1e-12
            assert np.abs(fam.b(j) - ref[key_b]).max() < 1e-12

    def test_hamiltonian_reconstruction_from_numbers(self):
        s = standard_four_level()
        assert s.fidelity["hamiltonian_reconstruction_dev"] < 1e-12

    def test_unsquared_variant_differs(self):
        # the expanded form that drops the square on the repeated-mode term
        # is genuinely different; the record keeps the measured gap
        s = standard_four_level()
        assert s.fidelity["number_evolution_unsquared_term_dev"] > 1.0

    def test_closed_form_matches_direct(self):
        s = standard_four_level()
        times = np.linspace(0.0, 5.0, 21)
        closed = s.closed_form(s.default_psi0, times)
        dev = max(
            np.abs(expm(-1j * t * s.ham.h_eff) @ s.default_psi0 - c).max()
            for t, c in zip(times, closed)
        )
        assert dev < 1e-10

    def test_component_exponential_structure(self):
        # each state component is a sum over the four decay rates
        # {-5, -4, -2, -1}.  Structurally (for every initial state) the
        # third component carries no e^{-t} content and the fourth no
        # e^{-5t} content; a generic state excites the rest.
        s = standard_four_level()
        times = np.linspace(0.0, 3.0, 40)
        psi0 = np.array([1.0, 0.3 - 0.2j, -0.4 + 0.1j, 0.7 + 0.5j])
        psi0 = psi0 / np.sqrt(np.vdot(psi0, psi0).real)
        states = np.array(s.closed_form(psi0, times))
        rates = [-5.0, -4.0, -2.0, -1.0]
        coefs = []
        for j in range(4):
            coef, resid = exp_fit_residual(times, states[:, j], rates)
            assert resid < 1e-8
            coefs.append(coef)
        assert abs(coefs[2][rates.index(-1.0)]) < 1e-8
        assert abs(coefs[3][rates.index(-5.0)]) < 1e-8
        assert abs(coefs[2][rates.index(-5.0)]) > 1e-3
        assert abs(coefs[3][rates.index(-1.0)]) > 1e-3

    def test_damped_state_norm_slope(self):
        # slowest eigenvalue of the effective Hamiltonian is -1i, so the
        # late-time log-slope of the state norm is -1
        s = standard_four_level()
        times = np.linspace(10.0, 20.0, 21)
        norms = [
            np.sqrt(np.vdot(v, v).real) for v in s.closed_form(s.default_psi0, times)
        ]
        slope = np.polyfit(times, np.log(norms), 1)[0]
        assert slope == pytest.approx(-1.0, rel=0.02)

    def test_damped_number_norm_slope(self):
        # the evolved number operator decays at rate -2: the dominant term
        # in the product expansion scales as e^{-(2*gamma + w1 + w2)t} times
        # e^{(w1 + 2 w2)t} with gamma=3, w1=3, w2=1
        s = standard_four_level()
        n1 = lambda t: operator_norm(
            number_evolution_closed_form(s.numbers, s.omegas, s.ham.gamma, 1, t)
        )
        slope = (np.log(n1(6.0)) - np.log(n1(4.0))) / 2.0
        assert slope == pytest.approx(-2.0, rel=0.02)

    def test_growth_case(self):
        s = standard_four_level(alpha=3.0, beta=1.0, omega1=2.0, omega2=1.0)
        assert s.ham.gamma == pytest.approx(1.0)
        assert s.extras["decay_parameter"] == pytest.approx(0.5)
        rep = s.report()
        assert not rep.damped
        n1 = lambda t: operator_norm(
            number_evolution_closed_form(s.numbers, s.omegas, s.ham.gamma, 1, t)
        )
        assert n1(8.0) > 10.0 * n1(2.0)
        # state norm grows with log-slope +0.5 (fastest eigenvalue +0.5i)
        times = np.linspace(10.0, 20.0, 21)
        norms = [
            np.sqrt(np.vdot(v, v).real) for v in s.closed_form(s.default_psi0, times)
        ]
        slope = np.polyfit(times, np.log(norms), 1)[0]
        assert slope == pytest.approx(0.5, rel=0.02)

    @pytest.mark.parametrize(
        "alpha,beta,omega1,omega2",
        [(2.0, 1.0, 3.0, 1.0), (3.0, 1.0, 2.0, 1.0), (1.5, 1.0, 2.0, 1.0)],
    )
    def test_flags_agree_with_decay_parameter_sign(self, alpha, beta, omega1, omega2):
        s = standard_four_level(alpha, beta, omega1, omega2)
        decays = s.extras["decay_parameter"] < 0
        assert s.report().damped == decays
        assert s.extras["damped_ratio_form"] == decays

    def test_trace_identities(self):
        s = standard_four_level()
        t0, t_eff = s.trace_identities()
        assert abs(t0) < 1e-10
        assert abs(t_eff - (-12.0j)) < 1e-10


# ---------------------------------------------------------------------------
# abstract N-mode model


class TestAbstractN:
    def test_identity_map_single_mode(self):
        cfg = AbstractNConfig(n_modes=1, omegas=(1.0,), t_matrix=np.eye(2))
        s = build_abstractN(cfg)
        assert np.abs(s.ham.h_traceless - np.diag([-0.5, 0.5])).max() < 1e-14
        assert s.ham.gamma == pytest.approx(0.5)  # threshold 0 plus margin

    def test_gamma_defaults_to_threshold_plus_half(self):
        cfg = AbstractNConfig(n_modes=2, omegas=(1.0 + 2.0j, 1.0 - 1.0j), similarity_seed=4)
        s = build_abstractN(cfg)
        assert s.extras["threshold"] == pytest.approx(1.5)
        assert s.ham.gamma == pytest.approx(2.0)
        assert s.report().damped

    def test_explicit_gamma_honored(self):
        cfg = AbstractNConfig(n_modes=1, omegas=(2.0j,), similarity_seed=4, gamma=0.25)
        s = build_abstractN(cfg)
        assert s.ham.gamma == pytest.approx(0.25)
        assert not s.report().damped  # threshold 1.0 exceeds gamma

    def test_deterministic_in_seed(self):
        cfg = AbstractNConfig(n_modes=2, omegas=(1.0, 2.0), similarity_seed=9)
        s1 = build_abstractN(cfg)
        s2 = build_abstractN(cfg)
        assert np.array_equal(s1.extras["t_matrix"], s2.extras["t_matrix"])
        s3 = build_abstractN(
            AbstractNConfig(n_modes=2, omegas=(1.0, 2.0), similarity_seed=10)
        )
        assert not np.array_equal(s1.extras["t_matrix"], s3.extras["t_matrix"])

    def test_condition_cap_respected(self):
        for seed in range(8):
            t = random_similarity(4, seed)
            from pfdamp.linalg import inverse

            assert operator_norm(t) * operator_norm(inverse(t)) < 100.0

    def test_sampling_failure_raises(self):
        with pytest.raises(SamplingError):
            random_similarity(4, 0, cond_cap=1.0001, max_attempts=5)

    def test_only_singular_draws_are_retried(self, monkeypatch):
        def singular(_):
            raise SingularMatrixError("singular draw")

        monkeypatch.setattr(scenarios, "inverse", singular)
        with pytest.raises(SamplingError):
            random_similarity(4, 0, max_attempts=3)

        # an error other than SingularMatrixError is a bug, not a bad draw
        def broken(_):
            raise ZeroDivisionError("broken inverse")

        monkeypatch.setattr(scenarios, "inverse", broken)
        with pytest.raises(ZeroDivisionError, match="broken inverse"):
            random_similarity(4, 0)

    @pytest.mark.parametrize("seed,n", [(7, 2), (3, 3)])
    def test_closed_form_matches_direct(self, seed, n):
        om = tuple(1.0 + 0.4 * j + 0.15j * j for j in range(n))
        s = build_abstractN(AbstractNConfig(n_modes=n, omegas=om, similarity_seed=seed))
        times = np.linspace(0.0, 4.0, 9)
        direct = schrodinger_evolve(s.ham, s.default_psi0, times)
        closed = s.closed_form(s.default_psi0, times)
        dev = max(np.abs(e - c).max() for e, c in zip(direct.entries, closed))
        assert dev < 1e-9

    def test_family_and_system_built(self):
        s = build_abstractN(
            AbstractNConfig(n_modes=2, omegas=(1.0, 2.0), similarity_seed=7)
        )
        assert validate_family(s.family).passed
        assert s.system.dim == 4
        assert abs(s.trace_identities()[0]) < 1e-10

    def test_default_state_is_uniform(self):
        s = build_abstractN(
            AbstractNConfig(n_modes=2, omegas=(1.0, 2.0), similarity_seed=7)
        )
        assert np.abs(s.default_psi0 - 0.5).max() < 1e-15

    def test_number_operator_accessor(self):
        s = build_abstractN(
            AbstractNConfig(n_modes=2, omegas=(1.0, 2.0), similarity_seed=7)
        )
        assert np.array_equal(s.number_operator(2), s.numbers.n_ops[1])
        with pytest.raises(ValueError):
            s.number_operator(3)


# ---------------------------------------------------------------------------
# cross-check record artifact


class TestFidelityRecord:
    def test_reference_deviations_and_artifact(self):
        os.makedirs(ARTIFACT_DIR, exist_ok=True)
        lines = ["cross-check record: constructive route vs reference formulas", ""]

        s4 = standard_four_level()
        for key in sorted(s4.fidelity):
            lines.append(f"four-level {key}: {s4.fidelity[key]:.17g}")
        # constructive and reference routes agree to roundoff
        assert s4.fidelity["hamiltonian_reconstruction_dev"] < 1e-12
        assert s4.fidelity["gamma_formula_dev"] < 1e-12
        for key in ("a1", "b1", "a2", "b2"):
            assert s4.fidelity[f"reference_matrix_dev_{key}"] < 1e-12

        s2 = standard_two_level()
        for key in sorted(s2.fidelity):
            lines.append(f"two-level {key}: {s2.fidelity[key]:.17g}")
        # the documented discrepancy records are genuinely nonzero
        assert s2.fidelity["number_evolution_half_rate_dev"] > 1e-3
        assert s4.fidelity["number_evolution_unsquared_term_dev"] > 1e-1

        lines.append("")
        lines.append(
            "note: *_dev records measure max-entry deviations; the two"
            " nonzero 'variant' entries document that the half-rate and"
            " unsquared-term variants of the number closed form disagree"
            " with the product form, which direct evolution confirms."
        )
        with open(os.path.join(ARTIFACT_DIR, "fidelity_record.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
