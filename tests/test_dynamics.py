"""Non-self-adjoint evolution: generators, closed forms, envelopes, CSV."""

import io

import numpy as np
import pytest

from oracles import random_complex, random_state
from pfdamp.dynamics import (
    SPECTRAL_COND_LIMIT,
    CryptoContext,
    DecompositionError,
    EffectiveHamiltonian,
    Trajectory,
    bound_constant,
    crypto_context,
    damping_report,
    effective_derivative_check,
    family_bound_constant,
    gamma_shift,
    generalized_trace,
    heisenberg_evolve,
    hermitian_split,
    norm_decay_bound_check,
    number_evolution_closed_form,
    pf_hamiltonian,
    schrodinger_evolve,
    write_norm_csv,
    write_state_csv,
)
from pfdamp.linalg import (
    ConvergenceError,
    NotPositiveError,
    ShapeError,
    expm,
    general_eig,
    operator_norm,
)
from pfdamp.pseudofermion import (
    build_bases,
    canonical_fermions,
    from_similarity,
    metric_operators,
    number_operators,
    occupation,
)
from pfdamp.scenarios import random_similarity


def two_level_generator(gamma_a=2.0, gamma_b=1.0, v=1.0):
    return np.array(
        [[-1j * gamma_a, v], [np.conj(v), -1j * gamma_b]], dtype=complex
    )


def deformed_setup(seed=7, n=2):
    fam = from_similarity(random_similarity(2 ** n, seed), n)
    system = build_bases(fam)
    metrics = metric_operators(system)
    numbers = number_operators(fam)
    return fam, system, metrics, numbers


# ---------------------------------------------------------------------------
# generator decomposition


class TestGammaShift:
    def test_two_level_model(self):
        ham = gamma_shift(two_level_generator())
        assert ham.gamma == pytest.approx(1.5)
        assert abs(np.trace(ham.h_traceless)) < 1e-12
        assert np.abs(ham.h_eff - two_level_generator()).max() == 0.0

    def test_hermitian_generator_has_zero_gamma(self):
        rng = np.random.default_rng(0)
        m = random_complex(rng, 3)
        h = 0.5 * (m + m.conj().T)
        h = h - np.trace(h) / 3.0 * np.eye(3)  # traceless Hermitian
        ham = gamma_shift(h)
        assert abs(ham.gamma) < 1e-12

    def test_real_trace_rejected(self):
        with pytest.raises(DecompositionError):
            gamma_shift(np.diag([1.0, 2.0]))

    def test_reconstruction(self):
        ham = gamma_shift(two_level_generator(3.0, 1.0, 0.5))
        rebuilt = ham.h_traceless - 1j * ham.gamma * np.eye(2)
        assert np.abs(rebuilt - ham.h_eff).max() < 1e-14


# ---------------------------------------------------------------------------
# state evolution


class TestSchrodingerEvolve:
    def test_diagonal_generator_oracle(self):
        h = np.diag([-1.0j, -2.0j])  # pure decay rates 1 and 2
        psi0 = np.array([1.0, 1.0], dtype=complex)
        traj = schrodinger_evolve(h, psi0, [0.0, 1.0, 2.0])
        for t, state in zip(traj.times, traj.entries):
            want = np.array([np.exp(-t), np.exp(-2.0 * t)])
            assert np.abs(state - want).max() < 1e-12

    def test_accepts_effective_hamiltonian_object(self):
        ham = gamma_shift(two_level_generator())
        traj = schrodinger_evolve(ham, [1.0, 0.0], [0.0, 0.5])
        assert traj.kind == "state"
        assert np.abs(traj.entries[0] - np.array([1.0, 0.0])).max() < 1e-14

    def test_norms_are_euclidean(self):
        ham = gamma_shift(two_level_generator())
        traj = schrodinger_evolve(ham, [1.0, 0.0], [0.0, 1.0])
        for state, norm in zip(traj.entries, traj.norms):
            assert norm == pytest.approx(np.linalg.norm(state))

    def test_grid_validation(self):
        h = two_level_generator()
        with pytest.raises(ValueError):
            schrodinger_evolve(h, [1.0, 0.0], [])
        with pytest.raises(ValueError):
            schrodinger_evolve(h, [1.0, 0.0], [1.0, 0.5])
        with pytest.raises(ValueError):
            schrodinger_evolve(h, [1.0, 0.0], [0.0, np.inf])

    def test_growth_overflow_reported_with_time(self):
        h = 1j * 500.0 * np.eye(2)  # exponential growth e^{500 t}
        with pytest.raises(OverflowError, match="t="):
            schrodinger_evolve(h, [1.0, 0.0], [0.0, 2.0])


class TestHeisenbergEvolve:
    def test_identity_observable_for_hermitian_generator(self):
        # unitary case: X = I stays I
        h = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
        traj = heisenberg_evolve(h, np.eye(2), [0.0, 0.7, 1.9])
        for entry in traj.entries:
            assert np.abs(entry - np.eye(2)).max() < 1e-12

    def test_initial_sample_is_input(self):
        h = two_level_generator()
        x = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        traj = heisenberg_evolve(h, x, [0.0])
        assert np.abs(traj.entries[0] - x).max() < 1e-14

    def test_norms_are_spectral(self):
        h = two_level_generator()
        x = np.diag([2.0, 1.0]).astype(complex)
        traj = heisenberg_evolve(h, x, [0.0])
        assert traj.norms[0] == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            heisenberg_evolve(two_level_generator(), np.eye(3), [0.0])

    def test_representation_equivalence(self):
        # <psi(t), X psi(t)> computed in either picture
        h = two_level_generator()
        rng = np.random.default_rng(5)
        psi0 = random_state(rng, 2)
        x = random_complex(rng, 2)
        for t in (0.3, 1.1, 4.0):
            psi_t = schrodinger_evolve(h, psi0, [t]).entries[0]
            x_t = heisenberg_evolve(h, x, [t]).entries[0]
            lhs = np.vdot(psi_t, x @ psi_t)
            rhs = np.vdot(psi0, x_t @ psi0)
            assert abs(lhs - rhs) < 1e-11


def _expm_deviations(h, psi0, x, times):
    """Worst deviation of both evolve routines from per-sample ``expm``,
    relative to the forward-error scales ||U|| ||psi0|| and ||U||^2 ||X||."""
    states = schrodinger_evolve(h, psi0, times)
    observables = heisenberg_evolve(h, x, times)
    state_dev = obs_dev = 0.0
    for t, state, evolved in zip(times, states.entries, observables.entries):
        u = expm(-1j * t * np.asarray(h))
        u_norm = operator_norm(u)
        state_dev = max(
            state_dev,
            np.linalg.norm(state - u @ psi0) / (u_norm * np.linalg.norm(psi0)),
        )
        obs_dev = max(
            obs_dev,
            operator_norm(evolved - u.conj().T @ x @ u)
            / (u_norm**2 * operator_norm(x)),
        )
    return states, observables, state_dev, obs_dev


def _scenario_generators():
    from pfdamp.scenarios import (
        AbstractNConfig,
        Bagarello4Config,
        Benaryeh2Config,
        build_abstractN,
        build_bagarello4,
        build_benaryeh2,
    )

    return [
        build_benaryeh2(Benaryeh2Config(gamma_a=2.0, gamma_b=1.0, v=1.0)).ham,
        build_benaryeh2(Benaryeh2Config(gamma_a=3.0, gamma_b=1.0, v=0.5j)).ham,
        build_bagarello4(
            Bagarello4Config(alpha=2.0, beta=1.0, omega1=3.0, omega2=1.0)
        ).ham,
        build_abstractN(
            AbstractNConfig(n_modes=3, omegas=(1.0, 0.7 + 0.2j, 2.1 - 0.1j))
        ).ham,
    ]


class TestSpectralPropagator:
    TIMES = np.linspace(0.0, 10.0, 41)

    @pytest.mark.parametrize("index", range(4))
    def test_scenarios_match_expm(self, index):
        ham = _scenario_generators()[index]
        rng = np.random.default_rng(index)
        d = ham.dim
        states, _, state_dev, obs_dev = _expm_deviations(
            ham.h_eff, random_state(rng, d), random_complex(rng, d), self.TIMES
        )
        assert states.path == "spectral"
        assert state_dev <= 1e-10 and obs_dev <= 1e-10

    @pytest.mark.parametrize("seed,d", [(0, 2), (1, 5), (2, 16), (3, 32)])
    def test_random_generators_match_expm(self, seed, d):
        rng = np.random.default_rng(seed)
        h = random_complex(rng, d) - 0.5j * np.eye(d)
        states, observables, state_dev, obs_dev = _expm_deviations(
            h, random_state(rng, d), random_complex(rng, d), np.linspace(0.0, 3.0, 13)
        )
        assert states.path == observables.path == "spectral"
        assert state_dev <= 1e-10 and obs_dev <= 1e-10

    def test_near_exceptional_basis_below_limit(self):
        # |v| just above (gamma_a - gamma_b)/2: cond(V) ~ 9e3, under the limit
        h = two_level_generator(2.0, 1.0, 0.5 * (1.0 + 2.5e-8))
        rng = np.random.default_rng(9)
        states, observables, state_dev, obs_dev = _expm_deviations(
            h, random_state(rng, 2), random_complex(rng, 2), self.TIMES
        )
        assert states.path == "spectral"
        assert 5e3 < states.basis_cond <= SPECTRAL_COND_LIMIT
        assert observables.basis_cond == states.basis_cond
        assert state_dev <= 1e-10 and obs_dev <= 1e-10

    @pytest.mark.parametrize(
        "h",
        [
            two_level_generator(3.0, 1.0, 1.0),  # Omega = 0: exceptional point
            np.array([[0.5 - 1j, 1.0], [0.0, 0.5 - 1j]]),  # Jordan block
            two_level_generator(2.0, 1.0, 0.5 * (1.0 + 1e-9)),  # cond(V) ~ 4.5e4
        ],
    )
    def test_defective_or_ill_conditioned_generator_falls_back_to_expm(self, h):
        x = np.array([[1.0, 2.0], [0.5j, -1.0]])
        psi0 = np.array([0.6, 0.8j])
        states = schrodinger_evolve(h, psi0, self.TIMES)
        observables = heisenberg_evolve(h, x, self.TIMES)
        for traj in (states, observables):
            assert traj.path == "expm" and traj.basis_cond is None
        for t, state, evolved in zip(self.TIMES, states.entries, observables.entries):
            u = expm(-1j * t * h)
            assert np.array_equal(state, u @ psi0)
            assert np.array_equal(evolved, u.conj().T @ x @ u)

    def test_lapack_eig_failure_falls_back_to_expm(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eig", fail)
        h = two_level_generator(2.0, 1.0, 1.0)
        x = np.array([[1.0, 2.0], [0.5j, -1.0]])
        psi0 = np.array([0.6, 0.8j])
        states = schrodinger_evolve(h, psi0, self.TIMES)
        observables = heisenberg_evolve(h, x, self.TIMES)
        assert states.path == observables.path == "expm"
        for t, state, evolved in zip(self.TIMES, states.entries, observables.entries):
            u = expm(-1j * t * h)
            assert np.array_equal(state, u @ psi0)
            assert np.array_equal(evolved, u.conj().T @ x @ u)

    def test_lapack_norm_failure_is_convergence_error(self, monkeypatch):
        norm = np.linalg.norm

        def fail_on_stacks(a, *args, **kwargs):
            if kwargs.get("axis") == (1, 2):
                raise np.linalg.LinAlgError("SVD did not converge")
            return norm(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", fail_on_stacks)
        with pytest.raises(ConvergenceError, match="singular value decomposition"):
            heisenberg_evolve(two_level_generator(2.0, 1.0, 1.0), np.eye(2), self.TIMES)

    def test_initial_sample_is_exact(self):
        rng = np.random.default_rng(4)
        h = random_complex(rng, 4)
        psi0 = random_state(rng, 4)
        x = random_complex(rng, 4)
        states = schrodinger_evolve(h, psi0, [0.0, 0.5])
        observables = heisenberg_evolve(h, x, [0.0, 0.5])
        assert states.path == observables.path == "spectral"
        assert np.array_equal(states.entries[0], psi0)
        assert states.norms[0] == np.linalg.norm(psi0)
        assert np.array_equal(observables.entries[0], x)

    def test_observable_overflow_reported_with_time(self):
        h = np.diag([500j, -1j])  # one mode grows like e^{500 t}
        with pytest.raises(OverflowError, match="observable overflow at sample t=2"):
            heisenberg_evolve(h, np.eye(2), [0.0, 0.5, 2.0])
        with pytest.raises(OverflowError, match="state overflow at sample t=2"):
            schrodinger_evolve(h, [1.0, 0.0], [0.0, 0.5, 2.0])


class TestDerivativeIdentity:
    def test_two_level_number_operator(self):
        _, _, _, numbers = deformed_setup(seed=0, n=1)
        h = pf_hamiltonian(numbers, (1.0 + 0.0j,)) - 0.7j * np.eye(2)
        residual = effective_derivative_check(h, numbers.n_ops[0], t=1.0)
        assert residual < 1e-8

    def test_random_observable(self):
        rng = np.random.default_rng(6)
        h = two_level_generator()
        x = random_complex(rng, 2)
        assert effective_derivative_check(h, x, t=0.5) < 1e-8

    def test_conserved_metric_under_traceless_generator(self):
        # S_psi intertwines H and H^dag, so it is a constant of motion
        _, _, metrics, numbers = deformed_setup(seed=7, n=2)
        h = pf_hamiltonian(numbers, (3.0, 1.0))
        scale = np.abs(metrics.s_psi).max()
        traj = heisenberg_evolve(h, metrics.s_psi, [0.0, 0.8, 2.3])
        for entry in traj.entries:
            assert np.abs(entry - metrics.s_psi).max() < 1e-10 * scale
        assert effective_derivative_check(h, metrics.s_psi, t=1.0) < 1e-8 * scale


class TestHermitianSplit:
    def test_reconstruction_and_hermiticity(self):
        rng = np.random.default_rng(7)
        m = random_complex(rng, 3)
        h_r, h_i = hermitian_split(m)
        assert np.abs(h_r - h_r.conj().T).max() < 1e-14
        assert np.abs(h_i - h_i.conj().T).max() < 1e-14
        assert np.abs((h_r - 1j * h_i) - m).max() < 1e-14

    def test_two_level_model_parts(self):
        h_r, h_i = hermitian_split(two_level_generator(2.0, 1.0, 1.0))
        assert np.abs(h_r - np.array([[0, 1], [1, 0]])).max() < 1e-14
        assert np.abs(h_i - np.diag([2.0, 1.0])).max() < 1e-14


# ---------------------------------------------------------------------------
# similarity to a Hermitian generator


class TestCryptoContext:
    def test_traceless_deformed_generator_is_crypto(self):
        _, _, metrics, numbers = deformed_setup(seed=7, n=2)
        h = pf_hamiltonian(numbers, (3.0, 1.0))
        ctx = crypto_context(h, metrics.s_psi)
        assert isinstance(ctx, CryptoContext)
        assert ctx.is_crypto
        assert ctx.crypto_residual < 1e-9
        herm_dev = np.abs(ctx.h_hermitized - ctx.h_hermitized.conj().T).max()
        assert herm_dev < 1e-8 * max(1.0, np.abs(ctx.h_hermitized).max())

    def test_factorized_evolution_matches_direct(self):
        _, _, metrics, numbers = deformed_setup(seed=7, n=2)
        h = pf_hamiltonian(numbers, (3.0, 1.0))
        ctx = crypto_context(h, metrics.s_psi)
        rng = np.random.default_rng(8)
        x = random_complex(rng, 4)
        for t in (0.5, 2.0):
            via_ctx = ctx.evolve_observable(x, t)
            direct = heisenberg_evolve(h, x, [t]).entries[0]
            scale = max(np.abs(direct).max(), 1.0)
            assert np.abs(via_ctx - direct).max() < 1e-8 * scale

    def test_uniform_decay_breaks_the_condition(self):
        # adding -i gamma I flips sign under the metric conjugation
        _, _, metrics, numbers = deformed_setup(seed=7, n=2)
        h = pf_hamiltonian(numbers, (3.0, 1.0)) - 1j * 2.5 * np.eye(4)
        ctx = crypto_context(h, metrics.s_psi)
        assert not ctx.is_crypto
        assert ctx.crypto_residual > 1e-2

    def test_frame_maps_are_inverse(self):
        _, _, metrics, numbers = deformed_setup(seed=7, n=2)
        h = pf_hamiltonian(numbers, (3.0, 1.0))
        ctx = crypto_context(h, metrics.s_psi)
        rng = np.random.default_rng(9)
        x = random_complex(rng, 4)
        back = ctx.from_hermitian_frame(ctx.to_hermitian_frame(x))
        assert np.abs(back - x).max() < 1e-10

    def test_indefinite_metric_rejected(self):
        with pytest.raises(NotPositiveError):
            crypto_context(two_level_generator(), np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# number-operator dynamics


class TestPfHamiltonian:
    def test_spectrum_enumeration(self):
        _, _, _, numbers = deformed_setup(seed=7, n=2)
        omegas = (1.5 + 0.0j, 0.7 + 0.2j)
        h = pf_hamiltonian(numbers, omegas)
        eig = general_eig(h)
        expected = sorted(
            (
                sum(w * (bit - 0.5) for w, bit in zip(omegas, occupation(k, 2)))
                for k in range(4)
            ),
            key=lambda z: (z.real, z.imag),
        )
        assert np.abs(eig.values - np.array(expected)).max() < 1e-9

    def test_traceless(self):
        _, _, _, numbers = deformed_setup(seed=3, n=3)
        h = pf_hamiltonian(numbers, (1.0, 2.0, 3.0))
        assert abs(np.trace(h)) < 1e-10

    def test_frequency_count_checked(self):
        _, _, _, numbers = deformed_setup(seed=7, n=2)
        with pytest.raises(ShapeError):
            pf_hamiltonian(numbers, (1.0,))


class TestClosedFormNumberEvolution:
    @pytest.mark.parametrize("omegas", [(3.0j, 1.0j), (3.0, 1.0), (1.0 + 0.5j, 2.0)])
    def test_matches_direct_evolution(self, omegas):
        _, _, _, numbers = deformed_setup(seed=7, n=2)
        gamma = 3.0
        h_eff = pf_hamiltonian(numbers, omegas) - 1j * gamma * np.eye(4)
        for k in (1, 2):
            for t in (0.0, 0.4, 1.7):
                closed = number_evolution_closed_form(numbers, omegas, gamma, k, t)
                direct = heisenberg_evolve(h_eff, numbers.n_ops[k - 1], [t]).entries[0]
                scale = max(np.abs(direct).max(), 1e-12)
                assert np.abs(closed - direct).max() < 1e-9 * max(scale, 1.0)

    def test_single_mode(self):
        _, _, _, numbers = deformed_setup(seed=0, n=1)
        gamma = 1.5
        omegas = (2.0 * np.sqrt(0.75) + 0.0j,)
        h_eff = pf_hamiltonian(numbers, omegas) - 1j * gamma * np.eye(2)
        t = 0.9
        closed = number_evolution_closed_form(numbers, omegas, gamma, 1, t)
        direct = heisenberg_evolve(h_eff, numbers.n_ops[0], [t]).entries[0]
        assert np.abs(closed - direct).max() < 1e-10

    def test_mode_index_validated(self):
        _, _, _, numbers = deformed_setup(seed=7, n=2)
        with pytest.raises(ValueError):
            number_evolution_closed_form(numbers, (1.0, 2.0), 1.0, 3, 0.5)


class TestDampingReport:
    def test_imaginary_frequencies(self):
        rep = damping_report(3.0, (3.0j, 1.0j))
        assert rep.threshold == pytest.approx(2.0)
        assert rep.damped
        assert rep.bound_constant == 81.0
        assert rep.imaginary_mode_condition is True

    def test_insufficient_decay(self):
        rep = damping_report(1.0, (2.0j, 1.0j))
        assert rep.threshold == pytest.approx(1.5)
        assert not rep.damped
        assert rep.imaginary_mode_condition is False

    def test_real_frequencies(self):
        rep = damping_report(0.5, (3.0, 1.0))
        assert rep.threshold == 0.0
        assert rep.damped
        assert rep.imaginary_mode_condition is None

    def test_mixed_frequencies_use_absolute_imaginary_parts(self):
        rep = damping_report(1.1, (1.0 - 2.0j,))
        assert rep.threshold == pytest.approx(1.0)
        assert rep.damped
        assert rep.bound_constant == 3.0


class TestBoundConstant:
    def test_values(self):
        assert bound_constant(1) == 3.0
        assert bound_constant(2) == 81.0
        assert bound_constant(3) == 729.0


class TestFamilyBoundConstant:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reduces_to_classical_constant_on_canonical_fermions(self, n):
        numbers = number_operators(canonical_fermions(n))
        for k in range(1, n + 1):
            assert family_bound_constant(numbers, k) == bound_constant(n)

    def test_bounds_deformed_single_mode_beyond_classical_constant(self):
        # the one-mode family of acceptance criterion 8's seed 48
        _, _, _, numbers = deformed_setup(seed=48, n=1)
        omegas = tuple(
            complex(w) for w in np.random.default_rng(48).uniform(0.5, 3.0, 1)
        )
        gamma = 0.5
        times = np.linspace(0.0, 10.0, 101)
        norms = np.array(
            [
                operator_norm(
                    number_evolution_closed_form(numbers, omegas, gamma, 1, float(t))
                )
                for t in times
            ]
        )
        envelope = np.exp(-2.0 * gamma * times)
        assert (norms / envelope).max() > bound_constant(1)
        c = family_bound_constant(numbers, 1)
        assert np.all(norms <= c * envelope * (1.0 + 1e-8))

    @pytest.mark.parametrize("k", [0, 3])
    def test_mode_index_validated(self, k):
        _, _, _, numbers = deformed_setup(seed=7, n=2)
        with pytest.raises(ValueError):
            family_bound_constant(numbers, k)


class TestGeneralizedTrace:
    def test_identity_gives_dimension(self):
        _, system, _, _ = deformed_setup(seed=7, n=2)
        assert abs(generalized_trace(system, np.eye(4)) - 4.0) < 1e-10

    def test_traceless_generator(self):
        _, system, _, numbers = deformed_setup(seed=7, n=2)
        h = pf_hamiltonian(numbers, (1.0 + 0.5j, 2.0))
        assert abs(generalized_trace(system, h)) < 1e-10

    def test_uniform_decay_shows_in_trace(self):
        _, system, _, numbers = deformed_setup(seed=7, n=2)
        gamma = 1.25
        h_eff = pf_hamiltonian(numbers, (1.0, 2.0)) - 1j * gamma * np.eye(4)
        value = generalized_trace(system, h_eff)
        assert abs(value - (-1j * 4 * gamma)) < 1e-10

    def test_dimension_checked(self):
        _, system, _, _ = deformed_setup(seed=7, n=2)
        with pytest.raises(ShapeError):
            generalized_trace(system, np.eye(3))


class TestNormDecayBoundCheck:
    def _trajectory(self, norms, times):
        times = np.asarray(times, dtype=float)
        return Trajectory(
            times=times,
            entries=[np.eye(2)] * times.size,
            norms=np.asarray(norms, dtype=float),
            kind="operator",
        )

    def test_accepts_exact_envelope(self):
        times = np.linspace(0.0, 5.0, 11)
        gamma = 0.8
        norms = 3.0 * np.exp(-2.0 * gamma * times)
        assert norm_decay_bound_check(self._trajectory(norms, times), gamma, 1)

    def test_rejects_excess(self):
        times = np.linspace(0.0, 5.0, 11)
        gamma = 0.8
        norms = 3.0 * np.exp(-2.0 * gamma * times)
        norms[4] *= 1.001
        assert not norm_decay_bound_check(self._trajectory(norms, times), gamma, 1)

    def test_tolerance_absorbs_roundoff(self):
        times = np.linspace(0.0, 5.0, 11)
        gamma = 0.8
        norms = 3.0 * np.exp(-2.0 * gamma * times) * (1.0 + 1e-9)
        assert norm_decay_bound_check(self._trajectory(norms, times), gamma, 1)


# ---------------------------------------------------------------------------
# CSV output


class TestCsvOutput:
    def test_state_csv_layout(self):
        ham = gamma_shift(two_level_generator())
        traj = schrodinger_evolve(ham, [1.0, 0.0], np.linspace(0.0, 1.0, 3))
        buf = io.StringIO()
        write_state_csv(traj, buf, comments=["demo run"])
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# demo run"
        assert lines[1] == "t, re_0, im_0, re_1, im_1, norm"
        assert len(lines) == 2 + 3
        first = [float(x) for x in lines[2].split(", ")]
        assert first == [0.0, 1.0, 0.0, 0.0, 0.0, 1.0]

    def test_state_csv_17_digit_round_trip(self):
        ham = gamma_shift(two_level_generator())
        traj = schrodinger_evolve(ham, [1.0, 0.0], [0.7])
        buf = io.StringIO()
        write_state_csv(traj, buf)
        row = buf.getvalue().splitlines()[1].split(", ")
        state = traj.entries[0]
        assert float(row[1]) == state[0].real
        assert float(row[4]) == state[1].imag

    def test_norm_csv_layout_and_envelope(self):
        ham = gamma_shift(two_level_generator())
        x = np.eye(2, dtype=complex)
        traj = heisenberg_evolve(ham, x, [0.0, 1.0])
        buf = io.StringIO()
        write_norm_csv(traj, ham.gamma, 1, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t, norm, bound"
        t1 = [float(v) for v in lines[2].split(", ")]
        assert t1[2] == pytest.approx(3.0 * np.exp(-2.0 * 1.5 * 1.0), rel=1e-15)

    def test_kind_mismatch_rejected(self):
        ham = gamma_shift(two_level_generator())
        state_traj = schrodinger_evolve(ham, [1.0, 0.0], [0.0])
        op_traj = heisenberg_evolve(ham, np.eye(2), [0.0])
        with pytest.raises(ValueError):
            write_state_csv(op_traj, io.StringIO())
        with pytest.raises(ValueError):
            write_norm_csv(state_traj, 1.0, 1, io.StringIO())

    def test_path_output(self, tmp_path):
        ham = gamma_shift(two_level_generator())
        traj = schrodinger_evolve(ham, [1.0, 0.0], [0.0, 1.0])
        target = tmp_path / "run.csv"
        write_state_csv(traj, target)
        assert target.read_text().startswith("t, re_0")


class TestEffectiveHamiltonianDataclass:
    def test_dim(self):
        ham = gamma_shift(two_level_generator())
        assert isinstance(ham, EffectiveHamiltonian)
        assert ham.dim == 2

    def test_evolution_uses_full_generator(self):
        # evolving an EffectiveHamiltonian follows h_eff, not h_traceless
        ham = gamma_shift(two_level_generator())
        t = 0.8
        direct = expm(-1j * t * ham.h_eff) @ np.array([1.0, 0.0])
        via = schrodinger_evolve(ham, [1.0, 0.0], [t]).entries[0]
        assert np.abs(direct - via).max() < 1e-14
        traceless = schrodinger_evolve(ham.h_traceless, [1.0, 0.0], [t]).entries[0]
        assert np.abs(traceless - via).max() > 1e-3
