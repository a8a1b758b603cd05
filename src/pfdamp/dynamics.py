"""Time evolution under non-self-adjoint Hamiltonians.

Schroedinger evolution psi(t) = exp(-i H_eff t) psi(0) and the extended
Heisenberg evolution X_eff(t) = exp(i H_eff^dag t) X exp(-i H_eff t), the
effective-commutator calculus that generates it, the similarity-to-Hermitian
(crypto-Hermitian) factorization, generalized traces over biorthogonal
bases, and the damping diagnostics built on all of the above.

Both trajectory routines share one propagator.  It diagonalizes the
generator once, H = V diag(lambda) V^{-1}, and builds the whole time grid
from the phases e^{-i t lambda} in batched array products: states as
V e(t) V^{-1} psi(0), observables as U(t)^dag X U(t) with U(t) = V e(t)
V^{-1} formed explicitly.  The error of this eigenvector method grows with
cond(V) = ||V|| ||V^{-1}|| (Moler & Van Loan, "Nineteen dubious ways to
compute the exponential of a matrix, 25 years later", SIAM Rev. 2003), so
it is used only while cond(V) <= ``SPECTRAL_COND_LIMIT``.  A defective
generator (V singular within the LU pivot threshold), a worse-conditioned
basis or a LAPACK failure falls back to one scaling-and-squaring ``expm``
per sample.  Either
way every sample is computed directly from t (no compounded stepping), the
t = 0 sample is the input itself, and the trajectory records which route
ran and cond(V).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ConvergenceError,
    NotPositiveError,
    ShapeError,
    SingularMatrixError,
    as_matrix,
    as_vector,
    effective_commutator,
    expm,
    frobenius_norm,
    inverse,
    operator_norm,
    sqrtm_psd,
)
from .pseudofermion import BiorthogonalSystem, NumberOps

__all__ = [
    "SPECTRAL_COND_LIMIT",
    "DecompositionError",
    "EffectiveHamiltonian",
    "Trajectory",
    "DampingReport",
    "CryptoContext",
    "gamma_shift",
    "schrodinger_evolve",
    "heisenberg_evolve",
    "effective_derivative_check",
    "hermitian_split",
    "crypto_context",
    "pf_hamiltonian",
    "number_evolution_closed_form",
    "bound_constant",
    "family_bound_constant",
    "damping_report",
    "generalized_trace",
    "norm_decay_bound_check",
    "write_state_csv",
    "write_norm_csv",
]


#: cond(V) of the generator's eigenvector basis above which trajectories are
#: computed by per-sample ``expm`` instead of the eigendecomposition
SPECTRAL_COND_LIMIT = 1e4

# samples per batched (chunk, d, d) product in heisenberg_evolve; bounds the
# temporaries to a few chunk-sized stacks besides the result
_GRID_CHUNK = 8


class DecompositionError(ValueError):
    """The Hamiltonian does not admit the requested decomposition."""


@dataclass
class EffectiveHamiltonian:
    """A non-self-adjoint generator split as H_eff = H - i gamma I.

    ``gamma`` is the uniform decay rate (inverse time) and ``h_traceless``
    the traceless part H driving the residual dynamics.
    """

    h_eff: np.ndarray
    gamma: float
    h_traceless: np.ndarray

    @property
    def dim(self) -> int:
        return self.h_eff.shape[0]


@dataclass
class Trajectory:
    """States or evolved observables on an ascending time grid.

    ``kind`` is "state" (entries are vectors, norms Euclidean) or
    "operator" (entries are matrices, norms spectral).  ``path`` names the
    propagator that ran, "spectral" or "expm", and ``basis_cond`` is
    cond(V) of the eigenvector basis on the spectral path (None on the
    ``expm`` fallback).
    """

    times: np.ndarray
    entries: list[np.ndarray]
    norms: np.ndarray
    kind: str
    path: str = "expm"
    basis_cond: float | None = None


@dataclass
class DampingReport:
    """Damping verdict for a mode-frequency set at uniform decay gamma.

    ``threshold`` is half the summed |imaginary part| of the mode
    frequencies; the norm of every evolved number operator decays to zero
    exactly when gamma exceeds it.  ``bound_constant`` is the classical
    envelope constant c(N) (3 for one mode, 3^(2N) otherwise); note the
    envelope c(N) e^{-2 gamma t} assumes unit-norm number operators and can
    be exceeded by strongly non-orthogonal families even when the decay
    verdict itself is correct.  For such deformed families the constant
    that holds is ``family_bound_constant``.
    """

    gamma: float
    omegas: tuple[complex, ...]
    threshold: float
    damped: bool
    bound_constant: float
    #: for purely imaginary frequencies i w_j: the equivalent condition
    #: 2 gamma > sum_j w_j, None otherwise
    imaginary_mode_condition: bool | None = None


@dataclass
class CryptoContext:
    """Similarity data linking H_eff to a Hermitian generator.

    When ``H_eff = theta^{-1} H_eff^dag theta`` holds (``is_crypto``),
    ``h_hermitized = theta^{1/2} H_eff theta^{-1/2}`` is Hermitian and
    Heisenberg evolution factorizes through three maps: the congruence
    X -> theta^{-1/2} X theta^{-1/2}, ordinary Hermitian evolution under
    ``h_hermitized``, and the inverse congruence Y -> theta^{1/2} Y
    theta^{1/2}.
    """

    theta: np.ndarray
    theta_sqrt: np.ndarray
    theta_inv_sqrt: np.ndarray
    h_hermitized: np.ndarray
    crypto_residual: float
    is_crypto: bool
    h_eff: np.ndarray

    def to_hermitian_frame(self, x) -> np.ndarray:
        """Congruence map into the frame where evolution is unitary."""
        xm = as_matrix(x)
        return self.theta_inv_sqrt @ xm @ self.theta_inv_sqrt

    def from_hermitian_frame(self, y) -> np.ndarray:
        """Inverse congruence map back to the original frame."""
        ym = as_matrix(y)
        return self.theta_sqrt @ ym @ self.theta_sqrt

    def evolve_observable(self, x, t: float) -> np.ndarray:
        """Evolve ``x`` through the three-map factorization."""
        y = self.to_hermitian_frame(x)
        u = expm(1j * self.h_hermitized * t)
        return self.from_hermitian_frame(u @ y @ u.conj().T)


def gamma_shift(h_eff) -> EffectiveHamiltonian:
    """Split a generator into a uniform decay rate and a traceless part.

    gamma = Im(-trace(H_eff)) / dim; requires the trace to be purely
    imaginary (within 1e-10 relative), because only a uniform *real* decay
    rate can be absorbed by rescaling the state.

    Raises
    ------
    DecompositionError
        If the trace has a non-negligible real part.
    """
    hm = as_matrix(h_eff)
    tr = complex(np.trace(hm))
    scale = max(frobenius_norm(hm), 1.0)
    if abs(tr.real) > 1e-10 * scale:
        raise DecompositionError(
            f"trace {tr:.6g} has a non-negligible real part; "
            "no uniform-decay decomposition exists"
        )
    gamma = -tr.imag / hm.shape[0]
    h_traceless = hm + 1j * gamma * np.eye(hm.shape[0])
    return EffectiveHamiltonian(h_eff=hm, gamma=gamma, h_traceless=h_traceless)


def _coerce_generator(ham) -> np.ndarray:
    if isinstance(ham, EffectiveHamiltonian):
        return ham.h_eff
    return as_matrix(ham)


def _eigenbasis(h: np.ndarray):
    """(lambda, V, V^{-1}, cond(V)) of ``h``, or None when LAPACK fails, the
    eigenvector basis is singular or its condition number exceeds the
    spectral limit; per-sample ``expm`` then evolves any finite generator."""
    try:
        values, vectors = np.linalg.eig(h)
        inv = inverse(vectors)
        cond = operator_norm(vectors) * operator_norm(inv)
    except (np.linalg.LinAlgError, SingularMatrixError, ConvergenceError):
        return None
    if not cond <= SPECTRAL_COND_LIMIT:
        return None
    return values, vectors, inv, cond


def _check_finite(stack: np.ndarray, grid: np.ndarray, what: str) -> None:
    """Raise OverflowError naming the first sample with a non-finite entry."""
    finite = np.isfinite(stack.reshape(grid.size, -1)).all(axis=1)
    if not finite.all():
        t = grid[int(np.argmin(finite))]
        raise OverflowError(
            f"{what} overflow at sample t={t:g}: spectral propagator left float range"
        )


def schrodinger_evolve(ham, psi0, times) -> Trajectory:
    """States psi(t_k) = exp(-i t_k H_eff) psi(0) on the given grid.

    Computed from one eigendecomposition of H_eff, or by per-sample
    ``expm`` when its eigenvector basis is defective or too ill-conditioned
    (see the module docstring); Euclidean norms are recorded alongside.
    Overflow of a strongly growing mode is reported with the offending
    sample time.
    """
    h = _coerce_generator(ham)
    psi = as_vector(psi0, dim=h.shape[0])
    grid = _time_grid(times)
    basis = _eigenbasis(h)
    if basis is None:
        stack = np.empty((grid.size, psi.size), dtype=complex)
        for k, t in enumerate(grid):
            try:
                stack[k] = expm(-1j * t * h) @ psi
            except OverflowError as exc:
                raise OverflowError(f"state overflow at sample t={t:g}: {exc}") from exc
        path, cond = "expm", None
    else:
        values, vectors, inv, cond = basis
        with np.errstate(over="ignore", invalid="ignore"):
            phases = np.exp(-1j * np.outer(grid, values))
            stack = (phases * (inv @ psi)) @ vectors.T
        _check_finite(stack, grid, "state")
        stack[grid == 0] = psi
        path = "spectral"
    return Trajectory(
        times=grid,
        entries=list(stack),
        norms=np.linalg.norm(stack, axis=1),
        kind="state",
        path=path,
        basis_cond=cond,
    )


def heisenberg_evolve(ham, x, times) -> Trajectory:
    """Evolved observables X_eff(t) = e^{i H^dag t} X e^{-i H t} with norms.

    Same propagator as :func:`schrodinger_evolve`.  On the spectral path
    U(t) = V e(t) V^{-1} is formed explicitly and X(t) = U(t)^dag X U(t):
    the shorter V^{-dag} (conj(e) * V^dag X V * e) V^{-1} has an error
    growing like cond(V)^2 instead of cond(V).
    """
    h = _coerce_generator(ham)
    xm = as_matrix(x)
    if xm.shape != h.shape:
        raise ShapeError(f"observable dim {xm.shape[0]} != generator dim {h.shape[0]}")
    grid = _time_grid(times)
    basis = _eigenbasis(h)
    stack = np.empty((grid.size,) + h.shape, dtype=complex)
    if basis is None:
        for k, t in enumerate(grid):
            try:
                right = expm(-1j * h * t)
            except OverflowError as exc:
                raise OverflowError(f"observable overflow at sample t={t:g}: {exc}") from exc
            stack[k] = right.conj().T @ xm @ right  # e^{i H^dag t} = (e^{-i H t})^dag
        path, cond = "expm", None
    else:
        values, vectors, inv, cond = basis
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, grid.size, _GRID_CHUNK):
                phases = np.exp(-1j * np.outer(grid[lo : lo + _GRID_CHUNK], values))
                u = (vectors * phases[:, None, :]) @ inv
                stack[lo : lo + _GRID_CHUNK] = u.conj().transpose(0, 2, 1) @ (xm @ u)
        _check_finite(stack, grid, "observable")
        stack[grid == 0] = xm
        path = "spectral"
    try:
        norms = np.linalg.norm(stack, 2, axis=(1, 2))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular value decomposition failed: {exc}") from exc
    return Trajectory(
        times=grid,
        entries=list(stack),
        norms=norms,
        kind="operator",
        path=path,
        basis_cond=cond,
    )


def _time_grid(times) -> np.ndarray:
    grid = np.asarray(times, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ValueError("empty time grid")
    if not np.isfinite(grid).all():
        raise ValueError("time grid entries must be finite")
    if np.any(np.diff(grid) < 0):
        raise ValueError("time grid must be ascending")
    return grid


def effective_derivative_check(ham, x, t: float, dt: float = 1e-5) -> float:
    """Max-entry residual between the finite-difference derivative of
    X_eff(t) and its generator form -i e^{iH^dag t} [X, H]_eff e^{-iHt}.

    The effective commutator [X, H]_eff = X H - H^dag X replaces the
    ordinary one because the evolution is not unitary; the residual is
    O(dt^2) for smooth inputs.
    """
    h = _coerce_generator(ham)
    xm = as_matrix(x)
    plus = heisenberg_evolve(h, xm, [t + dt]).entries[0]
    minus = heisenberg_evolve(h, xm, [t - dt]).entries[0]
    fd = (plus - minus) / (2.0 * dt)
    right = expm(-1j * h * t)
    generator = -1j * (right.conj().T @ effective_commutator(xm, h) @ right)
    return float(np.abs(fd - generator).max())


def hermitian_split(h_eff) -> tuple[np.ndarray, np.ndarray]:
    """Split H_eff = h_r - i h_i into two Hermitian parts."""
    hm = as_matrix(h_eff)
    h_r = (hm + hm.conj().T) / 2.0
    h_i = 1j * (hm - hm.conj().T) / 2.0
    return h_r, h_i


def crypto_context(h_eff, theta, tol: float = 1e-8) -> CryptoContext:
    """Build the similarity-to-Hermitian context for metric ``theta``.

    ``theta`` must be Hermitian positive definite.  The crypto condition
    H_eff = theta^{-1} H_eff^dag theta is measured relative to ||H_eff||;
    when it fails the context is still returned with ``is_crypto=False``
    (``h_hermitized`` is then not Hermitian).

    Raises
    ------
    NotPositiveError
        If ``theta`` is not positive semidefinite.
    """
    hm = as_matrix(h_eff)
    th = as_matrix(theta)
    if th.shape != hm.shape:
        raise ShapeError(f"metric dim {th.shape[0]} != generator dim {hm.shape[0]}")
    theta_sqrt = sqrtm_psd(th)
    if operator_norm(theta_sqrt @ theta_sqrt - th) > 1e-8 * max(operator_norm(th), 1.0):
        raise NotPositiveError("metric square root inaccurate; theta badly conditioned")
    theta_inv_sqrt = inverse(theta_sqrt)
    scale = max(frobenius_norm(hm), np.finfo(float).tiny)
    residual = frobenius_norm(hm - inverse(th) @ hm.conj().T @ th) / scale
    h_herm = theta_sqrt @ hm @ theta_inv_sqrt
    return CryptoContext(
        theta=th,
        theta_sqrt=theta_sqrt,
        theta_inv_sqrt=theta_inv_sqrt,
        h_hermitized=h_herm,
        crypto_residual=float(residual),
        is_crypto=bool(residual <= tol),
        h_eff=hm,
    )


def pf_hamiltonian(numbers: NumberOps, omegas) -> np.ndarray:
    """H_N = sum_j omega_j N_j - (sum_j omega_j) I / 2.

    Traceless for any frequencies; its spectrum is the set of half-filling
    sums sum_j omega_j (n_j - 1/2) over occupation patterns.
    """
    omegas = [complex(w) for w in omegas]
    if len(omegas) != numbers.n_modes:
        raise ShapeError(f"got {len(omegas)} frequencies for {numbers.n_modes} modes")
    d = numbers.n_ops[0].shape[0]
    h = -0.5 * sum(omegas) * np.eye(d, dtype=complex)
    for w, n_op in zip(omegas, numbers.n_ops):
        h = h + w * n_op
    return h


def number_evolution_closed_form(
    numbers: NumberOps, omegas, gamma: float, k: int, t: float
) -> np.ndarray:
    """Closed form of the evolved number operator (N_k)_eff(t).

    Because each N_j is idempotent, e^{z N_j} = I + N_j (e^z - 1) and the
    full evolution collapses to

        e^{-t(2 gamma + sum_j Im omega_j)}
        * prod_j (I + N_j^dag (e^{i t conj(omega_j)} - 1))
        * N_k
        * prod_l (I + N_l (e^{-i t omega_l} - 1)).

    ``k`` is 1-based.  Equals the direct double exponential for every
    frequency set, real or complex.
    """
    omegas = [complex(w) for w in omegas]
    n = numbers.n_modes
    if len(omegas) != n:
        raise ShapeError(f"got {len(omegas)} frequencies for {n} modes")
    if not 1 <= k <= n:
        raise ValueError(f"mode index {k} outside 1..{n}")
    d = numbers.n_ops[0].shape[0]
    identity = np.eye(d, dtype=complex)
    prefactor = np.exp(-t * (2.0 * gamma + sum(w.imag for w in omegas)))
    left = identity.copy()
    for w, nd_op in zip(omegas, numbers.n_dagger_ops):
        left = left @ (identity + nd_op * (np.exp(1j * t * np.conj(w)) - 1.0))
    right = identity.copy()
    for w, n_op in zip(omegas, numbers.n_ops):
        right = right @ (identity + n_op * (np.exp(-1j * t * w) - 1.0))
    return prefactor * (left @ numbers.n_ops[k - 1] @ right)


def bound_constant(n_modes: int) -> float:
    """Envelope constant c(N): 3 for a single mode, 3^(2N) otherwise.

    Derived for unit-norm number operators (canonical fermions); deformed
    families can exceed it, and ``family_bound_constant`` is their bound.
    """
    return 3.0 if n_modes == 1 else 3.0 ** (2 * n_modes)


def family_bound_constant(numbers: NumberOps, k: int) -> float:
    """Envelope constant C_k with ||(N_k)_eff(t)|| <= C_k e^{-2 gamma t}.

    The derivation behind c(N) without its unit-norm premise, valid for
    real mode frequencies.  For N >= 2 each factor I + N_j (e^{i theta} - 1)
    of ``number_evolution_closed_form`` has norm at most 1 + 2||N_j|| (and
    ||N_j^dag|| = ||N_j||), so

        C_k = ||N_k|| prod_j (1 + 2||N_j||)^2.

    For N = 1 idempotence collapses the closed form to
    e^{-2 gamma t} (z N + (1 - z) N^dag N) with z = e^{-i omega t}, so
    C_1 = ||N|| (1 + 2||N||).  Equals ``bound_constant(N)`` when every
    ||N_j|| = 1.  ``k`` is 1-based.
    """
    n = numbers.n_modes
    if not 1 <= k <= n:
        raise ValueError(f"mode index {k} outside 1..{n}")
    norms = [operator_norm(n_op) for n_op in numbers.n_ops]
    if n == 1:
        return norms[0] * (1.0 + 2.0 * norms[0])
    return norms[k - 1] * float(np.prod([(1.0 + 2.0 * x) ** 2 for x in norms]))


def damping_report(gamma: float, omegas) -> DampingReport:
    """Damping verdict: decay happens iff gamma > half the summed |Im omega_j|.

    For purely imaginary frequencies i w_j the verdict is also emitted in
    its equivalent form 2 gamma > sum_j w_j.
    """
    omegas = tuple(complex(w) for w in omegas)
    threshold = 0.5 * sum(abs(w.imag) for w in omegas)
    damped = bool(gamma > threshold)
    imag_condition = None
    if omegas and all(abs(w.real) < 1e-14 * max(abs(w), 1e-300) for w in omegas):
        imag_condition = bool(2.0 * gamma > sum(w.imag for w in omegas))
    return DampingReport(
        gamma=float(gamma),
        omegas=omegas,
        threshold=float(threshold),
        damped=damped,
        bound_constant=bound_constant(len(omegas)),
        imaginary_mode_condition=imag_condition,
    )


def generalized_trace(system: BiorthogonalSystem, op) -> complex:
    """Trace across the biorthogonal pair: sum_k <psi_k, Op phi_k>.

    Coincides with the ordinary trace when the two families merge into a
    single orthonormal basis; evaluates to the dimension on the identity.
    """
    opm = as_matrix(op)
    if opm.shape[0] != system.dim:
        raise ShapeError(f"operator dim {opm.shape[0]} != system dim {system.dim}")
    return complex(
        sum(np.vdot(psi, opm @ phi) for phi, psi in zip(system.phis, system.psis))
    )


def norm_decay_bound_check(
    trajectory: Trajectory, gamma: float, n_modes: int, rtol: float = 1e-8
) -> bool:
    """True iff every sampled norm obeys ||X(t)|| <= c(N) e^{-2 gamma t}.

    The classical envelope for evolved number operators with real mode
    frequencies; c(N) = 3 for one mode and 3^(2N) otherwise.  The envelope
    presumes unit-norm number operators, so families with strongly
    non-orthogonal mode structure can exceed it (the check then reports
    False even though the decay *rate* is still 2 gamma); their envelope
    constant is ``family_bound_constant``.
    """
    c = bound_constant(n_modes)
    envelope = c * np.exp(-2.0 * gamma * trajectory.times) * (1.0 + rtol)
    return bool(np.all(trajectory.norms <= envelope))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_state_csv(trajectory: Trajectory, path_or_file, comments=None) -> None:
    """Write a state trajectory as CSV: t, re_0, im_0, ..., norm."""
    if trajectory.kind != "state":
        raise ValueError("state CSV requires a state trajectory")
    own = isinstance(path_or_file, (str, os.PathLike))
    fh = open(path_or_file, "w") if own else path_or_file
    try:
        for line in comments or []:
            fh.write(f"# {line}\n")
        d = trajectory.entries[0].size
        cols = ["t"]
        for j in range(d):
            cols += [f"re_{j}", f"im_{j}"]
        cols.append("norm")
        fh.write(", ".join(cols) + "\n")
        for t, state, norm in zip(
            trajectory.times, trajectory.entries, trajectory.norms
        ):
            parts = [_fmt(t)]
            for z in state:
                parts += [_fmt(z.real), _fmt(z.imag)]
            parts.append(_fmt(norm))
            fh.write(", ".join(parts) + "\n")
    finally:
        if own:
            fh.close()


def write_norm_csv(
    trajectory: Trajectory, gamma: float, n_modes: int, path_or_file, comments=None
) -> None:
    """Write an observable-norm trajectory as CSV: t, norm, bound.

    The bound column is the number-operator envelope c(N) e^{-2 gamma t},
    which presumes unit-norm number operators; for deformed families the
    constant that holds is ``family_bound_constant``.
    """
    if trajectory.kind != "operator":
        raise ValueError("norm CSV requires an operator trajectory")
    own = isinstance(path_or_file, (str, os.PathLike))
    fh = open(path_or_file, "w") if own else path_or_file
    try:
        for line in comments or []:
            fh.write(f"# {line}\n")
        fh.write("t, norm, bound\n")
        c = bound_constant(n_modes)
        for t, norm in zip(trajectory.times, trajectory.norms):
            fh.write(
                ", ".join([_fmt(t), _fmt(norm), _fmt(c * np.exp(-2.0 * gamma * t))])
                + "\n"
            )
    finally:
        if own:
            fh.close()
