"""Reference results that do not use pfdamp.

Every generator is rebuilt from the same parameters the program receives,
with numpy only; propagators come from ``scipy.linalg.expm`` and norms from
``np.linalg.norm(., 2)``.  Tolerances are relative to the scale of the
quantity compared, so rescaling every rate by a factor and time by its
inverse leaves each verdict unchanged.
"""

from __future__ import annotations

import numpy as np

#: relative tolerance for propagated states and observables, measured
#: against the forward-error scale ||U(t)|| ||psi0|| or ||U(t)||^2 ||X||.
#: The abstractN closed form goes through a biorthogonal basis whose
#: condition number is cond(T)^2 ~ 1e4 at N = 6; it lands up to 1e-8 off
#: the expm route, every other path below 1e-11.
RTOL_PROPAGATED = 1e-6
#: relative tolerance for a spectral norm against the SVD value
RTOL_NORM = 1e-8
#: relative tolerance for scalar report fields and CSV bookkeeping columns
RTOL_SCALAR = 1e-12


def _expm(stack: np.ndarray) -> np.ndarray:
    # scipy is imported on first use so it stays out of the set-up time
    from scipy.linalg import expm

    return expm(stack)


# ---------------------------------------------------------------------------
# generators rebuilt from parameters


def benaryeh2(gamma_a: float, gamma_b: float, v: complex) -> dict:
    """H_eff = [[-i ga, v], [conj v, -i gb]] and its spectral number operator."""
    h = np.array([[-1j * gamma_a, v], [np.conj(v), -1j * gamma_b]], dtype=complex)
    gamma = 0.5 * (gamma_a + gamma_b)
    half_diff = 0.5 * (gamma_a - gamma_b)
    omega = abs(v) ** 2 - half_diff**2
    sq = complex(np.sqrt(complex(omega)))
    model = {"h": h, "gamma": gamma, "omegas": (2.0 * sq,), "number_ops": None}
    # the two-level family exists off the exceptional point; N1 is the
    # spectral projector of the traceless part onto its +sqrt(Omega) branch
    scale = abs(v) ** 2 + half_diff**2
    model["relative_discriminant"] = abs(omega) / scale
    if omega != 0.0:
        traceless = h + 1j * gamma * np.eye(2)
        model["number_ops"] = [(traceless + sq * np.eye(2)) / (2.0 * sq)]
    else:
        model["omegas"] = (0j,)
    return model


def bagarello4(alpha: float, beta: float, omega1: float, omega2: float) -> dict:
    """The four-level generator and its similarity-deformed number operators."""
    d = alpha - beta
    delta = omega1 - omega2
    h = (1j / d) * np.array(
        [
            [0.0, -alpha * beta * delta, 0.0, 0.0],
            [delta, -(alpha + beta) * delta, 0.0, 0.0],
            [-omega2, alpha * omega2, beta * omega2 - alpha * omega1, 0.0],
            [-beta * omega2, beta**2 * omega2, 0.0, alpha * omega2 - beta * omega1],
        ],
        dtype=complex,
    )
    t = np.array(
        [[0.0, alpha, beta, 0.0], [0.0, 1.0, 1.0, 0.0], [alpha, 0.0, 1.0, 0.0], [0.0, beta, 0.0, alpha]],
        dtype=complex,
    )
    return {
        "h": h,
        "gamma": -np.trace(h).imag / 4.0,
        "omegas": (1j * omega1, 1j * omega2),
        "number_ops": deformed_number_ops(t, 2),
        "t": t,
    }


def similarity(dim: int, seed: int, cond_cap: float = 100.0) -> np.ndarray:
    """The seeded similarity draw: entries uniform on [-1, 1]^2, rejected
    until the spectral condition number is below ``cond_cap``."""
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        t = rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
        if np.linalg.cond(t) < cond_cap:
            return t
    raise ValueError(f"no similarity draw below condition {cond_cap}")


def family_scale(t: np.ndarray) -> float:
    """cond(T) * max(||T||^2, ||T^-1||^2) for a family made from the map T.

    It bounds the operator norms of the products in the identities that
    ``verify`` checks, such as S_psi N_j with S_psi = (T T^dag)^-1 and
    ||N_j|| <= cond(T); a residual is small or large against this scale.
    """
    s = np.linalg.svd(t, compute_uv=False)
    return float(s[0] / s[-1] * max(s[0] ** 2, s[-1] ** -2))


def occupations(n_modes: int) -> np.ndarray:
    """occ[k, j] = occupation of mode j+1 in basis index k (mode 1 lowest bit)."""
    k = np.arange(2**n_modes)
    return np.array([(k >> j) & 1 for j in range(n_modes)], dtype=float).T


def deformed_number_ops(t: np.ndarray, n_modes: int) -> list[np.ndarray]:
    """N_j = T diag(occupation of mode j) T^-1."""
    t_inv = np.linalg.inv(t)
    occ = occupations(n_modes)
    return [(t * occ[:, j]) @ t_inv for j in range(n_modes)]


def abstract_n(t: np.ndarray, omegas, gamma: float | None = None) -> dict:
    """H_eff = T D T^-1 - i gamma I with D the half-filling energies."""
    omegas = tuple(complex(w) for w in omegas)
    n = len(omegas)
    threshold = 0.5 * sum(abs(w.imag) for w in omegas)
    gamma = threshold + 0.5 if gamma is None else gamma
    energies = (occupations(n) - 0.5) @ np.array(omegas)
    h = (t * energies) @ np.linalg.inv(t) - 1j * gamma * np.eye(2**n)
    return {"h": h, "gamma": gamma, "omegas": omegas, "number_ops": deformed_number_ops(t, n)}


def report_fields(model: dict) -> dict:
    """The damping summary the ``report`` subcommand should print."""
    omegas = model["omegas"]
    threshold = 0.5 * sum(abs(complex(w).imag) for w in omegas)
    n = len(omegas)
    return {
        "gamma": model["gamma"],
        "threshold": threshold,
        "damped": model["gamma"] > threshold,
        "envelope": 3.0 if n == 1 else 3.0 ** (2 * n),
        "omegas": omegas,
    }


# ---------------------------------------------------------------------------
# propagation


class Propagator:
    """U(t) = expm(-i t H) on a fixed grid, computed once and reused."""

    def __init__(self, h: np.ndarray, times: np.ndarray):
        self.times = np.asarray(times, dtype=float)
        self.u = _expm(-1j * self.times[:, None, None] * h[None, :, :])
        self.u_norms = np.linalg.norm(self.u, 2, axis=(1, 2))

    def states(self, psi0: np.ndarray) -> np.ndarray:
        return self.u @ psi0

    def observables(self, x: np.ndarray) -> np.ndarray:
        # e^{i H^dag t} = (e^{-i H t})^dag
        return np.conj(np.swapaxes(self.u, 1, 2)) @ x @ self.u


def compare_states(states, prop: Propagator, psi0: np.ndarray) -> str | None:
    """None if every sample matches U(t) psi0; else a one-line reason."""
    got = np.asarray(states, dtype=complex)
    if got.shape != (prop.times.size, psi0.size):
        return f"state trajectory has shape {got.shape}"
    dev = np.linalg.norm(got - prop.states(psi0), axis=1)
    scale = prop.u_norms * np.linalg.norm(psi0)
    return _worst(dev, scale, RTOL_PROPAGATED, "state")


def observable_scale(prop: Propagator, x: np.ndarray) -> np.ndarray:
    """Forward-error scale of U(t)^dag X U(t) per sample."""
    return prop.u_norms**2 * np.linalg.norm(x, 2)


def compare_observables(entries, prop: Propagator, x: np.ndarray) -> str | None:
    """None if every X(t) matches the expm route."""
    got = np.asarray(entries, dtype=complex)
    if got.shape != prop.u.shape:
        return f"observable trajectory has shape {got.shape}"
    dev = np.linalg.norm(got - prop.observables(x), 2, axis=(1, 2))
    return _worst(dev, observable_scale(prop, x), RTOL_PROPAGATED, "observable")


def compare_spectral_norms(norms, matrices) -> str | None:
    """None if each norm matches the SVD norm of its own matrix."""
    got = np.asarray(norms, dtype=float)
    ref = np.linalg.norm(np.asarray(matrices, dtype=complex), 2, axis=(1, 2))
    if got.shape != ref.shape:
        return f"{got.size} norms for {ref.size} matrices"
    return _worst(np.abs(got - ref), ref, RTOL_NORM, "spectral norm")


def compare_norm_column(norms, prop: Propagator, x: np.ndarray) -> str | None:
    """None if a CSV norm column matches ||U^dag X U||_2 from the expm route."""
    got = np.asarray(norms, dtype=float)
    if got.shape != prop.times.shape:
        return f"{got.size} norms for {prop.times.size} samples"
    ref = np.linalg.norm(prop.observables(x), 2, axis=(1, 2))
    return _worst(np.abs(got - ref), observable_scale(prop, x), RTOL_PROPAGATED, "norm")


def _worst(dev, scale, rtol: float, what: str) -> str | None:
    ratio = np.asarray(dev) / np.maximum(scale, np.finfo(float).tiny)
    i = int(np.argmax(ratio))
    if not np.isfinite(ratio).all() or ratio[i] > rtol:
        return f"{what} sample {i} off by {ratio[i]:.3g} relative (tolerance {rtol:g})"
    return None


def close(got: float, want: float, scale: float, rtol: float = RTOL_SCALAR) -> bool:
    return abs(got - want) <= rtol * max(abs(want), scale, np.finfo(float).tiny)


# ---------------------------------------------------------------------------
# CLI output parsing


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Header columns and the numeric rows of a CLI CSV (comments skipped)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no CSV header")
    header = [c.strip() for c in lines[0].split(",")]
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    if rows.ndim != 2 or rows.shape[1] != len(header):
        raise ValueError(f"CSV rows do not match {len(header)} columns")
    return header, rows


def parse_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and not line.startswith(" "):
            out[key] = value
    return out


def matrix_text(m: np.ndarray) -> str:
    """A matrix in the package's text format, written without pfdamp."""
    rows = [" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) for row in m]
    return f"dim {m.shape[0]}\n" + "\n".join(rows) + "\n"
