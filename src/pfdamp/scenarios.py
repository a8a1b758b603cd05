"""Built-in damping models and configuration ingestion.

Three scenarios are provided:

``benaryeh2``
    The two-level model H_eff = [[-i*gamma_a, v], [conj(v), -i*gamma_b]]
    with gamma_a, gamma_b > 0.  Its traceless part has eigenvalues
    +-sqrt(Omega) with Omega = |v|^2 - ((gamma_a - gamma_b)/2)^2, and the
    closed-form solution changes character with the sign of Omega
    (oscillatory / linear-in-t / hyperbolic).

``bagarello4``
    A four-level effective Hamiltonian parameterized by (alpha, beta,
    omega1, omega2) with alpha != beta, alpha != 0, omega1 > omega2 > 0.
    Carries a two-mode pseudo-fermion family obtained by a fixed similarity
    map; decay holds iff alpha/beta < omega1/omega2.

``abstractN``
    An N-mode family (N <= 6) deformed by a seeded random similarity map
    (entrywise uniform on [-1,1]^2, rejected until the condition number is
    below 100) or by an explicit matrix file, with arbitrary complex mode
    frequencies and uniform decay rate gamma (default: damping threshold
    plus 0.5).

Configurations are JSON documents ``{"scenario": <name>, "params": {...}}``
with complex numbers written as two-element arrays [re, im].
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import matfile
from .dynamics import (
    DampingReport,
    EffectiveHamiltonian,
    damping_report,
    gamma_shift,
    generalized_trace,
    number_evolution_closed_form,
    pf_hamiltonian,
    schrodinger_evolve,
)
from .linalg import (
    SingularMatrixError,
    as_matrix,
    as_vector,
    frobenius_norm,
    general_eig,
    inverse,
    operator_norm,
)
from .pseudofermion import (
    BiorthogonalSystem,
    MetricPair,
    NumberOps,
    PFFamily,
    PFPair,
    build_bases,
    from_similarity,
    metric_operators,
    number_operators,
)

__all__ = [
    "ConfigError",
    "SamplingError",
    "SCENARIO_NAMES",
    "Benaryeh2Config",
    "Bagarello4Config",
    "AbstractNConfig",
    "Scenario",
    "parse_config",
    "load_config",
    "build_benaryeh2",
    "build_bagarello4",
    "build_abstractN",
    "build_scenario",
    "similarity_matrix_4x4",
    "reference_pair_matrices",
    "random_similarity",
]

SCENARIO_NAMES = ("benaryeh2", "bagarello4", "abstractN")

#: |Omega| below this routes the two-level model to the degenerate branch
OMEGA_DEGENERATE_TOL = 1e-12


class ConfigError(ValueError):
    """Malformed scenario configuration; message names the offending field."""


class SamplingError(RuntimeError):
    """Rejection sampling of the similarity map failed."""


@dataclass
class Benaryeh2Config:
    gamma_a: float
    gamma_b: float
    v: complex
    psi0: np.ndarray | None = None


@dataclass
class Bagarello4Config:
    alpha: float
    beta: float
    omega1: float
    omega2: float
    psi0: np.ndarray | None = None


@dataclass
class AbstractNConfig:
    n_modes: int
    omegas: tuple[complex, ...]
    similarity_seed: int | None = 0
    t_matrix: np.ndarray | None = None
    gamma: float | None = None
    psi0: np.ndarray | None = None


@dataclass
class Scenario:
    """A built scenario: generator, operator family, and closed forms.

    ``closed_form(psi0, times)`` returns the exactly evolved states as a
    list of vectors, from the scenario's own formulas (``bagarello4``'s is
    the eigenbasis expansion of ``schrodinger_evolve``); ``fidelity``
    maps named cross-check deviations (constructive route vs reference
    formulas) measured while building.
    """

    name: str
    config: object
    ham: EffectiveHamiltonian
    family: PFFamily | None
    numbers: NumberOps | None
    system: BiorthogonalSystem | None
    metrics: MetricPair | None
    omegas: tuple[complex, ...]
    default_psi0: np.ndarray
    closed_form: object  # callable(psi0, times) -> list of state vectors
    fidelity: dict[str, float] = field(default_factory=dict)
    extras: dict[str, object] = field(default_factory=dict)

    @property
    def n_modes(self) -> int:
        return len(self.omegas)

    def report(self) -> DampingReport:
        return damping_report(self.ham.gamma, self.omegas)

    def number_operator(self, k: int) -> np.ndarray:
        if self.numbers is None:
            raise ValueError(f"scenario {self.name!r} carries no number operators")
        if not 1 <= k <= self.numbers.n_modes:
            raise ValueError(f"mode index {k} outside 1..{self.numbers.n_modes}")
        return self.numbers.n_ops[k - 1]

    def trace_identities(self) -> tuple[complex, complex] | None:
        """(T(H_traceless), T(H_eff)) across the biorthogonal pair."""
        if self.system is None:
            return None
        return (
            generalized_trace(self.system, self.ham.h_traceless),
            generalized_trace(self.system, self.ham.h_eff),
        )


# ---------------------------------------------------------------------------
# configuration parsing


def _as_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(x, (int, float)) for x in value)
    ):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a number or [re, im], got {value!r}")


def _as_real(value, where: str) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    raise ConfigError(f"{where}: expected a real number, got {value!r}")


def _as_int(value, where: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{where}: expected an integer, got {value!r}")


def _parse_psi0(params: dict, dim: int | None) -> np.ndarray | None:
    if "psi0" not in params:
        return None
    raw = params["psi0"]
    if not isinstance(raw, list):
        raise ConfigError("params.psi0: expected a list of entries")
    entries = [_as_complex(x, f"params.psi0[{i}]") for i, x in enumerate(raw)]
    try:
        vec = as_vector(entries)
    except ValueError as exc:  # ShapeError (length), or a nan/inf entry
        raise ConfigError(f"params.psi0: {exc}") from exc
    if dim is not None and vec.size != dim:
        raise ConfigError(f"params.psi0: length {vec.size}, expected {dim}")
    return vec


def parse_config(document: dict, base_dir: str = ".") -> object:
    """Turn a decoded JSON document into a typed scenario configuration.

    ``base_dir`` anchors relative file references (the abstractN
    ``t_matrix``).  Raises :class:`ConfigError` with the offending field in
    the message on any structural problem.
    """
    if not isinstance(document, dict):
        raise ConfigError("top level: expected a JSON object")
    unknown = set(document) - {"scenario", "params"}
    if unknown:
        raise ConfigError(f"top level: unknown keys {sorted(unknown)}")
    try:
        name = document["scenario"]
    except KeyError:
        raise ConfigError("top level: missing 'scenario'") from None
    params = document.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params: expected a JSON object")

    if name == "benaryeh2":
        _check_keys(params, {"gamma_a", "gamma_b", "v", "psi0"})
        gamma_a = _as_real(_get(params, "gamma_a"), "params.gamma_a")
        gamma_b = _as_real(_get(params, "gamma_b"), "params.gamma_b")
        if gamma_a <= 0 or gamma_b <= 0:
            raise ConfigError("params.gamma_a/gamma_b: must be strictly positive")
        v = _as_complex(_get(params, "v"), "params.v")
        return Benaryeh2Config(
            gamma_a=gamma_a, gamma_b=gamma_b, v=v, psi0=_parse_psi0(params, 2)
        )

    if name == "bagarello4":
        _check_keys(params, {"alpha", "beta", "omega1", "omega2", "psi0"})
        alpha = _as_real(_get(params, "alpha"), "params.alpha")
        beta = _as_real(_get(params, "beta"), "params.beta")
        omega1 = _as_real(_get(params, "omega1"), "params.omega1")
        omega2 = _as_real(_get(params, "omega2"), "params.omega2")
        if alpha == beta:
            raise ConfigError("params.alpha: must differ from params.beta")
        if alpha == 0:
            raise ConfigError("params.alpha: must be nonzero")
        if not omega1 > omega2 > 0:
            raise ConfigError("params.omega1/omega2: need omega1 > omega2 > 0")
        return Bagarello4Config(
            alpha=alpha,
            beta=beta,
            omega1=omega1,
            omega2=omega2,
            psi0=_parse_psi0(params, 4),
        )

    if name == "abstractN":
        _check_keys(
            params, {"n_modes", "omegas", "similarity_seed", "t_matrix", "gamma", "psi0"}
        )
        n_modes = _as_int(_get(params, "n_modes"), "params.n_modes")
        if not 1 <= n_modes <= 6:
            raise ConfigError("params.n_modes: must be in [1, 6]")
        raw_omegas = _get(params, "omegas")
        if not isinstance(raw_omegas, list) or len(raw_omegas) != n_modes:
            raise ConfigError(f"params.omegas: expected a list of {n_modes} entries")
        omegas = tuple(
            _as_complex(w, f"params.omegas[{i}]") for i, w in enumerate(raw_omegas)
        )
        seed = None
        t_matrix = None
        if "t_matrix" in params:
            t_path = params["t_matrix"]
            if not isinstance(t_path, str):
                raise ConfigError("params.t_matrix: expected a file path string")
            full = os.path.join(base_dir, t_path)
            try:
                t_matrix = matfile.read_matrix(full)
            except (OSError, matfile.MatrixFormatError) as exc:
                raise ConfigError(f"params.t_matrix: {exc}") from exc
            if t_matrix.shape[0] != 2 ** n_modes:
                raise ConfigError(
                    f"params.t_matrix: dimension {t_matrix.shape[0]}, "
                    f"expected {2 ** n_modes}"
                )
        else:
            seed = (
                _as_int(params["similarity_seed"], "params.similarity_seed")
                if "similarity_seed" in params
                else 0
            )
        gamma = (
            _as_real(params["gamma"], "params.gamma") if "gamma" in params else None
        )
        return AbstractNConfig(
            n_modes=n_modes,
            omegas=omegas,
            similarity_seed=seed,
            t_matrix=t_matrix,
            gamma=gamma,
            psi0=_parse_psi0(params, 2 ** n_modes),
        )

    raise ConfigError(
        f"scenario: unknown name {name!r}; valid names are {', '.join(SCENARIO_NAMES)}"
    )


def _get(params: dict, key: str):
    try:
        return params[key]
    except KeyError:
        raise ConfigError(f"params: missing required field {key!r}") from None


def _check_keys(params: dict, allowed: set) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(f"params: unknown fields {sorted(unknown)}")


def load_config(path) -> object:
    """Read and parse a JSON scenario configuration file."""
    try:
        with open(path) as fh:
            document = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_config(document, base_dir=os.path.dirname(os.fspath(path)) or ".")


# ---------------------------------------------------------------------------
# two-level model


def build_benaryeh2(cfg: Benaryeh2Config) -> Scenario:
    """Assemble the two-level damping model from its configuration.

    The pseudo-fermion pair is built from the spectral projectors of the
    traceless part (the lowering operator maps the upper eigendirection to
    the lower one); closed-form evolution dispatches on the sign of Omega.
    When |Omega| falls below 1e-12 the generator is non-diagonalizable, no
    pair exists, and the degenerate (linear-in-t) branch is used.
    """
    gamma_a, gamma_b, v = cfg.gamma_a, cfg.gamma_b, complex(cfg.v)
    h_eff = np.array(
        [[-1j * gamma_a, v], [np.conj(v), -1j * gamma_b]], dtype=complex
    )
    ham = gamma_shift(h_eff)
    half_diff = 0.5 * (gamma_a - gamma_b)
    omega = abs(v) ** 2 - half_diff ** 2  # real discriminant
    if abs(omega) < OMEGA_DEGENERATE_TOL:
        branch = "degenerate"
    elif omega > 0:
        branch = "oscillatory"
    else:
        branch = "hyperbolic"

    family = None
    numbers = None
    system = None
    metrics = None
    fidelity: dict[str, float] = {}
    pf_omega = None
    eta_plus = eta_minus = None
    if branch != "degenerate":
        sq = complex(np.sqrt(complex(omega)))  # sqrt(Omega), imaginary if Omega < 0
        pf_omega = 2.0 * sq
        if abs(v) < 1e-14 * max(1.0, abs(half_diff)):
            # diagonal traceless part: eigenvectors are the basis vectors
            if half_diff > 0:
                eta_plus = np.array([0.0, 1.0], dtype=complex)
                eta_minus = np.array([1.0, 0.0], dtype=complex)
            else:
                eta_plus = np.array([1.0, 0.0], dtype=complex)
                eta_minus = np.array([0.0, 1.0], dtype=complex)
        else:
            eta_plus = np.array(
                [(-1j * half_diff + sq) / np.conj(v), 1.0], dtype=complex
            )
            eta_minus = np.array(
                [-(1j * half_diff + sq) / np.conj(v), 1.0], dtype=complex
            )
        basis = np.column_stack([eta_plus, eta_minus])
        dual = inverse(basis)  # rows are the dual covectors
        a_op = np.outer(eta_minus, dual[0])
        b_op = np.outer(eta_plus, dual[1])
        family = PFFamily(n_modes=1, pairs=[PFPair(a=a_op, b=b_op)])
        numbers = number_operators(family)
        system = build_bases(family)
        metrics = metric_operators(system)
        # cross-check: the closed form with exponent rate pf_omega against
        # the variant using the raw discriminant as the rate
        t_probe = 1.0
        reference = number_evolution_closed_form(
            numbers, (pf_omega,), ham.gamma, 1, t_probe
        )
        n_op = numbers.n_ops[0]
        nd_op = numbers.n_dagger_ops[0]
        variant = np.exp(-2.0 * ham.gamma * t_probe) * (
            n_op * np.exp(-1j * omega * t_probe)
            + nd_op @ n_op * (1.0 - np.exp(-1j * omega * t_probe))
        )
        fidelity["number_evolution_half_rate_dev"] = float(
            np.abs(reference - variant).max()
        )

    gamma_big = ham.gamma

    def closed_form(psi0, times) -> list[np.ndarray]:
        p = as_vector(psi0, dim=2)
        t = np.asarray(times, dtype=float).reshape(-1)
        drift = np.array(
            [
                -half_diff * p[0] - 1j * v * p[1],
                half_diff * p[1] - 1j * np.conj(v) * p[0],
            ]
        )
        if branch == "degenerate":
            even, odd = np.ones_like(t), t
        elif branch == "oscillatory":
            sq_r = np.sqrt(omega)
            even, odd = np.cos(sq_r * t), np.sin(sq_r * t) / sq_r
        else:
            sq_r = np.sqrt(-omega)
            even, odd = np.cosh(sq_r * t), np.sinh(sq_r * t) / sq_r
        states = np.exp(-gamma_big * t)[:, None] * (
            np.outer(even, p) + np.outer(odd, drift)
        )
        return list(states)

    return Scenario(
        name="benaryeh2",
        config=cfg,
        ham=ham,
        family=family,
        numbers=numbers,
        system=system,
        metrics=metrics,
        omegas=(pf_omega,) if pf_omega is not None else (0.0 + 0.0j,),
        default_psi0=cfg.psi0 if cfg.psi0 is not None else np.array([1.0, 0.0], complex),
        closed_form=closed_form,
        fidelity=fidelity,
        extras={
            "omega": omega,
            "branch": branch,
            "half_diff": half_diff,
            "eta_plus": eta_plus,
            "eta_minus": eta_minus,
            "energies": (
                (-1j * gamma_big + np.sqrt(complex(omega))),
                (-1j * gamma_big - np.sqrt(complex(omega))),
            ),
        },
    )


# ---------------------------------------------------------------------------
# four-level model


def similarity_matrix_4x4(alpha: float, beta: float) -> np.ndarray:
    """The fixed similarity map carrying the four-level model's family."""
    return np.array(
        [
            [0.0, alpha, beta, 0.0],
            [0.0, 1.0, 1.0, 0.0],
            [alpha, 0.0, 1.0, 0.0],
            [0.0, beta, 0.0, alpha],
        ],
        dtype=complex,
    )


def reference_pair_matrices(alpha: float, beta: float) -> dict[str, np.ndarray]:
    """Closed-form reference matrices for the four-level family.

    Explicit entrywise expressions for the similarity-deformed pairs,
    used to cross-check the constructive ``from_similarity`` route; the
    deviations land in the scenario's fidelity record.
    """
    d = alpha - beta
    a1 = (1.0 / alpha) * np.array(
        [
            [-beta ** 2 / d, beta ** 3 / d, 0.0, beta],
            [-beta / d, beta ** 2 / d, 0.0, 1.0],
            [(alpha ** 2 - beta) / d, beta * (-(alpha ** 2) + beta) / d, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0],
        ],
        dtype=complex,
    )
    b1 = np.array(
        [
            [1.0 / d, -alpha / d, 1.0, 0.0],
            [1.0 / (alpha * d), -1.0 / d, 1.0 / alpha, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [
                (-(alpha ** 2) + beta) / (alpha * d),
                (alpha ** 2 - beta) / d,
                beta / alpha,
                0.0,
            ],
        ],
        dtype=complex,
    )
    a2 = np.array(
        [
            [beta / d, -beta ** 2 / d, 0.0, -1.0],
            [beta / (alpha * d), -beta ** 2 / (alpha * d), 0.0, -1.0 / alpha],
            [-alpha / d, alpha ** 2 / d, 0.0, 0.0],
            [beta ** 2 / (alpha * d), -beta ** 3 / (alpha * d), 0.0, -beta / alpha],
        ],
        dtype=complex,
    )
    b2 = np.array(
        [
            [beta / (alpha * d), -beta / d, beta / alpha, 0.0],
            [1.0 / (alpha * d), -1.0 / d, 1.0 / alpha, 0.0],
            [1.0 / (alpha * d), -1.0 / d, 1.0 / alpha, 0.0],
            [-alpha / d, alpha * beta / d, 0.0, 0.0],
        ],
        dtype=complex,
    )
    return {"a1": a1, "b1": b1, "a2": a2, "b2": b2}


def build_bagarello4(cfg: Bagarello4Config) -> Scenario:
    """Assemble the four-level damping model from its configuration."""
    alpha, beta, w1, w2 = cfg.alpha, cfg.beta, cfg.omega1, cfg.omega2
    d = alpha - beta
    delta = w1 - w2
    h_eff = (1j / d) * np.array(
        [
            [0.0, -alpha * beta * delta, 0.0, 0.0],
            [delta, -(alpha + beta) * delta, 0.0, 0.0],
            [-w2, alpha * w2, beta * w2 - alpha * w1, 0.0],
            [-beta * w2, beta ** 2 * w2, 0.0, alpha * w2 - beta * w1],
        ],
        dtype=complex,
    )
    ham = gamma_shift(h_eff)
    gamma_formula = (alpha + beta) * delta / (2.0 * d)

    t_matrix = similarity_matrix_4x4(alpha, beta)
    family = from_similarity(t_matrix, 2)
    numbers = number_operators(family)
    system = build_bases(family)
    metrics = metric_operators(system)
    omegas = (1j * w1, 1j * w2)

    fidelity: dict[str, float] = {}
    fidelity["gamma_formula_dev"] = abs(ham.gamma - gamma_formula)
    h_n = pf_hamiltonian(numbers, omegas)
    fidelity["hamiltonian_reconstruction_dev"] = float(
        np.abs(h_n - ham.h_traceless).max()
    )
    reference = reference_pair_matrices(alpha, beta)
    fidelity["reference_matrix_dev_a1"] = float(np.abs(family.a(1) - reference["a1"]).max())
    fidelity["reference_matrix_dev_b1"] = float(np.abs(family.b(1) - reference["b1"]).max())
    fidelity["reference_matrix_dev_a2"] = float(np.abs(family.a(2) - reference["a2"]).max())
    fidelity["reference_matrix_dev_b2"] = float(np.abs(family.b(2) - reference["b2"]).max())

    # cross-check the product closed form for mode 1 against its expanded
    # variant in which the repeated-mode term appears without its square
    t_probe = 0.8
    n1, n2 = numbers.n_ops
    nd1, nd2 = numbers.n_dagger_ops
    identity = np.eye(4, dtype=complex)
    product_form = number_evolution_closed_form(numbers, omegas, ham.gamma, 1, t_probe)
    e1 = np.exp(w1 * t_probe) - 1.0
    e2 = np.exp(w2 * t_probe) - 1.0
    expanded_unsquared = np.exp(-(2.0 * ham.gamma + w2) * t_probe) * (
        (n1 + nd1 @ n1 * e1) @ (identity + (n2 + nd2) * e2 + nd2 @ n2 * e2)
    )
    fidelity["number_evolution_unsquared_term_dev"] = float(
        np.abs(product_form - expanded_unsquared).max()
    )

    eig = general_eig(h_eff)
    if eig.defects:
        raise ConfigError(
            "four-level generator is not diagonalizable for these parameters: "
            + "; ".join(eig.defects)
        )

    def closed_form(psi0, times) -> list[np.ndarray]:
        # the eigenbasis expansion is exactly the spectral propagator's route
        return schrodinger_evolve(ham, psi0, times).entries

    # the ratio form of the decay condition applies in the alpha > beta > 0 regime
    damped_ratio_form = bool(alpha / beta < w1 / w2) if beta > 0 else None
    return Scenario(
        name="bagarello4",
        config=cfg,
        ham=ham,
        family=family,
        numbers=numbers,
        system=system,
        metrics=metrics,
        omegas=omegas,
        default_psi0=cfg.psi0
        if cfg.psi0 is not None
        else np.full(4, 0.5, dtype=complex),
        closed_form=closed_form,
        fidelity=fidelity,
        extras={
            "t_matrix": t_matrix,
            "gamma_formula": gamma_formula,
            "decay_parameter": (alpha * w2 - beta * w1) / d,
            "damped_ratio_form": damped_ratio_form,
        },
    )


# ---------------------------------------------------------------------------
# abstract N-mode model


def random_similarity(
    dim: int, seed: int, cond_cap: float = 100.0, max_attempts: int = 1000
) -> np.ndarray:
    """Seeded random invertible map with condition number below ``cond_cap``.

    Entries are uniform on [-1, 1] in both real and imaginary part;
    draws are rejected until the (spectral) condition number passes.

    Raises
    ------
    SamplingError
        If no draw passes within ``max_attempts``.
    """
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        t = rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
        try:
            cond = operator_norm(t) * operator_norm(inverse(t))
        except SingularMatrixError:
            continue
        if cond < cond_cap:
            return t
    raise SamplingError(
        f"no similarity draw with condition number < {cond_cap} in {max_attempts} attempts"
    )


def build_abstractN(cfg: AbstractNConfig) -> Scenario:
    """Assemble an N-mode scenario: family, bases, metrics, generator."""
    n = cfg.n_modes
    dim = 2 ** n
    if cfg.t_matrix is not None:
        t_matrix = as_matrix(cfg.t_matrix)
    else:
        t_matrix = random_similarity(dim, cfg.similarity_seed or 0)
    family = from_similarity(t_matrix, n)
    numbers = number_operators(family)
    system = build_bases(family)
    metrics = metric_operators(system)

    threshold = 0.5 * sum(abs(complex(w).imag) for w in cfg.omegas)
    gamma = cfg.gamma if cfg.gamma is not None else threshold + 0.5
    h_n = pf_hamiltonian(numbers, cfg.omegas)
    h_eff = h_n - 1j * gamma * np.eye(dim)
    ham = gamma_shift(h_eff)

    omegas = tuple(complex(w) for w in cfg.omegas)
    energies = np.array(
        [
            sum(w * (((k >> (j - 1)) & 1) - 0.5) for j, w in enumerate(omegas, 1))
            for k in range(dim)
        ],
        dtype=complex,
    )
    phis = np.array(system.phis)
    psis = np.array(system.psis)

    def closed_form(psi0, times) -> list[np.ndarray]:
        # psi(t) = sum_k <psi_k, psi0> e^{-i E_k t} e^{-gamma t} phi_k
        p = as_vector(psi0, dim=dim)
        t = np.asarray(times, dtype=float).reshape(-1)
        weights = (psis.conj() @ p) * np.exp(
            -1j * np.outer(t, energies) - gamma * t[:, None]
        )
        return list(weights @ phis)

    return Scenario(
        name="abstractN",
        config=cfg,
        ham=ham,
        family=family,
        numbers=numbers,
        system=system,
        metrics=metrics,
        omegas=omegas,
        default_psi0=cfg.psi0
        if cfg.psi0 is not None
        else np.full(dim, 1.0 / np.sqrt(dim), dtype=complex),
        closed_form=closed_form,
        fidelity={
            "similarity_condition": float(
                operator_norm(t_matrix) * operator_norm(inverse(t_matrix))
            )
        },
        extras={"t_matrix": t_matrix, "threshold": threshold},
    )


def build_scenario(cfg) -> Scenario:
    """Dispatch a parsed configuration to its builder."""
    if isinstance(cfg, Benaryeh2Config):
        return build_benaryeh2(cfg)
    if isinstance(cfg, Bagarello4Config):
        return build_bagarello4(cfg)
    if isinstance(cfg, AbstractNConfig):
        return build_abstractN(cfg)
    raise ConfigError(f"not a scenario configuration: {type(cfg).__name__}")
