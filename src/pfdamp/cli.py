"""Command-line interface.

Subcommands
-----------
``verify <manifest>``
    Load an operator family from a manifest and check the pair algebra,
    biorthonormality, metric duality, vacuum annihilation, and the
    intertwining relations.  The last four residuals are relative: each is
    divided by the product of the spectral norms of what it compares, so a
    change of scale of the family leaves the verdict unchanged.  Exit 0 when
    every residual passes, 1 when any check fails, 2 on malformed input.

``evolve <config>``
    Closed-system evolution of a state under the scenario's generator;
    writes a CSV with one row per sample: t, re/im of every component, and
    the Euclidean norm.  A comment line names the propagator that ran
    (spectral, with cond(V) of the eigenvector basis, or the expm fallback).

``observe <config> --observable N1|FILE``
    Evolution of an observable in the adjoint (two-sided) picture; writes a
    CSV with the spectral norm per sample and the exponential envelope
    column c(N) * exp(-2*gamma*t).

``report <config>``
    Damping summary: gamma, mode frequencies, damping threshold, verdict,
    envelope constant, generalized-trace identities, and the fidelity
    cross-checks recorded while building the scenario.

``scenario list``
    Names and parameter summaries of the built-in scenarios.

All numbers are printed with up to 17 significant digits so runs are
reproducible byte-for-byte.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import matfile
from .dynamics import (
    bound_constant,
    heisenberg_evolve,
    schrodinger_evolve,
    write_norm_csv,
    write_state_csv,
)
from .linalg import DEFAULT_TOL, LinalgError, frobenius_norm, matmul, operator_norm
from .pseudofermion import (
    InvalidFamilyError,
    build_bases,
    import_family,
    intertwining_check,
    metric_operators,
    number_operators,
    validate_family,
)
from .scenarios import (
    SCENARIO_NAMES,
    AbstractNConfig,
    ConfigError,
    SamplingError,
    build_scenario,
    load_config,
)

__all__ = ["main", "entry", "build_parser"]

_USAGE_ERROR = 2
_CHECK_FAILED = 1


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_c(z: complex) -> str:
    return matfile.format_complex(complex(z))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfdamp",
        description="pseudo-fermion families and damped (non-self-adjoint) evolution",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help="relative residual tolerance for verification checks (default 1e-10)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check an operator-family manifest")
    p_verify.add_argument("manifest", help="path to a family manifest (JSON)")

    p_evolve = sub.add_parser("evolve", help="evolve a state, write a CSV trajectory")
    p_evolve.add_argument("config", help="scenario configuration (JSON)")
    p_evolve.add_argument(
        "--grid",
        default="0,20,201",
        help="time grid as t0,t1,n (default 0,20,201)",
    )
    p_evolve.add_argument("--out", help="output CSV path (default: stdout)")
    p_evolve.add_argument(
        "--seed", type=int, help="override the abstractN similarity seed"
    )

    p_observe = sub.add_parser(
        "observe", help="evolve an observable, write norm + envelope CSV"
    )
    p_observe.add_argument("config", help="scenario configuration (JSON)")
    p_observe.add_argument(
        "--observable",
        required=True,
        help="Nk for the k-th number operator (e.g. N1), or a matrix file path",
    )
    p_observe.add_argument(
        "--grid",
        default="0,20,201",
        help="time grid as t0,t1,n (default 0,20,201)",
    )
    p_observe.add_argument("--out", help="output CSV path (default: stdout)")
    p_observe.add_argument(
        "--seed", type=int, help="override the abstractN similarity seed"
    )

    p_report = sub.add_parser("report", help="print a damping summary")
    p_report.add_argument("config", help="scenario configuration (JSON)")
    p_report.add_argument(
        "--seed", type=int, help="override the abstractN similarity seed"
    )

    p_scenario = sub.add_parser("scenario", help="scenario utilities")
    p_scenario.add_argument("action", choices=["list"], help="what to do")

    return parser


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--grid: expected t0,t1,n, got {text!r}")
    try:
        t0, t1 = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError:
        raise ConfigError(f"--grid: expected t0,t1,n with numeric entries, got {text!r}") from None
    if n < 1:
        raise ConfigError("--grid: need at least one sample")
    if not np.isfinite(t0) or not np.isfinite(t1) or t1 < t0:
        raise ConfigError(f"--grid: bad interval [{_fmt(t0)}, {_fmt(t1)}]")
    return np.linspace(t0, t1, n)


def _load_scenario(args):
    cfg = load_config(args.config)
    seed = getattr(args, "seed", None)
    if seed is not None and isinstance(cfg, AbstractNConfig):
        cfg.similarity_seed = seed
        cfg.t_matrix = None
    return build_scenario(cfg)


def _config_comments(scenario) -> list[str]:
    cfg = scenario.config
    fields = []
    for key, value in vars(cfg).items():
        if key == "psi0" or value is None:
            continue
        if isinstance(value, np.ndarray):
            continue
        if isinstance(value, complex):
            fields.append(f"{key}={_fmt_c(value)}")
        elif isinstance(value, tuple):
            fields.append(f"{key}=({', '.join(_fmt_c(v) for v in value)})")
        else:
            fields.append(f"{key}={value}")
    psi0 = ", ".join(_fmt_c(z) for z in scenario.default_psi0)
    return [
        f"scenario: {scenario.name}",
        f"parameters: {'; '.join(fields)}",
        f"gamma: {_fmt(scenario.ham.gamma)}",
        f"initial state: ({psi0})",
    ]


def _propagator_comment(traj) -> str:
    if traj.basis_cond is None:
        return f"propagator: {traj.path}"
    return f"propagator: {traj.path}, cond(V) {traj.basis_cond:.1f}"


def _resolve_observable(scenario, spec_text: str) -> tuple[np.ndarray, str]:
    if spec_text.startswith("N") and spec_text[1:].isdigit():
        k = int(spec_text[1:])
        try:
            return scenario.number_operator(k), f"number operator N{k}"
        except ValueError as exc:
            raise ConfigError(f"--observable: {exc}") from exc
    try:
        mat = matfile.read_matrix(spec_text)
    except OSError as exc:
        raise ConfigError(f"--observable: {spec_text!r}: {exc}") from exc
    if mat.shape[0] != scenario.ham.dim:
        raise ConfigError(
            f"--observable: dimension {mat.shape[0]}, expected {scenario.ham.dim}"
        )
    return mat, f"matrix from {spec_text}"


def _write_csv(text_writer, out_path) -> None:
    """text_writer(fh) -> None; route to a file or stdout."""
    if out_path is None:
        text_writer(sys.stdout)
    else:
        with open(out_path, "w") as fh:
            text_writer(fh)


def _relative(residual: float, scale: float) -> float:
    """``residual / scale``; a zero residual is 0 whatever the scale."""
    return float(residual) / scale if residual else 0.0


def _cmd_verify(args) -> int:
    family = import_family(args.manifest)
    tol = args.tol
    lines = [f"family: {family.n_modes} mode(s), dimension {family.dim}"]
    ok = True

    validity = validate_family(family, tol=tol * family.dim)
    worst = max(validity.residual_ab, validity.residual_aa, validity.residual_bb)
    ok &= validity.passed
    lines.append(
        "pair algebra: residual "
        f"{_fmt(worst)} (anticommutators {_fmt(validity.residual_ab)}, "
        f"squares {_fmt(max(validity.residual_aa, validity.residual_bb))})"
        f"  [{'pass' if validity.passed else 'FAIL'}]"
    )

    system = build_bases(family)
    dim = family.dim
    gram = np.array(
        [[np.vdot(phi, psi) for psi in system.psis] for phi in system.phis]
    )
    phi_norms = np.linalg.norm(system.phis, axis=1)
    psi_norms = np.linalg.norm(system.psis, axis=1)
    bio_dev = float(
        (np.abs(gram - np.eye(dim)) / np.outer(phi_norms, psi_norms)).max()
    )
    bio_ok = bio_dev < tol
    ok &= bio_ok
    lines.append(
        f"biorthonormality: max relative deviation {_fmt(bio_dev)}  "
        f"[{'pass' if bio_ok else 'FAIL'}]"
    )

    metrics = metric_operators(system)
    s_phi_norm = operator_norm(metrics.s_phi)
    s_psi_norm = operator_norm(metrics.s_psi)
    duality = frobenius_norm(matmul(metrics.s_phi, metrics.s_psi) - np.eye(dim)) / (
        s_phi_norm * s_psi_norm
    )
    duality_ok = duality < tol
    ok &= duality_ok
    lines.append(
        f"metric duality |S_phi S_psi - I| (relative): {_fmt(duality)}  "
        f"[{'pass' if duality_ok else 'FAIL'}]"
    )

    vac_dev = 0.0
    phi0, psi0 = system.phis[0], system.psis[0]
    for j in range(1, family.n_modes + 1):
        a_j, b_j = family.a(j), family.b(j)
        vac_dev = max(
            vac_dev,
            _relative(np.abs(a_j @ phi0).max(), operator_norm(a_j) * phi_norms[0]),
            _relative(
                np.abs(b_j.conj().T @ psi0).max(), operator_norm(b_j) * psi_norms[0]
            ),
        )
    vac_ok = vac_dev < tol
    ok &= vac_ok
    lines.append(
        f"vacuum annihilation: max relative residual {_fmt(vac_dev)}  "
        f"[{'pass' if vac_ok else 'FAIL'}]"
    )

    numbers = number_operators(family)
    inter = intertwining_check(metrics, numbers)
    inter_dev = 0.0
    for r_psi, r_phi, n_op in zip(
        inter.residuals_psi, inter.residuals_phi, numbers.n_ops
    ):
        n_norm = operator_norm(n_op)
        inter_dev = max(
            inter_dev,
            _relative(r_psi, s_psi_norm * n_norm),
            _relative(r_phi, s_phi_norm * n_norm),
        )
    inter_ok = inter_dev < tol
    ok &= inter_ok
    lines.append(
        f"intertwining: max relative residual {_fmt(inter_dev)}  "
        f"[{'pass' if inter_ok else 'FAIL'}]"
    )

    lines.append(f"result: {'PASS' if ok else 'FAIL'} (tol {_fmt(tol)})")
    print("\n".join(lines))
    return 0 if ok else _CHECK_FAILED


def _cmd_evolve(args) -> int:
    scenario = _load_scenario(args)
    times = _parse_grid(args.grid)
    traj = schrodinger_evolve(scenario.ham, scenario.default_psi0, times)
    comments = _config_comments(scenario) + [
        _propagator_comment(traj),
        "columns: t, re/im per component, Euclidean norm",
    ]
    _write_csv(lambda fh: write_state_csv(traj, fh, comments=comments), args.out)
    return 0


def _cmd_observe(args) -> int:
    scenario = _load_scenario(args)
    times = _parse_grid(args.grid)
    observable, label = _resolve_observable(scenario, args.observable)
    traj = heisenberg_evolve(scenario.ham, observable, times)
    c_n = bound_constant(scenario.n_modes)
    comments = _config_comments(scenario) + [
        f"observable: {label}",
        _propagator_comment(traj),
        f"columns: t, spectral norm, envelope {_fmt(c_n)}*exp(-2*{_fmt(scenario.ham.gamma)}*t)",
    ]
    _write_csv(
        lambda fh: write_norm_csv(
            traj, scenario.ham.gamma, scenario.n_modes, fh, comments=comments
        ),
        args.out,
    )
    return 0


def _cmd_report(args) -> int:
    scenario = _load_scenario(args)
    rep = scenario.report()
    lines = [
        f"scenario: {scenario.name}",
        f"dimension: {scenario.ham.dim}",
        f"modes: {scenario.n_modes}",
        f"gamma: {_fmt(rep.gamma)}",
        "mode frequencies: " + ", ".join(_fmt_c(w) for w in rep.omegas),
        f"threshold: {_fmt(rep.threshold)}",
        f"damped: {'true' if rep.damped else 'false'}",
        f"envelope constant: {_fmt(rep.bound_constant)}",
    ]
    if rep.imaginary_mode_condition is not None:
        lines.append(
            "imaginary-frequency decay condition (2*gamma > sum of rates): "
            + ("satisfied" if rep.imaginary_mode_condition else "violated")
        )
    traces = scenario.trace_identities()
    if traces is not None:
        t_traceless, t_eff = traces
        expected = -1j * scenario.ham.dim * rep.gamma
        lines.append(
            f"generalized trace of traceless part: {_fmt_c(t_traceless)} (expected 0)"
        )
        lines.append(
            f"generalized trace of generator: {_fmt_c(t_eff)} "
            f"(expected {_fmt_c(expected)})"
        )
    for key in ("omega", "branch", "decay_parameter", "damped_ratio_form", "threshold"):
        if key in scenario.extras and scenario.extras[key] is not None:
            value = scenario.extras[key]
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = _fmt(value)
            else:
                text = str(value)
            lines.append(f"{key.replace('_', ' ')}: {text}")
    if scenario.fidelity:
        lines.append("fidelity cross-checks (max entry deviation):")
        for key in sorted(scenario.fidelity):
            lines.append(f"  {key}: {_fmt(scenario.fidelity[key])}")
    print("\n".join(lines))
    return 0


def _cmd_scenario(args) -> int:
    if args.action == "list":
        print(
            "\n".join(
                [
                    "benaryeh2    two-level model; params: gamma_a, gamma_b, v"
                    " (complex), optional psi0",
                    "bagarello4   four-level model; params: alpha, beta, omega1,"
                    " omega2, optional psi0",
                    "abstractN    N-mode family (N<=6); params: n_modes, omegas,"
                    " similarity_seed or t_matrix, optional gamma, psi0",
                ]
            )
        )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "evolve": _cmd_evolve,
        "observe": _cmd_observe,
        "report": _cmd_report,
        "scenario": _cmd_scenario,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, matfile.MatrixFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except InvalidFamilyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CHECK_FAILED
    except SamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CHECK_FAILED
    except LinalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CHECK_FAILED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
