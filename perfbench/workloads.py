"""The benchmark's three workloads.

Each workload makes its inputs from the workload seed, does its untimed
set-up in :meth:`setup`, and hands out ops by index with :meth:`op`.  Op
``i`` is request ``i % period`` of a fixed cycle, so a run of whole cycles
always has the same mix.  Every op comes with a check against
:mod:`oracle`, which does not use pfdamp.

``cli_mix``
    In-process ``pfdamp.cli.main`` calls over every subcommand and scenario
    at N = 1..6, plus a few malformed requests.  The end-to-end path; at
    N >= 5 the scenario build (vacua -> hermitian_eig) dominates.
``propagate``
    ``schrodinger_evolve``, ``heisenberg_evolve`` and ``Scenario.closed_form``
    on scenarios built during set-up, from well-conditioned to defective
    generators.  Isolates the propagator.
``sweep_small``
    Criterion-8-like draws at N <= 3: build, closed-form number evolution
    with a spectral norm per sample, damping report.  Thousands of tiny
    kernel calls and no expm.
"""

from __future__ import annotations

import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pfdamp import cli, dynamics, linalg, pseudofermion, scenarios

import oracle

#: Failures whose evidence matches a defect the program is known to have.
#: They count in ``failed`` like every other failure; ``correct`` turns
#: false only on a failure that matches none of them.
KNOWN_DEFECTS = {
    "verify_absolute_tol": (
        "verify prints FAIL for a family that is valid by construction: the "
        "reported residuals are below 1e-8 of the family's scale but above the "
        "absolute 1e-10 tolerance"
    ),
    "benaryeh2_scale_branch": (
        "benaryeh2 takes the degenerate closed-form branch from the absolute "
        "test |Omega| < 1e-12 although Omega is not small against the rates"
    ),
    "nan_matrix_traceback": (
        "a matrix file with a nan entry ends in an uncaught ValueError "
        "instead of exit code 2 with a one-line message"
    ),
    "power_iteration_cap": (
        "operator_norm raises ConvergenceError after 10000 power iterations "
        "when the top two singular values of a valid input nearly coincide"
    ),
}
_POWER_CAP_MESSAGE = "power iteration did not converge"

CLI_GRID = np.linspace(0.0, 20.0, 201)
#: a failing verify residual below this share of the family's scale
#: (oracle.family_scale) is rounding, not a broken family
VERIFY_RTOL = 1e-8


@dataclass
class Failure:
    reason: str
    defect: str | None = None

    def __post_init__(self):
        if self.defect is not None and self.defect not in KNOWN_DEFECTS:
            raise ValueError(f"unregistered defect {self.defect!r}")


@dataclass
class Raised:
    exc: Exception


@dataclass
class CliResult:
    code: int | None
    stdout: str
    stderr: str

    @property
    def output_bytes(self) -> int:
        return len(self.stdout.encode())


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Failure | None]
    #: a malformed request: its check also judges a raised exception
    malformed: bool = False


def run_op(op: Op):
    """Call an op; an exception becomes a :class:`Raised` result."""
    try:
        return op.call()
    except Exception as exc:  # the loop must go on and count the failure
        return Raised(exc)


def check_op(op: Op, result) -> Failure | None:
    if isinstance(result, Raised) and not op.malformed:
        power_cap = isinstance(result.exc, linalg.ConvergenceError) and _POWER_CAP_MESSAGE in str(result.exc)
        return Failure(
            f"raised {type(result.exc).__name__}: {result.exc}",
            "power_iteration_cap" if power_cap else None,
        )
    try:
        return op.check(result)
    except (ValueError, KeyError, IndexError) as exc:
        return Failure(f"output not parseable: {exc}")


def sub_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(list(parts))


def _random_state(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _random_matrix(rng, d: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (d, d)) + 1j * rng.uniform(-1.0, 1.0, (d, d))


def _pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def benaryeh2_params(rng, regime: str) -> dict:
    """Two-level parameters: gamma_a > gamma_b > 0 and a complex coupling."""
    gamma_b = rng.uniform(0.2, 1.0)
    gap = rng.uniform(0.2, 0.8)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    if regime == "oscillatory":
        v = rng.uniform(0.6, 1.5) * phase
    elif regime == "hyperbolic":
        v = rng.uniform(0.02, 0.08) * phase
    elif regime == "exceptional":
        # |v| just above (gamma_a - gamma_b)/2: Omega ~ 3e-6 of the rates squared
        v = 0.5 * gap * (1.0 + rng.uniform(1e-6, 2e-6)) * phase
    else:
        # dyadic rates make |v|^2 - ((gamma_a - gamma_b)/2)^2 exactly 0
        gamma_b = int(rng.integers(4, 17)) / 16.0
        gap = int(rng.integers(2, 7)) / 8.0
        v = complex(gap / 2.0)
    return {"gamma_a": gamma_b + gap, "gamma_b": gamma_b, "v": complex(v)}


def benaryeh2_doc(params: dict) -> dict:
    p = {"gamma_a": params["gamma_a"], "gamma_b": params["gamma_b"], "v": _pair(params["v"])}
    return {"scenario": "benaryeh2", "params": p}


def abstract_omegas(rng, n: int, complex_freq: bool) -> tuple[complex, ...]:
    re = rng.uniform(0.5, 3.0, n)
    im = rng.uniform(-0.5, 0.5, n) if complex_freq else np.zeros(n)
    return tuple(complex(r, i) for r, i in zip(re, im))


# ---------------------------------------------------------------------------
# cli_mix


def cli_call(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def _exit_failure(res: CliResult, want: int = 0) -> Failure | None:
    if res.code != want:
        last = (res.stderr.strip().splitlines() or [""])[-1]
        power_cap = res.code == 1 and _POWER_CAP_MESSAGE in last
        return Failure(
            f"exit code {res.code}, expected {want}: {last}",
            "power_iteration_cap" if power_cap else None,
        )
    return None


def _columns_close(got, want, rtol: float) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = np.maximum(np.abs(want), np.finfo(float).tiny)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= rtol * scale))


def check_report(res: CliResult, model: dict) -> Failure | None:
    failure = _exit_failure(res)
    if failure:
        return failure
    got = oracle.parse_report(res.stdout)
    want = oracle.report_fields(model)
    scale = abs(want["gamma"]) + sum(abs(w) for w in want["omegas"])
    omegas = [complex(x) for x in got["mode frequencies"].split(", ")]
    problems = []
    if not oracle.close(float(got["gamma"]), want["gamma"], scale):
        problems.append("gamma")
    if not oracle.close(float(got["threshold"]), want["threshold"], scale):
        problems.append("threshold")
    if got["damped"] != ("true" if want["damped"] else "false"):
        problems.append("damped")
    if float(got["envelope constant"]) != want["envelope"]:
        problems.append("envelope constant")
    if len(omegas) != len(want["omegas"]) or any(
        abs(g - w) > oracle.RTOL_SCALAR * scale for g, w in zip(omegas, want["omegas"])
    ):
        problems.append("mode frequencies")
    return Failure(f"report fields differ: {', '.join(problems)}") if problems else None


def check_evolve(res: CliResult, model: dict, psi0: np.ndarray) -> Failure | None:
    failure = _exit_failure(res)
    if failure:
        return failure
    _, rows = oracle.parse_csv(res.stdout)
    if rows.shape != (CLI_GRID.size, 2 * psi0.size + 2):
        return Failure(f"CSV has shape {rows.shape}")
    states = rows[:, 1:-1:2] + 1j * rows[:, 2:-1:2]
    reason = oracle.compare_states(states, oracle.Propagator(model["h"], CLI_GRID), psi0)
    if reason is None and not _columns_close(rows[:, 0], CLI_GRID, oracle.RTOL_SCALAR):
        reason = "time column differs from the grid"
    if reason is None and not _columns_close(
        rows[:, -1], np.linalg.norm(states, axis=1), oracle.RTOL_SCALAR
    ):
        reason = "norm column differs from the printed states"
    return Failure(reason) if reason else None


def check_observe(res: CliResult, model: dict, x: np.ndarray) -> Failure | None:
    failure = _exit_failure(res)
    if failure:
        return failure
    header, rows = oracle.parse_csv(res.stdout)
    if header != ["t", "norm", "bound"] or rows.shape[0] != CLI_GRID.size:
        return Failure(f"CSV header {header} with {rows.shape[0]} rows")
    prop = oracle.Propagator(model["h"], CLI_GRID)
    reason = oracle.compare_norm_column(rows[:, 1], prop, x)
    envelope = oracle.report_fields(model)["envelope"] * np.exp(-2.0 * model["gamma"] * CLI_GRID)
    if reason is None and not _columns_close(rows[:, 2], envelope, 1e-10):
        reason = "bound column differs from c(N) exp(-2 gamma t)"
    return Failure(reason) if reason else None


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|nan|inf)", re.IGNORECASE)


def check_verify(res: CliResult, scale: float) -> Failure | None:
    if res.code == 0 and "result: PASS" in res.stdout:
        return None
    failing = [ln for ln in res.stdout.splitlines() if ln.endswith("[FAIL]")]
    numbers = [_NUMBER.search(ln.partition(": ")[2]) for ln in failing]
    residuals = [float(m.group()) if m else np.inf for m in numbers]
    reason = f"verify exit {res.code} on a valid family: " + "; ".join(failing)
    if res.code == 1 and failing and max(residuals) <= VERIFY_RTOL * scale:
        return Failure(reason, "verify_absolute_tol")
    return Failure(reason)


def check_usage_error(res, nan_input: bool = False) -> Failure | None:
    if isinstance(res, Raised):
        reason = f"raised {type(res.exc).__name__}: {res.exc}"
        nan_defect = nan_input and type(res.exc) is ValueError and "finite" in str(res.exc)
        return Failure(reason, "nan_matrix_traceback" if nan_defect else None)
    lines = res.stderr.splitlines()
    if res.code == 2 and len(lines) == 1 and lines[0].startswith("error: ") and not res.stdout:
        return None
    return Failure(f"malformed request: exit {res.code}, stderr {res.stderr!r}")


@dataclass
class CliScenario:
    config: str
    model: Callable[[int | None], dict]  # similarity seed -> oracle model
    psi0: np.ndarray
    observable: np.ndarray
    observable_file: str
    manifest: str | None
    #: oracle.family_scale of the exported family
    verify_scale: float
    seeded: bool
    has_numbers: bool


class CliMix:
    name = "cli_mix"
    # two cycles put the tail percentile among the N >= 5 requests; each of
    # them gets its own inputs, so a run sees two draws of every request
    min_cycles = 2
    trace_cycles = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self._dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def _export(self, family, label: str) -> str:
        return pseudofermion.export_family(family, os.path.join(self._dir, f"family-{label}"))

    def _scenario(self, rng, label, d, doc, model, seeded, family, t=None) -> CliScenario:
        psi0 = _random_state(rng, d)
        doc["params"]["psi0"] = [_pair(z) for z in psi0]
        observable = _random_matrix(rng, d)
        return CliScenario(
            config=self._write(f"{label}.json", json.dumps(doc)),
            model=model,
            psi0=psi0,
            observable=observable,
            observable_file=self._write(f"{label}-observable.txt", oracle.matrix_text(observable)),
            manifest=self._export(family, label) if family is not None else None,
            verify_scale=oracle.family_scale(t) if t is not None else np.nan,
            seeded=seeded,
            has_numbers=family is not None,
        )

    def setup(self) -> None:
        self.input_sets = [self._requests(k) for k in range(self.min_cycles)]
        self.period = len(self.input_sets[0])

    def _requests(self, k: int) -> list[Callable[[int], Op]]:
        """Input set ``k``: files under its own directory, requests in cycle order."""
        self._dir = os.path.join(self.workdir, f"inputs-{k}")
        os.makedirs(self._dir, exist_ok=True)
        rng = _rng(self.seed, 1, k)
        specs = []
        for regime in ("oscillatory", "hyperbolic", "degenerate"):
            params = benaryeh2_params(rng, regime)
            doc = benaryeh2_doc(params)
            family = t = None
            if regime != "degenerate":
                family = scenarios.build_scenario(scenarios.parse_config(doc)).family
                # the family diagonalises H_eff; its eigenvector matrix stands in for T
                t = np.linalg.eig(oracle.benaryeh2(**params)["h"])[1]
            specs.append(
                self._scenario(rng, f"benaryeh2-{regime}", 2, doc,
                               lambda _s, p=params: oracle.benaryeh2(**p), False, family, t)
            )
        bag = {
            "alpha": rng.uniform(1.5, 3.0),
            "beta": rng.uniform(0.5, 1.2),
            "omega1": rng.uniform(2.0, 4.0),
            "omega2": rng.uniform(0.5, 1.5),
        }
        doc = {"scenario": "bagarello4", "params": dict(bag)}
        family = scenarios.build_scenario(scenarios.parse_config(doc)).family
        specs.append(
            self._scenario(rng, "bagarello4", 4, doc, lambda _s, p=bag: oracle.bagarello4(**p), False, family,
                           oracle.bagarello4(**bag)["t"])
        )
        for n in range(1, 7):
            d = 2**n
            omegas = abstract_omegas(rng, n, complex_freq=n % 2 == 0)
            doc = {"scenario": "abstractN", "params": {"n_modes": n, "omegas": [_pair(w) for w in omegas]}}
            family_t = oracle.similarity(d, sub_seed(self.seed, 2, n, k))
            family = pseudofermion.from_similarity(family_t, n)
            if n == 3:
                # this N reads its similarity map from a t_matrix file
                t = oracle.similarity(d, sub_seed(self.seed, 3, k))
                doc["params"]["t_matrix"] = os.path.basename(
                    self._write("abstractN-3-t.txt", oracle.matrix_text(t))
                )
                model = lambda _s, t=t, w=omegas: oracle.abstract_n(t, w)  # noqa: E731
            else:
                model = lambda s, d=d, w=omegas: oracle.abstract_n(oracle.similarity(d, s), w)  # noqa: E731
            specs.append(self._scenario(rng, f"abstractN-{n}", d, doc, model, n != 3, family, family_t))

        requests: list[Callable[[int], Op]] = []
        for spec in specs:
            requests.append(lambda seed, s=spec: self._report(s, seed))
            requests.append(lambda seed, s=spec: self._evolve(s, seed))
            if spec.has_numbers:
                requests.append(lambda seed, s=spec: self._observe(s, seed, number_op=True))
            requests.append(lambda seed, s=spec: self._observe(s, seed, number_op=False))
            if spec.manifest is not None:
                requests.append(lambda seed, s=spec: self._verify(s))
        unknown = self._write("unknown.json", json.dumps({"scenario": "benaryeh3", "params": {}}))
        nan_matrix = _random_matrix(rng, 4)
        nan_matrix[1, 2] = np.nan
        nan_file = self._write("nan-observable.txt", oracle.matrix_text(nan_matrix))
        bad_grid = ["5,1,10", "0,20,0", "0,20", "0,inf,11"][int(rng.integers(4))]
        requests += [
            lambda seed: self._malformed(["evolve", specs[0].config, "--grid", bad_grid]),
            lambda seed: self._malformed(["report", unknown]),
            lambda seed: self._malformed(
                ["observe", specs[5].config, "--observable", nan_file], nan_input=True
            ),
        ]
        return requests

    def op(self, i: int) -> Op:
        cycle, index = divmod(i, self.period)
        requests = self.input_sets[cycle % len(self.input_sets)]
        return requests[index](sub_seed(self.seed, 4, cycle, index))

    def _argv(self, spec: CliScenario, seed: int, *argv: str) -> list[str]:
        return [*argv, "--seed", str(seed)] if spec.seeded else list(argv)

    def _report(self, spec, seed) -> Op:
        argv = self._argv(spec, seed, "report", spec.config)
        return Op("cli.report", lambda: cli_call(argv), lambda r: check_report(r, spec.model(seed)))

    def _evolve(self, spec, seed) -> Op:
        argv = self._argv(spec, seed, "evolve", spec.config)
        return Op("cli.evolve", lambda: cli_call(argv),
                  lambda r: check_evolve(r, spec.model(seed), spec.psi0))

    def _observe(self, spec, seed, number_op: bool) -> Op:
        which = "N1" if number_op else spec.observable_file
        argv = self._argv(spec, seed, "observe", spec.config, "--observable", which)

        def check(res):
            model = spec.model(seed)
            x = model["number_ops"][0] if number_op else spec.observable
            return check_observe(res, model, x)

        return Op("cli.observe", lambda: cli_call(argv), check)

    def _verify(self, spec) -> Op:
        argv = ["verify", spec.manifest]
        return Op("cli.verify", lambda: cli_call(argv), lambda r: check_verify(r, spec.verify_scale))

    def _malformed(self, argv, nan_input: bool = False) -> Op:
        return Op("cli.malformed", lambda: cli_call(argv),
                  lambda r: check_usage_error(r, nan_input), malformed=True)


# ---------------------------------------------------------------------------
# propagate


class Propagate:
    name = "propagate"
    # with two N = 6 Heisenberg ops per cycle, six cycles put the tail
    # percentile among them
    min_cycles = 6
    trace_cycles = 2
    kinds = ("schrodinger", "heisenberg", "closed_form")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        rng = _rng(self.seed, 1)
        grid = np.linspace(0.0, 20.0, 201)
        specs = []
        for n in (4, 6):
            omegas = abstract_omegas(rng, n, complex_freq=True)
            sim_seed = sub_seed(self.seed, 2, n)
            doc = {"scenario": "abstractN",
                   "params": {"n_modes": n, "omegas": [_pair(w) for w in omegas], "similarity_seed": sim_seed}}
            model = lambda n=n, s=sim_seed, w=omegas: oracle.abstract_n(oracle.similarity(2**n, s), w)  # noqa: E731
            specs.append((f"abstractN-{n}", doc, model, grid, True))
        bag = {"alpha": 2.0, "beta": 1.0, "omega1": 3.0, "omega2": 1.0}
        specs.append(("bagarello4", {"scenario": "bagarello4", "params": bag},
                      lambda: oracle.bagarello4(**bag), grid, True))
        for regime in ("exceptional", "degenerate"):
            p = benaryeh2_params(rng, regime)
            specs.append((f"benaryeh2-{regime}", benaryeh2_doc(p),
                          lambda p=p: oracle.benaryeh2(**p), grid, regime != "degenerate"))
        base = benaryeh2_params(rng, "oscillatory")
        scaled = {"gamma_a": base["gamma_a"] * 1e-7, "gamma_b": base["gamma_b"] * 1e-7, "v": base["v"] * 1e-7}
        specs.append(("benaryeh2-rescaled", benaryeh2_doc(scaled),
                      lambda: oracle.benaryeh2(**scaled), grid * 1e7, False))
        self.scenarios = [
            (label, scenarios.build_scenario(scenarios.parse_config(doc)), model, times, numbers)
            for label, doc, model, times, numbers in specs
        ]
        # every scenario x kind, then every closed form a second time and a
        # second N = 6 Heisenberg op.  The ten cheapest ops (closed forms off
        # N = 6) are then as many as the nine costliest, so the median of the
        # 25 falls in the middle of the next group (the N = 6 closed forms and
        # the small-scenario Schrodinger ops), not at the edge between two
        cf = self.kinds.index("closed_form")
        self.plan = [(s, k) for k in range(len(self.kinds)) for s in range(len(self.scenarios))]
        self.plan += [(s, cf) for s in range(len(self.scenarios))]
        self.plan.append((1, self.kinds.index("heisenberg")))
        self.period = len(self.plan)
        self._oracles: dict[str, tuple[dict, oracle.Propagator]] = {}

    def _oracle(self, label, model, times):
        if label not in self._oracles:
            m = model()
            self._oracles[label] = (m, oracle.Propagator(m["h"], times))
        return self._oracles[label]

    def op(self, i: int) -> Op:
        scenario, kind = self.plan[i % self.period]
        label, scn, model, times, numbers = self.scenarios[scenario]
        kind = self.kinds[kind]
        rng = _rng(self.seed, 5, i)
        d = scn.ham.dim
        if kind == "heisenberg":
            if numbers and rng.random() < 0.5:
                x = scn.numbers.n_ops[int(rng.integers(scn.n_modes))]
            else:
                x = _random_matrix(rng, d)

            def check(traj):
                _, prop = self._oracle(label, model, times)
                reason = oracle.compare_observables(traj.entries, prop, x)
                reason = reason or oracle.compare_spectral_norms(traj.norms, traj.entries)
                return Failure(reason) if reason else None

            return Op("propagate.heisenberg", lambda: dynamics.heisenberg_evolve(scn.ham, x, times), check)

        psi0 = _random_state(rng, d)
        if kind == "schrodinger":

            def check(traj):
                _, prop = self._oracle(label, model, times)
                reason = oracle.compare_states(traj.entries, prop, psi0)
                if reason is None and not _columns_close(
                    traj.norms, np.linalg.norm(traj.entries, axis=1), oracle.RTOL_SCALAR
                ):
                    reason = "trajectory norms differ from its states"
                return Failure(reason) if reason else None

            return Op("propagate.schrodinger", lambda: dynamics.schrodinger_evolve(scn.ham, psi0, times), check)

        def check(states):
            m, prop = self._oracle(label, model, times)
            reason = oracle.compare_states(states, prop, psi0)
            if reason is None:
                return None
            wrong_branch = (
                scn.extras.get("branch") == "degenerate" and m.get("relative_discriminant", 0.0) > 1e-6
            )
            return Failure(reason, "benaryeh2_scale_branch" if wrong_branch else None)

        return Op("propagate.closed_form", lambda: scn.closed_form(psi0, times), check)


# ---------------------------------------------------------------------------
# sweep_small


@dataclass
class SweepResult:
    t_matrix: np.ndarray
    matrices: np.ndarray  # (modes, samples, d, d)
    norms: np.ndarray  # (modes, samples)
    report: object


class SweepSmall:
    name = "sweep_small"
    min_cycles = 1
    trace_cycles = 5
    # N in {1, 2, 3} x real/complex frequencies x above/below threshold
    period = 12

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.times = np.linspace(0.0, 10.0, 101)

    def setup(self) -> None:
        pass

    def op(self, i: int) -> Op:
        rng = _rng(self.seed, 6, i)
        n = i % 3 + 1
        omegas = abstract_omegas(rng, n, complex_freq=(i // 3) % 2 == 1)
        threshold = 0.5 * sum(abs(w.imag) for w in omegas)
        gamma = threshold + 0.5 if (i // 6) % 2 == 0 else threshold - 0.5
        sim_seed = sub_seed(self.seed, 7, i)
        times = self.times

        def call() -> SweepResult:
            s = scenarios.build_scenario(
                scenarios.AbstractNConfig(n_modes=n, omegas=omegas, similarity_seed=sim_seed, gamma=gamma)
            )
            mats, norms = [], []
            for k in range(1, n + 1):
                for t in times:
                    m = dynamics.number_evolution_closed_form(s.numbers, s.omegas, s.ham.gamma, k, float(t))
                    mats.append(m)
                    norms.append(linalg.operator_norm(m))
            shape = (n, times.size)
            return SweepResult(
                s.extras["t_matrix"],
                np.array(mats).reshape(*shape, 2**n, 2**n),
                np.array(norms).reshape(shape),
                dynamics.damping_report(s.ham.gamma, s.omegas),
            )

        def check(res: SweepResult) -> Failure | None:
            t = oracle.similarity(2**n, sim_seed)
            if not np.array_equal(res.t_matrix, t):
                return Failure("similarity map differs from the seeded rejection sampler")
            model = oracle.abstract_n(t, omegas, gamma)
            prop = oracle.Propagator(model["h"], times)
            for k in range(n):
                reason = oracle.compare_observables(res.matrices[k], prop, model["number_ops"][k])
                if reason:
                    return Failure(f"mode {k + 1}: {reason}")
            reason = oracle.compare_spectral_norms(res.norms.ravel(), res.matrices.reshape(-1, 2**n, 2**n))
            if reason:
                return Failure(reason)
            want = oracle.report_fields(model)
            rep = res.report
            if not (
                oracle.close(rep.threshold, want["threshold"], abs(gamma))
                and rep.damped == want["damped"]
                and rep.bound_constant == want["envelope"]
            ):
                return Failure("damping report differs")
            return None

        return Op(f"sweep.n{n}", call, check)


WORKLOADS = {w.name: w for w in (CliMix, Propagate, SweepSmall)}
