"""pfdamp benchmark: one closed-loop client driving the package in-process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps pfdamp's
public functions and reports the per-layer metrics instead, from a fixed
number of ops so that call counts repeat exactly.  ``--workload all`` runs
every workload, untraced and then traced, each in a fresh process.  The
last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Times are scaled to a reference host speed
(:class:`HostSpeed`).  See perfbench/DESIGN.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

#: BLAS and OpenMP threads per workload process; set before numpy loads
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("cli_mix", "propagate", "sweep_small")
#: set-up repetitions per run; setup_s reports their median
SETUP_REPS = 3
LIMITS = (
    "CPU frequency is not pinned and cores are not isolated; "
    "other load on the host can slow a run"
)
#: reported times are scaled to the host speed at which the kernel of
#: HostSpeed takes this long: about its time on the 2-vCPU Intel Xeon VM
#: the benchmark was tuned on, when other load was not slowing it down
REFERENCE_S = 0.9e-3
#: untimed kernel runs before the first sample
WARMUP_KERNELS = 30


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import numpy and this checkout's pfdamp, or exit 2 without a result."""
    sys.path.insert(0, SRC)
    try:
        import numpy
        import pfdamp
    except ImportError as exc:
        problem = f"cannot import the package under {SRC}: {exc}"
    else:
        if os.path.abspath(pfdamp.__file__).startswith(SRC + os.sep):
            return numpy, pfdamp
        problem = f"pfdamp was imported from {pfdamp.__file__}, not {SRC}"
    print(f"error: {problem}", file=sys.stderr)
    sys.exit(2)


def environment(np, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "seed": seed,
        "limits": LIMITS,
    }


def tail(latencies: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least 10 samples above it
    (nearest-rank), and that percentile."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)  # ceil(pct * n / 100)
    return xs[rank - 1], pct


class HostSpeed:
    """Follows the host's speed with a fixed kernel timed around each op.

    The host shares its cores with other load, and the same op can run up to
    1.8x slower for minutes at a time; numpy-bound Python code of every kind
    slows down alike.  Each timed call's wall time is multiplied by
    ``REFERENCE_S / c``, with ``c`` the mean of the kernel's times just
    before and just after that call and its two neighbours, the shortest and
    the longest left out.  So runs made at different host speeds report
    times that can be compared, a host that flips between speeds within a
    call is followed by the share of samples taken in each state, and one
    stalled kernel sample moves nothing.  The kernel is work like
    pfdamp's: small complex matrix products in a Python loop, and a few
    64 x 64 products.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self._np = np
        self._small = rng.uniform(-1.0, 1.0, (8, 8)) + 1j * rng.uniform(-1.0, 1.0, (8, 8))
        self._big = rng.uniform(-1.0, 1.0, (64, 64)) + 1j * rng.uniform(-1.0, 1.0, (64, 64))
        #: kernel times (before, after) of each timed call, in call order
        self.around: list[tuple[float, float]] = []
        for _ in range(WARMUP_KERNELS):  # the first runs pay for cold caches
            self._kernel()

    def _kernel(self):
        np = self._np
        x = self._small
        for _ in range(100):
            x = x @ self._small
            x = x / np.abs(x).max()
        y = self._big
        for _ in range(6):
            y = y @ self._big
            y = y / np.abs(y).max()

    def sample(self) -> float:
        """The kernel's shortest time of three runs."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return min(times)

    def timed(self, fn):
        """``fn()`` and its wall time; the kernel runs before and after it."""
        before = self.sample()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        self.around.append((before, self.sample()))
        return result, elapsed

    def factors(self, first: int, stop: int) -> list[float]:
        """``REFERENCE_S / c`` for timed calls ``first`` to ``stop - 1``,
        with neighbours taken from that range only."""
        out = []
        for i in range(first, stop):
            near = sorted(t for pair in self.around[max(first, i - 1):min(stop, i + 2)] for t in pair)
            if len(near) >= 4:
                near = near[1:-1]
            out.append(REFERENCE_S / statistics.fmean(near))
        return out

    def relative(self) -> float:
        """Median host speed over the run, relative to the reference speed."""
        return REFERENCE_S / statistics.median(t for pair in self.around for t in pair)


class Tally:
    """Attempted and failed ops, split by known defect."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, op, failure) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append((op.kind, failure))

    @property
    def unexplained(self) -> list:
        return [(k, f) for k, f in self.failures if f.defect is None]

    def summary(self) -> dict:
        by_defect: dict[str, int] = {}
        for _, f in self.failures:
            key = f.defect or "unexplained"
            by_defect[key] = by_defect.get(key, 0) + 1
        return {"attempted": self.attempted, "failed": len(self.failures), "by_defect": by_defect}


def measure(wl, workloads, seconds: float, speed: HostSpeed) -> tuple[list[float], Tally]:
    """Run whole cycles until the ops took ``seconds`` of wall time in total.
    Returns the ops' wall times and the tally."""
    walls: list[float] = []
    tally = Tally()
    cycles = 0
    i = 0
    while cycles < wl.min_cycles or sum(walls) < seconds:
        for _ in range(wl.period):
            op = wl.op(i)
            result, elapsed = speed.timed(lambda: workloads.run_op(op))
            walls.append(elapsed)
            tally.add(op, workloads.check_op(op, result))
            i += 1
        cycles += 1
    return walls, tally


def time_metrics(setup_s: float, latencies: list[float]) -> dict:
    tail_s, _ = tail(latencies)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
    }


def run_untraced(wl, workloads, seconds: float, import_s: float, speed: HostSpeed) -> tuple[dict, Tally, dict]:
    setup_walls = [speed.timed(wl.setup)[1] for _ in range(SETUP_REPS)]
    walls, tally = measure(wl, workloads, seconds, speed)
    setup_f = speed.factors(0, SETUP_REPS)
    op_f = speed.factors(SETUP_REPS, len(speed.around))
    # imports ran before the kernel could; they take the first set-up's factor
    setup_s = import_s * setup_f[0] + statistics.median(w * f for w, f in zip(setup_walls, setup_f))
    scaled = time_metrics(setup_s, [w * f for w, f in zip(walls, op_f)])
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["ok_ratio"] = (1.0 - len(tally.failures) / tally.attempted, "1")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    notes = {
        "op_tail_ms": f"p{tail(walls)[1]} of {len(walls)} ops",
        "fail_ratio": len(tally.failures) / tally.attempted,
        "host_speed": speed.relative(),
        "wall": time_metrics(import_s + statistics.median(setup_walls), walls),
        "setup_walls_s": setup_walls,
        "import_s": import_s,
    }
    return metrics, tally, notes


def run_traced(wl, workloads, pfdamp, spans, seed: int) -> tuple[dict, Tally, dict]:
    """Trace set-up once, then each op of a fixed list twice, untraced and
    traced in alternating order; per-layer numbers come from the traced half."""
    layers = spans.load_layers()
    units = spans.per_layer_units(layers)
    tracer = spans.Tracer(pfdamp, layers)
    with tracer.op(0, "setup"):
        wl.setup()
    tally = Tally()
    wall = {False: 0.0, True: 0.0}
    for i in range(wl.trace_cycles * wl.period):
        op = wl.op(i)
        traced_result = None
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.op(i + 1, op.kind):
                    start = time.perf_counter()
                    traced_result = workloads.run_op(op)
                    wall[True] += time.perf_counter() - start
            else:
                start = time.perf_counter()
                workloads.run_op(op)
                wall[False] += time.perf_counter() - start
        tracer.counts["cli.output_bytes"] += getattr(traced_result, "output_bytes", 0)
        tally.add(op, workloads.check_op(op, traced_result))
    values = tracer.metrics(overhead_ratio=wall[True] / wall[False])
    os.makedirs(OUT, exist_ok=True)
    span_file = os.path.join(OUT, f"spans-{wl.name}-seed{seed}.csv")
    tracer.write(span_file)
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    notes = {"spans": len(tracer.spans), "span_file": os.path.relpath(span_file, ROOT)}
    return metrics, tally, notes


def run_one(args) -> int:
    np, pfdamp = import_package()
    import spans
    import workloads

    import_s = time.perf_counter() - _T0
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            metrics, tally, notes = run_traced(wl, workloads, pfdamp, spans, args.seed)
        else:
            metrics, tally, notes = run_untraced(wl, workloads, args.seconds, import_s, HostSpeed(np))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"environment": environment(np, args.seed)}))
    print(json.dumps({"workload": args.workload, "trace": args.trace, **tally.summary(), **notes}))
    for kind, failure in tally.failures[:20]:
        print(f"failed {kind}: [{failure.defect or 'unexplained'}] {failure.reason}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:44s} {value:16.6g} {unit}")
    result = {
        "correct": not tally.unexplained,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload untraced, then traced, each in its own process."""
    status = 0
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            print("\n".join(ln for ln in lines if not ln.startswith("{")))
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                status = proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
