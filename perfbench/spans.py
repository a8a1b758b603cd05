"""Spans around pfdamp's public functions, installed from outside the package.

pfdamp modules bind kernels by name (``from .linalg import expm``), so a
function is wrapped under every name, in every pfdamp module, that is bound
to the same object.  ``Scenario.closed_form`` is a per-instance closure and
is wrapped on each scenario that ``build_scenario`` returns.  Spans stay in
memory (id, parent id, op id, name, start, end, ok) until :meth:`write`.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
import weakref
from contextlib import contextmanager

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE_MODULES = ("linalg", "matfile", "pseudofermion", "dynamics", "scenarios", "cli")


def load_layers() -> list[dict]:
    with open(os.path.join(HERE, "layers.json")) as fh:
        return json.load(fh)["rows"]


def per_layer_units(layers: list[dict]) -> dict[str, str]:
    """Every per-layer metric name with its unit, in table order."""
    units = {}
    for row in layers:
        for fn in row["functions"]:
            units[f"{row['module']}.{fn}.calls"] = "count"
            units[f"{row['module']}.{fn}.busy_s"] = "s"
        units.update(row["extra"])
    return units


def _expm_squarings(a) -> int:
    # the squaring rule documented by pfdamp.linalg.expm: the scaled
    # argument has 1-norm <= 1/2
    norm1 = float(np.abs(np.asarray(a)).sum(axis=0).max())
    return 0 if norm1 == 0.0 else max(0, math.ceil(math.log2(norm1)) + 1)


class Tracer:
    def __init__(self, package, layers: list[dict]):
        self.modules = {name: getattr(package, name) for name in PACKAGE_MODULES}
        self.layers = layers
        self.spans: list[tuple] = []
        self.counts = {"linalg.expm.squarings": 0, "dynamics.samples": 0, "cli.output_bytes": 0}
        self._stack: list[int] = []
        self._next_id = 0
        self._op = 0
        self._patches: list[tuple[object, str, object]] = []
        # Scenario is an unhashable dataclass, so keep weak references by id
        self._scenarios: dict[int, weakref.ref] = {}

    # -- span recording -------------------------------------------------

    def _span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, self._op, name, start, end, ok))
                if ok and after is not None:
                    after(args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_expm(self, args, result) -> None:
        self.counts["linalg.expm.squarings"] += _expm_squarings(args[0])

    def _after_evolve(self, args, result) -> None:
        self.counts["dynamics.samples"] += len(result.entries)

    def _after_build(self, args, scenario) -> None:
        self._scenarios[id(scenario)] = weakref.ref(scenario)
        self._wrap_closed_form(scenario)

    def _wrap_closed_form(self, scenario) -> None:
        original = scenario.closed_form
        scenario.closed_form = self._span("scenarios.closed_form", original)
        self._patches.append((scenario, "closed_form", original))

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        hooks = {
            "linalg.expm": self._after_expm,
            "dynamics.schrodinger_evolve": self._after_evolve,
            "dynamics.heisenberg_evolve": self._after_evolve,
            "scenarios.build_scenario": self._after_build,
        }
        for row in self.layers:
            module = self.modules.get(row["module"])
            for fn_name in row["functions"]:
                name = f"{row['module']}.{fn_name}"
                if name == "scenarios.closed_form":
                    continue
                original = getattr(module, fn_name)
                wrapper = self._span(name, original, hooks.get(name))
                for mod in self.modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))
        for key, ref in list(self._scenarios.items()):
            scenario = ref()
            if scenario is None:
                del self._scenarios[key]
            else:
                self._wrap_closed_form(scenario)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Install the wrappers and record one root span for op ``op_id``."""
        self._op = op_id
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        self.install()
        start = time.perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            end = time.perf_counter()
            self.uninstall()
            self._stack.pop()
            self.spans.append((sid, None, op_id, f"op.{kind}", start, end, ok))

    # -- results --------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics: calls and busy time per function, self time
        per module, the derived counts, and the tracing overhead."""
        child_time: dict[int, float] = {}
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        units = per_layer_units(self.layers)
        values = {name: 0 if unit == "count" else 0.0 for name, unit in units.items()}
        for sid, _, _, name, start, end, _ in self.spans:
            if name.startswith("op."):
                continue
            values[f"{name}.calls"] += 1
            values[f"{name}.busy_s"] += end - start
            values[f"{name.split('.')[0]}.self_s"] += (end - start) - child_time.get(sid, 0.0)
        for key, count in self.counts.items():
            values[key] = count
        values["scenarios.random_similarity.accept_ratio"] = self._accept_ratio()
        values["trace.overhead_ratio"] = overhead_ratio
        return values

    def _accept_ratio(self) -> float:
        names = {sid: name for sid, _, _, name, *_ in self.spans}
        parents = {sid: parent for sid, parent, *_ in self.spans}
        accepted = sum(
            1 for s in self.spans if s[3] == "scenarios.random_similarity" and s[6]
        )
        attempts = 0
        for sid, name in names.items():
            if name != "linalg.inverse":
                continue
            up = parents[sid]
            while up is not None and names[up] != "scenarios.random_similarity":
                up = parents[up]
            attempts += up is not None
        return accepted / attempts if attempts else 0.0

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "op", "name", "start_s", "end_s", "ok"])
            for sid, parent, op_id, name, start, end, ok in sorted(self.spans):
                out.writerow(
                    [sid, "" if parent is None else parent, op_id, name, f"{start:.9f}", f"{end:.9f}", int(ok)]
                )
