"""Per-layer tracing by wrapping the package's public functions from outside.

Every public function a package module defines is wrapped, and the wrapper
is bound under each name that refers to the function in any module of the
package, so calls made through an importing module's binding are seen too
(``cli`` calling ``spectrum_rows``, ``sweep`` calling ``solve_stationary``).
A span's self time is its duration minus the time of the spans it caused.
Spans are aggregated in memory by layer name: calls, self seconds, and the
counters some layers add from their arguments and results.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "cavitychain"
LAYERS = ("model", "scattering", "sweep", "oracle", "quasibound", "cli")

#: Chains below this many sites count as small oracle solves.
SMALL_CHAIN = 100


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function defined in the package's layer modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            defining = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in list(vars(defining).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != defining.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for module in modules:
                    for bound_name, obj in list(vars(module).items()):
                        if obj is fn:
                            self._patches.append((module, bound_name, fn, wrapper))
                            setattr(module, bound_name, wrapper)

    def uninstall(self) -> None:
        for module, name, original, _ in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    # -- spans -----------------------------------------------------------------

    def _wrap(self, label: str, fn):
        tracer = self
        classify = _CLASSIFIERS.get(label)
        on_result = _COUNTERS.get(label)
        signature = inspect.signature(fn) if on_result else None

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                name = classify(args, kwargs) if classify else label
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - children
                if stack:
                    stack[-1] += duration
            if on_result:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_result(tracer.counters, bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def layer_sum(self, prefix: str, table: dict) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))


def _solve_size(args, kwargs) -> str:
    spec = args[0] if args else kwargs["spec"]
    return "oracle.solve_stationary." + ("small" if spec.n_sites < SMALL_CHAIN else "large")


def _propagate(counters, arguments, result) -> None:
    counters["oracle.propagate_wavepacket.steps"] += len(result.times) - 1
    counters["oracle.propagate_wavepacket.norm_error"] = max(
        counters["oracle.propagate_wavepacket.norm_error"], result.drift)


def _quasibound(counters, arguments, result) -> None:
    modes = result[0] if arguments.get("return_diagnostics") else result
    counters["quasibound.modes_found"] += len(modes)
    counters["quasibound.seeds_tried"] += arguments["n_re"] * arguments["n_im"]


_CLASSIFIERS = {"oracle.solve_stationary": _solve_size}
_COUNTERS = {
    "oracle.propagate_wavepacket": _propagate,
    "quasibound.find_quasibound_modes": _quasibound,
}


def layer_metrics(tracer: Tracer, passes: int, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics: name -> (value, unit)."""
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    per = 1.0 / passes

    def c(name):
        return (calls.get(name, 0) * per, "count")

    def s(name):
        return (self_s.get(name, 0.0) * per, "s")

    cmd_calls = sum(v for k, v in calls.items() if k.startswith("cli.cmd_"))
    modes = counters.get("quasibound.modes_found", 0.0)
    seeds = counters.get("quasibound.seeds_tried", 0.0)
    return {
        "cli.commands": (cmd_calls * per, "count"),
        "cli.self_s": (tracer.layer_sum("cli.", self_s) * per, "s"),
        "sweep.run_sweep.self_s": s("sweep.run_sweep"),
        "sweep.spectrum_rows.self_s": s("sweep.spectrum_rows"),
        "sweep.evaluate_point.calls": c("sweep.evaluate_point"),
        "sweep.evaluate_point.self_s": s("sweep.evaluate_point"),
        "scattering.calls": (tracer.layer_sum("scattering.", calls) * per, "count"),
        "scattering.self_s": (tracer.layer_sum("scattering.", self_s) * per, "s"),
        "model.effective_potential.calls": c("model.effective_potential"),
        "model.effective_potential.self_s": s("model.effective_potential"),
        "oracle.solve_stationary.calls": (
            tracer.layer_sum("oracle.solve_stationary.", calls) * per, "count"),
        "oracle.solve_stationary.small.self_s": s("oracle.solve_stationary.small"),
        "oracle.solve_stationary.large.self_s": s("oracle.solve_stationary.large"),
        "oracle.propagate_wavepacket.calls": c("oracle.propagate_wavepacket"),
        "oracle.propagate_wavepacket.self_s": s("oracle.propagate_wavepacket"),
        "oracle.propagate_wavepacket.steps": (
            counters.get("oracle.propagate_wavepacket.steps", 0.0) * per, "count"),
        "oracle.propagate_wavepacket.norm_error": (
            counters.get("oracle.propagate_wavepacket.norm_error", 0.0), "prob"),
        "oracle.eigenmodes.calls": c("oracle.eigenmodes"),
        "oracle.eigenmodes.self_s": s("oracle.eigenmodes"),
        "quasibound.find_quasibound_modes.calls": c("quasibound.find_quasibound_modes"),
        "quasibound.find_quasibound_modes.self_s": s("quasibound.find_quasibound_modes"),
        "quasibound.modes_found": (modes * per, "count"),
        "quasibound.seeds_tried": (seeds * per, "count"),
        "quasibound.seed_yield": (modes / seeds if seeds else 0.0, "modes/seed"),
        "trace.overhead": (overhead, "ratio"),
    }
