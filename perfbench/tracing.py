"""Spans around the calls into each shiftwalk module, recorded from outside
the package.

The modules import each other with ``from x import y``, so one function is
reachable under several names: ``cli.exact_sample``, ``suites.mat_pow``,
``weight_stats._draw_driving_arrays``, ``exact_sampler.solve_linear``, the
values of ``suites.SUITES``.  ``Tracer.install`` replaces the function at
every module attribute and module-level dict entry that holds it.  A span
is recorded only under an open ``cli`` span, so the benchmark's own checks,
which call the same functions, leave no spans.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import workloads

ROOT = "cli"

# Layer name -> (module, function).  The suites are added from suites.SUITES.
LAYERS = {
    ROOT: ("cli", "main"),
    "distribution.exact_tv_curve": ("distribution", "exact_tv_curve"),
    "distribution.evolve_exact": ("distribution", "evolve_exact"),
    "rng.stream": ("rng", "stream"),
    "chains.draw_driving": ("chains", "_draw_driving_arrays"),
    "weight_stats.sample_weights": ("weight_stats", "sample_weights"),
    "weight_stats.replay_divergence": ("weight_stats", "replay_divergence"),
    "exact_sampler.exact_sample": ("exact_sampler", "exact_sample"),
    "exact_sampler.solve_driving": ("exact_sampler", "solve_driving"),
    "gf2.solve_linear": ("gf2", "solve_linear"),
    "gf2.mat_pow": ("gf2", "mat_pow"),
    "spectral.fourier_sum": ("spectral", "fourier_sum"),
    "spectral.check_weight_class_bounds": ("spectral", "check_weight_class_bounds"),
    "spectral.fourier_bruteforce": ("spectral", "fourier_bruteforce"),
}
SUITES = (
    "matrix-order", "term-bounds", "fourier", "moments", "bounded-diff",
    "variance", "q2-exact",
)
# Layers whose calls contain spans of other layers: they report a self time.
WITH_CHILDREN = {
    "chains.draw_driving",
    "weight_stats.sample_weights",
    "exact_sampler.exact_sample",
    "exact_sampler.solve_driving",
    *(f"suites.{s}" for s in SUITES),
}
EXACT_LAYERS = ("distribution.exact_tv_curve", "distribution.evolve_exact")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


# Live 2^n-word arrays during one q1 step of distribution._step at the
# exact-n20 size: probs, inv, out and three temporaries.  Computed from array
# sizes, like _exact_units below, and must change with the kernel too.
EXACT_WORKING_SET_MIB = 6 * 8 * (1 << workloads.EXACT_N) / 2**20


def _exact_units(steps_pos: int, steps_name: str):
    """(state steps, computed bytes) of one exact-oracle call.

    The bytes are computed from array sizes, not measured: one step of
    ``distribution._step`` on q1 makes 5 + 10n full passes over 2^n 8-byte
    words (per flipped coordinate: xor the index, gather, scale, accumulate),
    and 13 on q2.  The model follows the kernel as written and must change
    with it.
    """

    def units(args: tuple, kwargs: dict) -> tuple[int, int]:
        chain = _arg(args, kwargs, 0, "chain")
        steps = _arg(args, kwargs, steps_pos, steps_name)
        passes = 5 + 10 * chain.n if chain.kind == "q1" else 13
        return steps, steps * passes * 8 * (1 << chain.n)

    return units


UNITS = {
    "weight_stats.sample_weights": lambda a, k: (
        _arg(a, k, 3, "samples") * max(_arg(a, k, 2, "ts"), default=0)
    ),
    "distribution.exact_tv_curve": _exact_units(2, "t_max"),
    "distribution.evolve_exact": _exact_units(2, "steps"),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in [*LAYERS, *(f"suites.{s}" for s in SUITES)]:
        if layer == ROOT:
            continue
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.s"] = "s"
        if layer in WITH_CHILDREN:
            units[f"{layer}.self_s"] = "s"
    units["weight_stats.sample_weights.trajectory_steps"] = "count"
    units["exact_sampler.exact_sample.p50_us"] = "us"
    units["exact_sampler.exact_sample.p99_us"] = "us"
    units["distribution.computed_bytes_per_step"] = "B"
    units["cli.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Records spans (layer, parent span, start, end, units) in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [layer index, parent, start, end, units]
        self.stack: list[int] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        units = UNITS.get(name)
        root = name == ROOT
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            span = [name_id, stack[-1] if stack else -1, 0.0, 0.0,
                    units(args, kwargs) if units else None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every layer function under every name that holds it."""
        targets = [
            (name, getattr(sys.modules[f"shiftwalk.{mod}"], attr))
            for name, (mod, attr) in LAYERS.items()
        ]
        suites = sys.modules["shiftwalk.suites"]
        targets += [(f"suites.{s}", fn) for s, fn in suites.SUITES.items()]
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets}
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "shiftwalk" or k.startswith("shiftwalk."))]
        for module in modules:
            namespace = vars(module)
            holders = [namespace] + [v for k, v in namespace.items()
                                     if type(v) is dict and not k.startswith("__")]
            for holder in holders:
                for key, value in list(holder.items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        holder[key] = wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far.

        Self time is a span's duration minus its direct children's, so the
        self times of all layers add up to the time spent in ``cli``.
        """
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        child: dict[str, float] = {}
        work: dict[str, int] = {}
        exact_steps = exact_bytes = 0
        sample_us = []
        for name_id, parent, start, end, units in self.spans:
            name = self.names[name_id]
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + dur
            if parent >= 0:
                parent_name = self.names[self.spans[parent][0]]
                child[parent_name] = child.get(parent_name, 0.0) + dur
            if name == "weight_stats.sample_weights":
                work[name] = work.get(name, 0) + units
            elif name in EXACT_LAYERS:
                exact_steps += units[0]
                exact_bytes += units[1]
            elif name == "exact_sampler.exact_sample":
                sample_us.append(dur * 1e6)
        out: dict[str, float] = {}
        for metric in metric_units():
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls.get(layer, 0)
            elif field == "s":
                out[metric] = busy.get(layer, 0.0)
            elif field == "self_s":
                out[metric] = busy.get(layer, 0.0) - child.get(layer, 0.0)
        out["weight_stats.sample_weights.trajectory_steps"] = work.get(
            "weight_stats.sample_weights", 0
        )
        sample_us.sort()
        out["exact_sampler.exact_sample.p50_us"] = _quantile(sample_us, 0.50)
        out["exact_sampler.exact_sample.p99_us"] = _quantile(sample_us, 0.99)
        out["distribution.computed_bytes_per_step"] = (
            exact_bytes / exact_steps if exact_steps else 0.0
        )
        out["trace.wall_s"] = busy.get(ROOT, 0.0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": self.names, "columns":
                       ["layer", "parent", "start", "end", "units"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def attribution_gap(metrics: dict[str, float]) -> float:
    """Traced wall time minus the reported self times of all layers.

    Zero when every layer that has child spans reports a ``.self_s``.
    """
    total = metrics["cli.self_s"]
    for metric in metrics:
        layer, _, field = metric.rpartition(".")
        if field == "s":
            total += metrics.get(f"{layer}.self_s", metrics[metric])
    return metrics["trace.wall_s"] - total


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]
