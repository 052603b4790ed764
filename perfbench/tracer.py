"""Spans and counters around the gaussfactor package, installed from outside.

`with tracer.installed():` replaces public functions of the package's
modules with timing wrappers and puts every original object back when the
block exits, whether it exits normally or by an exception.  The package
source is not touched.

Functions called once per trial factor or coarser get a span: name, start,
end, parent span and job.  Functions called once per term or pulse only
have their calls and time counted, because a span per term would cost more
than the term; their time stays in the self time of the span that calls
them.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

# Every public function of the six modules, except the generator
# sums.iter_curlicue_magnitudes: a span around it would close before its
# first term, so its work stays in the self time of its caller.
SPANNED = (
    "cli.main",
    "cli.emit_csv",
    "cli.emit_json",
    "cli.parse_result_csv",
    "ghost.classify",
    "ghost.scan_window",
    "ghost.min_suppression_M",
    "ghost.scaling_study",
    "ghost.randomized_success_fraction",
    "sums.evaluate",
    "sums.truncated_sum",
    "sums.randomized_sum",
    "sums.complete_gauss_sum",
    "sums.curlicue",
    "sums.curlicue_equivalence_check",
    "sums.residue_magnitudes",
    "numtheory.epsilon",
    "numtheory.is_factor",
    "numtheory.brute_force_factorize",
    "rng.sample_without_replacement",
    "spinsim.simulate_experiment",
    "spinsim.small_angle_error",
    "spinsim.PulseSequence.from_sum_spec",
    "spinsim.apply_sequence",
    "spinsim.thermal_state",
)
# called once per term or pulse
COUNTED = (
    "numtheory.phase_fraction",
    "sums.curlicue_phase",
    "spinsim.pulse_propagator",
)
PACKAGE = "gaussfactor"
MODULES = ("cli", "ghost", "sums", "numtheory", "rng", "spinsim")


@dataclass
class Stat:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0  # spans only: total minus the time of child spans
    errors: int = 0


class Tracer:
    """Collects spans and counters while installed; one instance per pass."""

    def __init__(self) -> None:
        self.job: int | None = None
        self.spans: list[tuple[str, int, int, int, int | None]] = []
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.results: dict[str, list[Any]] = defaultdict(list)
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # --- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        stat = self.stats[name]
        spans, stack, child_ns = self.spans, self._stack, self._child_ns
        record = _RECORD.get(name)
        results = self.results[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            child_ns.append(0)
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                children = child_ns.pop()
                duration = end - start
                if child_ns:
                    child_ns[-1] += duration
                spans[index] = (name, start, end, parent, self.job)
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += duration - children
                if not ok:
                    stat.errors += 1
            if record is not None:
                results.append(record(args, kwargs, result))
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        stat = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                stat.calls += 1
                stat.total_ns += time.perf_counter_ns() - start

        return wrapper

    # --- installation -----------------------------------------------------

    @staticmethod
    def _modules() -> dict[str, Any]:
        return {name: mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the traced functions for the duration of the block."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        try:
            for name in SPANNED + COUNTED:
                make = self._span if name in SPANNED else self._count
                module_name, _, attr = name.partition(".")
                module = modules[f"{PACKAGE}.{module_name}"]
                if "." in attr:
                    # a classmethod: wrap its function and rebind on the class
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    self._undo.append((cls, method, original))
                    setattr(cls, method, classmethod(make(name, original.__func__)))
                    continue
                original = getattr(module, attr)
                wrapper = make(name, original)
                # from-imports bind the same object under other modules' names
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            while self._undo:
                owner, key, original = self._undo.pop()
                setattr(owner, key, original)

    # --- derived metrics --------------------------------------------------

    def self_ns_by_module(self) -> dict[str, int]:
        out = dict.fromkeys(MODULES, 0)
        for name, stat in self.stats.items():
            if name in SPANNED:
                out[name.split(".")[0]] += stat.self_ns
        return out

    def root_ns(self) -> int:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent == -1)

    def layer_metrics(self, scaling_terms: Callable[..., int]) -> dict[str, float]:
        """Per-layer metrics of one traced pass, in the benchmark's names.

        scaling_terms(cases, n, m_cap, rows) counts the terms one scaling
        study evaluated; the benchmark supplies it so that the count uses its
        own factor test, not the package's.
        """
        st = self.stats
        r = self.results

        def seconds(*names: str) -> float:
            return sum(st[n].total_ns for n in names) / 1e9

        emitted = r["cli.emit_csv"] + r["cli.emit_json"]
        samples = r["rng.sample_without_replacement"]
        sum_terms = sum(r["sums.evaluate"])
        suppression_steps = sum(m_cap + 1 if required is None else required + 1
                                for m_cap, required in r["ghost.min_suppression_M"])
        scaling = sum(scaling_terms(*call) for call in r["ghost.scaling_study"])
        pulses = sum(r["spinsim.apply_sequence"])
        simulate = st["spinsim.simulate_experiment"]
        builds = st["spinsim.PulseSequence.from_sum_spec"]
        apply_s = seconds("spinsim.apply_sequence")
        evaluate_ns = st["sums.evaluate"].total_ns
        self_by_module = self.self_ns_by_module()
        metrics = {
            "cli.main_self_s": st["cli.main"].self_ns / 1e9,
            "cli.emit_s": seconds("cli.emit_csv", "cli.emit_json"),
            "cli.emit_bytes": sum(size for _, size in emitted),
            "cli.rows": sum(rows for rows, _ in emitted),
            "ghost.classify_calls": st["ghost.classify"].calls,
            "ghost.classify_self_s": st["ghost.classify"].self_ns / 1e9,
            "numtheory.epsilon_calls": st["numtheory.epsilon"].calls,
            "numtheory.epsilon_s": seconds("numtheory.epsilon"),
            "rng.sample_calls": len(samples),
            "rng.sample_s": seconds("rng.sample_without_replacement"),
            "rng.distinct_draw_ratio": len(set(samples)) / len(samples) if samples else 0.0,
            "sums.evaluate_calls": st["sums.evaluate"].calls,
            "sums.terms": sum_terms,
            "sums.truncated_sum_s": seconds("sums.truncated_sum"),
            "sums.randomized_sum_s": seconds("sums.randomized_sum"),
            "sums.complete_gauss_sum_s": seconds("sums.complete_gauss_sum"),
            "sums.ns_per_term": evaluate_ns / sum_terms if sum_terms else 0.0,
            "ghost.min_suppression_M_s": seconds("ghost.min_suppression_M"),
            "ghost.suppression_steps": suppression_steps,
            "ghost.scaling_study_s": seconds("ghost.scaling_study"),
            "ghost.scaling_terms": scaling,
            "spinsim.simulate_calls": simulate.calls,
            "spinsim.simulate_s": simulate.total_ns / 1e9,
            "spinsim.failures": simulate.errors,
            "spinsim.sequence_builds": builds.calls,
            "spinsim.builds_per_trial": builds.calls / simulate.calls if simulate.calls else 0.0,
            "spinsim.sequence_build_s": builds.total_ns / 1e9,
            "spinsim.apply_sequence_s": apply_s,
            "spinsim.pulses": pulses,
            "spinsim.ns_per_pulse": apply_s * 1e9 / pulses if pulses else 0.0,
            "numtheory.phase_fraction_calls": st["numtheory.phase_fraction"].calls,
            "numtheory.phase_fraction_s": seconds("numtheory.phase_fraction"),
        }
        for module in MODULES:
            metrics[f"{module}.self_s"] = self_by_module[module] / 1e9
        return metrics


def _argument(args: tuple, kwargs: dict, position: int, name: str, default: Any) -> Any:
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


# What a span keeps from each call for the derived metrics: small values
# only, so that a pass does not hold on to sum values or pulse trains.
# Positions follow the package's signatures.
_RECORD: dict[str, Callable[[tuple, dict, Any], Any]] = {
    # (rows emitted, bytes emitted); the output is ASCII
    "cli.emit_csv": lambda a, k, result: (len(_argument(a, k, 1, "rows", ())), len(result)),
    "cli.emit_json": lambda a, k, result: (len(_argument(a, k, 1, "rows", ())), len(result)),
    # the draw's arguments, to count how many draws repeat an earlier one
    "rng.sample_without_replacement": lambda a, k, result: (a, tuple(sorted(k.items()))),
    "sums.evaluate": lambda a, k, result: result.term_count,
    "ghost.min_suppression_M": lambda a, k, result: (_argument(a, k, 3, "m_cap", 10**6), result),
    "ghost.scaling_study": lambda a, k, result: (
        _argument(a, k, 0, "cases", ()), _argument(a, k, 1, "n", 2),
        _argument(a, k, 3, "m_cap", 10**5), result),
    "spinsim.apply_sequence": lambda a, k, result: len(_argument(a, k, 0, "seq", ())),
}
