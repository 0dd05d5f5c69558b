"""Spans around the program's public functions, recorded from outside it.

``Tracer.installed()`` rebinds, in every module of the package, each module
attribute that callers look up (``sim.apply_gate``, ``sequential.gamma_sud``,
``qpe.project_on_outcome``, the builder registries, ``suites.ALL_CRITERIA``
and ``sim.Circuit.run``) to a wrapper that records one span, and restores
the originals on exit.  Nothing in the package changes.

A span is ``(id, name, start, end, parent id, work)``.  Spans stay in memory;
``per_layer`` reduces them when the traced pass ends.  The layer of a span
is its name up to the first dot, and a layer's self time is the time of its
spans minus the time of their child spans, so the self times of all layers
add up to the root span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import time
import types
from collections import defaultdict

import numpy as np

import quditdicke
from quditdicke import cli, levelsets, qpe, reference, report, sequential, serialize, sim, suites
from workloads import BYTES_PER_AMPLITUDE, METHODS

MODULES = (quditdicke, cli, levelsets, qpe, reference, report, sequential, serialize, sim, suites)
LAYERS = ("bench", "cli", "suites", "postselect", "build", "sim", "reference", "levelsets", "report")
# an amplitude below this magnitude counts as outside the support
SUPPORT_ATOL = 1e-12


def _amplitudes(args, result) -> int:
    return args[0].register.size


def _ops(args, result) -> int:
    return len(result.ops)


def _gate_name(args) -> str:
    return "sim.apply_gate." + args[1].kind


def _command_name(args) -> str:
    return "cli." + args[0][0]


# (module, attribute, span name, name function, work function)
TARGETS = (
    (sim, "apply_gate", None, _gate_name, _amplitudes),
    (sim, "sample_measure", "sim.sample_measure", None, _amplitudes),
    (sim, "outcome_distribution", "sim.distribution", None, _amplitudes),
    (sim, "project_on_outcome", "sim.project", None, _amplitudes),
    (sim, "fidelity", "sim.fidelity", None, _amplitudes),
    (qpe, "build_qpe_log_spin_s", "build", None, _ops),
    (qpe, "build_qpe_log_sud", "build", None, _ops),
    (qpe, "build_hadamard_test_spin_s", "build", None, _ops),
    (qpe, "build_hadamard_test_sud", "build", None, _ops),
    (qpe, "build_fanout_const_spin_s", "build", None, _ops),
    (qpe, "build_fanout_const_sud", "build", None, _ops),
    (sequential, "build_sequential_spin_s", "build", None, _ops),
    (sequential, "build_sequential_sud", "build", None, _ops),
    (qpe, "run_postselected", "postselect", None, None),
    (sequential, "verify_sequential", "postselect", None, None),
    (reference, "spin_s_dicke", "reference.oracle", None, None),
    (reference, "sud_dicke", "reference.oracle", None, None),
    (reference, "gamma_spin_s", "reference.gamma", None, None),
    (reference, "gamma_sud", "reference.gamma", None, None),
    (reference, "probability_spin_s", "reference.probability", None, None),
    (reference, "probability_sud", "reference.probability", None, None),
    (levelsets, "build_level_sets", "levelsets.build", None, None),
    (levelsets, "verify_level_set_proposition", "levelsets.proposition", None, None),
    (report, "embedded_reference", "report.embed", None, None),
    (report, "count_resources", "report.resources", None, None),
    (cli, "cli_main", None, _command_name, None),
)
CRITERIA = tuple(criterion.ident for criterion in suites.ALL_CRITERIA)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit, in order."""
    units = {"sim.run.s": "s"}
    for kind in sim.GATE_KINDS:
        units[f"sim.apply_gate.{kind}.calls"] = "count"
        units[f"sim.apply_gate.{kind}.s"] = "s"
        units[f"sim.apply_gate.{kind}.ns_per_amp"] = "ns/amp"
    for method in METHODS:
        units[f"sim.peak_support_ratio.{method}"] = "ratio"
    units["sim.largest_vector_bytes"] = "B"
    units.update({
        "sim.sample_measure.calls": "count",
        "sim.sample_measure.s": "s",
        "sim.distribution.s": "s",
        "sim.project.calls": "count",
        "sim.project.s": "s",
        "sim.fidelity.s": "s",
        "build.calls": "count",
        "build.s": "s",
        "build.ops": "count",
        "reference.oracle.s": "s",
        "reference.gamma.calls": "count",
        "reference.gamma.s": "s",
        "reference.probability.s": "s",
        "levelsets.build.calls": "count",
        "levelsets.build.s": "s",
        "levelsets.proposition.s": "s",
        "report.embed.s": "s",
        "report.resources.s": "s",
    })
    for ident in CRITERIA:
        units[f"suites.{ident}.s"] = "s"
    units["suites.cases_skipped"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _substitute(value, wrappers: dict):
    """``value`` with every wrapped function replaced, or ``value`` itself."""
    if isinstance(value, types.FunctionType):
        return wrappers.get(value, value)
    if isinstance(value, dict):
        new = {key: _substitute(item, wrappers) for key, item in value.items()}
        changed = any(new[key] is not item for key, item in value.items())
        return new if changed else value
    if isinstance(value, (tuple, list)):
        new = [_substitute(item, wrappers) for item in value]
        changed = any(a is not b for a, b in zip(new, value))
        return type(value)(new) if changed else value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        new = {name: _substitute(item, wrappers) for name, item in fields.items()}
        changed = {name: item for name, item in new.items() if item is not fields[name]}
        return dataclasses.replace(value, **changed) if changed else value
    return value


class Tracer:
    """Records spans of one traced pass and reduces them to per-layer metrics."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.circuits: list[tuple] = []  # (circuit, run arguments) for the support replay
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, fn, name=None, name_of=None, work_of=None):
        spans, stack, next_id, clock = self.spans, self._stack, self._ids.__next__, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if name_of is None else name_of(args)
            parent = stack[-1] if stack else -1
            sid = next_id()
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            work = 0 if work_of is None else work_of(args, result)
            spans.append((sid, span_name, start, end, parent, work))
            return result

        return traced

    def _record_run(self, args, result) -> int:
        circuit = args[0]
        self.circuits.append((circuit, args[1:]))
        return circuit.register.size

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers in place of the originals for the block's duration."""
        wrappers = {}
        for module, attr, name, name_of, work_of in TARGETS:
            fn = getattr(module, attr)
            wrappers[fn] = self.wrap(fn, name, name_of, work_of)
        for criterion in suites.ALL_CRITERIA:
            wrappers[criterion.run] = self.wrap(criterion.run, f"suites.{criterion.ident}")
        undo = []
        try:
            for module in MODULES:
                for attr, value in list(vars(module).items()):
                    new = _substitute(value, wrappers)
                    if new is not value:
                        undo.append((module, attr, value))
                        setattr(module, attr, new)
            run = sim.Circuit.run
            undo.append((sim.Circuit, "run", run))
            sim.Circuit.run = self.wrap(run, "sim.run", None, self._record_run)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics of the recorded spans (the peak support is added separately)."""
        names = {}
        child_s = defaultdict(float)
        for sid, name, start, end, parent, _ in self.spans:
            names[sid] = name
            child_s[parent] += end - start
        calls = defaultdict(int)
        total_s = defaultdict(float)
        work = defaultdict(int)
        self_s = dict.fromkeys(LAYERS, 0.0)
        largest = 0
        for sid, name, start, end, parent, amount in self.spans:
            elapsed = end - start
            layer = name.split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + elapsed - child_s[sid]
            if name.startswith("sim."):
                largest = max(largest, amount)
            if names.get(parent) == name:
                continue  # a recursive call is part of its caller's span
            calls[name] += 1
            total_s[name] += elapsed
            work[name] += amount
        out = {"sim.run.s": total_s["sim.run"]}
        for kind in sim.GATE_KINDS:
            key = f"sim.apply_gate.{kind}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.s"] = total_s[key]
            out[f"{key}.ns_per_amp"] = total_s[key] * 1e9 / work[key] if work[key] else 0.0
        out["sim.largest_vector_bytes"] = largest * BYTES_PER_AMPLITUDE
        for key in ("sim.sample_measure", "sim.project", "build", "reference.gamma", "levelsets.build"):
            out[f"{key}.calls"] = calls[key]
        for key in (
            "sim.sample_measure", "sim.distribution", "sim.project", "sim.fidelity", "build",
            "reference.oracle", "reference.gamma", "reference.probability",
            "levelsets.build", "levelsets.proposition", "report.embed", "report.resources",
        ):
            out[f"{key}.s"] = total_s[key]
        out["build.ops"] = work["build"]
        for ident in CRITERIA:
            out[f"suites.{ident}.s"] = total_s[f"suites.{ident}"]
        for layer, seconds in self_s.items():
            out[f"{layer}.self_s"] = seconds
        out["trace.wall_s"] = sum(end - start for _, _, start, end, parent, _ in self.spans if parent == -1)
        return out

    def peak_support_ratios(self) -> dict[str, float]:
        """Replay every simulated circuit, counting nonzero amplitudes after each gate.

        For each method, the sum over its circuits of the peak support,
        divided by the sum of their register sizes.  Runs untraced, after
        the traced pass.
        """
        peak = dict.fromkeys(METHODS, 0)
        size = dict.fromkeys(METHODS, 0)
        for circuit, run_args in self.circuits:
            method = circuit.meta.get("method")
            if method not in peak:
                continue
            digits = run_args[0] if run_args and run_args[0] is not None else (0,) * len(circuit.register)
            state = sim.new_basis_state(circuit.register, digits)
            top = 1
            for op in circuit.ops:
                state = sim.apply_gate(state, op)
                top = max(top, int(np.count_nonzero(np.abs(state.amplitudes) > SUPPORT_ATOL)))
            peak[method] += top
            size[method] += circuit.register.size
        return {f"sim.peak_support_ratio.{m}": peak[m] / size[m] if size[m] else 0.0 for m in METHODS}
