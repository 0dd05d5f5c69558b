"""Run records and resource accounting for built circuits.

Logical depth is greedy layering: ops are visited in emission order and
each lands on the earliest layer after the last use of any wire it
touches.  Ops sharing a ``layer_tag`` are treated as one compound gate
(wire set = union), which implements the one-layer accounting for
fan-out blocks and controlled charge phases; tags live only in memory,
never in the exchange format.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .sim import Circuit, ImpossibleOutcomeError, StateVector, fidelity, project_on_outcome

def logical_depth(circuit: Circuit) -> int:
    groups: list[set] = []
    tagged: dict[str, set] = {}
    for op in circuit.ops:
        wires = set(op.wires())
        if op.layer_tag is None:
            groups.append(wires)
        elif op.layer_tag in tagged:
            tagged[op.layer_tag].update(wires)
        else:
            tagged[op.layer_tag] = wires
            groups.append(wires)
    last: dict = {}
    depth = 0
    for wires in groups:
        layer = 1 + max((last.get(w, -1) for w in wires), default=-1)
        for w in wires:
            last[w] = layer
        depth = max(depth, layer + 1)
    return depth


def ancilla_census(circuit: Circuit, n: int | None = None) -> list[list[int]]:
    """Wires after the n system wires grouped by dimension, as sorted
    [dimension, count] pairs; ``n`` defaults to the builder's ``meta["n"]``."""
    n = circuit.meta.get("n", 0) if n is None else n
    counts: dict[int, int] = {}
    for dim in circuit.register.dims[n:]:
        counts[dim] = counts.get(dim, 0) + 1
    return [[dim, counts[dim]] for dim in sorted(counts)]


def count_resources(circuit: Circuit, n: int | None = None) -> tuple[int, int, list[list[int]]]:
    """(gate count, logical depth, ancilla census) of a circuit whose first n wires are the system."""
    return len(circuit.ops), logical_depth(circuit), ancilla_census(circuit, n)


def embedded_reference(circuit: Circuit, oracle: StateVector, fixed: dict) -> StateVector:
    """Oracle on the system wires, fixed digits everywhere else.

    The system is the register's first ``len(oracle.register)`` wires: every
    builder emits s1..sn first, and a circuit reloaded from the exchange
    format keeps that order.  ``fixed`` maps every non-system wire to its
    expected digit; wires not listed default to 0.
    """
    reg = circuit.register
    n = len(oracle.register)
    if reg.dims[:n] != oracle.register.dims:
        raise ValueError("oracle register does not match the circuit's system wires")
    out = np.zeros(reg.size, dtype=np.complex128)
    sel = (slice(None),) * n + tuple(int(fixed.get(w, 0)) for w in reg.ids[n:])
    out.reshape(reg.dims, order="F")[sel] = oracle.amplitudes.reshape(oracle.register.dims, order="F")
    return StateVector(reg, out)


def _finite_or_null(value):
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


@dataclass
class RunReport:
    """One verification record; all fields are JSON-native for round-tripping."""

    spec: dict
    acceptance_probability: float
    conditional_fidelity: float
    expected_repetitions: float
    gate_count: int
    logical_depth: int
    ancilla_census: list
    optimal_parameter: object = None
    seed: int | None = None
    wallclock_ms: int = 0
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        # floats serialize via repr: shortest form that parses back exactly;
        # strict JSON has no Infinity or NaN, so a non-finite value is null
        data = {key: _finite_or_null(value) for key, value in self.to_dict().items()}
        return json.dumps(data, indent=2, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        data = json.loads(text)
        if data.get("expected_repetitions") is None:
            data["expected_repetitions"] = math.inf  # acceptance had probability 0
        return cls(**data)

    CSV_HEADER = (
        "family,n,s,k,kvec,method,acceptance_probability,conditional_fidelity,"
        "expected_repetitions,gate_count,logical_depth,ancilla_census,"
        "optimal_parameter,seed,wallclock_ms,notes"
    )

    def to_csv_row(self) -> str:
        spec = self.spec
        kvec = spec.get("kvec")
        param = self.optimal_parameter
        row = [
            spec.get("family", ""),
            spec.get("n", ""),
            spec.get("s", ""),
            spec.get("k", ""),
            "" if kvec is None else ",".join(str(v) for v in kvec),
            spec.get("method", ""),
            repr(self.acceptance_probability),
            repr(self.conditional_fidelity),
            repr(self.expected_repetitions),
            self.gate_count,
            self.logical_depth,
            ";".join(f"{d}:{c}" for d, c in self.ancilla_census),
            param if not isinstance(param, (list, tuple)) else ",".join(repr(v) for v in param),
            "" if self.seed is None else self.seed,
            self.wallclock_ms,
            " | ".join(self.notes),
        ]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(row)
        return buf.getvalue().rstrip("\n")


def spec_fields(circuit: Circuit) -> dict:
    """Spec block of a report, pulled from builder metadata."""
    meta = circuit.meta
    out = {"family": meta.get("family"), "n": meta.get("n"), "method": meta.get("method")}
    if meta.get("family") == "spin-s":
        out["s"] = meta.get("twice_s", 0) / 2.0
        out["k"] = meta.get("k")
    else:
        out["kvec"] = list(meta.get("kvec", ()))
    return out


def verify_circuit(circuit: Circuit, oracle_state: StateVector, judge) -> RunReport:
    """The one verify path: simulate, project exactly on the accept rule,
    take the fidelity against the oracle embedded beside the accept digits,
    and count resources.

    ``judge(state, probability, notes)`` turns the exact acceptance
    probability into the report's (acceptance probability, expected
    repetitions, seed) and may append notes.  An impossible acceptance
    gives probability 0 and fidelity 0.
    """
    start = time.perf_counter()
    state = circuit.run()
    wires, digits = circuit.accept_rule
    notes = list(circuit.meta.get("notes", ()))
    try:
        probability, conditional = project_on_outcome(state, wires, digits)
    except ImpossibleOutcomeError:
        probability, conditional = 0.0, None
    fixed = dict(zip(wires, digits))
    fid = 0.0 if conditional is None else fidelity(conditional, embedded_reference(circuit, oracle_state, fixed))
    accepted, repetitions, seed = judge(state, probability, notes)
    gate_count, depth, census = count_resources(circuit, len(oracle_state.register))
    return RunReport(
        spec=spec_fields(circuit),
        acceptance_probability=accepted,
        conditional_fidelity=fid,
        expected_repetitions=repetitions,
        gate_count=gate_count,
        logical_depth=depth,
        ancilla_census=census,
        optimal_parameter=circuit.meta.get("optimal_parameter"),
        seed=seed,
        wallclock_ms=int(round((time.perf_counter() - start) * 1000)),
        notes=notes,
    )
