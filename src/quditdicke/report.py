"""Run records and resource accounting for built circuits.

Logical depth is greedy layering: ops are visited in emission order and
each lands on the earliest layer after the last use of any wire it
touches.  Ops sharing a ``layer_tag`` are treated as one compound gate
(wire set = union) placed at the tag's first op, which implements the
one-layer accounting for fan-out blocks and controlled charge phases;
tags live only in memory, never in the exchange format.  One pass
gathers each tag's union and a second pass layers the ops.
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

from .sim import ATOL_PROBABILITY, Circuit, StateVector, _fix, _pin, _pins, accepted_branch

def logical_depth(circuit: Circuit) -> int:
    tagged: dict[str, set] = {}
    for op in circuit.ops:
        tag = op.layer_tag
        if tag in tagged:
            tagged[tag].update(op.wires())
        elif tag is not None:
            tagged[tag] = set(op.wires())
    last: dict = {}
    depth = 0
    for op in circuit.ops:
        if op.layer_tag is None:
            wires = op.wires()
        else:
            wires = tagged.pop(op.layer_tag, None)
            if wires is None:  # a later op of a tag already placed
                continue
        layer = 1 + max([last.get(w, -1) for w in wires], default=-1)
        for w in wires:
            last[w] = layer
        if layer >= depth:
            depth = layer + 1
    return depth


def ancilla_census(circuit: Circuit, n: int | None = None) -> list[list[int]]:
    """Wires after the n system wires grouped by dimension, as sorted [dimension, count] pairs; ``n``
    defaults to the site count of the builder's ``meta["spec"]``, 0 for a circuit without one."""
    if n is None:
        n = circuit.meta["spec"].n if "spec" in circuit.meta else 0
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
    _pin(out, reg, _pins(reg, reg.ids[n:], [fixed.get(w, 0) for w in reg.ids[n:]], "fixed"))[...] = oracle.tensor()
    return StateVector(reg, out)


def expected_repetitions(probability: float) -> float:
    """Mean number of runs until one accepts, 1/P; inf when P is at or below ATOL_PROBABILITY, which
    counts as impossible, so rounding residue of a branch that is zero in exact arithmetic reads as 0."""
    return math.inf if probability <= ATOL_PROBABILITY else 1.0 / probability


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
    sampled_frequency: float | None = None  # share of seeded shots that drew the accept digits

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
    """Spec block of a report: the family, n and family fields of the builder's ``meta["spec"]``, and the method.
    A circuit without a spec, such as one reloaded from the exchange format, gives family, n and method as None."""
    spec, method = circuit.meta.get("spec"), circuit.meta.get("method")
    if spec is None:
        return {"family": None, "n": None, "method": method}
    return {"family": spec.family, "n": spec.n, "method": method, **spec.report_fields()}


def verify_circuit(circuit: Circuit, oracle_state: StateVector) -> RunReport:
    """The one verify path: read P and F off the accepted branch and count resources.

    The branch is ``sim.accepted_branch``'s: the run fixes each accept wire
    to its accept digit after its last op, and P is the branch's squared
    norm.  F is |<branch / sqrt(P) | oracle>|^2 with every other ancilla at
    0, equal to ``fidelity(conditional, embedded_reference(...))`` with no
    register-sized copy.  An impossible acceptance gives probability 0,
    fidelity 0 and infinite expected repetitions.  A circuit with no accept
    rule raises ValueError.
    """
    start = time.perf_counter()
    reg, n = circuit.register, len(oracle_state.register)
    if reg.dims[:n] != oracle_state.register.dims:
        raise ValueError("oracle register does not match the circuit's system wires")
    branch, probability = accepted_branch(circuit)
    fixed = dict(zip(*circuit.accept_rule))
    # keep the branch's system wires and pin its other ancillas at 0; a system accept wire pins the oracle
    conditional = _fix(branch, dict.fromkeys(reg.ids[n:], 0)).amplitudes
    oracle = _fix(oracle_state, {o: fixed[w] for o, w in zip(oracle_state.register.ids, reg.ids) if w in fixed}).amplitudes
    fid = float(abs(np.vdot(conditional / math.sqrt(probability), oracle)) ** 2) if probability else 0.0
    gate_count, depth, census = count_resources(circuit, n)
    return RunReport(
        spec=spec_fields(circuit),
        acceptance_probability=probability,
        conditional_fidelity=fid,
        expected_repetitions=expected_repetitions(probability),
        gate_count=gate_count,
        logical_depth=depth,
        ancilla_census=census,
        optimal_parameter=circuit.meta.get("optimal_parameter"),
        wallclock_ms=int(round((time.perf_counter() - start) * 1000)),
        notes=list(circuit.meta.get("notes", ())),
    )
