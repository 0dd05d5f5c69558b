"""Circuit exchange format and amplitude dumps.

A circuit serializes to one JSON object with exactly the fields
``register`` (list of wire dimensions), ``ops`` (list of
{kind, params, targets, controls}) and ``accept_rule``; wires are
referenced by register position.  Amplitude dumps are CSV rows of
(index, digits, re, im) with digits underscore-joined, site n first.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Mapping

import numpy as np

from .sim import Circuit, GateOp, QuditRegister, StateVector, _integral


def _params_to_json(op: GateOp) -> dict:
    if op.kind == "DenseUnitary":
        matrix = np.asarray(op.params["matrix"])
        return {"matrix": [[[float(z.real), float(z.imag)] for z in row] for row in matrix]}
    return dict(op.params)


def circuit_to_dict(circuit: Circuit) -> dict:
    reg = circuit.register
    ops = []
    for op in circuit.ops:
        ops.append(
            {
                "kind": op.kind,
                "params": _params_to_json(op),
                "targets": [reg.position(w) for w in op.targets],
                "controls": [[reg.position(w), v] for w, v in op.controls],
            }
        )
    accept = None
    if circuit.accept_rule is not None:
        wires, digits = circuit.accept_rule
        accept = {"wires": [reg.position(w) for w in wires], "digits": list(digits)}
    return {"register": list(reg.dims), "ops": ops, "accept_rule": accept}


def circuit_to_json(circuit: Circuit) -> str:
    return json.dumps(circuit_to_dict(circuit), indent=2)


def _field(entry, name: str, what: str, types=(list, tuple), default=None):
    """``entry[name]`` of the loaded object ``what``, or ``default`` when the field is absent or null.  A missing
    field, or one not of ``types``, raises ValueError naming ``what``, not KeyError or TypeError."""
    if not isinstance(entry, Mapping):
        raise ValueError(f"{what} must be a mapping, got {entry!r}")
    value = default if entry.get(name) is None else entry[name]
    if not isinstance(value, types):
        raise ValueError(f"{what} has no {name}" if value is None else f"{what} field {name} has type {type(value).__name__}")
    return value


def circuit_from_dict(data: dict) -> Circuit:
    """Rebuild a circuit; wires get integer ids 0..n-1.  A wire position that is not an integer raises ValueError,
    and so does a missing field, one of the wrong type, or a control or matrix entry that is not a pair, naming the
    circuit, the op or the accept rule."""
    register = QuditRegister.of_dims(_field(data, "register", "circuit"))
    ops = []
    for number, entry in enumerate(_field(data, "ops", "circuit")):
        what = f"op {number}"
        kind = _field(entry, "kind", what, str)
        params = dict(_field(entry, "params", what, Mapping, {}))
        if kind == "DenseUnitary" and "matrix" in params:
            try:
                params["matrix"] = np.array([[complex(re, im) for re, im in row] for row in params["matrix"]])
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"{what} matrix must be equal rows of [re, im] pairs, got {params['matrix']!r}") from None
        targets = [_integral(wire, "wire position") for wire in _field(entry, "targets", what)]
        controls = _field(entry, "controls", what, default=())
        if not all(isinstance(control, (list, tuple)) and len(control) == 2 for control in controls):
            raise ValueError(f"{what} controls must be [wire, value] pairs, got {controls!r}")
        controls = [(_integral(wire, "wire position"), value) for wire, value in controls]
        ops.append(GateOp(kind, targets, params, controls))
    accept = data.get("accept_rule")
    accept_rule = None
    if accept is not None:
        wires = [_integral(wire, "wire position") for wire in _field(accept, "wires", "accept rule")]
        accept_rule = (wires, _field(accept, "digits", "accept rule"))
    return Circuit(register, ops, accept_rule)


def circuit_from_json(text: str) -> Circuit:
    return circuit_from_dict(json.loads(text))


def dump_amplitudes_csv(state: StateVector, stream: IO[str]) -> None:
    """Write every amplitude as index, digits (site n first), re, im."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["index", "digits", "re", "im"])
    reg = state.register
    for index, amp in enumerate(state.amplitudes):
        digits = reg.digits_of(index)
        label = "_".join(str(d) for d in reversed(digits))
        writer.writerow([index, label, repr(float(amp.real)), repr(float(amp.imag))])
