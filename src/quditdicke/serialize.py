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
from typing import IO

import numpy as np

from .sim import Circuit, GateOp, QuditRegister, StateVector


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


def circuit_from_dict(data: dict) -> Circuit:
    """Rebuild a circuit; wires get integer ids 0..n-1."""
    register = QuditRegister.of_dims(data["register"])
    ops = []
    for entry in data["ops"]:
        params = dict(entry.get("params") or {})
        if entry["kind"] == "DenseUnitary" and "matrix" in params:
            params["matrix"] = np.array([[complex(re, im) for re, im in row] for row in params["matrix"]])
        ops.append(GateOp(entry["kind"], entry["targets"], params, entry.get("controls") or ()))
    accept = data.get("accept_rule")
    accept_rule = None
    if accept is not None:
        accept_rule = (tuple(accept["wires"]), tuple(accept["digits"]))
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
