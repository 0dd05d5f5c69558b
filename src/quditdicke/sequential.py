"""Deterministic sequential preparation circuits.

Both families follow the same pattern: a bond ancilla walks through the
partial-charge (or partial-occupation) labels while one conditional
emission block per label transfers amplitude onto the current site.  The
spin-s emitter needs one ancilla of dimension k+1; the multilevel
emitter adds a flag qubit so that double controls suffice.
"""

from __future__ import annotations

import math

from .reference import DickeSpecSpinS, DickeSpecSUD, bond_table, gamma_row_spin_s
from .report import RunReport, verify_circuit
from .sim import (
    ANCILLA_ACCEPT,
    ATOL_CASCADE,
    Circuit,
    GateOp,
    QuditRegister,
    StateVector,
    phase_k,
    rot,
    sum_,
    sum_dag,
    xd,
    xd_dag,
    xswap,
)


def rotation_cascade_angles(gammas) -> list[float]:
    """Angles theta_m = 2*atan2(t_{m+1}, gamma_m) of a Givens cascade.

    t_j is the norm of the amplitudes on levels j and up, summed from the
    top level down, so rotation m keeps gamma_m on level m and passes the
    norm t_{m+1} upward.  No ratio of running products is formed, so a
    tiny amplitude keeps its relative precision.  When the squared
    amplitudes sum to one the last amplitude is implied and one fewer
    angle is returned; otherwise the remainder 1 - sum(gamma^2) also
    counts in every t_j and lands past the last level.
    """
    gammas = [float(g) for g in gammas]
    total = sum(g * g for g in gammas)
    if total > 1.0 + ATOL_CASCADE:
        raise ValueError(f"squared amplitudes sum to {total}, above 1")
    complete = abs(total - 1.0) <= ATOL_CASCADE
    tail = 0.0 if complete else 1.0 - total
    angles = []
    for g in reversed(gammas):
        angles.append(2.0 * math.atan2(math.sqrt(tail), g))
        tail += g * g
    angles.reverse()
    return angles[:-1] if complete else angles


def spin_s_l_range(n: int, twice_s: int, k: int, i: int) -> range:
    """Labels whose emitters can act nontrivially at site i."""
    return range(max(0, twice_s * (i - n - 1) + k), min(twice_s * i, k))


def build_i_spin_s(n: int, twice_s: int, k: int, i: int, l: int) -> list[GateOp]:
    """Gate sequence of one spin-s emission block (2s+4 gates).

    Raise the bond ancilla, subtract the site digit, rotate the site
    conditioned on the ancilla reading l+1, then undo the arithmetic; all
    ancilla arithmetic is modulo chi = k+1.
    """
    if not 1 <= i <= n:
        raise ValueError(f"site {i} outside 1..{n}")
    if l not in spin_s_l_range(n, twice_s, k, i):
        raise ValueError(f"label {l} outside the active range for site {i}")
    gammas = gamma_row_spin_s(n, twice_s, k, i, l)
    if not any(gammas):
        return []
    angles = rotation_cascade_angles(gammas)
    system, control = f"s{i}", (("mps", (l + 1) % (k + 1)),)
    ops = [xd("mps"), sum_dag("mps", system)]
    ops += [rot(system, m, angles[m], controls=control) for m in range(twice_s)]
    ops += [sum_("mps", system), xd_dag("mps")]
    return ops


def build_sequential_spin_s(spec: DickeSpecSpinS, via_duality: bool = False) -> Circuit:
    """Deterministic circuit leaving the bond ancilla in |k> and the system
    in the charge-k target.

    ``via_duality`` prepares the mirror charge 2sn-k and conjugates every
    site, as a fallback for the high-charge half; the ancilla then ends in
    |2sn-k>.
    """
    if via_duality:
        mirror = build_sequential_spin_s(DickeSpecSpinS(spec.n, spec.twice_s, spec.max_charge - spec.k))
        ops = list(mirror.ops) + [
            xswap(f"s{j}", m, spec.twice_s - m) for j in range(1, spec.n + 1) for m in range((spec.twice_s + 1) // 2)
        ]
        notes = mirror.meta["notes"] + ["prepared via charge conjugation of the mirror target"]
        return Circuit(mirror.register, ops, mirror.accept_rule, dict(mirror.meta, spec=spec, notes=notes))

    n, twice_s, k = spec.n, spec.twice_s, spec.k
    dim = spec.dim
    wires = [(f"s{j}", dim) for j in range(1, n + 1)]
    wires.append(("mps", max(k + 1, 2)))
    ops: list[GateOp] = []
    if k == spec.max_charge and k > 0:
        # product target |2s..2s>: raise each site and accumulate the charge
        for j in range(1, n + 1):
            ops += [xd(f"s{j}") for _ in range(twice_s)]
        for j in range(1, n + 1):
            ops.append(sum_("mps", f"s{j}"))
    elif k > 0:
        for i in range(1, n + 1):
            for l in spin_s_l_range(n, twice_s, k, i):
                ops += build_i_spin_s(n, twice_s, k, i, l)
    meta = {"spec": spec, "method": "sequential", "optimal_parameter": None, "notes": []}
    return Circuit(QuditRegister(wires), ops, accept_rule=(("mps",), (k,)), meta=meta)


def build_i_sud(i: int, p: int, row, after) -> list[GateOp]:
    """Gate sequence of the multilevel emission block of bond digit p at site i (3d gates).

    ``row`` and ``after`` are the digit's ``reference.bond_table`` entry:
    the coefficients over the d site levels and the bond digit each level
    leads to.  A double-controlled NOT arms the flag when the site reads 0
    and the bond ancilla reads p; flag-controlled rotations split the site
    amplitude; double-controlled level swaps relabel the ancilla to
    ``after``; double-controlled NOTs disarm the flag.  Skipped branches
    (vanishing coefficients) emit zero-phase placeholders so the 3d count
    holds.
    """
    system = f"s{i}"
    angles = rotation_cascade_angles(row)
    ops = [xd("flag", controls=((system, 0), ("mps", p)))]
    ops += [rot(system, m, angles[m], controls=(("flag", 1),)) for m in range(len(row) - 1)]
    for m, target in enumerate(after):
        if target is None or target == p:
            ops.append(phase_k("mps", num=0, den=1, controls=((system, m), ("flag", 1))))
        else:
            ops.append(xswap("mps", p, target, controls=((system, m), ("flag", 1))))
    for m, target in enumerate(after):
        if target is None:
            ops.append(phase_k("flag", num=0, den=1, controls=((system, m),)))
        else:
            ops.append(xd("flag", controls=((system, m), ("mps", target))))
    return ops


def _single_level(kvec) -> int | None:
    nonzero = [m for m, v in enumerate(kvec) if v > 0]
    return nonzero[0] if len(nonzero) == 1 else None


def build_sequential_sud(spec: DickeSpecSUD) -> Circuit:
    """Deterministic circuit leaving the system in the occupation target
    with the bond ancilla and flag both back in |0>."""
    n, kvec, d = spec.n, spec.kvec, spec.d
    table = bond_table(spec)
    wires = [(f"s{j}", d) for j in range(1, n + 1)]
    wires += [("mps", max(2, *map(len, table))), ("flag", 2)]
    ops: list[GateOp] = []
    lone = _single_level(kvec)
    if lone is not None:
        # product target |m..m>: one level swap per site, no bond walk needed
        if lone != 0:
            ops = [xswap(f"s{j}", 0, lone) for j in range(1, n + 1)]
    else:
        for i, site in enumerate(table, 1):
            for p, (_, row, after) in enumerate(site):
                ops += build_i_sud(i, p, row, after)
    meta = {"spec": spec, "method": "sequential", "optimal_parameter": None, "notes": []}
    return Circuit(QuditRegister(wires), ops, accept_rule=(("mps", "flag"), (0, 0)), meta=meta)


def verify_sequential(circuit: Circuit, oracle_state: StateVector) -> RunReport:
    """``report.verify_circuit``, with the ancillas' return judged.

    The accept rule holds the ancillas' expected final digits.  A P at or
    above ANCILLA_ACCEPT counts as certain and reads 1, with 1 expected
    repetition; any other P is reported as measured, with a note that the
    ancilla check failed.
    """
    report = verify_circuit(circuit, oracle_state)
    if report.acceptance_probability >= ANCILLA_ACCEPT:
        report.acceptance_probability = report.expected_repetitions = 1.0
    else:
        report.notes.append(
            f"ancilla check failed: expected digits {circuit.accept_rule[1]} with probability 1, "
            f"measured {report.acceptance_probability!r}"
        )
    return report
