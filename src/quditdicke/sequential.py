"""Deterministic sequential preparation circuits.

Both families follow the same pattern: a bond ancilla walks through the
partial-charge (or partial-occupation) labels while one conditional
emission block per label transfers amplitude onto the current site.  The
spin-s emitter needs one ancilla of dimension k+1; the multilevel
emitter adds a flag qubit so that double controls suffice.
"""

from __future__ import annotations

import logging
import math

from .levelsets import LevelSetIndex, build_level_sets
from .reference import DickeSpecSpinS, DickeSpecSUD, gamma_spin_s, gamma_sud
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

logger = logging.getLogger(__name__)

SINE_UNDERFLOW = 1e-14


def rotation_cascade_angles(gammas) -> list[float]:
    """Angles theta_m = 2*arccos(gamma_m / prod_{p<m} sin(theta_p/2)).

    When the squared amplitudes sum to one the last amplitude is implied
    and one fewer angle is returned.  Once the running sine product
    underflows below 1e-14 the remaining angles are zero: that branch
    carries no amplitude.
    """
    gammas = [float(g) for g in gammas]
    total = sum(g * g for g in gammas)
    if total > 1.0 + ATOL_CASCADE:
        raise ValueError(f"squared amplitudes sum to {total}, above 1")
    count = len(gammas) - 1 if abs(total - 1.0) <= ATOL_CASCADE else len(gammas)
    angles = []
    sine_product = 1.0
    for m in range(count):
        if sine_product < SINE_UNDERFLOW:
            angles.append(0.0)
            continue
        ratio = gammas[m] / sine_product
        clamped = min(1.0, max(-1.0, ratio))
        if abs(ratio - clamped) > ATOL_CASCADE:
            logger.warning("cascade ratio %.17g clamped to [-1, 1]", ratio)
        theta = 2.0 * math.acos(clamped)
        angles.append(theta)
        sine_product *= math.sin(theta / 2.0)
    return angles


def spin_s_l_range(n: int, twice_s: int, k: int, i: int) -> range:
    """Labels whose emitters can act nontrivially at site i."""
    return range(max(0, twice_s * (i - n - 1) + k), min(twice_s * i, k))


def _emitter_gates_spin_s(n: int, twice_s: int, k: int, i: int, l: int) -> list[GateOp]:
    chi = k + 1
    system = f"s{i}"
    gammas = [gamma_spin_s(n, twice_s, k, i, l, m) for m in range(twice_s + 1)]
    if not any(gammas):
        return []
    angles = rotation_cascade_angles(gammas)
    control = (("mps", (l + 1) % chi),)
    ops = [xd("mps"), sum_dag("mps", system)]
    ops += [rot(system, m, angles[m], controls=control) for m in range(twice_s)]
    ops += [sum_("mps", system), xd_dag("mps")]
    return ops


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
    return _emitter_gates_spin_s(n, twice_s, k, i, l)


def build_sequential_spin_s(spec: DickeSpecSpinS, via_duality: bool = False) -> Circuit:
    """Deterministic circuit leaving the bond ancilla in |k> and the system
    in the charge-k target.

    ``via_duality`` prepares the mirror charge 2sn-k and conjugates every
    site, as a fallback for the high-charge half; the ancilla then ends in
    |2sn-k>.
    """
    if via_duality:
        mirror = DickeSpecSpinS(spec.n, spec.twice_s, spec.max_charge - spec.k)
        circuit = build_sequential_spin_s(mirror, via_duality=False)
        for j in range(1, spec.n + 1):
            for m in range((spec.twice_s + 1) // 2):
                circuit.ops.append(xswap(f"s{j}", m, spec.twice_s - m))
        circuit.meta["k"] = spec.k
        circuit.meta["notes"] = list(circuit.meta.get("notes", ())) + ["prepared via charge conjugation of the mirror target"]
        return circuit

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
    circuit = Circuit(
        QuditRegister(wires),
        ops,
        accept_rule=(("mps",), (k,)),
        meta={
            "family": "spin-s",
            "method": "sequential",
            "n": n,
            "twice_s": twice_s,
            "k": k,
            "optimal_parameter": None,
        },
    )
    return circuit


def build_i_sud(n: int, kvec, i: int, a, levels: LevelSetIndex) -> list[GateOp]:
    """Gate sequence of one multilevel emission block (3d gates).

    A double-controlled NOT arms the flag when the site reads 0 and the
    bond ancilla reads the label of ``a``; flag-controlled rotations split
    the site amplitude; double-controlled level swaps relabel the ancilla;
    double-controlled NOTs disarm the flag.  Skipped branches (vanishing
    coefficients) emit zero-phase placeholders so the 3d count holds.
    """
    kvec = tuple(int(v) for v in kvec)
    d = len(kvec)
    a = tuple(int(v) for v in a)
    p = levels.label(i - 1, a)
    system = f"s{i}"
    gammas = [gamma_sud(n, kvec, i, a, m) for m in range(d)]
    labels_to = []
    for m in range(d):
        bumped = a[:m] + (a[m] + 1,) + a[m + 1 :]
        labels_to.append(levels.label(i, bumped) if gammas[m] > 0.0 else None)
    angles = rotation_cascade_angles(gammas)
    ops = [xd("flag", controls=((system, 0), ("mps", p)))]
    ops += [rot(system, m, angles[m], controls=(("flag", 1),)) for m in range(d - 1)]
    for m in range(d):
        target = labels_to[m]
        if target is None or target == p:
            ops.append(phase_k("mps", num=0, den=1, controls=((system, m), ("flag", 1))))
        else:
            ops.append(xswap("mps", p, target, controls=((system, m), ("flag", 1))))
    for m in range(d):
        target = labels_to[m]
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
    levels = build_level_sets(kvec)
    wires = [(f"s{j}", d) for j in range(1, n + 1)]
    wires += [("mps", max(levels.chi, 2)), ("flag", 2)]
    ops: list[GateOp] = []
    lone = _single_level(kvec)
    if lone is not None:
        # product target |m..m>: one level swap per site, no bond walk needed
        if lone != 0:
            ops = [xswap(f"s{j}", 0, lone) for j in range(1, n + 1)]
    else:
        for i in range(1, n + 1):
            for a in levels.elements(i - 1):
                ops += build_i_sud(n, kvec, i, a, levels)
    return Circuit(
        QuditRegister(wires),
        ops,
        accept_rule=(("mps", "flag"), (0, 0)),
        meta={
            "family": "sud",
            "method": "sequential",
            "n": n,
            "kvec": kvec,
            "optimal_parameter": None,
        },
    )


def verify_sequential(circuit: Circuit, oracle_state: StateVector) -> RunReport:
    """Run a deterministic circuit and compare against the closed form.

    The ancillas are projected exactly on their expected final digits (the
    circuit's accept rule); any shortfall from probability 1 is a flagged
    failure.  Fidelity is taken against the oracle embedded alongside
    those digits.
    """
    if circuit.accept_rule is None:
        raise ValueError("sequential circuits must carry an accept rule")

    def judge(state, probability, notes):
        if probability >= ANCILLA_ACCEPT:
            return 1.0, 1.0, None
        digits = circuit.accept_rule[1]
        notes.append(f"ancilla check failed: expected digits {digits} with probability 1, measured {probability!r}")
        return probability, 1.0, None

    return verify_circuit(circuit, oracle_state, judge)
