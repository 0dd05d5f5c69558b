"""Probabilistic preparation circuits with exact postselection.

Every scheme prepares a boosted product state, reads its conserved
charges into ancillas, and accepts the runs whose ancillas show the
targets.  A spin-s target reads one charge, q(m) = m, with target k; a
multilevel target reads the d-1 occupation charges q_i(m) = [m == i],
with targets k_i.  Both are a ``ChargeReadout``, and each scheme is
written once against it: a bank of qubits with an inverse Fourier block
per charge (log depth), one higher-dimensional Hadamard test per charge,
and a fan-out interference filter whose depth does not grow with the
register.  Each scheme reads a charge register out (its inverse Fourier
block, closing ``HdDag`` or closing ``Hd``) right after that register's
last phase, before the next register joins, so ``Circuit.run(postselect=True)``
fixes it to its accept digits there and holds one charge register at a
time.  Moving a closing op past ops on disjoint wires leaves the unitary,
the gate count, the ancilla census and the logical depth unchanged.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .reference import DickeSpecSpinS, DickeSpecSUD, binomial
from .report import RunReport, verify_circuit
from .sequential import build_sequential_spin_s, build_sequential_sud, rotation_cascade_angles
from .sim import (
    Circuit,
    GateOp,
    QuditRegister,
    StateVector,
    _count_outcome,
    _fourier,
    _integral,
    dense_unitary,
    hd,
    hd_dag,
    outcome_distribution,
    outcome_index,
    phase_k,
    rot,
    sum_,
    sum_dag,
)


def _site_amplitudes_spin_s(twice_s: int, p: float) -> np.ndarray:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    return np.array([math.sqrt(binomial(twice_s, m) * p**m * (1.0 - p) ** (twice_s - m)) for m in range(twice_s + 1)])


def _site_amplitudes_sud(xi) -> np.ndarray:
    xi = np.asarray([float(v) for v in xi])
    if xi.ndim != 1 or xi.size < 2:
        raise ValueError("xi must be a vector of at least two weights")
    if not np.all(np.isfinite(xi)) or np.any(xi < 0):
        raise ValueError("xi components must be finite and nonnegative")
    norm = np.linalg.norm(xi)
    if norm == 0.0:
        raise ValueError("xi must not be the zero vector")
    return xi / norm


def _system_wires(n: int) -> list[str]:
    return [f"s{j}" for j in range(1, n + 1)]


def _prep_ops(site_amps: np.ndarray, wires, controls=()) -> list[GateOp]:
    angles = rotation_cascade_angles(site_amps)
    return [rot(w, m, theta, controls) for w in wires for m, theta in enumerate(angles)]


def _product_state(n: int, site_amps: np.ndarray) -> tuple[StateVector, list[GateOp]]:
    wires = _system_wires(n)
    amps = functools.reduce(lambda acc, _: np.kron(site_amps, acc), range(n), np.ones(1))
    register = QuditRegister((w, site_amps.size) for w in wires)
    return StateVector(register, amps.astype(np.complex128)), _prep_ops(site_amps, wires)


def product_state_spin_s(n: int, twice_s: int, p: float) -> tuple[StateVector, list[GateOp]]:
    """Boosted product state and the rotation sequence preparing it.

    Each site holds sqrt(C(2s,m) p^m (1-p)^(2s-m)) on level m, so the
    n-fold product decomposes over the charge sectors with binomial
    weights in p.
    """
    return _product_state(n, _site_amplitudes_spin_s(twice_s, p))


def product_state_sud(n: int, xi) -> tuple[StateVector, list[GateOp]]:
    """Normalized weighted product state over d levels, tensored n times."""
    return _product_state(n, _site_amplitudes_sud(xi))


@dataclass(frozen=True)
class ChargeReadout:
    """What a probabilistic scheme reads off the boosted product state.

    ``charges`` holds one (label, level, target) triple per conserved
    charge: ``label`` names that charge's ancillas, and the charge of a
    site digit m is m itself when ``level`` is None, else [m == level].
    ``max_charge`` is the largest value any charge reaches (2sn or n);
    ``meta`` carries the family fields of the circuit's report.
    """

    site_amps: np.ndarray
    charges: tuple
    max_charge: int
    meta: dict

    @property
    def system(self) -> list[str]:
        return _system_wires(self.meta["n"])


def _spin_s_readout(spec: DickeSpecSpinS, p: float | None) -> ChargeReadout:
    if p is None:
        p = spec.k / spec.max_charge
    meta = {"family": "spin-s", "n": spec.n, "twice_s": spec.twice_s, "k": spec.k, "optimal_parameter": p}
    return ChargeReadout(_site_amplitudes_spin_s(spec.twice_s, p), (("", None, spec.k),), spec.max_charge, meta)


def _sud_readout(spec: DickeSpecSUD, xi) -> ChargeReadout:
    if xi is None:
        xi = tuple(math.sqrt(v / spec.n) for v in spec.kvec)
    xi = tuple(float(v) for v in xi)
    if len(xi) != spec.d:
        raise ValueError(f"xi needs {spec.d} components")
    charges = tuple((str(i), i, spec.kvec[i]) for i in range(1, spec.d))
    meta = {"family": "sud", "n": spec.n, "kvec": spec.kvec, "optimal_parameter": list(xi)}
    return ChargeReadout(_site_amplitudes_sud(xi), charges, spec.n, meta)


def _wire(prefix: str, label: str, index="") -> str:
    """Ancilla name: the spin-s family's empty label gives q0, h, f1; level 2 gives q2_0, h2, f2_1."""
    return prefix + "_".join(str(part) for part in (label, index) if part != "")


def _circuit(readout: ChargeReadout, method: str, ancillas, ops, accept_rule, notes=()) -> Circuit:
    system = readout.system
    wires = [(w, readout.site_amps.size) for w in system] + list(ancillas)
    meta = {**readout.meta, "method": method, "notes": list(notes)}
    return Circuit(QuditRegister(wires), _prep_ops(readout.site_amps, system) + ops, accept_rule, meta)


def _boost_sweep(circuit: Circuit, site_amps) -> np.ndarray:
    """Acceptance probability of a built probabilistic circuit at each boost in ``site_amps``, from one run.

    Every circuit ``_circuit`` builds starts with the n(d-1) cascade Rots
    of its boost, and no later op depends on the boost.  With one boost the
    sweep circuit is the built register with that boost's cascade.  With
    L > 1 boosts it adds a ``grid`` wire of dimension L: ``hd("grid")``
    spreads it evenly over its L levels, the cascade of boost b acts under
    the control ("grid", b), and the built circuit's remaining ops follow
    unchanged, so level b of the grid carries the state prepared at boost b
    with weight 1/L.  One ``run(postselect=True)`` gives the accepted
    branch, and its marginal over the grid wires times L (with no grid
    wire, its squared norm) is every acceptance probability at once, each
    within a few ulps of the same point simulated alone.  The run holds L
    times the built register, so a caller under an amplitude cap splits its
    boosts into sweeps of at most cap // register size.  ``quditdicke sweep
    --param p`` keeps one circuit per point: its CSV prints each
    probability with ``repr``, whose last bits a sweep moves.
    """
    reg, n = circuit.register, circuit.meta["n"]
    system, levels = reg.ids[:n], len(site_amps)
    grid = ("grid",) if levels > 1 else ()
    register = QuditRegister(list(zip(reg.ids, reg.dims)) + [(w, levels) for w in grid])
    prep = [op for b, amps in enumerate(site_amps) for op in _prep_ops(amps, system, tuple((w, b) for w in grid))]
    ops = [hd(w) for w in grid] + prep + list(circuit.ops[n * (reg.dims[0] - 1) :])
    branch = Circuit(register, ops, circuit.accept_rule).run(postselect=True)
    return outcome_distribution(branch, grid) * levels


def _build_qpe_log(readout: ChargeReadout) -> Circuit:
    """One qubit bank per charge, written through controlled charge phases and
    read by an inverse Fourier block; accepts when bank x shows the target in
    binary (bit x on qubit x).  Each bank's Fourier block follows its own
    phases, before the next bank's, so a postselected run fixes one bank
    before the next joins the system's group."""
    ell = readout.max_charge.bit_length()
    size = 2**ell
    banks = [[_wire("q", label, x) for x in range(ell)] for label, _, _ in readout.charges]
    ops = [hd(q) for bank in banks for q in bank]
    for bank, (_, level, _) in zip(banks, readout.charges):
        for x in range(ell):
            ops += [phase_k(w, num=2**x, den=size, level=level, controls=((bank[x], 1),)) for w in readout.system]
        ops.append(dense_unitary(tuple(bank), _fourier(size, -1)))
    qubits = tuple(q for bank in banks for q in bank)
    digits = tuple((target >> x) & 1 for _, _, target in readout.charges for x in range(ell))
    return _circuit(readout, "qpe-log", [(q, 2) for q in qubits], ops, (qubits, digits))


def _build_hadamard(readout: ChargeReadout, budget: int) -> Circuit:
    """One (max charge + 1)-dimensional ancilla per charge reads it through a
    Fourier-conjugated product of charge phases; accepts when each ancilla
    reads its target.  ``budget`` is the ancilla count of the constant-depth
    feedforward realization, noted in the report."""
    modulus = readout.max_charge + 1
    ancillas = [_wire("h", label) for label, _, _ in readout.charges]
    ops = []
    for anc, (_, level, _) in zip(ancillas, readout.charges):
        ops.append(hd(anc))
        ops += [phase_k((anc, w), num=1, den=modulus, level=level) for w in readout.system]
        ops.append(hd_dag(anc))
    notes = [
        f"constant-depth feedforward realization budget: about {budget} ancillas of dimension {modulus}; "
        f"this direct simulation uses {len(ancillas)}"
    ]
    accept_rule = (tuple(ancillas), tuple(target for _, _, target in readout.charges))
    return _circuit(readout, "hadamard", [(h, modulus) for h in ancillas], ops, accept_rule, notes)


def _build_fanout(readout: ChargeReadout) -> Circuit:
    """Fan the register out to one basis copy per (charge, bit) pair, the
    system itself being the first, and accept when every flag qubit survives
    an interference test on its shifted charge.

    Counting each fan-out and each controlled charge phase as one layer,
    the depth does not grow with n.  Each flag's closing ``Hd`` follows its
    own phase block, before the next flag's block and the uncompute, so a
    postselected run fixes one flag before the next joins the group.
    """
    ell = readout.max_charge.bit_length()
    system = readout.system
    copies = [[f"c{b}_{j}" for j in range(1, len(system) + 1)] for b in range(2, len(readout.charges) * ell + 1)]
    blocks = [system] + copies
    flags = [_wire("f", label, x) for label, _, _ in readout.charges for x in range(1, ell + 1)]
    ops = [sum_(copy, src, layer_tag="F") for block in copies for copy, src in zip(block, system)]
    ops += [hd(f) for f in flags]
    for c, (label, level, target) in enumerate(readout.charges):
        for x in range(1, ell + 1):
            flag = _wire("f", label, x)
            controls = ((flag, 1),)
            tag = _wire("U", label, x)
            for idx, w in enumerate(blocks[c * ell + x - 1]):
                offset = target if idx == 0 else 0
                ops.append(phase_k(w, num=1, den=2**x, offset=offset, level=level, controls=controls, layer_tag=tag))
            ops.append(hd(flag))
    ops += [sum_dag(copy, src, layer_tag="Fdag") for block in copies for copy, src in zip(block, system)]
    ancillas = [(w, readout.site_amps.size) for block in copies for w in block] + [(f, 2) for f in flags]
    return _circuit(readout, "fanout", ancillas, ops, (tuple(flags), (0,) * len(flags)))


# The six public builders read a spin-s target's one charge (boost p defaults
# to k/(2sn)) or a multilevel target's d-1 occupations (xi defaults to sqrt(k_i/n)).
def build_qpe_log_spin_s(spec: DickeSpecSpinS, p: float | None = None) -> Circuit:
    return _build_qpe_log(_spin_s_readout(spec, p))


def build_hadamard_test_spin_s(spec: DickeSpecSpinS, p: float | None = None) -> Circuit:
    return _build_hadamard(_spin_s_readout(spec, p), budget=spec.n)


def build_fanout_const_spin_s(spec: DickeSpecSpinS, p: float | None = None) -> Circuit:
    return _build_fanout(_spin_s_readout(spec, p))


def build_qpe_log_sud(spec: DickeSpecSUD, xi=None) -> Circuit:
    return _build_qpe_log(_sud_readout(spec, xi))


def build_hadamard_test_sud(spec: DickeSpecSUD, xi=None) -> Circuit:
    return _build_hadamard(_sud_readout(spec, xi), budget=spec.n + spec.d)


def build_fanout_const_sud(spec: DickeSpecSUD, xi=None) -> Circuit:
    return _build_fanout(_sud_readout(spec, xi))


# the one method registry, by family: the deterministic scheme first, then the probabilistic ones,
# which also take a boost (p or xi) as their second argument
BUILDERS = {
    "spin-s": {"sequential": build_sequential_spin_s, "qpe-log": build_qpe_log_spin_s,
               "hadamard": build_hadamard_test_spin_s, "fanout": build_fanout_const_spin_s},
    "sud": {"sequential": build_sequential_sud, "qpe-log": build_qpe_log_sud,
            "hadamard": build_hadamard_test_sud, "fanout": build_fanout_const_sud},
}


def run_postselected(circuit: Circuit, oracle_state: StateVector, shots: int = 0, seed: int | None = None) -> RunReport:
    """``report.verify_circuit``, with an impossible acceptance noted and optional shots drawn.

    P and F come from the accepted branch whether or not shots are drawn.
    With ``shots`` > 0 the circuit is simulated once more, to the full
    state, only to draw shots from its accept-register marginal with
    ``default_rng(seed)``, seed 0 when ``seed`` is None; the report's
    ``seed`` is the one the draws used, None when no shot is drawn.  The
    empirical acceptance frequency is the report's ``sampled_frequency``
    and is also noted; it counts the shots that ``choice`` on the marginal
    would give the accept digits (``sim._count_outcome``), so reruns with
    the report's seed are bit-identical.  The report's ``wallclock_ms``
    covers the draw.  Negative ``shots``, and a ``shots`` or ``seed`` with a
    fractional part (``sim._integral``), raise ValueError.
    """
    shots = _integral(shots, "shots")
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    seed = 0 if seed is None else _integral(seed, "seed")
    start = time.perf_counter()
    report = verify_circuit(circuit, oracle_state)
    if report.expected_repetitions == math.inf:
        report.notes.append("acceptance has probability 0: reported as failure")
    if shots:
        report.seed = seed
        wires, digits = circuit.accept_rule
        hits = _count_outcome(circuit.run(), wires, outcome_index(circuit.register, wires, digits), seed, shots)
        report.sampled_frequency = float(hits) / float(shots)
        report.notes.append(f"sampled acceptance frequency {report.sampled_frequency!r} over {shots} shots")
        report.wallclock_ms = int(round((time.perf_counter() - start) * 1000))
    return report
