"""Dense statevector simulator for registers of mixed-dimension qudits.

Flat amplitude indices use a mixed-radix encoding in which the first wire
of the register is the least-significant digit, so an index reads like the
ket string written right to left.  All operations here are pure: they
return new states and never mutate their inputs, which makes states safe
to share across threads.  ``apply_gate`` copies the input once and then
updates only the controlled subspace with a kernel chosen by gate kind:
slice copies for the permutations (Xd, XdDag, Xswap, Sum, SumDag), a
two-slice update for Rot, in-place slice scaling for PhaseK, and a dense
block matrix product for Hd, HdDag and DenseUnitary.  Results are
deterministic for a fixed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Numerical contract of the package, shared by the builders, the verify
# path and the acceptance suites.
ATOL_UNITARY = 1e-10  # unitarity of constructed matrices
FIDELITY_ACCEPT = 1.0 - 1e-9  # fidelity a prepared state must reach against its oracle
ANCILLA_ACCEPT = 1.0 - 1e-10  # probability that a deterministic circuit returns its ancillas
ATOL_PROBABILITY = 1e-9  # simulated acceptance probability against its closed form
ATOL_IDENTITY = 1e-10  # identities exact in exact arithmetic: duality, charge moments, bond rows
ATOL_CASCADE = 1e-9  # rotation cascade: squared amplitudes above 1, ratios outside [-1, 1]

# target counts (None: any) and parameter names of each gate kind
_SIGNATURES = {
    "Xd": ((1,), ()),
    "XdDag": ((1,), ()),
    "Xswap": ((1,), ("i", "j")),
    "Sum": ((2,), ()),
    "SumDag": ((2,), ()),
    "Hd": ((1,), ()),
    "HdDag": ((1,), ()),
    "Rot": ((1,), ("m", "theta")),
    "PhaseK": ((1, 2), ("num", "den", "offset", "level")),
    "DenseUnitary": (None, ("matrix",)),
}
GATE_KINDS = tuple(_SIGNATURES)


class ImpossibleOutcomeError(ValueError):
    """Projection on an outcome that carries exactly zero probability."""


class QuditRegister:
    """Ordered list of uniquely named wires with per-wire dimensions >= 2."""

    def __init__(self, wires: Iterable[tuple]):
        pairs = tuple((wire, int(dim)) for wire, dim in wires)
        if not pairs:
            raise ValueError("register needs at least one wire")
        ids = tuple(w for w, _ in pairs)
        if len(set(ids)) != len(ids):
            raise ValueError("wire ids must be unique")
        for wire, dim in pairs:
            if dim < 2:
                raise ValueError(f"wire {wire!r} has dimension {dim}, but all dimensions must be >= 2")
        self.ids = ids
        self.dims = tuple(d for _, d in pairs)
        self._pos = {w: p for p, w in enumerate(ids)}
        self.size = math.prod(self.dims)

    @classmethod
    def of_dims(cls, dims: Sequence[int]) -> "QuditRegister":
        """Register with integer wire ids 0..len(dims)-1."""
        return cls(enumerate(dims))

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, wire) -> bool:
        return wire in self._pos

    def position(self, wire) -> int:
        try:
            return self._pos[wire]
        except KeyError:
            raise ValueError(f"wire {wire!r} not in register") from None

    def dim(self, wire) -> int:
        return self.dims[self.position(wire)]

    def flat_index(self, digits: Sequence[int]) -> int:
        """Mixed-radix encode; digits are listed in wire order (wire 1 first)."""
        if len(digits) != len(self.dims):
            raise ValueError("digit count does not match register")
        index = 0
        stride = 1
        for digit, dim in zip(digits, self.dims):
            if not 0 <= digit < dim:
                raise ValueError(f"digit {digit} out of range for dimension {dim}")
            index += digit * stride
            stride *= dim
        return index

    def digits_of(self, index: int) -> tuple[int, ...]:
        """Invert flat_index."""
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range")
        digits = []
        for dim in self.dims:
            digits.append(index % dim)
            index //= dim
        return tuple(digits)

    def __repr__(self) -> str:
        inner = ", ".join(f"{w!r}:{d}" for w, d in zip(self.ids, self.dims))
        return f"QuditRegister({inner})"


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over a register; treat as immutable."""

    register: QuditRegister
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tensor(self) -> np.ndarray:
        """View amplitudes with one axis per wire, axis p = wire p."""
        return self.amplitudes.reshape(self.register.dims, order="F")


def new_basis_state(register: QuditRegister, digits: Sequence[int]) -> StateVector:
    """Computational basis state |digits> (digit for wire 1 first)."""
    amps = np.zeros(register.size, dtype=np.complex128)
    amps[register.flat_index(digits)] = 1.0
    return StateVector(register, amps)


@dataclass(eq=False)
class GateOp:
    """One gate: a kind from GATE_KINDS, target wires, optional controls.

    Controls are (wire, value) pairs; the gate acts only on the subspace
    where every control wire holds its value.  At most two controls are
    supported.  ``layer_tag`` groups ops that count as a single layer for
    depth accounting (e.g. one logical fan-out emitted as two-wire sums);
    it does not affect the unitary.  An op checks on construction all that
    needs no register; placing it on a register checks only the fit.
    """

    kind: str
    targets: tuple
    params: dict = field(default_factory=dict)
    controls: tuple = ()
    layer_tag: str | None = None

    def __post_init__(self):
        if self.kind not in _SIGNATURES:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        self.targets = tuple(self.targets)
        self.controls = tuple((w, int(v)) for w, v in self.controls)
        if len(self.controls) > 2:
            raise ValueError("at most two controls are supported")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("duplicate target wires")
        control_wires = [w for w, _ in self.controls]
        if len(set(control_wires)) != len(control_wires):
            raise ValueError("duplicate control wires")
        overlap = set(self.targets) & set(control_wires)
        if overlap:
            raise ValueError(f"wires {overlap} appear as both target and control")
        counts, names = _SIGNATURES[self.kind]
        if counts is not None and len(self.targets) not in counts:
            raise ValueError(f"{self.kind} takes {' or '.join(map(str, counts))} target(s), got {len(self.targets)}")
        params = self.params
        missing = sorted(name for name in names if name not in params)
        if missing:
            raise ValueError(f"{self.kind} is missing parameter(s) {', '.join(missing)}")
        if self.kind == "Xswap" and (params["i"] == params["j"] or min(params["i"], params["j"]) < 0):
            raise ValueError(f"Xswap levels ({params['i']},{params['j']}) must be distinct and nonnegative")
        if self.kind == "PhaseK" and params["den"] <= 0:
            raise ValueError("PhaseK denominator must be positive")
        if self.kind == "DenseUnitary":
            matrix = np.asarray(params["matrix"], dtype=np.complex128)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ValueError(f"DenseUnitary matrix must be square, got shape {matrix.shape}")
            if not np.allclose(matrix.conj().T @ matrix, np.eye(matrix.shape[0]), atol=ATOL_UNITARY):
                raise ValueError("DenseUnitary matrix is not unitary within tolerance")

    def wires(self) -> tuple:
        return self.targets + tuple(w for w, _ in self.controls)

    def inverse(self) -> "GateOp":
        """Op implementing the inverse unitary (same targets/controls)."""
        flip = {"Xd": "XdDag", "XdDag": "Xd", "Sum": "SumDag", "SumDag": "Sum", "Hd": "HdDag", "HdDag": "Hd"}
        if self.kind in flip:
            return GateOp(flip[self.kind], self.targets, dict(self.params), self.controls)
        if self.kind == "Xswap":
            return GateOp("Xswap", self.targets, dict(self.params), self.controls)
        if self.kind == "Rot":
            params = dict(self.params)
            params["theta"] = -params["theta"]
            return GateOp("Rot", self.targets, params, self.controls)
        if self.kind == "PhaseK":
            params = dict(self.params)
            params["num"] = -params["num"]
            return GateOp("PhaseK", self.targets, params, self.controls)
        matrix = np.asarray(self.params["matrix"])
        return GateOp("DenseUnitary", self.targets, {"matrix": matrix.conj().T}, self.controls)


def xd(wire, controls=(), layer_tag=None) -> GateOp:
    """Cyclic raise |x> -> |x+1 mod d|."""
    return GateOp("Xd", (wire,), controls=controls, layer_tag=layer_tag)


def xd_dag(wire, controls=(), layer_tag=None) -> GateOp:
    return GateOp("XdDag", (wire,), controls=controls, layer_tag=layer_tag)


def xswap(wire, i: int, j: int, controls=(), layer_tag=None) -> GateOp:
    """Transposition of levels i and j on one wire."""
    return GateOp("Xswap", (wire,), {"i": int(i), "j": int(j)}, controls, layer_tag)


def sum_(dest, src, controls=(), layer_tag=None) -> GateOp:
    """|y>|x> -> |y+x mod dim(dest)>|x>; the source wire is unchanged."""
    return GateOp("Sum", (dest, src), controls=controls, layer_tag=layer_tag)


def sum_dag(dest, src, controls=(), layer_tag=None) -> GateOp:
    return GateOp("SumDag", (dest, src), controls=controls, layer_tag=layer_tag)


def hd(wire, controls=(), layer_tag=None) -> GateOp:
    """Fourier gate |x> -> d^{-1/2} sum_y exp(2*pi*i*x*y/d)|y>."""
    return GateOp("Hd", (wire,), controls=controls, layer_tag=layer_tag)


def hd_dag(wire, controls=(), layer_tag=None) -> GateOp:
    return GateOp("HdDag", (wire,), controls=controls, layer_tag=layer_tag)


def rot(wire, m: int, theta: float, controls=(), layer_tag=None) -> GateOp:
    """Givens rotation in the (m, m+1) plane: |m> -> cos(t/2)|m> + sin(t/2)|m+1>."""
    return GateOp("Rot", (wire,), {"m": int(m), "theta": float(theta)}, controls, layer_tag)


def phase_k(targets, num: int, den: int, offset: int = 0, level: int | None = None, controls=(), layer_tag=None) -> GateOp:
    """Diagonal charge phase exp(2*pi*i*num*(q(m)-offset)/den).

    q(m) is the digit m itself, or the indicator [m == level] when
    ``level`` is given.  With two targets (x_wire, m_wire) the exponent is
    additionally multiplied by the first wire's digit x.
    """
    targets = tuple(targets) if isinstance(targets, (tuple, list)) else (targets,)
    params = {"num": int(num), "den": int(den), "offset": int(offset), "level": None if level is None else int(level)}
    return GateOp("PhaseK", targets, params, controls, layer_tag)


def dense_unitary(targets, matrix, controls=(), layer_tag=None) -> GateOp:
    """Explicit unitary block over the target wires; GateOp checks unitarity."""
    targets = tuple(targets) if isinstance(targets, (tuple, list)) else (targets,)
    return GateOp("DenseUnitary", targets, {"matrix": np.asarray(matrix, dtype=np.complex128)}, controls, layer_tag)


def _charge_values(dim: int, level: int | None) -> np.ndarray:
    if level is None:
        return np.arange(dim, dtype=float)
    return (np.arange(dim) == level).astype(float)


def _phases(params: dict, dims: Sequence[int]) -> np.ndarray:
    """PhaseK phase of each target digit tuple, one array axis per target."""
    num, den, offset = params["num"], params["den"], params["offset"]
    q = _charge_values(dims[-1], params["level"]) - offset
    if len(dims) == 2:
        # the phase multiplies by the first wire's digit x: axis 0 is x, axis 1 is m
        q = np.multiply.outer(np.arange(dims[0], dtype=float), q)
    return np.exp(2j * np.pi * num * q / den)


def _check_dims(op: GateOp, dims: Sequence[int]) -> None:
    """Reject a level or block size that targets of the given dimensions cannot hold."""
    params = op.params
    if op.kind == "Xswap" and max(params["i"], params["j"]) >= dims[0]:
        raise ValueError(f"Xswap levels ({params['i']},{params['j']}) must be below dimension {dims[0]}")
    if op.kind == "Rot" and not 0 <= params["m"] < dims[0] - 1:
        raise ValueError(f"Rot level {params['m']} needs m+1 < dimension {dims[0]}")
    if op.kind == "PhaseK" and params["level"] is not None and not 0 <= params["level"] < dims[-1]:
        raise ValueError(f"PhaseK level {params['level']} out of range for dimension {dims[-1]}")
    if op.kind == "DenseUnitary":
        full, shape = math.prod(dims), np.shape(params["matrix"])
        if shape != (full, full):
            raise ValueError(f"DenseUnitary shape {shape} does not match targets of total dimension {full}")


def gate_matrix(op: GateOp, dims: Sequence[int]) -> np.ndarray:
    """Unitary matrix of ``op`` on targets of the given dimensions.

    The matrix index convention matches the register: the first target is
    the least-significant digit of the block index.
    """
    _check_dims(op, dims)
    return _matrix(op, dims)


def _matrix(op: GateOp, dims: Sequence[int]) -> np.ndarray:
    """gate_matrix for an op whose parameters are already checked."""
    kind = op.kind
    if kind in ("Xd", "XdDag"):
        d = dims[0]
        shift = 1 if kind == "Xd" else -1
        m = np.zeros((d, d), dtype=np.complex128)
        for x in range(d):
            m[(x + shift) % d, x] = 1.0
        return m
    if kind == "Xswap":
        d = dims[0]
        i, j = op.params["i"], op.params["j"]
        m = np.eye(d, dtype=np.complex128)
        m[[i, j]] = m[[j, i]]
        return m
    if kind in ("Sum", "SumDag"):
        da, db = dims
        sign = 1 if kind == "Sum" else -1
        m = np.zeros((da * db, da * db), dtype=np.complex128)
        for x in range(db):
            for y in range(da):
                m[((y + sign * x) % da) + da * x, y + da * x] = 1.0
        return m
    if kind in ("Hd", "HdDag"):
        d = dims[0]
        sign = 1 if kind == "Hd" else -1
        a = np.arange(d)
        return np.exp(sign * 2j * np.pi * np.outer(a, a) / d) / math.sqrt(d)
    if kind == "Rot":
        d = dims[0]
        m0 = op.params["m"]
        theta = op.params["theta"]
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        u = np.eye(d, dtype=np.complex128)
        u[m0, m0] = c
        u[m0 + 1, m0 + 1] = c
        u[m0, m0 + 1] = -s
        u[m0 + 1, m0] = s
        return u
    if kind == "PhaseK":
        return np.diag(_phases(op.params, dims).reshape(-1, order="F"))
    if kind == "DenseUnitary":
        return np.asarray(op.params["matrix"], dtype=np.complex128)
    raise ValueError(f"unknown gate kind {kind!r}")


def _validate_on(op: GateOp, register: QuditRegister) -> None:
    """Reject an op that does not fit the register; GateOp checked the rest when it was made."""
    for wire, value in op.controls:
        if not 0 <= value < register.dim(wire):
            raise ValueError(f"control value {value} out of range for wire {wire!r}")
    _check_dims(op, [register.dim(w) for w in op.targets])


def _shift_kernel(op, tdims, src, dst):
    d = tdims[0]
    shift = 1 if op.kind == "Xd" else -1
    for x in range(d):
        dst[(x + shift) % d, ...] = src[x, ...]


def _swap_kernel(op, tdims, src, dst):
    i, j = op.params["i"], op.params["j"]
    dst[i, ...] = src[j, ...]
    dst[j, ...] = src[i, ...]


def _sum_kernel(op, tdims, src, dst):
    da, db = tdims
    sign = 1 if op.kind == "Sum" else -1
    # the x = 0 slices keep the values the output copied from the input
    for x in range(1, db):
        for y in range(da):
            dst[(y + sign * x) % da, x, ...] = src[y, x, ...]


def _rot_kernel(op, tdims, src, dst):
    m = op.params["m"]
    theta = op.params["theta"]
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    a, b = src[m, ...], src[m + 1, ...]
    lo, hi = dst[m, ...], dst[m + 1, ...]
    scratch = np.empty_like(b)  # a 0-d array, not a scalar, when the view is one amplitude
    np.multiply(b, s, out=scratch)
    np.multiply(a, c, out=lo)
    lo -= scratch
    np.multiply(b, c, out=scratch)
    np.multiply(a, s, out=hi)
    hi += scratch


def _phase_kernel(op, tdims, src, dst):
    phases = _phases(op.params, tdims)
    for digits in zip(*np.nonzero(phases != 1.0)):
        level = dst[digits + (Ellipsis,)]
        level *= phases[digits]


def _matmul_kernel(op, tdims, src, dst):
    block = src.reshape((math.prod(tdims), -1), order="F")
    dst[...] = (_matrix(op, tdims) @ block).reshape(dst.shape, order="F")


# Each kernel writes the gate's action on the controlled subspace ``src``
# (target axes first) into ``dst``, which starts as a copy of ``src``.
_KERNELS = {
    "Xd": _shift_kernel,
    "XdDag": _shift_kernel,
    "Xswap": _swap_kernel,
    "Sum": _sum_kernel,
    "SumDag": _sum_kernel,
    "Hd": _matmul_kernel,
    "HdDag": _matmul_kernel,
    "Rot": _rot_kernel,
    "PhaseK": _phase_kernel,
    "DenseUnitary": _matmul_kernel,
}


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply one gate; identity outside the controlled subspace."""
    reg = state.register
    _validate_on(op, reg)
    tpos = [reg.position(w) for w in op.targets]
    front = tpos + [reg.position(w) for w, _ in op.controls]
    order = front + [p for p in range(len(reg)) if p not in front]
    sel = (slice(None),) * len(tpos) + tuple(v for _, v in op.controls)

    def controlled(amplitudes):
        return amplitudes.reshape(reg.dims, order="F").transpose(order)[sel]

    out = state.amplitudes.copy()
    _KERNELS[op.kind](op, tuple(reg.dims[p] for p in tpos), controlled(state.amplitudes), controlled(out))
    return StateVector(reg, out)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2; insensitive to global phase."""
    if a.register.dims != b.register.dims:
        raise ValueError("states live on registers of different shapes")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def project_on_outcome(state: StateVector, wires: Sequence, digits: Sequence[int]) -> tuple[float, StateVector]:
    """Exact projection of the given wires onto fixed digits.

    Returns (probability, conditional state).  The conditional state keeps
    the full register shape with the measured wires pinned to ``digits``.
    A zero-probability outcome raises ImpossibleOutcomeError rather than
    producing a NaN state.
    """
    reg = state.register
    wires = tuple(wires)
    digits = tuple(int(v) for v in digits)
    if len(wires) != len(digits):
        raise ValueError("wires and digits differ in length")
    if len(set(wires)) != len(wires):
        raise ValueError("duplicate wires in projection")
    pos = [reg.position(w) for w in wires]
    for w, v in zip(wires, digits):
        if not 0 <= v < reg.dim(w):
            raise ValueError(f"digit {v} out of range for wire {w!r}")
    arr = state.amplitudes.reshape(reg.dims, order="F")
    moved = np.moveaxis(arr, pos, range(len(pos)))
    sub = moved[digits]
    probability = float(np.sum(np.abs(sub) ** 2))
    if probability == 0.0:
        raise ImpossibleOutcomeError(f"outcome {digits} on wires {wires} is impossible")
    cond = np.zeros(reg.size, dtype=np.complex128)
    cond_view = np.moveaxis(cond.reshape(reg.dims, order="F"), pos, range(len(pos)))
    cond_view[digits] = sub / math.sqrt(probability)
    return probability, StateVector(reg, cond)


def outcome_distribution(state: StateVector, wires: Sequence) -> np.ndarray:
    """Exact marginal distribution over the listed wires.

    The returned vector is indexed mixed-radix with the first listed wire
    least significant, matching the register convention.
    """
    reg = state.register
    wires = tuple(wires)
    pos = [reg.position(w) for w in wires]
    if len(set(pos)) != len(pos):
        raise ValueError("duplicate wires")
    weights = np.abs(state.amplitudes.reshape(reg.dims, order="F")) ** 2
    others = tuple(a for a in range(len(reg.dims)) if a not in set(pos))
    marg = weights.sum(axis=others) if others else weights
    kept = sorted(pos)
    marg = np.transpose(marg, axes=[kept.index(p) for p in pos])
    return np.ascontiguousarray(marg.reshape(-1, order="F"))


def outcome_index(register: QuditRegister, wires: Sequence, digits: Sequence[int]) -> int:
    """Position of ``digits`` in the outcome_distribution over ``wires``."""
    return QuditRegister.of_dims([register.dim(w) for w in wires]).flat_index(digits)


def acceptance_probability(state: StateVector, accept_rule: tuple) -> float:
    """Exact probability that the accept wires read the accept digits."""
    wires, digits = accept_rule
    return float(outcome_distribution(state, wires)[outcome_index(state.register, wires, digits)])


def sample_measure(state: StateVector, wires: Sequence, seed: int) -> tuple[tuple[int, ...], StateVector]:
    """Draw one outcome for the listed wires from the exact marginal.

    Deterministic for a fixed (state, wires, seed); the collapsed state is
    the same as project_on_outcome on the drawn digits.
    """
    reg = state.register
    wires = tuple(wires)
    probs = outcome_distribution(state, wires)
    rng = np.random.default_rng(int(seed))
    index = int(rng.choice(probs.size, p=probs / probs.sum()))
    digits = QuditRegister.of_dims([reg.dim(w) for w in wires]).digits_of(index)
    _, collapsed = project_on_outcome(state, wires, digits)
    return digits, collapsed


@dataclass(eq=False)
class Circuit:
    """Ordered gate list over a register, with an optional acceptance rule.

    ``accept_rule`` is a (wires, digits) pair naming the postselection
    pattern; deterministic builders use it to record the expected final
    ancilla digits.  ``meta`` carries builder bookkeeping (family, method,
    system size n, optimal parameter) and is not part of the exchange
    format; builders put the n system wires first in the register.
    """

    register: QuditRegister
    ops: list[GateOp]
    accept_rule: tuple[tuple, tuple] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.ops = list(self.ops)
        for op in self.ops:
            _validate_on(op, self.register)
        if self.accept_rule is not None:
            wires, digits = self.accept_rule
            wires = tuple(wires)
            digits = tuple(int(v) for v in digits)
            if len(wires) != len(digits):
                raise ValueError("accept_rule wires and digits differ in length")
            for w, v in zip(wires, digits):
                if not 0 <= v < self.register.dim(w):
                    raise ValueError(f"accept_rule digit {v} out of range for wire {w!r}")
            self.accept_rule = (wires, digits)

    def run(self, initial_digits: Sequence[int] | None = None) -> StateVector:
        """Simulate from |0...0> (or the given digits) through every op."""
        if initial_digits is None:
            initial_digits = (0,) * len(self.register)
        state = new_basis_state(self.register, initial_digits)
        for op in self.ops:
            state = apply_gate(state, op)
        return state
