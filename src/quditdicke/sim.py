"""Dense statevector simulator for registers of mixed-dimension qudits.

Flat amplitude indices use a mixed-radix encoding in which the first wire
of the register is the least-significant digit, so an index reads like the
ket string written right to left.  The public operations are pure: they
return new states and never mutate their inputs.  Each gate kernel acts
in place on one view, the controlled subspace, chosen by gate kind: slice
moves for the permutations (Xd, XdDag, Xswap, Sum, SumDag), a two-slice
update for Rot, slice scaling for PhaseK, and a dense block matrix
product for Hd, HdDag and DenseUnitary.  The PhaseK table of non-unit
phases and the Hd/HdDag Fourier matrix come from bounded private
``lru_cache`` memos, keyed by (num, den, offset, level, target dims) and
by (d, sign), and are read-only; ``gate_matrix`` still returns a fresh
array.  One placement helper, ``_place``, looks up an op's wires on a
register once: it gives target positions, control positions and target
dims, and rejects an op that does not fit.  It serves both the
construction checks of ``Circuit`` and ``apply_gate``.  ``apply_gate``
runs the kernel on a copy of the input, or on the input itself when
``in_place`` is set, which only ``Circuit.run`` does, on the groups it
made.  Results are deterministic for a fixed input.

``Circuit.run`` keeps the state factorized: each wire maps to the
StateVector of the group that holds it, and every group lists its wires
in register order.  Every wire starts in its own one-wire group at its
initial digit.  Before an op acts, the distinct groups of its wires are
merged into one new array by broadcast multiplies, and ``apply_gate`` acts
in place on the merged group alone.  A wire that no op has yet joined to
the others costs d amplitudes, so the one-wire preparation cascades that
open the probabilistic circuits, and the sites of a sequential circuit
before the bond ancilla reaches them, never touch the full register.
The same product joins the last groups into the full register state that
``run`` returns, with no transpose.

The readout reads the state once and allocates nothing register-sized
except the collapsed state it returns.  ``outcome_distribution`` is one
``np.einsum`` that contracts the amplitudes' float64 (re, im) parts with
themselves onto the listed wires; ``project_on_outcome`` takes the
probability of the selected block from one ``np.vdot`` and divides the
block straight into the zeroed output.  ``sample_measure`` and the shot
counts of ``qpe.run_postselected`` share one sampling path,
``_draw_outcomes``: ``default_rng(seed).choice`` on the exact marginal.
An empty wire list is the certain outcome, digits () with probability the
squared norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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
        return _flat_index(digits, self.dims)

    def digits_of(self, index: int) -> tuple[int, ...]:
        """Invert flat_index."""
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range")
        return _digits_of(index, self.dims)

    def __repr__(self) -> str:
        inner = ", ".join(f"{w!r}:{d}" for w, d in zip(self.ids, self.dims))
        return f"QuditRegister({inner})"


def _flat_index(digits: Sequence[int], dims: Sequence[int]) -> int:
    """Mixed-radix index of ``digits``, the first digit least significant."""
    index = 0
    stride = 1
    for digit, dim in zip(digits, dims):
        if not 0 <= digit < dim:
            raise ValueError(f"digit {digit} out of range for dimension {dim}")
        index += digit * stride
        stride *= dim
    return index


def _digits_of(index: int, dims: Sequence[int]) -> tuple[int, ...]:
    """Invert _flat_index for an index below prod(dims)."""
    digits = []
    for dim in dims:
        digits.append(index % dim)
        index //= dim
    return tuple(digits)


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


_NO_PARAMS = MappingProxyType({})


@dataclass(frozen=True, eq=False, init=False)
class GateOp:
    """One gate: a kind from GATE_KINDS, target wires, optional controls.

    Controls are (wire, value) pairs; the gate acts only on the subspace
    where every control wire holds its value.  At most two controls are
    supported.  ``layer_tag`` groups ops that count as a single layer for
    depth accounting (e.g. one logical fan-out emitted as two-wire sums);
    it does not affect the unitary.  An op checks on construction all that
    needs no register; placing it on a register checks only the fit.  An op
    is immutable: ``params`` is a read-only mapping over a copy of the
    given one, and a DenseUnitary matrix is a read-only complex array, so
    no parameter can change after the checks.
    """

    kind: str
    targets: tuple
    params: Mapping
    controls: tuple
    layer_tag: str | None

    def __init__(self, kind: str, targets, params: Mapping = _NO_PARAMS, controls=(), layer_tag: str | None = None):
        if kind not in _SIGNATURES:
            raise ValueError(f"unknown gate kind {kind!r}")
        targets = tuple(targets)
        controls = tuple(controls)
        if controls:
            controls = tuple([(w, int(v)) for w, v in controls])
        params = dict(params)
        if kind == "DenseUnitary" and "matrix" in params:
            matrix = np.array(params["matrix"], dtype=np.complex128)
            matrix.setflags(write=False)
            params["matrix"] = matrix
        if len(controls) > 2:
            raise ValueError("at most two controls are supported")
        if len(targets) > 1 and len(set(targets)) != len(targets):
            raise ValueError("duplicate target wires")
        if controls:
            control_wires = [w for w, _ in controls]
            if len(set(control_wires)) != len(control_wires):
                raise ValueError("duplicate control wires")
            overlap = set(targets) & set(control_wires)
            if overlap:
                raise ValueError(f"wires {overlap} appear as both target and control")
        counts, names = _SIGNATURES[kind]
        if counts is not None and len(targets) not in counts:
            raise ValueError(f"{kind} takes {' or '.join(map(str, counts))} target(s), got {len(targets)}")
        if names:
            missing = [name for name in names if name not in params]
            if missing:
                raise ValueError(f"{kind} is missing parameter(s) {', '.join(sorted(missing))}")
        if kind == "Xswap" and (params["i"] == params["j"] or min(params["i"], params["j"]) < 0):
            raise ValueError(f"Xswap levels ({params['i']},{params['j']}) must be distinct and nonnegative")
        if kind == "PhaseK" and params["den"] <= 0:
            raise ValueError("PhaseK denominator must be positive")
        if kind == "DenseUnitary":
            matrix = params["matrix"]
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ValueError(f"DenseUnitary matrix must be square, got shape {matrix.shape}")
            if not np.allclose(matrix.conj().T @ matrix, np.eye(matrix.shape[0]), atol=ATOL_UNITARY):
                raise ValueError("DenseUnitary matrix is not unitary within tolerance")
        fields = self.__dict__  # frozen: each field is written once, here
        fields["kind"] = kind
        fields["targets"] = targets
        fields["params"] = MappingProxyType(params)
        fields["controls"] = controls
        fields["layer_tag"] = layer_tag

    def __reduce__(self):
        # unpickling rebuilds the op through __init__, so it passes every check again
        return type(self), (self.kind, self.targets, dict(self.params), self.controls, self.layer_tag)

    def wires(self) -> tuple:
        if not self.controls:
            return self.targets
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
        return GateOp("DenseUnitary", self.targets, {"matrix": self.params["matrix"].conj().T}, self.controls)


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
    return GateOp("DenseUnitary", targets, {"matrix": matrix}, controls, layer_tag)


def _charge_values(dim: int, level: int | None) -> np.ndarray:
    if level is None:
        return np.arange(dim, dtype=float)
    return (np.arange(dim) == level).astype(float)


def _phases(num, den, offset, level, dims: Sequence[int]) -> np.ndarray:
    """PhaseK phase of each target digit tuple, one array axis per target."""
    q = _charge_values(dims[-1], level) - offset
    if len(dims) == 2:
        # the phase multiplies by the first wire's digit x: axis 0 is x, axis 1 is m
        q = np.multiply.outer(np.arange(dims[0], dtype=float), q)
    return np.exp(2j * np.pi * num * q / den)


@functools.lru_cache(maxsize=1024)
def _phase_table(num, den, offset, level, dims: tuple) -> tuple:
    """(selection, phase) of each target digit tuple whose PhaseK phase is not exactly 1.

    The selection indexes the target axes of a view whose target axes come first.
    """
    phases = _phases(num, den, offset, level, dims)
    return tuple((tuple(map(int, digits)) + (Ellipsis,), phases[digits]) for digits in zip(*np.nonzero(phases != 1.0)))


@functools.lru_cache(maxsize=64)
def _fourier(d: int, sign: int) -> np.ndarray:
    """Read-only Fourier matrix exp(sign*2*pi*i*x*y/d)/sqrt(d): Hd for sign 1, HdDag for -1."""
    a = np.arange(d)
    matrix = np.exp(sign * 2j * np.pi * np.outer(a, a) / d) / math.sqrt(d)
    matrix.setflags(write=False)
    return matrix


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
        return _fourier(dims[0], 1 if kind == "Hd" else -1).copy()
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
        params = op.params
        phases = _phases(params["num"], params["den"], params["offset"], params["level"], dims)
        return np.diag(phases.reshape(-1, order="F"))
    if kind == "DenseUnitary":
        return op.params["matrix"]
    raise ValueError(f"unknown gate kind {kind!r}")


def _place(op: GateOp, register: QuditRegister) -> tuple[list, list, tuple]:
    """Target positions, control positions and target dims of ``op`` on ``register``.

    The one register lookup of a gate.  It rejects an op that does not fit
    the register; GateOp checked the rest when it was made.
    """
    pos, dims = register._pos, register.dims
    cpos = []
    try:
        for wire, value in op.controls:
            p = pos[wire]
            if not 0 <= value < dims[p]:
                raise ValueError(f"control value {value} out of range for wire {wire!r}")
            cpos.append(p)
        tpos = [pos[w] for w in op.targets]
    except KeyError as exc:
        raise ValueError(f"wire {exc.args[0]!r} not in register") from None
    tdims = tuple([dims[p] for p in tpos])
    _check_dims(op, tdims)
    return tpos, cpos, tdims


def _shift_kernel(op, tdims, view):
    d, step = tdims[0], 1 if op.kind == "Xd" else -1
    last = d - 1 if step == 1 else 0  # level x moves to x + step: hold the level that wraps, move the rest
    held = view[last, ...].copy(order="K")
    for x in range(last, last - step * (d - 1), -step):
        view[x, ...] = view[x - step, ...]
    view[(last + step) % d, ...] = held


def _swap_kernel(op, tdims, view):
    i, j = op.params["i"], op.params["j"]
    held = view[i, ...].copy(order="K")
    view[i, ...] = view[j, ...]
    view[j, ...] = held


def _sum_kernel(op, tdims, view):
    da, db = tdims
    sign = 1 if op.kind == "Sum" else -1
    # the x = 0 fiber stays; every other fiber shifts cyclically by x through one held fiber
    fiber = np.empty_like(view[:, 0, ...])
    for x in range(1, db):
        fiber[...] = view[:, x, ...]
        for y in range(da):
            view[(y + sign * x) % da, x, ...] = fiber[y, ...]


def _rot_kernel(op, tdims, view):
    m = op.params["m"]
    theta = op.params["theta"]
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    lo, hi = view[m, ...], view[m + 1, ...]
    a = lo.copy(order="K")
    scratch = np.empty_like(a)  # a 0-d array, not a scalar, when the view is one amplitude
    np.multiply(hi, s, out=scratch)
    np.multiply(a, c, out=lo)
    lo -= scratch
    np.multiply(hi, c, out=scratch)
    np.multiply(a, s, out=hi)
    hi += scratch


def _phase_kernel(op, tdims, view):
    params = op.params
    for selection, phase in _phase_table(params["num"], params["den"], params["offset"], params["level"], tdims):
        level = view[selection]
        level *= phase


def _matmul_kernel(op, tdims, view):
    kind = op.kind
    matrix = op.params["matrix"] if kind == "DenseUnitary" else _fourier(tdims[0], 1 if kind == "Hd" else -1)
    block = view.reshape((math.prod(tdims), -1), order="F")
    view[...] = (matrix @ block).reshape(view.shape, order="F")


# Each kernel applies the gate in place to the controlled subspace ``view``
# (target axes first).  Each temporary it holds is at most one level slice
# or one Sum fiber, except the reshaped block and the product of _matmul_kernel.
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


def apply_gate(state: StateVector, op: GateOp, *, in_place: bool = False) -> StateVector:
    """Apply one gate; identity outside the controlled subspace.

    ``in_place`` updates and returns ``state`` itself, for the owner of its amplitudes.
    """
    reg = state.register
    tpos, cpos, tdims = _place(op, reg)
    front = tpos + cpos
    order = front + [p for p in range(len(reg)) if p not in front]
    sel = (slice(None),) * len(tpos) + tuple([v for _, v in op.controls])
    out = state if in_place else StateVector(reg, state.amplitudes.copy())
    view = out.amplitudes.reshape(reg.dims, order="F").transpose(order)[sel]
    _KERNELS[op.kind](op, tdims, view)
    return out


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
    producing a NaN state.  With no wires the outcome is certain: the
    probability is the squared norm.
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
    order = pos + [p for p in range(len(reg)) if p not in pos]  # measured axes first
    block = digits + (Ellipsis,)  # a 0-d view, not a scalar, when every wire is measured
    sub = state.amplitudes.reshape(reg.dims, order="F").transpose(order)[block]
    flat = sub.ravel(order="K")  # no copy when the block is contiguous
    probability = float(np.vdot(flat, flat).real)
    if probability == 0.0:
        raise ImpossibleOutcomeError(f"outcome {digits} on wires {wires} is impossible")
    cond = np.zeros(reg.size, dtype=np.complex128)
    np.divide(sub, math.sqrt(probability), out=cond.reshape(reg.dims, order="F").transpose(order)[block])
    return probability, StateVector(reg, cond)


def outcome_distribution(state: StateVector, wires: Sequence) -> np.ndarray:
    """Exact marginal distribution over the listed wires.

    The returned vector is indexed mixed-radix with the first listed wire
    least significant, matching the register convention.  It is one
    contraction of the amplitudes' float64 parts with themselves, summed
    over (re, im) and every unlisted wire.
    """
    reg = state.register
    pos = [reg.position(w) for w in wires]
    if len(set(pos)) != len(pos):
        raise ValueError("duplicate wires")
    amps = state.amplitudes
    if np.iscomplexobj(amps):
        amps = np.ascontiguousarray(amps, dtype=np.complex128).view(np.float64)
    # axis 0 holds (re, im), or only re for a real state; axis 1 + p is wire p
    parts = np.asarray(amps, dtype=np.float64).reshape((-1,) + reg.dims, order="F")
    axes = list(range(parts.ndim))
    marg = np.einsum(parts, axes, parts, axes, [1 + p for p in pos])
    return np.ascontiguousarray(marg.reshape(-1, order="F"))


def outcome_index(register: QuditRegister, wires: Sequence, digits: Sequence[int]) -> int:
    """Position of ``digits`` in the outcome_distribution over ``wires``."""
    if len(wires) != len(digits):
        raise ValueError("digit count does not match the wires")
    return _flat_index(digits, [register.dim(w) for w in wires])


def acceptance_probability(state: StateVector, accept_rule: tuple) -> float:
    """Exact probability that the accept wires read the accept digits."""
    wires, digits = accept_rule
    return float(outcome_distribution(state, wires)[outcome_index(state.register, wires, digits)])


def _draw_outcomes(state: StateVector, wires: Sequence, seed: int, size: int | None = None):
    """Outcome indices over ``wires`` drawn from the exact marginal by ``default_rng(seed)``.

    One index when ``size`` is None, else an array of ``size`` indices.
    The one sampling path of ``sample_measure`` and of shot counts.
    """
    probs = outcome_distribution(state, wires)
    return np.random.default_rng(seed).choice(probs.size, size=size, p=probs / probs.sum())


def sample_measure(state: StateVector, wires: Sequence, seed: int) -> tuple[tuple[int, ...], StateVector]:
    """Draw one outcome for the listed wires from the exact marginal.

    Deterministic for a fixed (state, wires, seed); the collapsed state is
    the same as project_on_outcome on the drawn digits.
    """
    wires = tuple(wires)
    index = int(_draw_outcomes(state, wires, int(seed)))
    digits = _digits_of(index, [state.register.dim(w) for w in wires])
    _, collapsed = project_on_outcome(state, wires, digits)
    return digits, collapsed


@dataclass(frozen=True, eq=False)
class Circuit:
    """Ordered gate list over a register, with an optional acceptance rule.

    ``accept_rule`` is a (wires, digits) pair naming the postselection
    pattern; deterministic builders use it to record the expected final
    ancilla digits.  ``meta`` carries builder bookkeeping (family, method,
    system size n, optimal parameter) and is not part of the exchange
    format; builders put the n system wires first in the register.  The
    circuit is frozen with ``ops`` a tuple, so every op passed its checks.
    """

    register: QuditRegister
    ops: tuple[GateOp, ...]
    accept_rule: tuple[tuple, tuple] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            _place(op, self.register)
        if self.accept_rule is not None:
            wires, digits = self.accept_rule
            wires = tuple(wires)
            digits = tuple(int(v) for v in digits)
            if len(wires) != len(digits):
                raise ValueError("accept_rule wires and digits differ in length")
            for w, v in zip(wires, digits):
                if not 0 <= v < self.register.dim(w):
                    raise ValueError(f"accept_rule digit {v} out of range for wire {w!r}")
            object.__setattr__(self, "accept_rule", (wires, digits))

    def run(self, initial_digits: Sequence[int] | None = None) -> StateVector:
        """Simulate from |0...0> (or the given digits) through every op.

        Wires that no op has joined yet are simulated apart in groups kept
        in register order (module docstring); the result is the full state.
        """
        reg = self.register
        if initial_digits is None:
            initial_digits = (0,) * len(reg)
        reg.flat_index(initial_digits)  # rejects a wrong digit count or a digit out of range
        group_of = {
            wire: new_basis_state(QuditRegister(((wire, dim),)), (digit,))
            for wire, dim, digit in zip(reg.ids, reg.dims, initial_digits)
        }
        for op in self.ops:
            group = _product(list(dict.fromkeys([group_of[w] for w in op.wires()])), reg)
            if group is not group_of[op.targets[0]]:  # merged: map its wires now, which frees the parts
                group_of.update(dict.fromkeys(group.register.ids, group))
            apply_gate(group, op, in_place=True)
        return StateVector(reg, _product(list(dict.fromkeys(group_of.values())), reg).amplitudes)


def _product(states: list[StateVector], register: QuditRegister) -> StateVector:
    """Tensor product of states on disjoint wires of ``register``, its wires in register order.

    Each state lists its wires in register order, so it broadcasts against
    the product with a length-1 axis at every wire it lacks.
    """
    if len(states) == 1:
        return states[0]
    held = {w for s in states for w in s.register.ids}
    wires = [(w, d) for w, d in zip(register.ids, register.dims) if w in held]
    factors = [s.amplitudes.reshape([d if w in s.register.ids else 1 for w, d in wires], order="F") for s in states]
    out = np.empty([d for _, d in wires], dtype=np.complex128, order="F")
    np.multiply(factors[0], factors[1], out=out)
    for factor in factors[2:]:
        out *= factor
    return StateVector(QuditRegister(wires), out.reshape(-1, order="F"))
