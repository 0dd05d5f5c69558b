"""Dense statevector simulator for registers of mixed-dimension qudits.

Flat amplitude indices use a mixed-radix encoding in which the first wire
of the register is the least-significant digit, so an index reads like the
ket string written right to left.  The public operations are pure: they
return new states and never mutate their inputs.  One private table,
``_KINDS``, has one row per gate kind: its target counts, its parameter
names and the integer ones among them, its kernel, and the (parameter,
value) pair that makes an op the identity by construction.  ``GateOp``,
``apply_gate`` and ``_acts`` read the row.  Each kernel acts in place on
one view, the controlled subspace: slice moves for the permutations (Xd,
XdDag, Xswap, Sum, SumDag), a two-slice update for Rot, slice scaling
for PhaseK, and a dense block matrix product for Hd, HdDag and
DenseUnitary.  The block product holds at most
two blocks of the bound ``_BLOCK``: a view above it is multiplied one
sub-view at a time, looping over the trailing (most significant)
non-target axes that do not fit, and each product is written back in
place; a view that fits is one product.  The PhaseK table of non-unit
phases and the Hd/HdDag Fourier matrix come from bounded private
``lru_cache`` memos, keyed by (num, den, offset, level, target dims) and
by (d, sign), and are read-only; ``gate_matrix`` still returns a fresh
array.

The factories other than ``rot`` (its angles are mostly distinct) and
``dense_unitary`` (its parameter is an array) return one already-checked
``GateOp`` per distinct (kind, targets, params, controls, layer tag) from
one bounded private ``lru_cache`` memo, ``_shared_op``, so the emission
blocks that a sequential circuit repeats per bond label hold one object
per distinct gate.  An op stores its wire tuple, targets then control
wires, once when it is built.  Integer fields (control values, the
integer parameters of a row, accept and initial digits, register
dimensions) take any integral value, such as np.int64(2) or 1.0, as an
int; a fractional part raises ValueError when the object is built, the
factories' cache key included.  So does a parameter that the kind's row
does not list, and a Rot theta that is not a finite real number; theta
is stored as a float.

One placement helper, ``_place``, looks up an op's wires on a
register once: it gives target positions, control positions and target
dims, and rejects an op that does not fit.  It serves both the
construction checks of ``Circuit``, run once per distinct op object of a
circuit against its own register, and ``apply_gate``.  ``apply_gate``
runs the kernel on a copy of the input, or on the input itself when
``in_place`` is set, which only ``Circuit.run`` does, on the groups it
made.  Results are deterministic for a fixed input.

``Circuit.run`` keeps the state factorized: each wire maps to the
StateVector of the group that holds it, and every group lists its wires
in register order.  Every wire starts in its own one-wire group at its
initial digit.  An op that is the identity by construction, a PhaseK
with num 0 or a Rot with theta 0 (the zero-phase placeholders that keep
a multilevel emission block at 3d gates, and the rotations of vanishing
coefficients), is left out of the run: it neither runs nor joins groups,
while ``Circuit.ops`` and every gate count and depth still include it.
When an op's wires span more than one group, those groups are merged into
one new array by broadcast multiplies before it acts, and ``apply_gate``
acts in place on that group alone.  The one-wire, merged and fixed groups
get their registers from ``QuditRegister._of_checked``, which skips the
checks that their wires passed in the circuit's register.  A wire that
no op has yet joined to the others costs d amplitudes, so the one-wire
preparation cascades that open the probabilistic circuits, and the sites
of a sequential circuit before the bond ancilla reaches them, never
touch the full register.  The same product joins the last groups, and
the 0-wire states of fully fixed groups, into the state that ``run``
returns, with no transpose.

``run(postselect=True)`` keeps only the accepted branch.  By deferred
measurement a wire that no later op touches can be measured at once, so
each accept wire is fixed to its accept digit right after its last
acting op, and every later op acts on a group smaller by that wire's
dimension.  The branch equals the full state's accepted block within
rounding: the ops after a fix multiply smaller blocks, and BLAS may
round a column differently when the column count changes.  Every
acceptance probability is read from the branch: ``accepted_branch``
gives the branch and its squared norm P, the one readout of
``report.verify_circuit`` and of ``quditdicke sweep``, and
``qpe._boost_sweep`` reads a boost grid's marginal off its branch.

The readout reads the state once and allocates nothing register-sized
except the collapsed state it returns.  ``outcome_distribution`` is one
``np.einsum`` that contracts the amplitudes' float64 (re, im) parts with
themselves onto the listed wires.  Every fixed-digit slice of a state
is one view, ``_pin``: an F-order reshape, an int at each pinned wire and
a trailing Ellipsis, so the other wires keep register order with no
transpose, and pinning every wire gives a 0-d view.  One pin rule,
``_pins``, checks the wires and digits of an accept rule and an outcome.
``_outcome_block`` is an outcome's view with its probability from one
``np.vdot``; ``project_on_outcome`` writes it times 1/sqrt(P) into the
view of the zeroed output.  ``_fix`` copies a view into a state over the
other wires, a 0-wire state when every wire is pinned.  ``report`` pins
through the same views, so no other module reshapes amplitudes.
``sample_measure`` and the shot counts of ``qpe.run_postselected`` share
one CDF, ``_cdf``, built as ``Generator.choice`` builds it from the exact
marginal.  ``sample_measure`` maps one ``default_rng(seed)`` uniform to
an outcome index, as ``choice`` does.  ``_count_outcome`` counts the
shots that ``choice(size=shots)`` would give one outcome without forming
an index: it draws the same uniforms in blocks of ``_BLOCK`` that
continue one generator stream, and counts those inside the outcome's
interval of the CDF.  An empty wire list is the certain outcome, digits
() with probability the squared norm.
"""

from __future__ import annotations

import collections
import functools
import math
import numbers
import sys
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

# The tolerance contract, the one place that says what each constant bounds.  Each comment gives the
# quantity, where it is checked, then its worst value over one `quditdicke verify` and the margin, bound /
# worst (measured with numpy 2.4 on scipy-openblas 0.3.31, Python 3.11, an x86-64 Xeon).
ATOL_UNITARY = 1e-10  # |U^H U - I| of a DenseUnitary block, in GateOp: 1.9e-15, 5e4
FIDELITY_ACCEPT = 1.0 - 1e-9  # 1 - F of a case against its oracle, in suites.check_case: 6.7e-16, 1.5e6
ANCILLA_ACCEPT = 1.0 - 1e-10  # 1 - P of a sequential circuit, in sequential.verify_sequential: 3.3e-16, 3e5
# |P - closed form|, in check_case; report.expected_repetitions also reads a P at or below it as 0: 1.3e-15, 7.5e5
ATOL_PROBABILITY = 1e-9
# exact identities, in suites criteria 6 and 7: duality 1 - F, |mean - k| and |variance| of each charge,
# |sum g^2 - 1| of each bond row, the contracted table against the oracle: 8.5e-14 (a charge variance), 1.2e3
ATOL_IDENTITY = 1e-10
# |sum g^2 - 1| of a rotation cascade's amplitudes, in sequential.rotation_cascade_angles, which takes the
# row as complete within it and refuses a sum above 1 + it: 4.4e-16, 2.3e6
ATOL_CASCADE = 1e-9

_BLOCK = 2**16  # scratch bound of block products and shot draws: a 1 MiB block and its product fit a 2 MiB L2 cache


class ImpossibleOutcomeError(ValueError):
    """Projection on an outcome that carries exactly zero probability."""


class QuditRegister:
    """Ordered list of uniquely named wires with per-wire dimensions >= 2."""

    def __init__(self, wires: Iterable[tuple]):
        pairs = tuple((wire, _integral(dim, f"dimension of wire {wire!r}")) for wire, dim in wires)
        if not pairs:
            raise ValueError("register needs at least one wire")
        ids = tuple(w for w, _ in pairs)
        if len(set(ids)) != len(ids):
            raise ValueError("wire ids must be unique")
        for wire, dim in pairs:
            if dim < 2:
                raise ValueError(f"wire {wire!r} has dimension {dim}, but all dimensions must be >= 2")
        self._fill(ids, tuple(d for _, d in pairs))

    def _fill(self, ids: tuple, dims: tuple) -> "QuditRegister":
        self.ids = ids
        self.dims = dims
        self._pos = {w: p for p, w in enumerate(ids)}
        self.size = math.prod(dims)
        return self

    @classmethod
    def _of_checked(cls, ids: tuple, dims: tuple) -> "QuditRegister":
        """Register over wires of an already-checked register (the one-wire, merged and fixed groups of
        ``Circuit.run``), so the checks of ``__init__`` do not run again."""
        return cls.__new__(cls)._fill(ids, dims)

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


def _integral(value, what: str) -> int:
    """``value`` as an int.  An integral value of any type, such as np.int64(2) or 1.0, passes; any
    other, a fractional part included, raises ValueError instead of being truncated."""
    if type(value) is int:
        return value
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return number


def _flat_index(digits: Sequence[int], dims: Sequence[int]) -> int:
    """Mixed-radix index of ``digits``, the first digit least significant."""
    index = 0
    stride = 1
    for digit, dim in zip(digits, dims):
        digit = _integral(digit, "digit")
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


def _integer_params(kind: str, params: dict) -> dict:
    """``params`` with each integer parameter of ``kind``'s row as an int (``_integral``); PhaseK's level may be None."""
    for name in _KINDS[kind].integers:
        value = params[name]
        if type(value) is not int and (value is not None or name != "level"):
            params[name] = _integral(value, f"{kind} {name}")
    return params


def _control_pairs(controls) -> tuple:
    """Controls as a tuple of (wire, int value) pairs (``_integral``)."""
    if not controls:
        return ()
    return tuple([(wire, _integral(value, "control value")) for wire, value in controls])


@dataclass(frozen=True, eq=False, init=False)
class GateOp:
    """One gate: a kind from GATE_KINDS, target wires, optional controls.

    Controls are (wire, value) pairs; the gate acts only on the subspace
    where every control wire holds its value.  At most two controls are
    supported.  ``layer_tag`` groups ops that count as a single layer for
    depth accounting (e.g. one logical fan-out emitted as two-wire sums);
    it does not affect the unitary.  An op checks on construction all that
    needs no register, an integer field with a fractional part included;
    placing it on a register checks only the fit, which ``Circuit`` does
    once per distinct op object.  An op is immutable: ``params`` is a
    read-only mapping over a copy of the given one, and a DenseUnitary
    matrix is a read-only complex array, so no parameter can change after
    the checks.  So the factories other than ``rot`` and ``dense_unitary``
    hand out one shared op per distinct value, and the wire tuple, targets
    then control wires, is stored once when the op is built.
    """

    kind: str
    targets: tuple
    params: Mapping
    controls: tuple
    layer_tag: str | None

    def __init__(self, kind: str, targets, params: Mapping = _NO_PARAMS, controls=(), layer_tag: str | None = None):
        row = _KINDS.get(kind)
        if row is None:
            raise ValueError(f"unknown gate kind {kind!r}")
        targets = tuple(targets)
        controls = _control_pairs(controls)
        params = dict(params)
        if kind == "DenseUnitary" and "matrix" in params:
            matrix = np.array(params["matrix"], dtype=np.complex128)
            matrix.setflags(write=False)
            params["matrix"] = matrix
        if len(controls) > 2:
            raise ValueError("at most two controls are supported")
        if len(targets) > 1 and len(set(targets)) != len(targets):
            raise ValueError("duplicate target wires")
        control_wires = tuple([w for w, _ in controls])
        if controls:
            if len(set(control_wires)) != len(control_wires):
                raise ValueError("duplicate control wires")
            overlap = set(targets) & set(control_wires)
            if overlap:
                raise ValueError(f"wires {overlap} appear as both target and control")
        if row.targets is not None and len(targets) not in row.targets:
            raise ValueError(f"{kind} takes {' or '.join(map(str, row.targets))} target(s), got {len(targets)}")
        missing = [name for name in row.params if name not in params]
        if missing:
            raise ValueError(f"{kind} is missing parameter(s) {', '.join(sorted(missing))}")
        unknown = [str(name) for name in params if name not in row.params]
        if unknown:
            raise ValueError(f"{kind} has no parameter(s) {', '.join(sorted(unknown))}")
        _integer_params(kind, params)
        if kind == "Xswap" and (params["i"] == params["j"] or min(params["i"], params["j"]) < 0):
            raise ValueError(f"Xswap levels ({params['i']},{params['j']}) must be distinct and nonnegative")
        if kind == "PhaseK" and params["den"] <= 0:
            raise ValueError("PhaseK denominator must be positive")
        if kind == "Rot":  # a finite real angle, stored as a float; the bound also keeps a huge int from overflowing
            theta = params["theta"]
            if not isinstance(theta, numbers.Real) or not abs(theta) <= sys.float_info.max:
                raise ValueError(f"Rot theta must be a finite real number, got {theta!r}")
            params["theta"] = float(theta)
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
        fields["_wires"] = targets + control_wires

    def __reduce__(self):
        # unpickling rebuilds the op through __init__, so it passes every check again
        return type(self), (self.kind, self.targets, dict(self.params), self.controls, self.layer_tag)

    def wires(self) -> tuple:
        """Target wires, then control wires."""
        return self._wires


@functools.lru_cache(maxsize=2048)
def _shared_op(kind: str, targets: tuple, params: tuple, controls: tuple, layer_tag) -> GateOp:
    """The one shared op of a normalized (kind, targets, param items, control pairs, layer tag).

    An op that fails its checks raises and is not cached, so it raises again on every call.
    """
    return GateOp(kind, targets, dict(params), controls, layer_tag)


def xd(wire, controls=(), layer_tag=None) -> GateOp:
    """Cyclic raise |x> -> |x+1 mod d|."""
    return _shared_op("Xd", (wire,), (), _control_pairs(controls), layer_tag)


def xd_dag(wire, controls=(), layer_tag=None) -> GateOp:
    return _shared_op("XdDag", (wire,), (), _control_pairs(controls), layer_tag)


def xswap(wire, i: int, j: int, controls=(), layer_tag=None) -> GateOp:
    """Transposition of levels i and j on one wire."""
    params = _integer_params("Xswap", {"i": i, "j": j})
    return _shared_op("Xswap", (wire,), tuple(params.items()), _control_pairs(controls), layer_tag)


def sum_(dest, src, controls=(), layer_tag=None) -> GateOp:
    """|y>|x> -> |y+x mod dim(dest)>|x>; the source wire is unchanged."""
    return _shared_op("Sum", (dest, src), (), _control_pairs(controls), layer_tag)


def sum_dag(dest, src, controls=(), layer_tag=None) -> GateOp:
    return _shared_op("SumDag", (dest, src), (), _control_pairs(controls), layer_tag)


def hd(wire, controls=(), layer_tag=None) -> GateOp:
    """Fourier gate |x> -> d^{-1/2} sum_y exp(2*pi*i*x*y/d)|y>."""
    return _shared_op("Hd", (wire,), (), _control_pairs(controls), layer_tag)


def hd_dag(wire, controls=(), layer_tag=None) -> GateOp:
    return _shared_op("HdDag", (wire,), (), _control_pairs(controls), layer_tag)


def rot(wire, m: int, theta: float, controls=(), layer_tag=None) -> GateOp:
    """Givens rotation in the (m, m+1) plane: |m> -> cos(t/2)|m> + sin(t/2)|m+1>.  Not shared: its
    angles are mostly distinct, and a shared key would have to tell -0.0 from 0.0."""
    return GateOp("Rot", (wire,), {"m": m, "theta": theta}, controls, layer_tag)


def phase_k(targets, num: int, den: int, offset: int = 0, level: int | None = None, controls=(), layer_tag=None) -> GateOp:
    """Diagonal charge phase exp(2*pi*i*num*(q(m)-offset)/den).

    q(m) is the digit m itself, or the indicator [m == level] when
    ``level`` is given.  With two targets (x_wire, m_wire) the exponent is
    additionally multiplied by the first wire's digit x.
    """
    targets = tuple(targets) if isinstance(targets, (tuple, list)) else (targets,)
    params = _integer_params("PhaseK", {"num": num, "den": den, "offset": offset, "level": level})
    return _shared_op("PhaseK", targets, tuple(params.items()), _control_pairs(controls), layer_tag)


def dense_unitary(targets, matrix, controls=(), layer_tag=None) -> GateOp:
    """Explicit unitary block over the target wires; GateOp checks unitarity.  Not shared: its matrix
    is an array."""
    targets = tuple(targets) if isinstance(targets, (tuple, list)) else (targets,)
    return GateOp("DenseUnitary", targets, {"matrix": matrix}, controls, layer_tag)


def _phases(num, den, offset, level, dims: Sequence[int]) -> np.ndarray:
    """PhaseK phase of each target digit tuple, one array axis per target."""
    digits = np.arange(dims[-1])
    q = (digits if level is None else digits == level).astype(float) - offset  # the charge: m, or [m == level]
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
    return op.params["matrix"]  # DenseUnitary


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
    # the x = 0 fiber stays; every other fiber shifts cyclically by r = sign*x mod da through one held
    # fiber, as two slice moves: levels below da - r move up by r, the top r levels wrap to the bottom
    fiber = np.empty_like(view[:, 0, ...])
    for x in range(1, db):
        r = sign * x % da
        fiber[...] = view[:, x, ...]
        view[r:, x, ...] = fiber[: da - r, ...]
        view[:r, x, ...] = fiber[da - r :, ...]


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
    rows = math.prod(tdims)
    # keep the leading axes whose sub-view fits the bound (the targets at least) and loop over the rest
    lead = view.ndim
    while lead > len(tdims) and math.prod(view.shape[:lead]) > _BLOCK:
        lead -= 1
    for index in np.ndindex(view.shape[lead:]):
        sub = view[(Ellipsis,) + index]
        sub[...] = (matrix @ sub.reshape((rows, -1), order="F")).reshape(sub.shape, order="F")


# One row per gate kind, the only table keyed by kind: its target counts (None: any), its kernel, its
# parameter names and the integer ones among them, and the (parameter, value) pair that makes an op of the
# kind the identity by construction (``_acts``), or None.  Each kernel applies the gate in place to the
# controlled subspace ``view`` (target axes first).  Each temporary it holds is at most one level slice or
# one Sum fiber; _matmul_kernel holds two blocks of at most _BLOCK amplitudes (or of the target dims'
# product, when that alone is larger).
_Kind = collections.namedtuple("_Kind", "targets kernel params integers identity", defaults=((), (), None))
_KINDS = {
    "Xd": _Kind((1,), _shift_kernel),
    "XdDag": _Kind((1,), _shift_kernel),
    "Xswap": _Kind((1,), _swap_kernel, ("i", "j"), ("i", "j")),
    "Sum": _Kind((2,), _sum_kernel),
    "SumDag": _Kind((2,), _sum_kernel),
    "Hd": _Kind((1,), _matmul_kernel),
    "HdDag": _Kind((1,), _matmul_kernel),
    "Rot": _Kind((1,), _rot_kernel, ("m", "theta"), ("m",), ("theta", 0.0)),
    "PhaseK": _Kind((1, 2), _phase_kernel, ("num", "den", "offset", "level"), ("num", "den", "offset", "level"), ("num", 0)),
    "DenseUnitary": _Kind(None, _matmul_kernel, ("matrix",)),
}
GATE_KINDS = tuple(_KINDS)


def _acts(op: GateOp) -> bool:
    """False for an op that is the identity by construction, which ``Circuit.run`` leaves out: its row's
    identity pair holds (num 0 for PhaseK, theta 0 for Rot).  Any other op may act, and runs."""
    identity = _KINDS[op.kind].identity
    return identity is None or op.params[identity[0]] != identity[1]


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
    _KINDS[op.kind].kernel(op, tdims, view)
    return out


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2; insensitive to global phase."""
    if a.register.dims != b.register.dims:
        raise ValueError("states live on registers of different shapes")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def _pins(register: QuditRegister, wires: Sequence, digits: Sequence, what: str) -> dict:
    """{wire: digit} of ``wires`` reading ``digits``, the one pin rule: equal lengths, no wire twice or
    outside ``register``, each digit an integer (``_integral``) below its dimension; ``what`` names them."""
    if len(wires) != len(digits):
        raise ValueError(f"{what} wires and digits differ in length")
    pins = dict(zip(wires, [_integral(v, f"{what} digit") for v in digits]))
    if len(pins) != len(wires):
        raise ValueError(f"{what} rule lists a wire twice")
    for wire, digit in pins.items():
        if not 0 <= digit < register.dim(wire):
            raise ValueError(f"{what} digit {digit} out of range for wire {wire!r}")
    return pins


def _pin(amplitudes: np.ndarray, register: QuditRegister, pins: Mapping) -> np.ndarray:
    """View of ``amplitudes`` over ``register`` where each wire of ``pins`` reads its digit, one axis
    per other wire in register order; a 0-d view, not a scalar, when every wire is pinned."""
    return amplitudes.reshape(register.dims, order="F")[tuple([pins.get(w, slice(None)) for w in register.ids]) + (Ellipsis,)]


def _outcome_block(state: StateVector, wires: Sequence, digits: Sequence[int]):
    """(pins, block, probability) where ``wires`` read ``digits``: the ``_pins`` of the outcome, the
    state's ``_pin`` view there and its squared norm."""
    pins = _pins(state.register, wires, digits, "outcome")
    block = _pin(state.amplitudes, state.register, pins)
    flat = block.ravel(order="K")  # no copy when the block is contiguous
    return pins, block, float(np.vdot(flat, flat).real)


def project_on_outcome(state: StateVector, wires: Sequence, digits: Sequence[int]) -> tuple[float, StateVector]:
    """Exact projection of the given wires onto fixed digits.

    Returns (probability, conditional state).  The conditional state keeps
    the full register shape with the measured wires pinned to ``digits``.
    A zero-probability outcome raises ImpossibleOutcomeError rather than
    producing a NaN state.  With no wires the outcome is certain: the
    probability is the squared norm.
    """
    pins, block, probability = _outcome_block(state, wires, digits)
    if probability == 0.0:
        raise ImpossibleOutcomeError(f"outcome {tuple(pins.values())} on wires {tuple(pins)} is impossible")
    cond = np.zeros(state.register.size, dtype=np.complex128)
    np.multiply(block, 1.0 / math.sqrt(probability), out=_pin(cond, state.register, pins))  # numpy's complex / real is this product
    return probability, StateVector(state.register, cond)


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
    """Position of ``digits`` in the outcome_distribution over ``wires``, which ``_pins`` checks."""
    pins = _pins(register, wires, digits, "outcome")
    return _flat_index(pins.values(), [register.dim(w) for w in pins])


def _cdf(state: StateVector, wires: Sequence) -> np.ndarray:
    """Cumulative distribution of the exact marginal over ``wires``, built as ``Generator.choice``
    builds it: cumsum of the normalized marginal, divided by its last entry, which is then 1.0."""
    probs = outcome_distribution(state, wires)
    total = probs.sum()
    if not total > 0.0:  # a zero or NaN norm has no distribution to draw from
        raise ValueError(f"cannot sample a state of squared norm {total!r}")
    cdf = (probs / total).cumsum()
    cdf /= cdf[-1]
    return cdf


def _count_outcome(state: StateVector, wires: Sequence, index: int, seed: int, shots: int) -> int:
    """How many of ``shots`` draws of ``default_rng(seed).choice`` on the marginal over ``wires``
    give outcome ``index``, drawn in blocks of at most _BLOCK uniforms that continue one stream.

    ``choice`` maps a uniform u to ``searchsorted(cdf, u, "right")``, which is ``index`` exactly
    when cdf[index - 1] <= u < cdf[index]; so each block adds the uniforms below the upper end of
    that interval less those below its lower end, and no outcome index is formed.
    """
    cdf = _cdf(state, wires)
    hi, lo = cdf[index], cdf[index - 1] if index else -np.inf
    uniform = np.random.default_rng(seed).random

    def count(size: int) -> int:  # a block's uniforms are freed before the next block is drawn
        u = uniform(size)
        return int(np.count_nonzero(u < hi)) - int(np.count_nonzero(u < lo))

    return sum(count(min(_BLOCK, shots - start)) for start in range(0, shots, _BLOCK))


def sample_measure(state: StateVector, wires: Sequence, seed: int) -> tuple[tuple[int, ...], StateVector]:
    """Draw one outcome for the listed wires from the exact marginal.

    Deterministic for a fixed (state, wires, seed); the collapsed state is
    the same as project_on_outcome on the drawn digits.  The outcome index
    is the draw of ``default_rng(seed).choice`` on the exact marginal, by
    its own inverse-CDF algorithm without its per-call validation.
    """
    wires = tuple(wires)
    uniform = np.random.default_rng(_integral(seed, "seed")).random()
    index = int(_cdf(state, wires).searchsorted(uniform, side="right"))
    digits = _digits_of(index, [state.register.dim(w) for w in wires])
    return digits, project_on_outcome(state, wires, digits)[1]


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
        for op in dict.fromkeys(self.ops):  # an op shared by several positions fits once
            _place(op, self.register)
        if self.accept_rule is not None:
            pins = _pins(self.register, *self.accept_rule, "accept")
            object.__setattr__(self, "accept_rule", (tuple(pins), tuple(pins.values())))

    def run(self, initial_digits: Sequence[int] | None = None, *, postselect: bool = False) -> StateVector:
        """Simulate from |0...0> (or the given digits) through every op that acts (``_acts``), each once
        through ``apply_gate``, in the wire groups of the module docstring; the result is the full state.

        With ``postselect`` the result is the accepted branch instead: the unnormalized amplitudes where the
        accept wires read the accept digits, over the other wires in register order, whose squared norm is
        the acceptance probability.  One reverse scan maps the index of each accept wire's last acting op to
        the {wire: digit} pairs fixed right after it (module docstring); a wire that no acting op touches is
        fixed before the first.  A circuit with no accept rule, or one whose accept rule lists every wire,
        raises ValueError.
        """
        reg = self.register
        if initial_digits is None:
            initial_digits = (0,) * len(reg)
        initial_digits = tuple([_integral(v, "initial digit") for v in initial_digits])
        reg.flat_index(initial_digits)  # rejects a wrong digit count or a digit out of range
        ops = [op for op in self.ops if _acts(op)]
        pending: dict = {}  # accept wires no acting op touches: fixed before the first op
        fixed_after: dict[int, dict] = {}  # op index -> {wire: digit} fixed right after it
        if postselect:
            if self.accept_rule is None:
                raise ValueError("circuit has no accept rule to postselect on")
            pending = dict(zip(*self.accept_rule))
            if len(pending) == len(reg):
                raise ValueError("the accept rule lists every wire, so no branch is left to return")
            for index in range(len(ops) - 1, -1, -1):  # one reverse scan meets each wire's last acting op first
                if not pending:
                    break
                for wire in ops[index]._wires:
                    if wire in pending:
                        fixed_after.setdefault(index, {})[wire] = pending.pop(wire)
        group_of = {}
        for wire, dim, digit in zip(reg.ids, reg.dims, initial_digits):
            amplitudes = np.zeros(dim, dtype=np.complex128)
            amplitudes[digit] = 1.0
            group_of[wire] = StateVector(QuditRegister._of_checked((wire,), (dim,)), amplitudes)
        done = [_fix(group_of.pop(wire), {wire: digit}) for wire, digit in pending.items()]  # the 0-wire states of fully fixed groups
        for index, op in enumerate(ops):
            wires = op._wires
            group = group_of[wires[0]]
            for wire in wires[1:]:
                if group_of[wire] is not group:  # the wires span groups: merge and map them now, which frees the parts
                    group = _product(list(dict.fromkeys([group_of[w] for w in wires])), reg)
                    group_of.update(dict.fromkeys(group.register.ids, group))
                    break
            apply_gate(group, op, in_place=True)
            fixed = fixed_after.get(index)
            if fixed:  # the op's wires share its group: slice it once, and rebind so it does not outlive the slice
                for wire in fixed:
                    del group_of[wire]
                group = _fix(group, fixed)
                group_of.update(dict.fromkeys(group.register.ids, group))
                if not group.register.ids:
                    done.append(group)
        state = _product(list(dict.fromkeys(group_of.values())) + done, reg)
        return state if postselect else StateVector(reg, state.amplitudes)


def accepted_branch(circuit: Circuit) -> tuple[StateVector, float]:
    """(branch, P): ``circuit.run(postselect=True)`` and its squared norm, the probability that the
    accept wires read the accept digits.  The one readout of ``report.verify_circuit`` and of
    ``quditdicke sweep``, so both report the same P bit for bit."""
    branch = circuit.run(postselect=True)
    return branch, float(np.vdot(branch.amplitudes, branch.amplitudes).real)


def _fix(state: StateVector, pins: Mapping) -> StateVector:
    """The ``_pin`` slice of ``state`` copied into a new state over the unpinned wires, so the rejected rows
    are freed: a 0-wire state, its one amplitude, when every wire is pinned; ``state`` when none is."""
    kept = [(w, d) for w, d in zip(state.register.ids, state.register.dims) if w not in pins]
    if len(kept) == len(state.register):
        return state
    register = QuditRegister._of_checked(tuple([w for w, _ in kept]), tuple([d for _, d in kept]))
    return StateVector(register, _pin(state.amplitudes, state.register, pins).flatten(order="F"))


def _product(states: list[StateVector], register: QuditRegister) -> StateVector:
    """Tensor product of states on disjoint wires of ``register``, its wires in register order.

    Each state lists its wires in register order, so it broadcasts against
    the product with a length-1 axis at every wire it lacks.
    """
    if len(states) == 1:
        return states[0]
    held = {w for s in states for w in s.register.ids}
    wires = [(w, d) for w, d in zip(register.ids, register.dims) if w in held]
    factors = [s.amplitudes.reshape([d if w in s.register._pos else 1 for w, d in wires], order="F") for s in states]
    out = np.empty([d for _, d in wires], dtype=np.complex128, order="F")
    np.multiply(factors[0], factors[1], out=out)
    for factor in factors[2:]:
        out *= factor
    merged = QuditRegister._of_checked(tuple([w for w, _ in wires]), tuple([d for _, d in wires]))
    return StateVector(merged, out.reshape(-1, order="F"))
