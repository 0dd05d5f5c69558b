"""Unit and property tests for the statevector engine."""

import dataclasses
import io
import math
import pickle
import tracemalloc
from types import MappingProxyType

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditdicke.qpe import BUILDERS
from quditdicke.reference import DickeSpecSpinS, DickeSpecSUD
from quditdicke.sequential import build_sequential_spin_s, build_sequential_sud
from quditdicke.serialize import circuit_from_json, circuit_to_json, dump_amplitudes_csv
from quditdicke.sim import (
    GATE_KINDS,
    Circuit,
    GateOp,
    ImpossibleOutcomeError,
    QuditRegister,
    StateVector,
    acceptance_probability,
    apply_gate,
    dense_unitary,
    fidelity,
    gate_matrix,
    hd,
    hd_dag,
    new_basis_state,
    outcome_distribution,
    phase_k,
    project_on_outcome,
    rot,
    sample_measure,
    sum_,
    sum_dag,
    xd,
    xd_dag,
    xswap,
)


def random_state(register, rng):
    amps = rng.normal(size=register.size) + 1j * rng.normal(size=register.size)
    amps /= np.linalg.norm(amps)
    return StateVector(register, amps)


def test_basis_state_examples():
    reg = QuditRegister.of_dims([3, 3, 3])
    state = new_basis_state(reg, (0, 0, 2))
    assert state.amplitudes[reg.flat_index((0, 0, 2))] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1

    reg = QuditRegister.of_dims([2])
    assert np.array_equal(new_basis_state(reg, (1,)).amplitudes, [0.0, 1.0])

    # first listed wire is least significant: index = 3 + 4*1
    reg = QuditRegister.of_dims([4, 2])
    state = new_basis_state(reg, (3, 1))
    assert state.amplitudes[7] == 1.0


def test_basis_state_rejects_bad_digit():
    reg = QuditRegister.of_dims([3, 2])
    with pytest.raises(ValueError):
        new_basis_state(reg, (3, 0))


def test_register_invariants():
    with pytest.raises(ValueError):
        QuditRegister([("a", 1)])
    with pytest.raises(ValueError):
        QuditRegister([("a", 2), ("a", 3)])


def test_mixed_radix_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(25):
        dims = [int(d) for d in rng.integers(2, 6, size=rng.integers(1, 6))]
        reg = QuditRegister.of_dims(dims)
        for _ in range(10):
            index = int(rng.integers(0, reg.size))
            assert reg.flat_index(reg.digits_of(index)) == index


def test_xd_wraps_modulo_dimension():
    reg = QuditRegister.of_dims([3])
    state = apply_gate(new_basis_state(reg, (2,)), xd(0))
    assert np.allclose(state.amplitudes, [1.0, 0.0, 0.0])


def test_sum_adds_source_into_target():
    reg = QuditRegister.of_dims([4, 4])
    state = apply_gate(new_basis_state(reg, (1, 2)), sum_(0, 1))
    assert state.amplitudes[reg.flat_index((3, 2))] == 1.0


def test_sum_mixed_dimensions_wraps_on_target():
    reg = QuditRegister.of_dims([3, 4])
    state = apply_gate(new_basis_state(reg, (2, 3)), sum_(0, 1))
    assert state.amplitudes[reg.flat_index((2, 3))] == 1.0  # 2+3 mod 3 = 2


def test_rot_matches_generator_exponential():
    # oracle: exponentiate the antisymmetric generator directly
    rng = np.random.default_rng(5)
    for d, m in [(2, 0), (3, 1), (5, 3)]:
        theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        generator = np.zeros((d, d))
        generator[m, m + 1] = 1.0
        generator[m + 1, m] = -1.0
        expected = scipy.linalg.expm(-(theta / 2.0) * generator)
        assert np.allclose(gate_matrix(rot(0, m, theta), (d,)), expected, atol=1e-12)


def test_rot_on_zero_state():
    # frozen from the generator-exponential oracle above
    reg = QuditRegister.of_dims([2])
    state = apply_gate(new_basis_state(reg, (0,)), rot(0, 0, np.pi / 2))
    assert np.allclose(state.amplitudes, [math.cos(np.pi / 4), math.sin(np.pi / 4)], atol=1e-12)


def test_hd_column_formula():
    d = 5
    matrix = gate_matrix(hd(0), (d,))
    for x in range(d):
        column = np.exp(2j * np.pi * x * np.arange(d) / d) / math.sqrt(d)
        assert np.allclose(matrix[:, x], column, atol=1e-12)


def test_phase_k_level_selector():
    matrix = gate_matrix(phase_k(0, num=1, den=4, level=2), (3,))
    assert np.allclose(np.diag(matrix), [1.0, 1.0, 1j], atol=1e-12)


def test_phase_k_two_target_product_form():
    dx, dm = 3, 4
    matrix = gate_matrix(phase_k((0, 1), num=1, den=5, offset=1), (dx, dm))
    diag = np.diag(matrix)
    for m in range(dm):
        for x in range(dx):
            expected = np.exp(2j * np.pi * x * (m - 1) / 5)
            assert abs(diag[x + dx * m] - expected) < 1e-12


def test_dense_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        dense_unitary((0,), np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_xswap_levels_must_differ():
    with pytest.raises(ValueError):
        xswap(0, 1, 1)


def _op_pool(register, rng):
    """One op of every kind, on random wires of the register."""
    wires = list(register.ids)
    rng.shuffle(wires)
    a, b = wires[0], wires[1]
    da = register.dim(a)
    pool = [
        xd(a),
        xd_dag(a),
        xswap(a, 0, da - 1),
        sum_(a, b),
        sum_dag(a, b),
        hd(a),
        hd_dag(a),
        rot(a, int(rng.integers(0, da - 1)), float(rng.uniform(-np.pi, np.pi))),
        phase_k(a, num=int(rng.integers(1, 8)), den=int(rng.integers(2, 9)), offset=int(rng.integers(0, 3))),
        phase_k((a, b), num=1, den=int(rng.integers(2, 9)), level=int(rng.integers(0, register.dim(b)))),
    ]
    unitary = scipy.linalg.qr(rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da)))[0]
    pool.append(dense_unitary((a,), unitary))
    return pool


def naive_apply(state, op):
    """Independent oracle: rebuild the action basis state by basis state."""
    from quditdicke.sim import gate_matrix as build_matrix

    reg = state.register
    tpos = [reg.position(w) for w in op.targets]
    matrix = build_matrix(op, tuple(reg.dims[p] for p in tpos))
    out = np.zeros_like(state.amplitudes)
    for index, amp in enumerate(state.amplitudes):
        if amp == 0:
            continue
        digits = list(reg.digits_of(index))
        if any(digits[reg.position(w)] != v for w, v in op.controls):
            out[index] += amp
            continue
        block_in = 0
        stride = 1
        for p in tpos:
            block_in += digits[p] * stride
            stride *= reg.dims[p]
        for block_out in range(matrix.shape[0]):
            weight = matrix[block_out, block_in]
            if weight == 0:
                continue
            new_digits = digits.copy()
            rest = block_out
            for p in tpos:
                new_digits[p] = rest % reg.dims[p]
                rest //= reg.dims[p]
            out[reg.flat_index(new_digits)] += amp * weight
    return StateVector(reg, out)


def test_apply_gate_matches_naive_oracle():
    rng = np.random.default_rng(13)
    reg = QuditRegister.of_dims([3, 2, 4, 2])
    for trial in range(6):
        state = random_state(reg, rng)
        for op in _op_pool(reg, rng):
            fast = apply_gate(state, op)
            slow = naive_apply(state, op)
            assert np.allclose(fast.amplitudes, slow.amplitudes, atol=1e-10), op.kind
        # controlled variants, including a double control
        controlled = [
            rot(0, 1, 0.9, controls=((1, 1),)),
            sum_(2, 0, controls=((3, 1),)),
            xd(3, controls=((0, 2), (1, 0))),
            phase_k((2, 0), num=2, den=5, offset=1, controls=((3, 0),)),
        ]
        for op in controlled:
            fast = apply_gate(state, op)
            slow = naive_apply(state, op)
            assert np.allclose(fast.amplitudes, slow.amplitudes, atol=1e-10), op.kind


def _draw_arity(draw, kind):
    return 2 if kind in ("Sum", "SumDag") else draw(st.integers(1, 2)) if kind in ("PhaseK", "DenseUnitary") else 1


def _draw_op(draw, kind, arity, dims, ids):
    """(op, seed): an op of ``kind`` with ``arity`` targets and 0 to 2 controls; wire ids[p] has dimension dims[p]."""
    wires = draw(st.permutations(range(len(dims))))
    targets = tuple(wires[:arity])
    free = wires[arity:]
    controls = tuple((ids[w], draw(st.integers(0, dims[w] - 1))) for w in free[: draw(st.integers(0, min(2, len(free))))])
    d = dims[targets[0]]
    seed = draw(st.integers(0, 2**32 - 1))
    on = tuple(ids[t] for t in targets)
    if kind == "Xswap":
        i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        op = xswap(on[0], i, j, controls)
    elif kind == "Rot":
        op = rot(on[0], draw(st.integers(0, d - 2)), draw(st.floats(-2 * np.pi, 2 * np.pi)), controls)
    elif kind == "PhaseK":
        level = draw(st.none() | st.integers(0, dims[targets[-1]] - 1))
        num, den, offset = draw(st.integers(-3, 3)), draw(st.integers(1, 8)), draw(st.integers(0, 3))
        op = phase_k(on, num, den, offset, level, controls)
    elif kind == "DenseUnitary":
        rng, full = np.random.default_rng(seed), math.prod(dims[t] for t in targets)
        unitary = scipy.linalg.qr(rng.normal(size=(full, full)) + 1j * rng.normal(size=(full, full)))[0]
        op = dense_unitary(on, unitary, controls)
    else:
        op = {"Xd": xd, "XdDag": xd_dag, "Hd": hd, "HdDag": hd_dag, "Sum": sum_, "SumDag": sum_dag}[kind](*on, controls)
    return op, seed


@st.composite
def gate_cases(draw):
    """(register dims, op, seed): any gate kind on 1 to 4 mixed-dimension wires, 0 to 2 controls."""
    kind = draw(st.sampled_from(GATE_KINDS))
    arity = _draw_arity(draw, kind)
    dims = draw(st.lists(st.integers(2, 4), min_size=arity, max_size=4))
    op, seed = _draw_op(draw, kind, arity, dims, range(len(dims)))
    return dims, op, seed


# each level slice of the controlled view is 0-dimensional: a one-wire register, or controls that pin every other wire
@example(([3], rot(0, 1, 0.7), 0))
@example(([4], xd(0), 1))
@example(([3], phase_k(0, 1, 5, offset=1), 2))
@example(([2, 3, 2], rot(1, 1, 0.4, controls=((0, 1), (2, 0))), 3))
@example(([3, 2, 2], sum_dag(0, 1, controls=((2, 1),)), 4))
@example(([2, 3, 4], phase_k((1, 2), 1, 7, level=3, controls=((0, 1),)), 5))
@example(([3, 2], phase_k(0, 0, 3, controls=((1, 1),)), 6))
@example(([2, 3], hd(1, controls=((0, 0),)), 7))
@settings(deadline=None, max_examples=300)
@given(gate_cases())
def test_apply_gate_matches_naive_oracle_every_kind(case):
    dims, op, seed = case
    state = random_state(QuditRegister.of_dims(dims), np.random.default_rng(seed))
    before = state.amplitudes.copy()
    fast = apply_gate(state, op)
    assert np.allclose(fast.amplitudes, naive_apply(state, op).amplitudes, rtol=0, atol=1e-10)
    assert np.array_equal(state.amplitudes, before)


@settings(deadline=None, max_examples=200)
@given(gate_cases())
def test_apply_gate_in_place_returns_its_input_with_the_pure_result(case):
    dims, op, seed = case
    state = random_state(QuditRegister.of_dims(dims), np.random.default_rng(seed))
    before = state.amplitudes.tobytes()
    pure = apply_gate(state, op)
    assert state.amplitudes.tobytes() == before
    assert apply_gate(state, op, in_place=True) is state
    assert state.amplitudes.tobytes() == pure.amplitudes.tobytes()


def dense_apply(state, op):
    """Block update with the full gate matrix: the simulator's plain dense path."""
    reg = state.register
    tdims = tuple(reg.dim(w) for w in op.targets)
    out = state.amplitudes.copy()
    tpos = [reg.position(w) for w in op.targets]
    cpos = [reg.position(w) for w, _ in op.controls]
    moved = np.moveaxis(out.reshape(reg.dims, order="F"), tpos + cpos, range(len(tpos) + len(cpos)))
    sub = moved[(slice(None),) * len(tpos) + tuple(v for _, v in op.controls)]
    block = gate_matrix(op, tdims) @ sub.reshape((math.prod(tdims), -1), order="F")
    sub[...] = block.reshape(sub.shape, order="F")
    return StateVector(reg, out)


@st.composite
def circuit_cases(draw):
    """(register, ops, initial digits): 1 to 6 ops of the gate_cases() kinds on 2 to 5 mixed-dimension
    wires, whose integer ids are a shuffle of their positions; the ops use a random subset of the wires."""
    dims = draw(st.lists(st.integers(2, 4), min_size=2, max_size=5))
    ids = draw(st.permutations(range(len(dims))))
    used = draw(st.lists(st.sampled_from(range(len(dims))), min_size=2, max_size=len(dims), unique=True))
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(GATE_KINDS))
        op, _ = _draw_op(draw, kind, _draw_arity(draw, kind), [dims[p] for p in used], [ids[p] for p in used])
        ops.append(op)
    digits = tuple(draw(st.integers(0, d - 1)) for d in dims)
    return QuditRegister(zip(ids, dims)), ops, digits


# the groups end in an order other than the register's, so the final transpose matters
@example((QuditRegister.of_dims([3, 2, 4]), [sum_(2, 0)], (1, 1, 2)))
@example((QuditRegister.of_dims([3, 2, 4]), [hd(0), sum_(2, 0), rot(1, 0, 0.3)], (0, 1, 3)))
@example((QuditRegister([("c", 2), ("a", 3), ("b", 2)]), [hd("b"), sum_("a", "b", controls=(("c", 1),))], (1, 2, 0)))
@example((QuditRegister.of_dims([2, 3, 2, 4]), [hd(3), dense_unitary((2, 0), np.kron(gate_matrix(hd(0), (2,)), np.eye(2)))], (0, 2, 0, 1)))
@settings(deadline=None, max_examples=300)
@given(circuit_cases())
def test_circuit_run_matches_gate_by_gate_replay(case):
    register, ops, digits = case
    circuit = Circuit(register, ops)
    replay = new_basis_state(register, digits)
    for op in ops:
        replay = apply_gate(replay, op)
    state = circuit.run(digits)
    assert state.register is register
    assert np.allclose(state.amplitudes, replay.amplitudes, rtol=0, atol=1e-12)
    assert circuit.run(digits).amplitudes.tobytes() == state.amplitudes.tobytes()


@pytest.mark.parametrize(
    "digits, message",
    [((0, 0), "digit count does not match register"), ((0, 2, 0), "digit 2 out of range for dimension 2")],
    ids=["too-few-digits", "digit-out-of-range"],
)
def test_circuit_run_rejects_bad_initial_digits(digits, message):
    circuit = Circuit(QuditRegister.of_dims([3, 2, 2]), [xd(0)])
    with pytest.raises(ValueError, match=message):
        circuit.run(digits)


def test_circuit_ops_cannot_change_after_the_checks():
    first = xd(0)
    circuit = Circuit(QuditRegister.of_dims([3, 2]), [first])
    with pytest.raises(AttributeError):
        circuit.ops.append(sum_(1, 7))  # the ops are a tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        circuit.ops = [first, sum_(1, 7)]
    assert circuit.ops == (first,)


_SEQUENTIAL = {"spin-s": build_sequential_spin_s, "sud": build_sequential_sud}
_SMALL_SPECS = {"spin-s": DickeSpecSpinS(2, 2, 2), "sud": DickeSpecSUD(2, (1, 1, 0))}


@pytest.mark.parametrize("family", ["spin-s", "sud"])
@pytest.mark.parametrize("method", ["sequential", "qpe-log", "hadamard", "fanout"])
def test_circuit_run_matches_dense_path(family, method):
    builder = _SEQUENTIAL[family] if method == "sequential" else BUILDERS[family][method]
    circuit = builder(_SMALL_SPECS[family])
    fast = dense = new_basis_state(circuit.register, (0,) * len(circuit.register))
    for op in circuit.ops:
        fast, dense = apply_gate(fast, op), dense_apply(dense, op)
        assert np.allclose(fast.amplitudes, dense.amplitudes, rtol=0, atol=1e-12), op.kind
    assert np.allclose(circuit.run().amplitudes, dense.amplitudes, rtol=0, atol=1e-12)


@pytest.mark.parametrize("family", ["spin-s", "sud"])
@pytest.mark.parametrize("method", ["sequential", "qpe-log", "hadamard", "fanout"])
def test_circuit_run_keeps_every_group_in_register_order(family, method, monkeypatch):
    import quditdicke.sim as sim

    builder = _SEQUENTIAL[family] if method == "sequential" else BUILDERS[family][method]
    circuit = builder(_SMALL_SPECS[family])
    position = {wire: p for p, wire in enumerate(circuit.register.ids)}
    seen = []

    def recording_apply_gate(state, op, **kwargs):
        seen.append([position[wire] for wire in state.register.ids])
        return apply_gate(state, op, **kwargs)

    monkeypatch.setattr(sim, "apply_gate", recording_apply_gate)
    circuit.run()
    assert len(seen) == len(circuit.ops)
    for positions in seen:
        assert positions == sorted(positions)


@pytest.mark.parametrize(
    "build, spec, most",
    [
        (BUILDERS["spin-s"]["fanout"], DickeSpecSpinS(3, 2, 3), 3.0),
        (build_sequential_spin_s, DickeSpecSpinS(9, 2, 9), 1.5),
    ],
    ids=["fanout", "sequential"],
)
def test_circuit_run_peak_memory_in_full_vectors(build, spec, most):
    # every gate runs in place on the group it acts on, so no gate copies a whole group;
    # 64 KiB covers the Python objects and the small groups that run keeps beside the vectors
    circuit = build(spec)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        circuit.run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= most * circuit.register.size * 16 + 2**16


def test_norm_preservation_and_unitarity_every_kind():
    rng = np.random.default_rng(7)
    reg = QuditRegister.of_dims([2, 3, 4, 2])
    for trial in range(8):
        state = random_state(reg, rng)
        for op in _op_pool(reg, rng):
            after = apply_gate(state, op)
            assert abs(after.norm() - 1.0) < 1e-12, op.kind
            undone = apply_gate(after, op.inverse())
            assert np.allclose(undone.amplitudes, state.amplitudes, atol=1e-10), op.kind


def test_controlled_op_locality_on_basis_states():
    rng = np.random.default_rng(21)
    reg = QuditRegister.of_dims([3, 4, 2])
    for _ in range(40):
        digits = tuple(int(rng.integers(0, d)) for d in reg.dims)
        control_value = (digits[2] + 1) % 2
        op = hd(0, controls=((2, control_value),))
        state = apply_gate(new_basis_state(reg, digits), op)
        assert state.amplitudes[reg.flat_index(digits)] == pytest.approx(1.0)


def test_double_controls():
    reg = QuditRegister.of_dims([2, 3, 2])
    op = xd(2, controls=((0, 1), (1, 2)))
    fired = apply_gate(new_basis_state(reg, (1, 2, 0)), op)
    assert fired.amplitudes[reg.flat_index((1, 2, 1))] == 1.0
    idle = apply_gate(new_basis_state(reg, (1, 1, 0)), op)
    assert idle.amplitudes[reg.flat_index((1, 1, 0))] == 1.0


def test_fidelity_examples():
    rng = np.random.default_rng(3)
    reg = QuditRegister.of_dims([3, 2])
    x = random_state(reg, rng)
    assert fidelity(x, x) == pytest.approx(1.0)
    phased = StateVector(reg, np.exp(0.37j) * x.amplitudes)
    assert fidelity(x, phased) == pytest.approx(1.0)
    reg2 = QuditRegister.of_dims([2])
    assert fidelity(new_basis_state(reg2, (0,)), new_basis_state(reg2, (1,))) == 0.0
    with pytest.raises(ValueError):
        fidelity(x, new_basis_state(reg2, (0,)))


def test_projection_examples():
    reg = QuditRegister.of_dims([2])
    plus = StateVector(reg, np.array([1.0, 1.0]) / math.sqrt(2))
    probability, conditional = project_on_outcome(plus, (0,), (0,))
    assert probability == pytest.approx(0.5)
    assert np.allclose(conditional.amplitudes, [1.0, 0.0])

    reg = QuditRegister.of_dims([3, 2])
    basis = new_basis_state(reg, (2, 1))
    probability, conditional = project_on_outcome(basis, (0, 1), (2, 1))
    assert probability == pytest.approx(1.0)
    assert np.allclose(conditional.amplitudes, basis.amplitudes)

    with pytest.raises(ImpossibleOutcomeError):
        project_on_outcome(basis, (0,), (1,))


def test_projection_probabilities_sum_to_one():
    rng = np.random.default_rng(17)
    reg = QuditRegister.of_dims([2, 3, 2, 4])
    state = random_state(reg, rng)
    for wires in [(1,), (0, 2), (3, 1), (0, 1, 2, 3)]:
        total = 0.0
        dims = [reg.dim(w) for w in wires]
        for index in range(math.prod(dims)):
            digits = []
            rest = index
            for d in dims:
                digits.append(rest % d)
                rest //= d
            try:
                probability, _ = project_on_outcome(state, wires, digits)
            except ImpossibleOutcomeError:
                probability = 0.0
            total += probability
        assert abs(total - 1.0) < 1e-10
        assert abs(outcome_distribution(state, wires).sum() - 1.0) < 1e-10


def test_sample_measure_determinism_and_basis():
    reg = QuditRegister.of_dims([3, 2])
    basis = new_basis_state(reg, (2, 1))
    digits, collapsed = sample_measure(basis, (0, 1), seed=123)
    assert digits == (2, 1)
    assert np.allclose(collapsed.amplitudes, basis.amplitudes)

    rng = np.random.default_rng(2)
    state = random_state(reg, rng)
    first = sample_measure(state, (0,), seed=42)[0]
    again = sample_measure(state, (0,), seed=42)[0]
    assert first == again


def naive_readout(state, wires, digits):
    """Independent reference, index by index: (marginal over ``wires``, probability of ``digits``, conditional amplitudes)."""
    reg = state.register
    dims = [reg.dim(w) for w in wires]
    pos = [reg.position(w) for w in wires]
    marginal = np.zeros(math.prod(dims))
    kept = np.zeros(reg.size, dtype=np.complex128)
    for index, amp in enumerate(state.amplitudes):
        full = reg.digits_of(index)
        outcome = [full[p] for p in pos]
        slot = sum(digit * math.prod(dims[:i]) for i, digit in enumerate(outcome))
        marginal[slot] += abs(amp) ** 2
        if outcome == list(digits):
            kept[index] = amp
    probability = marginal[sum(digit * math.prod(dims[:i]) for i, digit in enumerate(digits))]
    return marginal, probability, kept / math.sqrt(probability)


@st.composite
def readout_cases(draw):
    """(state, wires, digits, seed): 1 to 5 wires of dimension 2 to 5, a non-empty wire list in any order.

    The amplitudes are complex128 or float64, unnormalized, and sometimes a
    strided view of a larger array.
    """
    dims = draw(st.lists(st.integers(2, 5), min_size=1, max_size=5))
    reg = QuditRegister([(f"w{p}", d) for p, d in enumerate(dims)])
    order = draw(st.permutations(range(len(dims))))
    wires = tuple(f"w{p}" for p in order[: draw(st.integers(1, len(dims)))])
    digits = tuple(draw(st.integers(0, reg.dim(w) - 1)) for w in wires)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=reg.size)
    if draw(st.booleans()):
        amps = amps + 1j * rng.normal(size=reg.size)
    amps *= draw(st.floats(0.5, 2.0)) / np.linalg.norm(amps)
    if draw(st.booleans()):
        strided = np.zeros(2 * reg.size, dtype=amps.dtype)
        strided[::2] = amps
        amps = strided[::2]
    return StateVector(reg, amps), wires, digits, seed


# every wire measured, so the projected block is 0-d; a real state; a strided one
@example((StateVector(QuditRegister([("a", 2), ("b", 3)]), np.arange(1.0, 7.0)), ("b", "a"), (2, 1), 0))
@example((StateVector(QuditRegister([("a", 3)]), np.array([0.6, 0.0, 0.8j])), ("a",), (2,), 1))
@example((StateVector(QuditRegister([("a", 2), ("b", 2)]), np.arange(1.0, 9.0)[::2] + 0j), ("a",), (1,), 2))
@settings(deadline=None, max_examples=150)
@given(readout_cases())
def test_readout_matches_naive_reference(case):
    state, wires, digits, seed = case
    before = state.amplitudes.tobytes()
    marginal, probability, conditional = naive_readout(state, wires, digits)
    assert np.allclose(outcome_distribution(state, wires), marginal, rtol=0, atol=1e-12)
    projected, collapsed = project_on_outcome(state, wires, digits)
    assert abs(projected - probability) <= 1e-12
    assert np.allclose(collapsed.amplitudes, conditional, rtol=0, atol=1e-12)
    drawn, sampled = sample_measure(state, wires, seed)
    assert np.array_equal(sampled.amplitudes, project_on_outcome(state, wires, drawn)[1].amplitudes)
    assert state.amplitudes.tobytes() == before


def test_empty_wire_list_is_the_certain_outcome():
    reg = QuditRegister.of_dims([2, 3])
    state = StateVector(reg, np.arange(6) * (1 + 1j))  # unnormalized: squared norm 110
    probability, conditional = project_on_outcome(state, (), ())
    assert probability == pytest.approx(110.0)
    assert np.allclose(conditional.amplitudes, state.amplitudes / math.sqrt(110.0))
    assert outcome_distribution(state, ()) == pytest.approx([110.0])
    assert acceptance_probability(state, ((), ())) == pytest.approx(110.0)
    digits, collapsed = sample_measure(state, (), seed=1)
    assert digits == ()
    assert np.array_equal(collapsed.amplitudes, conditional.amplitudes)


def test_sample_measure_frequency():
    reg = QuditRegister.of_dims([2])
    plus = StateVector(reg, np.array([1.0, 1.0]) / math.sqrt(2))
    shots = 100_000
    hits = sum(1 for seed in range(shots) if sample_measure(plus, (0,), seed=seed)[0] == (0,))
    assert abs(hits / shots - 0.5) < 0.01


def test_circuit_validates_ops_and_accept_rule():
    reg = QuditRegister.of_dims([2, 2])
    with pytest.raises(ValueError):
        Circuit(reg, [xd(5)])
    with pytest.raises(ValueError):
        Circuit(reg, [], accept_rule=((0,), (2,)))


@pytest.mark.parametrize(
    "op",
    [
        {"kind": "Xswap", "params": {"i": 0, "j": 7}, "targets": [0], "controls": []},
        {"kind": "PhaseK", "params": {"num": 1, "den": 3, "offset": 0, "level": 5}, "targets": [0], "controls": []},
        {"kind": "Rot", "params": {"m": 0}, "targets": [0], "controls": []},
        {
            "kind": "DenseUnitary",
            "params": {"matrix": [[[1, 0], [1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]},
            "targets": [0],
            "controls": [],
        },
    ],
    ids=["xswap-level-7", "phasek-level-5", "rot-without-theta", "dense-not-unitary"],
)
def test_bad_gate_parameters_fail_at_load(op):
    import json

    with pytest.raises(ValueError):
        circuit_from_json(json.dumps({"register": [3], "ops": [op], "accept_rule": None}))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: GateOp("Sum", (0,)), "Sum takes 2 target(s), got 1"),
        (lambda: GateOp("Rot", (0,), {"m": 0}), "Rot is missing parameter(s) theta"),
        (lambda: GateOp("PhaseK", (0,), {"num": 1, "den": 0, "offset": 0, "level": None}), "PhaseK denominator must be positive"),
        (lambda: GateOp("Xswap", (0,), {"i": 1, "j": 1}), "Xswap levels (1,1) must be distinct and nonnegative"),
        (lambda: GateOp("DenseUnitary", (0,), {"matrix": [[1, 0, 0]]}), "DenseUnitary matrix must be square, got shape (1, 3)"),
        (lambda: GateOp("Qft", (0,)), "unknown gate kind 'Qft'"),
        (lambda: xd(0, controls=((1, 0), (2, 0), (3, 1))), "at most two controls are supported"),
        (lambda: sum_(1, 1), "duplicate target wires"),
        (lambda: xd(0, controls=((1, 0), (1, 1))), "duplicate control wires"),
        (lambda: sum_(0, 1, controls=((1, 0),)), "wires {1} appear as both target and control"),
        (lambda: GateOp("PhaseK", (0, 1, 2), {"num": 1, "den": 3, "offset": 0, "level": None}), "PhaseK takes 1 or 2 target(s), got 3"),
        (lambda: GateOp("Rot", (0,)), "Rot is missing parameter(s) m, theta"),
        (lambda: GateOp("PhaseK", (0,), {"num": 1, "level": None}), "PhaseK is missing parameter(s) den, offset"),
        (lambda: xswap(0, -1, 1), "Xswap levels (-1,1) must be distinct and nonnegative"),
        (lambda: phase_k(0, 1, -3), "PhaseK denominator must be positive"),
        (lambda: dense_unitary(0, np.ones(4)), "DenseUnitary matrix must be square, got shape (4,)"),
        (lambda: dense_unitary(0, [[1, 1], [0, 1]]), "DenseUnitary matrix is not unitary within tolerance"),
    ],
    ids=[
        "sum-one-target", "rot-without-theta", "phasek-zero-den", "xswap-equal-levels", "dense-not-square",
        "unknown-kind", "three-controls", "duplicate-targets", "duplicate-controls", "target-and-control",
        "phasek-three-targets", "rot-no-params", "phasek-missing-two", "xswap-negative", "phasek-negative-den",
        "dense-one-axis", "dense-not-unitary",
    ],
)
def test_malformed_op_fails_when_made(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "dims, op",
    [([2], xswap(0, 0, 2)), ([3], phase_k(0, 1, 3, level=3))],
    ids=["xswap-level-2-on-qubit", "phasek-level-3-on-qutrit"],
)
def test_apply_gate_rejects_op_that_does_not_fit_register(dims, op):
    state = new_basis_state(QuditRegister.of_dims(dims), (0,))
    with pytest.raises(ValueError):
        apply_gate(state, op)


def test_gate_op_is_immutable():
    op = phase_k(0, 1, 3)
    Circuit(QuditRegister.of_dims([3]), [op])
    with pytest.raises(TypeError):
        op.params["den"] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.targets = (1,)
    params = {"m": 0, "theta": 0.5}
    op = GateOp("Rot", (0,), params)
    params["m"] = 7
    assert op.params["m"] == 0
    matrix = np.eye(2, dtype=np.complex128)
    op = dense_unitary(0, matrix)
    matrix[0, 0] = 5.0
    assert op.params["matrix"][0, 0] == 1.0
    with pytest.raises(ValueError):
        op.params["matrix"][0, 0] = 5.0


def _op_fields(op):
    params = {name: value.tobytes() if isinstance(value, np.ndarray) else value for name, value in op.params.items()}
    return op.kind, op.targets, params, op.controls, op.layer_tag


def test_gate_op_pickles_every_kind():
    reg = QuditRegister.of_dims([2, 3, 2])
    unitary = scipy.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)) + 0j)[0]
    ops = [
        xd(1),
        xd_dag(1, controls=((0, 1),)),
        xswap(1, 0, 2),
        sum_(1, 0),
        sum_dag(0, 2, controls=((1, 2),)),
        hd(1),
        hd_dag(2, layer_tag="readout"),
        rot(1, 0, 0.7, controls=((0, 1), (2, 0))),
        phase_k((1, 0), num=3, den=7, offset=2, level=1),
        dense_unitary((0, 2), unitary, controls=((1, 2),), layer_tag="fan"),
    ]
    assert {op.kind for op in ops} == set(GATE_KINDS)
    copies = pickle.loads(pickle.dumps(ops))
    for op, copy in zip(ops, copies):
        assert type(copy) is GateOp and _op_fields(copy) == _op_fields(op)
        assert isinstance(copy.params, MappingProxyType)
    assert not copies[-1].params["matrix"].flags.writeable
    circuit = Circuit(reg, ops)
    assert Circuit(reg, copies).run().amplitudes.tobytes() == circuit.run().amplitudes.tobytes()


def test_unpickled_gate_op_passes_its_checks_again():
    op = phase_k(0, 1, 3)
    op.__dict__["params"] = MappingProxyType(dict(op.params, den=0))  # bypasses the frozen fields
    data = pickle.dumps(op)
    with pytest.raises(ValueError, match="denominator must be positive"):
        pickle.loads(data)


@pytest.mark.parametrize("family", ["spin-s", "sud"])
@pytest.mark.parametrize("method", ["sequential", "qpe-log", "hadamard", "fanout"])
def test_built_circuit_pickles(family, method):
    builder = _SEQUENTIAL[family] if method == "sequential" else BUILDERS[family][method]
    circuit = builder(_SMALL_SPECS[family])
    copy = pickle.loads(pickle.dumps(circuit))
    assert copy.register.ids == circuit.register.ids and copy.register.dims == circuit.register.dims
    assert copy.accept_rule == circuit.accept_rule and copy.meta == circuit.meta
    assert [_op_fields(op) for op in copy.ops] == [_op_fields(op) for op in circuit.ops]
    assert copy.run().amplitudes.tobytes() == circuit.run().amplitudes.tobytes()


def test_circuit_rejects_non_unitary_dense_block():
    reg = QuditRegister.of_dims([2])
    with pytest.raises(ValueError, match="not unitary"):
        Circuit(reg, [GateOp("DenseUnitary", (0,), {"matrix": [[1, 1], [0, 1]]})])


def test_exchange_format_round_trip():
    rng = np.random.default_rng(9)
    reg = QuditRegister.of_dims([2, 3, 2])
    unitary = scipy.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    circuit = Circuit(
        reg,
        [
            hd(1),
            rot(1, 0, 0.7, controls=((0, 1),)),
            sum_(1, 0),
            phase_k((1, 0), num=3, den=7, offset=2),
            phase_k(2, num=1, den=4, level=1),
            xswap(1, 0, 2),
            dense_unitary((0, 2), unitary),
        ],
        accept_rule=((2,), (0,)),
    )
    text = circuit_to_json(circuit)
    rebuilt = circuit_from_json(text)
    assert rebuilt.register.dims == reg.dims
    assert rebuilt.accept_rule == ((2,), (0,))
    assert [op.kind for op in rebuilt.ops] == [op.kind for op in circuit.ops]
    original = circuit.run()
    copied = rebuilt.run()
    assert np.allclose(original.amplitudes, copied.amplitudes, atol=1e-10)
    # serialize -> parse -> serialize is a fixed point
    assert circuit_to_json(rebuilt) == text


@settings(deadline=None, max_examples=300)
@given(gate_cases())
def test_exchange_format_round_trip_every_kind(case):
    dims, op, _ = case
    circuit = Circuit(QuditRegister.of_dims(dims), [op])
    text = circuit_to_json(circuit)
    rebuilt = circuit_from_json(text)
    assert circuit_to_json(rebuilt) == text
    assert rebuilt.run().amplitudes.tobytes() == circuit.run().amplitudes.tobytes()


def test_amplitude_dump_site_n_first():
    reg = QuditRegister.of_dims([4, 2])
    state = new_basis_state(reg, (3, 1))
    buffer = io.StringIO()
    dump_amplitudes_csv(state, buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "index,digits,re,im"
    assert len(lines) == 1 + reg.size
    assert lines[1 + 7].startswith("7,1_3,1.0,")


def test_phase_table_memo_is_keyed_by_target_dims():
    import quditdicke.sim as sim

    # the same op on a qubit, a qutrit, then a qubit again: a table cached for
    # one dimension must never serve another (level 2 exists only on the qutrit)
    op = phase_k(0, num=1, den=3, offset=1)
    rng = np.random.default_rng(5)
    for dim in (2, 3, 2):
        state = random_state(QuditRegister.of_dims([dim, 2]), rng)
        fast = apply_gate(state, op)
        assert np.allclose(fast.amplitudes, naive_apply(state, op).amplitudes, atol=1e-12), dim
    assert len(sim._phase_table(1, 3, 1, None, (2,))) == 1
    assert len(sim._phase_table(1, 3, 1, None, (3,))) == 2


def test_memoized_tables_are_read_only_and_gate_matrix_stays_fresh():
    import quditdicke.sim as sim

    state = random_state(QuditRegister.of_dims([3, 2]), np.random.default_rng(6))
    apply_gate(apply_gate(state, hd(0)), phase_k((0, 1), num=2, den=5, offset=1))
    fourier = sim._fourier(3, 1)
    assert not fourier.flags.writeable
    with pytest.raises(ValueError):
        fourier[0, 0] = 0.0
    table = sim._phase_table(2, 5, 1, None, (3, 2))
    assert isinstance(table, tuple) and all(isinstance(entry, tuple) for entry in table)

    a = np.arange(3)
    closed_form = np.exp(2j * np.pi * np.outer(a, a) / 3) / math.sqrt(3)
    matrix = gate_matrix(hd(0), (3,))
    assert matrix is not fourier and matrix.flags.writeable
    np.testing.assert_allclose(matrix, closed_form, rtol=0, atol=1e-15)
    matrix[0, 0] = 5.0
    np.testing.assert_allclose(gate_matrix(hd(0), (3,)), closed_form, rtol=0, atol=1e-15)
    np.testing.assert_allclose(sim._fourier(3, 1), closed_form, rtol=0, atol=1e-15)
