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
from quditdicke.serialize import circuit_from_dict, circuit_from_json, circuit_to_json, dump_amplitudes_csv
from quditdicke.sim import (
    GATE_KINDS,
    Circuit,
    GateOp,
    ImpossibleOutcomeError,
    QuditRegister,
    StateVector,
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


@st.composite
def sum_cases(draw):
    """(register dims, Sum or SumDag op, seed) on 2 to 4 wires whose target dims reach 5, so a source
    digit can be a multiple of the destination dimension."""
    kind = draw(st.sampled_from(("Sum", "SumDag")))
    dims = draw(st.lists(st.integers(2, 5), min_size=2, max_size=4))
    op, seed = _draw_op(draw, kind, 2, dims, range(len(dims)))
    return dims, op, seed


@example(([2, 5], sum_dag(0, 1), 0))
@example(([5, 2, 3], sum_(2, 0, controls=((1, 1),)), 1))
@settings(deadline=None, max_examples=100)
@given(sum_cases())
def test_sum_kernel_is_the_level_by_level_shift(case):
    # the kernel's two slice moves per source digit against the per-level moves they replace, bit for bit
    dims, op, seed = case
    state = random_state(QuditRegister.of_dims(dims), np.random.default_rng(seed))
    expected = state.amplitudes.copy()
    view = _controlled_view(expected, state.register, op)
    da, db = view.shape[:2]
    sign = 1 if op.kind == "Sum" else -1
    for x in range(1, db):
        fiber = view[:, x, ...].copy()
        for y in range(da):
            view[(y + sign * x) % da, x, ...] = fiber[y, ...]
    assert apply_gate(state, op).amplitudes.tobytes() == expected.tobytes()


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


_SMALL_SPECS = {"spin-s": DickeSpecSpinS(2, 2, 2), "sud": DickeSpecSUD(2, (1, 1, 0))}


def _is_placeholder(op):
    """An op that is the identity by construction, which Circuit.run leaves out: PhaseK num 0, Rot theta 0."""
    return (op.kind == "PhaseK" and op.params["num"] == 0) or (op.kind == "Rot" and op.params["theta"] == 0.0)


@pytest.mark.parametrize("family", ["spin-s", "sud"])
@pytest.mark.parametrize("method", ["sequential", "qpe-log", "hadamard", "fanout"])
def test_circuit_run_matches_dense_path(family, method):
    builder = BUILDERS[family][method]
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

    builder = BUILDERS[family][method]
    circuit = builder(_SMALL_SPECS[family])
    position = {wire: p for p, wire in enumerate(circuit.register.ids)}
    seen = []

    def recording_apply_gate(state, op, **kwargs):
        seen.append([position[wire] for wire in state.register.ids])
        return apply_gate(state, op, **kwargs)

    monkeypatch.setattr(sim, "apply_gate", recording_apply_gate)
    circuit.run()
    # the ops that are the identity by construction are left out of the run
    assert len(seen) == sum(1 for op in circuit.ops if not _is_placeholder(op))
    for positions in seen:
        assert positions == sorted(positions)


@pytest.mark.parametrize(
    "build, spec, most",
    [
        (BUILDERS["spin-s"]["fanout"], DickeSpecSpinS(3, 2, 3), 2.0),
        (BUILDERS["sud"]["qpe-log"], DickeSpecSUD(7, (3, 2, 2)), 2.0),
        (build_sequential_spin_s, DickeSpecSpinS(9, 2, 9), 1.5),
    ],
    ids=["fanout", "qpe-log", "sequential"],
)
def test_circuit_run_peak_memory_in_full_vectors(build, spec, most):
    # every gate runs in place on the group it acts on, and a block product holds at most two
    # blocks of the bound, so no gate copies a whole group; 64 KiB covers the Python objects
    # and the small groups that run keeps beside the vectors
    circuit = build(spec)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        circuit.run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= most * circuit.register.size * 16 + 2**16


_BRANCH_SPECS = {
    "spin-s": (DickeSpecSpinS(2, 2, 1), DickeSpecSpinS(3, 1, 2)),
    # the sud fan-out register of (1, 1, 1) holds 8.5 million amplitudes, so that method reads (2, 1) alone
    "sud": (DickeSpecSUD(3, (1, 1, 1)), DickeSpecSUD(3, (2, 1))),
}
_BRANCH_CASES = [
    (family, method, spec)
    for family, specs in _BRANCH_SPECS.items()
    for method in ("sequential", "qpe-log", "hadamard", "fanout")
    for spec in specs
    if not (family == "sud" and method == "fanout" and spec.d == 3)
]


@pytest.mark.parametrize("family, method, spec", _BRANCH_CASES, ids=[f"{f}-{m}-{s.n}" + (f"-{s.d}" if f == "sud" else "") for f, m, s in _BRANCH_CASES])
def test_postselected_run_is_the_accepted_block(family, method, spec, monkeypatch):
    import quditdicke.sim as sim

    builder = BUILDERS[family][method]
    circuit = builder(spec)
    wires, digits = circuit.accept_rule
    _, block, probability = sim._outcome_block(circuit.run(), wires, digits)
    position = {wire: p for p, wire in enumerate(circuit.register.ids)}
    seen = []

    def recording_apply_gate(state, op, **kwargs):
        seen.append([position[wire] for wire in state.register.ids])
        return apply_gate(state, op, **kwargs)

    monkeypatch.setattr(sim, "apply_gate", recording_apply_gate)
    branch = circuit.run(postselect=True)
    assert branch.register.ids == tuple(w for w in circuit.register.ids if w not in wires)
    assert all(positions == sorted(positions) for positions in seen)
    expected = block.ravel(order="F")  # the block's axes are the other wires in register order
    # every kernel but the block product acts on each amplitude alone, so ops on a smaller group round
    # alike; the branch is the block bit for bit unless an Hd, HdDag or DenseUnitary follows a fix
    first_fix = min(max((i for i, op in enumerate(circuit.ops) if w in op.wires()), default=-1) for w in wires)
    exact = not any(op.kind in ("Hd", "HdDag", "DenseUnitary") for op in circuit.ops[first_fix + 1 :])
    if method == "sequential" or (family == "spin-s" and method != "fanout"):
        assert exact
    if exact:
        assert np.array_equal(branch.amplitudes, expected)
        assert sim.accepted_branch(circuit)[1] == probability
    else:
        assert np.max(np.abs(branch.amplitudes - expected)) <= 1e-15
        assert abs(sim.accepted_branch(circuit)[1] - probability) <= 1e-15


@settings(deadline=None, max_examples=200)
@given(circuit_cases(), st.data())
def test_postselected_run_matches_the_full_block(case, data):
    # random accept wires, some fixed while alone in their group and some never touched by an op
    from quditdicke.sim import _outcome_block

    register, ops, digits = case
    positions = data.draw(st.lists(st.integers(0, len(register) - 1), min_size=1, max_size=len(register) - 1, unique=True))
    wires = tuple(register.ids[p] for p in positions)
    accept = tuple(data.draw(st.integers(0, register.dims[p] - 1)) for p in positions)
    circuit = Circuit(register, ops, accept_rule=(wires, accept))
    _, block, _ = _outcome_block(circuit.run(digits), wires, accept)
    branch = circuit.run(digits, postselect=True)
    assert branch.register.ids == tuple(w for w in register.ids if w not in wires)
    assert np.allclose(branch.amplitudes, block.ravel(order="F"), rtol=0, atol=1e-12)


def test_postselected_run_never_holds_the_register():
    # the two 9-level ancillas are fixed one after the other, so the second charge is read on a ninth
    # of the first's group, and no group ever holds both
    circuit = BUILDERS["sud"]["hadamard"](DickeSpecSUD(8, (3, 3, 2)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        circuit.run(postselect=True)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 0.3 * circuit.register.size * 16


@pytest.mark.parametrize("family, method, spec", _BRANCH_CASES, ids=[f"{f}-{m}-{s.n}" + (f"-{s.d}" if f == "sud" else "") for f, m, s in _BRANCH_CASES])
def test_run_without_placeholders_equals_the_run_over_all_ops(family, method, spec, monkeypatch):
    import quditdicke.sim as sim

    builder = BUILDERS[family][method]
    circuit = builder(spec)
    state, branch = circuit.run(), circuit.run(postselect=True)
    # the run over every op, placeholders included, gate by gate through the same groups
    with monkeypatch.context() as patch:
        patch.setattr(sim, "_acts", lambda op: True)
        every_state, every_branch = circuit.run(), circuit.run(postselect=True)
    # a placeholder may leave a zero of the other sign, so the arrays are compared by value, not by bytes
    assert np.array_equal(state.amplitudes, every_state.amplitudes)
    assert np.array_equal(branch.amplitudes, every_branch.amplitudes)
    if method == "sequential":
        # the sequential runs also equal the full-register replay over every op, bit for bit in value
        replay = new_basis_state(circuit.register, (0,) * len(circuit.register))
        for op in circuit.ops:
            replay = apply_gate(replay, op)
        assert np.array_equal(state.amplitudes, replay.amplitudes)
        _, block, _ = sim._outcome_block(replay, *circuit.accept_rule)
        assert np.array_equal(branch.amplitudes, block.ravel(order="F"))


@pytest.mark.parametrize("postselect", [False, True])
def test_placeholders_never_reach_apply_gate_but_still_count(postselect, monkeypatch):
    import quditdicke.sim as sim
    from quditdicke.report import count_resources

    circuits = [build_sequential_spin_s(DickeSpecSpinS(2, 2, 1)), build_sequential_sud(DickeSpecSUD(3, (1, 1, 1)))]
    seen = []

    def recording_apply_gate(state, op, **kwargs):
        seen.append(op)
        return apply_gate(state, op, **kwargs)

    monkeypatch.setattr(sim, "apply_gate", recording_apply_gate)
    for circuit, kinds in zip(circuits, (("Rot",), ("PhaseK", "Rot"))):
        placeholders = [op for op in circuit.ops if _is_placeholder(op)]
        assert {op.kind for op in placeholders} == set(kinds)
        seen.clear()
        circuit.run(postselect=postselect)
        assert not any(_is_placeholder(op) for op in seen)
        assert [id(op) for op in seen] == [id(op) for op in circuit.ops if not _is_placeholder(op)]
        assert count_resources(circuit)[0] == len(circuit.ops) == len(seen) + len(placeholders)


def test_postselected_run_fixes_an_accept_wire_before_a_trailing_placeholder(monkeypatch):
    import quditdicke.sim as sim

    # q0's last op is a placeholder, so q0 is fixed after the controlled Xd and the closing Hd acts on s1 alone
    reg = QuditRegister([("s1", 2), ("q0", 2)])
    ops = [hd("s1"), xd("q0", controls=(("s1", 1),)), phase_k("q0", num=0, den=1, controls=(("s1", 1),)), hd("s1")]
    circuit = Circuit(reg, ops, accept_rule=(("q0",), (1,)))
    groups = []

    def recording_apply_gate(state, op, **kwargs):
        groups.append(state.register.ids)
        return apply_gate(state, op, **kwargs)

    monkeypatch.setattr(sim, "apply_gate", recording_apply_gate)
    branch = circuit.run(postselect=True)
    assert groups == [("s1",), ("s1", "q0"), ("s1",)]
    _, block, _ = sim._outcome_block(circuit.run(), ("q0",), (1,))
    assert np.array_equal(branch.amplitudes, block.ravel(order="F"))


def test_postselected_run_fixes_an_untouched_accept_wire_first():
    reg = QuditRegister([("s1", 2), ("q0", 3)])
    ops = [rot("s1", 0, 1.0)]
    expected = Circuit(reg, ops).run().amplitudes[:2]
    branch = Circuit(reg, ops, accept_rule=(("q0",), (0,))).run(postselect=True)
    assert branch.register.ids == ("s1",)
    assert np.array_equal(branch.amplitudes, expected)
    branch = Circuit(reg, ops, accept_rule=(("q0",), (2,))).run(postselect=True)
    assert np.array_equal(branch.amplitudes, np.zeros(2))  # q0 starts at 0 and no op moves it: P = 0


def test_postselected_run_needs_a_branch_to_return():
    reg = QuditRegister.of_dims([2, 2])
    with pytest.raises(ValueError, match="no accept rule"):
        Circuit(reg, [hd(0)]).run(postselect=True)
    with pytest.raises(ValueError, match="lists every wire"):
        Circuit(reg, [hd(0)], accept_rule=((0, 1), (0, 0))).run(postselect=True)
    with pytest.raises(ValueError, match="lists a wire twice"):
        Circuit(reg, [hd(0)], accept_rule=((1, 1), (0, 0)))


def _controlled_view(amplitudes, register, op):
    """The controlled subspace of ``op`` with its target axes first, as apply_gate builds it."""
    tpos = [register.position(w) for w in op.targets]
    front = tpos + [register.position(w) for w, _ in op.controls]
    order = front + [p for p in range(len(register)) if p not in front]
    sel = (slice(None),) * len(tpos) + tuple(v for _, v in op.controls)
    return amplitudes.reshape(register.dims, order="F").transpose(order)[sel]


def single_product(state, op):
    """The unblocked formula: one tensordot of the gate matrix with the whole controlled subspace."""
    reg = state.register
    tpos = [reg.position(w) for w in op.targets]
    tdims = tuple(reg.dims[p] for p in tpos)
    k = len(tdims)
    matrix = gate_matrix(op, tdims).reshape(tdims + tdims, order="F")  # axes: output digits, then input digits
    tensor = state.amplitudes.reshape(reg.dims, order="F").copy(order="F")
    sel = [slice(None)] * len(reg)
    for wire, value in op.controls:
        sel[reg.position(wire)] = slice(value, value + 1)
    view = tensor[tuple(sel)]
    view[...] = np.moveaxis(np.tensordot(matrix, view, axes=(list(range(k, 2 * k)), tpos)), list(range(k)), tpos)
    return StateVector(reg, tensor.reshape(-1, order="F"))


def test_block_products_above_the_bound_match_the_oracles():
    import quditdicke.sim as sim

    reg = QuditRegister.of_dims([3, 4, 2, 5, 3, 2, 4, 3, 2, 3, 2, 3])  # 311,040 amplitudes
    rng = np.random.default_rng(12)
    unitary = scipy.linalg.qr(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))[0]
    ops = [hd(3), hd(3, controls=((0, 1),)), hd_dag(0), dense_unitary((1, 6), unitary)]
    dense = random_state(reg, rng)
    # naive_apply walks every amplitude in Python, so it gets a state with a few hundred nonzeros
    sparse_amps = np.zeros(reg.size, dtype=np.complex128)
    sparse_amps[rng.choice(reg.size, size=300, replace=False)] = rng.normal(size=300) + 1j * rng.normal(size=300)
    sparse = StateVector(reg, sparse_amps / np.linalg.norm(sparse_amps))
    for op in ops:
        assert _controlled_view(dense.amplitudes, reg, op).size > sim._BLOCK, op.kind
        fast = apply_gate(dense, op)
        np.testing.assert_allclose(fast.amplitudes, single_product(dense, op).amplitudes, rtol=0, atol=1e-12)
        fast = apply_gate(sparse, op)
        np.testing.assert_allclose(fast.amplitudes, naive_apply(sparse, op).amplitudes, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "dims, op",
    [
        ([2] * 16, hd(5)),
        ([3, 4, 2, 5, 3, 2], dense_unitary((3, 1), np.kron(gate_matrix(hd(0), (4,)), gate_matrix(hd_dag(0), (5,))), controls=((0, 2),))),
        ([4, 3, 2], hd_dag(1, controls=((0, 3), (2, 1)))),
    ],
    ids=["at-bound", "two-targets-controlled", "double-control"],
)
def test_block_product_at_or_below_the_bound_is_one_product(dims, op):
    import quditdicke.sim as sim

    reg = QuditRegister.of_dims(dims)
    state = random_state(reg, np.random.default_rng(13))
    before = _controlled_view(state.amplitudes, reg, op)
    assert before.size <= sim._BLOCK
    tdims = tuple(reg.dims[reg.position(w)] for w in op.targets)
    rows = math.prod(tdims)
    expected = gate_matrix(op, tdims) @ before.reshape((rows, -1), order="F")
    after = _controlled_view(apply_gate(state, op).amplitudes, reg, op).reshape((rows, -1), order="F")
    assert np.ascontiguousarray(after).tobytes() == np.ascontiguousarray(expected).tobytes()


def test_norm_preservation_and_unitarity_every_kind():
    rng = np.random.default_rng(7)
    reg = QuditRegister.of_dims([2, 3, 4, 2])
    for trial in range(8):
        state = random_state(reg, rng)
        for op in _op_pool(reg, rng):
            after = apply_gate(state, op)
            assert abs(after.norm() - 1.0) < 1e-12, op.kind
            tdims = tuple(reg.dim(w) for w in op.targets)
            undone = apply_gate(after, dense_unitary(op.targets, gate_matrix(op, tdims).conj().T, op.controls))
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
    digits, collapsed = sample_measure(state, (), seed=1)
    assert digits == ()
    assert np.array_equal(collapsed.amplitudes, conditional.amplitudes)


def test_sample_measure_frequency():
    reg = QuditRegister.of_dims([2])
    plus = StateVector(reg, np.array([1.0, 1.0]) / math.sqrt(2))
    shots = 100_000
    hits = sum(1 for seed in range(shots) if sample_measure(plus, (0,), seed=seed)[0] == (0,))
    assert abs(hits / shots - 0.5) < 0.01


def test_single_draws_equal_generator_choice():
    plus = StateVector(QuditRegister.of_dims([2]), np.array([1.0, 1.0]) / math.sqrt(2))
    p = outcome_distribution(plus, (0,))
    p = p / p.sum()
    for seed in range(3000):
        assert sample_measure(plus, (0,), seed)[0] == (int(np.random.default_rng(seed).choice(2, p=p)),)


@pytest.mark.parametrize("seed", [0, 5, 2024])
def test_counts_equal_choice_where_the_marginal_has_zeros(seed):
    # zero-probability outcomes first, inside and last: the CDF ties there, and such an outcome
    # must count 0, as searchsorted never returns it
    from quditdicke.sim import _BLOCK, _count_outcome

    marginal = np.array([0.0, 0.3, 0.0, 0.0, 0.45, 0.0, 0.25, 0.0])
    amps = np.outer([1.0, 1.0j, -2.0], np.sqrt(marginal)).ravel(order="F") / math.sqrt(6.0)
    state = StateVector(QuditRegister.of_dims([3, 8]), amps)
    p = outcome_distribution(state, (1,))
    p = p / p.sum()
    for shots in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
        draws = np.random.default_rng(seed).choice(p.size, size=shots, p=p)
        counts = [_count_outcome(state, (1,), index, seed, shots) for index in range(p.size)]
        assert counts == np.bincount(draws, minlength=p.size).tolist(), shots


def test_a_uniform_on_a_cdf_entry_counts_for_the_next_outcome():
    # choice maps u to the first outcome whose CDF entry exceeds u, so a uniform equal to cdf[0]
    # is outcome 1; squares of powers of two put cdf[0] on one drawn uniform exactly
    from quditdicke.sim import _count_outcome

    seed, shots = 3, 1000
    uniforms = np.random.default_rng(seed).random(shots)
    target = next(u for u in uniforms if (u * 2**52).is_integer())  # every partial sum is then exact

    def amplitudes(p):  # powers of two whose squares sum to p, a multiple of 2**-52 in (0, 1)
        out = []
        for e in range(1, 53):
            if int(p * 2**52) >> (52 - e) & 1:  # p holds 2**-e: one square 2**-e, or two of 2**-(e + 1)
                out += [2.0 ** (-e // 2)] if e % 2 == 0 else [2.0 ** (-(e + 1) // 2)] * 2
        return out + [0.0] * (128 - len(out))

    amps = np.ravel([amplitudes(target), amplitudes(1.0 - target)], order="F")
    state = StateVector(QuditRegister.of_dims([2, 128]), amps)
    assert outcome_distribution(state, (0,)).tolist() == [target, 1.0 - target]
    draws = np.random.default_rng(seed).choice(2, size=shots, p=[target, 1.0 - target])
    assert draws[uniforms == target].tolist() == [1]
    for index in (0, 1):
        assert _count_outcome(state, (0,), index, seed, shots) == np.count_nonzero(draws == index)


@pytest.mark.parametrize("amplitude", [0.0, math.nan])
def test_sampling_a_state_without_a_norm_is_rejected(amplitude):
    from quditdicke.sim import _count_outcome

    state = StateVector(QuditRegister.of_dims([2, 2]), np.full(4, amplitude, dtype=np.complex128))
    with pytest.raises(ValueError, match="squared norm"):
        sample_measure(state, (0,), seed=1)
    with pytest.raises(ValueError, match="squared norm"):
        _count_outcome(state, (0,), 0, 1, 5)


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
    "data, message",
    [
        ({"register": [3], "ops": [{"kind": "Xd"}]}, "op 0 has no targets"),
        ({"register": [3], "ops": [{"targets": [0]}]}, "op 0 has no kind"),
        ({"register": [3], "ops": [{"kind": "Xd", "targets": [0]}], "accept_rule": {"wires": [0]}}, "accept rule has no digits"),
        ({"register": 3, "ops": []}, "circuit field register has type int"),
        ({"register": [3], "ops": [{"kind": "Xd", "targets": [0]}, {"kind": "Xd", "targets": [0], "params": 5}]}, "op 1 field params has type int"),
        ({"register": [3], "ops": [{"kind": "Xd", "targets": [0], "params": [["theta", 1.0]]}]}, "op 0 field params has type list"),
        ({"register": [3], "ops": [{"kind": "Xd", "targets": 0}]}, "op 0 field targets has type int"),
        ({"register": [3], "ops": ["Xd"]}, "op 0 must be a mapping, got 'Xd'"),
        ({"register": [3]}, "circuit has no ops"),
    ],
    ids=["no-targets", "no-kind", "accept-no-digits", "register-not-a-list", "params-not-a-mapping", "params-a-list",
         "targets-not-a-list", "op-not-a-mapping", "no-ops"],
)
def test_malformed_exchange_entry_raises_value_error_naming_it(data, message):
    with pytest.raises(ValueError) as info:
        circuit_from_dict(data)
    assert str(info.value) == message


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
        (lambda: rot(0, 0, float("nan")), "Rot theta must be a finite real number, got nan"),
        (lambda: rot(0, 0, float("inf")), "Rot theta must be a finite real number, got inf"),
        (lambda: rot(0, 0, -(10**400)), f"Rot theta must be a finite real number, got {-(10**400)!r}"),
        (lambda: GateOp("Rot", (0,), {"m": 0, "theta": "0.5"}), "Rot theta must be a finite real number, got '0.5'"),
        (lambda: GateOp("Xd", (0,), {"theta": 1.0}), "Xd has no parameter(s) theta"),
        (lambda: GateOp("PhaseK", (0,), {"num": 1, "den": 3, "offset": 0, "level": None, "m": 0, "i": 1}), "PhaseK has no parameter(s) i, m"),
    ],
    ids=[
        "sum-one-target", "rot-without-theta", "phasek-zero-den", "xswap-equal-levels", "dense-not-square",
        "unknown-kind", "three-controls", "duplicate-targets", "duplicate-controls", "target-and-control",
        "phasek-three-targets", "rot-no-params", "phasek-missing-two", "xswap-negative", "phasek-negative-den",
        "dense-one-axis", "dense-not-unitary", "rot-nan-theta", "rot-infinite-theta", "rot-huge-int-theta",
        "rot-string-theta", "xd-unknown-param", "phasek-unknown-params",
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
    # a fresh op, not phase_k(0, 1, 3): the factory op is shared, and this write would reach every holder
    op = GateOp("PhaseK", (0,), {"num": 1, "den": 3, "offset": 0, "level": None})
    op.__dict__["params"] = MappingProxyType(dict(op.params, den=0))  # bypasses the frozen fields
    data = pickle.dumps(op)
    with pytest.raises(ValueError, match="denominator must be positive"):
        pickle.loads(data)


# the eight sharing factories by kind, with their target count and integer parameters
_SHARED_FACTORIES = {
    "Xd": (xd, (1,), ()),
    "XdDag": (xd_dag, (1,), ()),
    "Xswap": (xswap, (1,), ("i", "j")),
    "Sum": (sum_, (2,), ()),
    "SumDag": (sum_dag, (2,), ()),
    "Hd": (hd, (1,), ()),
    "HdDag": (hd_dag, (1,), ()),
    "PhaseK": (phase_k, (1, 2), ("num", "den", "offset", "level")),
}
_SHARED_WIRES = ("a", "b", "c", 0, 1)
_SHARED_VALUES = {"i": st.integers(-1, 3), "j": st.integers(0, 3), "num": st.integers(-2, 2), "den": st.integers(-1, 4),
                  "offset": st.integers(-1, 1), "level": st.none() | st.integers(0, 2)}


@st.composite
def shared_op_specs(draw, kind=None):
    """(kind, targets, params, controls, layer tag) in normal form: ints and tuples.  Wires may repeat, so
    some specs are invalid."""
    kind = kind or draw(st.sampled_from(sorted(_SHARED_FACTORIES)))
    _, counts, names = _SHARED_FACTORIES[kind]
    targets = tuple(draw(st.lists(st.sampled_from(_SHARED_WIRES), min_size=counts[0], max_size=counts[-1])))
    params = {name: draw(_SHARED_VALUES[name]) for name in names}
    controls = tuple(draw(st.lists(st.tuples(st.sampled_from(_SHARED_WIRES), st.integers(0, 2)), max_size=3)))
    return kind, targets, params, controls, draw(st.sampled_from([None, "x", "y"]))


def _vary(draw, spec):
    """``spec`` with one field changed: the kind, a target, a parameter, a control wire or value, or the tag."""
    kind, targets, params, controls, tag = spec
    fields = ["kind", "target", "tag"] + ["param"] * bool(params) + ["control"] * bool(controls)
    field = draw(st.sampled_from(fields))
    if field == "kind":
        kind = draw(st.sampled_from([k for k, (_, counts, _) in _SHARED_FACTORIES.items() if len(targets) in counts and k != kind]))
        params = {name: params[name] if name in params else draw(_SHARED_VALUES[name]) for name in _SHARED_FACTORIES[kind][2]}
    elif field == "target":
        at = draw(st.integers(0, len(targets) - 1))
        targets = targets[:at] + (draw(st.sampled_from(_SHARED_WIRES)),) + targets[at + 1 :]
    elif field == "param":
        name = draw(st.sampled_from(sorted(params)))
        params = dict(params, **{name: draw(_SHARED_VALUES[name])})
    elif field == "control":
        at = draw(st.integers(0, len(controls) - 1))
        wire, value = controls[at]
        changed = (draw(st.sampled_from(_SHARED_WIRES)), value) if draw(st.booleans()) else (wire, draw(st.integers(0, 2)))
        controls = controls[:at] + (changed,) + controls[at + 1 :]
    else:
        tag = draw(st.sampled_from([None, "x", "y"]))
    return kind, targets, params, controls, tag


def _make_shared(spec, form: int):
    """The factory op of ``spec``, its numbers given as int, np.int64 or integral float and its sequences as
    tuples or lists by ``form``: every form normalizes to the same value."""
    kind, targets, params, controls, tag = spec
    cast = (int, np.int64, float)[form % 3]
    controls = [[w, cast(v)] for w, v in controls] if form & 1 else tuple((w, cast(v)) for w, v in controls)
    params = {name: None if value is None else cast(value) for name, value in params.items()}
    factory = _SHARED_FACTORIES[kind][0]
    if kind == "PhaseK":
        targets = targets[0] if len(targets) == 1 and form & 2 else (list(targets) if form & 4 else targets)
        return factory(targets, controls=controls, layer_tag=tag, **params)
    if kind == "Xswap":
        return factory(targets[0], params["i"], params["j"], controls, tag)
    return factory(*targets, controls=controls, layer_tag=tag)


def _op_value(op):
    return op.kind, op.targets, tuple(op.params.items()), op.controls, op.layer_tag


@settings(deadline=None, max_examples=400)
@given(shared_op_specs(), st.data())
def test_factories_share_one_op_per_value(spec, data):
    form, other_form = data.draw(st.integers(0, 11)), data.draw(st.integers(0, 11))
    try:
        fresh = GateOp(*spec)
    except ValueError as exc:  # an invalid argument raises the same error on every call, in every form
        for attempt in (form, other_form, form):
            with pytest.raises(ValueError) as info:
                _make_shared(spec, attempt)
            assert str(info.value) == str(exc)
        return
    op = _make_shared(spec, form)
    assert _make_shared(spec, other_form) is op
    assert _op_value(op) == _op_value(fresh) and op.wires() == fresh.wires()
    other = _vary(data.draw, spec)
    try:
        fresh_other = GateOp(*other)
    except ValueError:
        return
    made = _make_shared(other, other_form)
    assert (made is op) == (other == spec)
    assert _op_value(made) == _op_value(fresh_other) and made.wires() == fresh_other.wires()


def test_criterion_2_circuits_hold_one_object_per_equal_op():
    from quditdicke.suites import sud_grid

    for wire in range(4096):  # whatever the cache held before: here it holds only ops of other wires
        xd(("filler", wire))
    circuits = [build_sequential_sud(spec) for spec in sud_grid(4, 5)]
    assert len(circuits) == 200
    first: dict = {}  # holds every op it maps, so no object is freed and an equal one rebuilt unseen
    for circuit in circuits:
        for op in circuit.ops:
            if op.kind not in ("Rot", "DenseUnitary"):
                assert first.setdefault(_op_value(op), op) is op, op


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: xd("s3"), "wire 's3' not in register"),
        (lambda: xd("s1", controls=(("s2", 2),)), "control value 2 out of range for wire 's2'"),
        (lambda: xswap("s1", 0, 2), "Xswap levels (0,2) must be below dimension 2"),
    ],
    ids=["wire-not-in-register", "control-value", "xswap-level"],
)
def test_shared_op_is_fit_checked_on_each_circuit_register(make, message):
    op = make()
    assert Circuit(QuditRegister([("s1", 3), ("s2", 3), ("s3", 3)]), [op]).ops == (op,)
    assert make() is op
    with pytest.raises(ValueError) as info:
        Circuit(QuditRegister([("s1", 2), ("s2", 2)]), [op])
    assert str(info.value) == message


def _from_dict(register=(3, 3), ops=(), accept_rule=None):
    return circuit_from_dict({"register": list(register), "ops": list(ops), "accept_rule": accept_rule})


@pytest.mark.parametrize(
    "make, what",
    [
        (lambda: _from_dict(ops=[{"kind": "Xd", "targets": [0], "controls": [[1, 0.5]]}]), "control value"),
        (lambda: xd(0, controls=((1, 0.5),)), "control value"),
        (lambda: _from_dict(ops=[{"kind": "Rot", "params": {"m": 1.7, "theta": 0.5}, "targets": [0]}]), "Rot m"),
        (lambda: rot(0, 0.5, 0.3), "Rot m"),
        (lambda: _from_dict(ops=[{"kind": "Xswap", "params": {"i": 0.5, "j": 2}, "targets": [0]}]), "Xswap i"),
        (lambda: xswap(0, 0, 1.5), "Xswap j"),
        (lambda: phase_k(0, 0.5, 3), "PhaseK num"),
        (lambda: phase_k(0, 1, 2.5), "PhaseK den"),
        (lambda: phase_k(0, 1, 3, offset=0.5), "PhaseK offset"),
        (lambda: _from_dict(ops=[{"kind": "PhaseK", "params": {"num": 1, "den": 3, "offset": 0, "level": 0.5}, "targets": [0]}]), "PhaseK level"),
        (lambda: _from_dict(accept_rule={"wires": [1], "digits": [0.9]}), "accept digit"),
        (lambda: Circuit(QuditRegister.of_dims([3, 3]), [], accept_rule=((0,), (1.7,))), "accept digit"),
        (lambda: project_on_outcome(new_basis_state(QuditRegister.of_dims([3, 3]), (1, 0)), (0,), (1.7,)), "outcome digit"),
        (lambda: sample_measure(new_basis_state(QuditRegister.of_dims([3, 3]), (1, 0)), (0,), 1.7), "seed"),
        (lambda: Circuit(QuditRegister.of_dims([3, 3]), []).run(initial_digits=(0.5, 0)), "initial digit"),
        (lambda: _from_dict(register=(3.7, 2)), "dimension of wire 0"),
        (lambda: _from_dict(ops=[{"kind": "Xd", "targets": [0.5]}]), "wire position"),
    ],
    ids=[
        "control-value-loaded", "control-value-factory", "rot-m-loaded", "rot-m-factory", "xswap-i-loaded",
        "xswap-j-factory", "phasek-num", "phasek-den", "phasek-offset", "phasek-level-loaded", "accept-digit",
        "accept-digit-built", "outcome-digit", "sample-seed", "initial-digit", "register-dimension",
        "target-position-loaded",
    ],
)
def test_integer_field_with_a_fractional_part_is_rejected_when_built(make, what):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value).startswith(f"{what} must be an integer, got ")


def test_integral_values_of_other_types_are_accepted_as_ints():
    assert xswap(0, np.int64(0), 2.0) is xswap(0, 0, 2)
    assert phase_k(0, 1.0, np.int64(3), level=np.int64(1)) is phase_k(0, 1, 3, level=1)
    assert xd(0, controls=((1, 1.0),)).controls == ((1, 1),)
    loaded = _from_dict(
        register=(np.int64(3), 2.0),
        ops=[{"kind": "Rot", "params": {"m": 1.0, "theta": 0.5}, "targets": [0], "controls": [[1, np.int64(1)]]}],
        accept_rule={"wires": [1], "digits": [1.0]},
    )
    assert loaded.register.dims == (3, 2) and type(loaded.ops[0].params["m"]) is int
    assert type(GateOp("Rot", (0,), {"m": 0, "theta": np.int64(1)}).params["theta"]) is float  # a finite real angle
    assert loaded.accept_rule == ((1,), (1,))
    assert loaded.run(initial_digits=(0.0, np.int64(1))).amplitudes.tobytes() == loaded.run(initial_digits=(0, 1)).amplitudes.tobytes()
    state = apply_gate(new_basis_state(loaded.register, (0, 0)), hd(0))
    (p_int64, by_int64), (p_int, by_int) = project_on_outcome(state, (0,), (np.int64(1),)), project_on_outcome(state, (0,), (1,))
    assert p_int64 == p_int and by_int64.amplitudes.tobytes() == by_int.amplitudes.tobytes()
    assert sample_measure(state, (0,), 2.0)[0] == sample_measure(state, (0,), 2)[0]


@pytest.mark.parametrize("family", ["spin-s", "sud"])
@pytest.mark.parametrize("method", ["sequential", "qpe-log", "hadamard", "fanout"])
def test_built_circuit_pickles(family, method):
    builder = BUILDERS[family][method]
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
