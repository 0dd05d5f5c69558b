"""Tests for the deterministic sequential builders and their emission blocks."""

import math

import numpy as np
import pytest

from quditdicke.levelsets import build_level_sets
from quditdicke.reference import DickeSpecSpinS, DickeSpecSUD, bond_table, gamma_spin_s, gamma_sud, spin_s_dicke, sud_dicke
from quditdicke.sequential import (
    build_i_spin_s,
    build_i_sud,
    build_sequential_spin_s,
    build_sequential_sud,
    rotation_cascade_angles,
    spin_s_l_range,
    verify_sequential,
)
from quditdicke.sim import Circuit, QuditRegister, apply_gate, new_basis_state, rot, xd
from quditdicke.suites import spin_s_expected_gate_count, sud_expected_gate_count


def apply_ops(state, ops):
    for op in ops:
        state = apply_gate(state, op)
    return state


def cascade_amplitudes(amps, dim):
    """Amplitudes the rotation cascade of ``amps`` writes onto one wire of dimension ``dim`` from |0>."""
    state = new_basis_state(QuditRegister.of_dims([dim]), (0,))
    for m, theta in enumerate(rotation_cascade_angles(amps)):
        state = apply_gate(state, rot(0, m, theta))
    return state.amplitudes


def test_cascade_basic_angles():
    assert rotation_cascade_angles([1 / math.sqrt(2), 1 / math.sqrt(2)]) == pytest.approx([math.pi / 2])
    assert rotation_cascade_angles([1.0, 0.0, 0.0]) == pytest.approx([0.0, 0.0])
    with pytest.raises(ValueError):
        rotation_cascade_angles([1.0, 0.1])


def test_cascade_incomplete_vector_keeps_every_angle():
    angles = rotation_cascade_angles([0.5, 0.5])
    assert len(angles) == 2
    # amplitudes realized by the cascade match the inputs
    assert 0.5 == pytest.approx(math.cos(angles[0] / 2))
    assert 0.5 == pytest.approx(math.cos(angles[1] / 2) * math.sin(angles[0] / 2))


def test_cascade_reproduces_random_amplitudes():
    rng = np.random.default_rng(31)
    for length in range(2, 8):
        for _ in range(5):
            amps = rng.uniform(0.0, 1.0, size=length)
            amps /= np.linalg.norm(amps)
            assert np.allclose(cascade_amplitudes(amps, length), amps, atol=1e-10)


def test_cascade_keeps_a_tiny_last_amplitude():
    # the second ratio of a running-sine cascade rounds to 1 and its last amplitude comes out 19% off
    amps = [0.6, math.sqrt(0.64 - 1e-16), 1e-8]
    assert np.max(np.abs(cascade_amplitudes(amps, 3) - amps)) <= 1e-15


def test_cascade_puts_the_remainder_past_the_last_level():
    assert np.allclose(cascade_amplitudes([0.5, 0.5], 3), [0.5, 0.5, math.sqrt(0.5)], rtol=0.0, atol=1e-15)


def _spin_register(n, twice_s, k):
    wires = [(f"s{j}", twice_s + 1) for j in range(1, n + 1)] + [("mps", k + 1)]
    return QuditRegister(wires)


def test_emitter_spin_s_fires_on_matching_label():
    n, twice_s, k, i, l = 3, 2, 2, 2, 1
    reg = _spin_register(n, twice_s, k)
    ops = build_i_spin_s(n, twice_s, k, i, l)
    assert len(ops) == twice_s + 4
    start = new_basis_state(reg, tuple(0 if w != "mps" else l for w in reg.ids))
    final = apply_ops(start, ops)
    for m in range(twice_s + 1):
        gamma = gamma_spin_s(n, twice_s, k, i, l, m)
        if (l + m) > k:
            continue
        target = tuple(m if w == f"s{i}" else (l + m if w == "mps" else 0) for w in reg.ids)
        assert final.amplitudes[reg.flat_index(target)] == pytest.approx(gamma, abs=1e-10)


def test_emitter_spin_s_identity_off_label():
    n, twice_s, k, i, l = 3, 2, 3, 2, 1
    reg = _spin_register(n, twice_s, k)
    ops = build_i_spin_s(n, twice_s, k, i, l)
    for j in range(k + 1):
        if j == l:
            continue
        digits = tuple(0 if w != "mps" else j for w in reg.ids)
        final = apply_ops(new_basis_state(reg, digits), ops)
        assert final.amplitudes[reg.flat_index(digits)] == pytest.approx(1.0, abs=1e-12)


def test_emitter_spin_s_noninterference_condition():
    # occupied-site inputs |j>|m> with m > 0 and j <= l+m-1 pass through untouched
    n, twice_s, k = 2, 2, 3
    reg = _spin_register(n, twice_s, k)
    for i in range(1, n + 1):
        for l in spin_s_l_range(n, twice_s, k, i):
            ops = build_i_spin_s(n, twice_s, k, i, l)
            for m in range(1, twice_s + 1):
                for j in range(min(l + m, k + 1)):
                    digits = tuple(m if w == f"s{i}" else (j if w == "mps" else 0) for w in reg.ids)
                    final = apply_ops(new_basis_state(reg, digits), ops)
                    assert final.amplitudes[reg.flat_index(digits)] == pytest.approx(1.0, abs=1e-12), (i, l, j, m)


def test_emitter_spin_s_range_check():
    with pytest.raises(ValueError):
        build_i_spin_s(3, 1, 1, 1, 2)


def test_sequential_spin_s_small_cases():
    for n, twice_s, k in [(3, 2, 2), (2, 1, 1), (4, 1, 3), (3, 3, 7)]:
        spec = DickeSpecSpinS(n, twice_s, k)
        report = verify_sequential(build_sequential_spin_s(spec), spin_s_dicke(spec))
        assert report.acceptance_probability == 1.0
        assert report.conditional_fidelity >= 1 - 1e-9


def test_sequential_spin_s_edges():
    empty = build_sequential_spin_s(DickeSpecSpinS(3, 1, 0))
    assert empty.ops == ()
    spec = DickeSpecSpinS(3, 1, 3)
    top = build_sequential_spin_s(spec)
    report = verify_sequential(top, spin_s_dicke(spec))
    assert report.acceptance_probability == 1.0
    assert report.conditional_fidelity >= 1 - 1e-9
    # product-state path: 2s raises per site plus one charge accumulation per site
    assert len(top.ops) == spec.n * (spec.twice_s + 1)


def test_sequential_spin_s_gate_count_formula():
    for n, twice_s, k in [(3, 2, 2), (4, 1, 2), (3, 3, 5), (5, 2, 7)]:
        circuit = build_sequential_spin_s(DickeSpecSpinS(n, twice_s, k))
        blocks = sum(len(spin_s_l_range(n, twice_s, k, i)) for i in range(1, n + 1))
        assert len(circuit.ops) == (twice_s + 4) * blocks
        assert len(circuit.ops) == spin_s_expected_gate_count(DickeSpecSpinS(n, twice_s, k))


def test_sequential_spin_s_via_duality():
    for n, twice_s, k in [(3, 2, 5), (2, 1, 2), (3, 1, 1)]:
        spec = DickeSpecSpinS(n, twice_s, k)
        circuit = build_sequential_spin_s(spec, via_duality=True)
        report = verify_sequential(circuit, spin_s_dicke(spec))
        assert report.acceptance_probability == 1.0
        assert report.conditional_fidelity >= 1 - 1e-9
        # mirror-charge ancilla reading
        assert circuit.accept_rule[1] == (twice_s * n - k,)


def test_sequential_spin_s_via_duality_checks_every_op(monkeypatch):
    import quditdicke.sequential as sequential

    made = []

    class RecordingCircuit(Circuit):
        def __post_init__(self):
            made.append(list(self.ops))
            super().__post_init__()

    monkeypatch.setattr(sequential, "Circuit", RecordingCircuit)
    circuit = build_sequential_spin_s(DickeSpecSpinS(3, 2, 5), via_duality=True)
    # the conjugating swaps went through the construction-time checks with the rest
    assert tuple(made[-1]) == circuit.ops
    assert [op.kind for op in circuit.ops[-3:]] == ["Xswap"] * 3


def test_sequential_spin_s_duality_grid_agrees_with_direct():
    # both code paths stay available and produce the same system state
    for twice_s in (1, 2):
        for n in (2, 3):
            for k in range(twice_s * n + 1):
                spec = DickeSpecSpinS(n, twice_s, k)
                oracle = spin_s_dicke(spec)
                direct = verify_sequential(build_sequential_spin_s(spec), oracle)
                mirrored = verify_sequential(build_sequential_spin_s(spec, via_duality=True), oracle)
                assert direct.conditional_fidelity >= 1 - 1e-9
                assert mirrored.conditional_fidelity >= 1 - 1e-9
                assert mirrored.acceptance_probability == 1.0


def test_sequential_spin_s_pruning_and_label_wraparound(monkeypatch):
    from quditdicke import sequential

    # emitters outside the active window, including l = k whose control value
    # wraps to 0 mod chi, act as the identity on the prepared state
    for n, twice_s, k in [(3, 1, 2), (3, 2, 3), (2, 2, 2)]:
        spec = DickeSpecSpinS(n, twice_s, k)
        pruned = build_sequential_spin_s(spec)
        reg = pruned.register
        state = new_basis_state(reg, (0,) * len(reg))
        with monkeypatch.context() as patch:
            # widen the window that build_i_spin_s checks a label against to every label 0..k
            patch.setattr(sequential, "spin_s_l_range", lambda n, twice_s, k, i: range(k + 1))
            for i in range(1, n + 1):
                for l in range(k + 1):
                    state = apply_ops(state, build_i_spin_s(n, twice_s, k, i, l))
        assert np.allclose(state.amplitudes, pruned.run().amplitudes, atol=1e-10)


def test_emitter_spin_s_noninterference_sequencing():
    # applying a later emitter on an earlier emitter's output changes nothing
    n, twice_s, k = 3, 2, 3
    reg = _spin_register(n, twice_s, k)
    for i in range(1, n + 1):
        window = list(spin_s_l_range(n, twice_s, k, i))
        for l in window:
            digits = tuple(0 if w != "mps" else l for w in reg.ids)
            fired = apply_ops(new_basis_state(reg, digits), build_i_spin_s(n, twice_s, k, i, l))
            for later in window:
                if later <= l:
                    continue
                after = apply_ops(fired, build_i_spin_s(n, twice_s, k, i, later))
                assert np.allclose(after.amplitudes, fired.amplitudes, atol=1e-12), (i, l, later)


def _sud_register(n, d, chi):
    wires = [(f"s{j}", d) for j in range(1, n + 1)] + [("mps", max(chi, 2)), ("flag", 2)]
    return QuditRegister(wires)


def _sud_block(table, i, p):
    """``build_i_sud`` of bond digit p at site i, from its bond-table entry."""
    _, row, after = table[i - 1][p]
    return build_i_sud(i, p, row, after)


def test_emitter_sud_fires_and_resets_flag():
    n, kvec = 3, (1, 1, 1)
    levels, table = build_level_sets(kvec), bond_table(DickeSpecSUD(n, kvec))
    reg = _sud_register(n, 3, levels.chi)
    for i in range(1, n + 1):
        for a in levels.elements(i - 1):
            p = levels.label(i - 1, a)
            ops = _sud_block(table, i, p)
            assert len(ops) == 3 * len(kvec)
            digits = tuple(p if w == "mps" else 0 for w in reg.ids)
            final = apply_ops(new_basis_state(reg, digits), ops)
            for m in range(3):
                gamma = gamma_sud(n, kvec, i, a, m)
                if gamma == 0.0:
                    continue
                bumped = a[:m] + (a[m] + 1,) + a[m + 1 :]
                target = tuple(
                    m if w == f"s{i}" else (levels.label(i, bumped) if w == "mps" else 0) for w in reg.ids
                )
                assert final.amplitudes[reg.flat_index(target)] == pytest.approx(gamma, abs=1e-10)
            # no weight left on flag = 1
            flagged = np.abs(final.tensor()[..., 1]) ** 2
            assert flagged.sum() < 1e-20


def test_emitter_sud_identity_on_higher_labels():
    n, kvec = 4, (2, 1, 1)
    levels, table = build_level_sets(kvec), bond_table(DickeSpecSUD(n, kvec))
    reg = _sud_register(n, 3, levels.chi)
    for i in range(1, n + 1):
        for a in levels.elements(i - 1):
            p = levels.label(i - 1, a)
            ops = _sud_block(table, i, p)
            for j in range(p + 1, levels.cardinality(i - 1)):
                digits = tuple(j if w == "mps" else 0 for w in reg.ids)
                final = apply_ops(new_basis_state(reg, digits), ops)
                assert final.amplitudes[reg.flat_index(digits)] == pytest.approx(1.0, abs=1e-12), (i, p, j)


def test_emitter_sud_noninterference_sequencing():
    n, kvec = 3, (1, 1, 1)
    levels, table = build_level_sets(kvec), bond_table(DickeSpecSUD(n, kvec))
    reg = _sud_register(n, 3, levels.chi)
    for i in range(1, n + 1):
        for a in levels.elements(i - 1):
            p = levels.label(i - 1, a)
            digits = tuple(p if w == "mps" else 0 for w in reg.ids)
            fired = apply_ops(new_basis_state(reg, digits), _sud_block(table, i, p))
            for b in levels.elements(i - 1):
                if levels.label(i - 1, b) <= p:
                    continue
                after = apply_ops(fired, _sud_block(table, i, levels.label(i - 1, b)))
                assert np.allclose(after.amplitudes, fired.amplitudes, atol=1e-12)


def test_sequential_sud_small_cases():
    for n, kvec in [(3, (1, 1, 1)), (4, (2, 1, 1)), (3, (2, 1)), (4, (2, 2, 0))]:
        spec = DickeSpecSUD(n, kvec)
        report = verify_sequential(build_sequential_sud(spec), sud_dicke(spec))
        assert report.acceptance_probability == 1.0
        assert report.conditional_fidelity >= 1 - 1e-9


def test_sequential_sud_flag_stays_clean_throughout():
    spec = DickeSpecSUD(3, (1, 1, 1))
    circuit = build_sequential_sud(spec)
    d = spec.d
    state = new_basis_state(circuit.register, (0,) * len(circuit.register))
    for index, op in enumerate(circuit.ops, start=1):
        state = apply_gate(state, op)
        if index % (3 * d) == 0:
            flagged = np.abs(state.tensor()[..., 1]) ** 2
            assert flagged.sum() < 1e-20


def test_sequential_sud_trivial_targets():
    zeros = build_sequential_sud(DickeSpecSUD(3, (3, 0, 0)))
    assert zeros.ops == ()
    spec = DickeSpecSUD(3, (0, 0, 3))
    circuit = build_sequential_sud(spec)
    assert len(circuit.ops) == 3
    report = verify_sequential(circuit, sud_dicke(spec))
    assert report.acceptance_probability == 1.0
    assert report.conditional_fidelity >= 1 - 1e-9


def test_sequential_sud_gate_count_formula():
    for n, kvec in [(3, (1, 1, 1)), (4, (2, 1, 1)), (5, (2, 2, 1))]:
        spec = DickeSpecSUD(n, kvec)
        circuit = build_sequential_sud(spec)
        levels = build_level_sets(kvec)
        expected = 3 * spec.d * sum(levels.cardinality(i - 1) for i in range(1, n + 1))
        assert len(circuit.ops) == expected
        assert len(circuit.ops) == sud_expected_gate_count(spec)


def test_sequential_sud_flat_tail_count_bound():
    # occupations (n - r*x, x, ..., x, 0, ..., 0) cost at most 3*d*n*(x+1)^r gates
    for n, r, x, d in [(6, 1, 2, 3), (6, 2, 2, 4), (8, 1, 3, 3), (7, 2, 1, 4)]:
        kvec = (n - r * x,) + (x,) * r + (0,) * (d - r - 1)
        spec = DickeSpecSUD(n, kvec)
        circuit = build_sequential_sud(spec)
        assert len(circuit.ops) <= 3 * d * n * (x + 1) ** r


def test_builders_are_deterministic():
    spec = DickeSpecSpinS(3, 2, 3)
    first = build_sequential_spin_s(spec)
    second = build_sequential_spin_s(spec)
    from quditdicke.serialize import circuit_to_json

    assert circuit_to_json(first) == circuit_to_json(second)
    assert np.array_equal(first.run().amplitudes, second.run().amplitudes)


def test_sequential_ancilla_census():
    from quditdicke.report import count_resources

    _, _, census = count_resources(build_sequential_spin_s(DickeSpecSpinS(3, 2, 4)))
    assert census == [[5, 1]]  # one bond ancilla of dimension k+1
    _, _, census = count_resources(build_sequential_sud(DickeSpecSUD(4, (2, 1, 1))))
    levels = build_level_sets((2, 1, 1))
    assert census == [[2, 1], [levels.chi, 1]]  # flag qubit plus bond ancilla


def test_verify_sequential_identity_circuit():
    reg = QuditRegister([("s1", 2), ("mps", 2)])
    meta = {"spec": DickeSpecSpinS(1, 1, 0), "method": "sequential", "optimal_parameter": None, "notes": []}
    circuit = Circuit(reg, [], accept_rule=(("mps",), (0,)), meta=meta)
    oracle = new_basis_state(QuditRegister.of_dims([2]), (0,))
    report = verify_sequential(circuit, oracle)
    assert report.acceptance_probability == 1.0
    assert report.conditional_fidelity == pytest.approx(1.0)
    assert report.gate_count == 0 and report.logical_depth == 0
    assert report.ancilla_census == [[2, 1]]


@pytest.mark.parametrize("extra, probability", [(rot("mps", 0, 1.0), 0.770), (xd("mps"), 0.0)], ids=("rot", "xd"))
def test_failed_ancilla_check_reports_its_expected_repetitions(extra, probability):
    spec = DickeSpecSpinS(3, 1, 1)
    built = build_sequential_spin_s(spec)
    circuit = Circuit(built.register, built.ops + (extra,), built.accept_rule, built.meta)
    report = verify_sequential(circuit, spin_s_dicke(spec))
    assert report.acceptance_probability == pytest.approx(probability, abs=1e-3)
    # the same rule as every other report: 1/P, infinite at or below ATOL_PROBABILITY
    expected = 1.0 / report.acceptance_probability if probability else math.inf
    assert report.expected_repetitions == expected
    assert any(note.startswith("ancilla check failed") for note in report.notes)


def test_verify_sequential_requires_accept_rule():
    reg = QuditRegister([("s1", 2), ("mps", 2)])
    circuit = Circuit(reg, [], meta={"spec": DickeSpecSpinS(1, 1, 0)})
    with pytest.raises(ValueError, match="circuit has no accept rule to postselect on"):
        verify_sequential(circuit, new_basis_state(QuditRegister.of_dims([2]), (0,)))
