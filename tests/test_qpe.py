"""Tests for the probabilistic builders: product states, readout, postselection."""

import math

import numpy as np
import pytest

from quditdicke.qpe import (
    BUILDERS,
    build_fanout_const_spin_s,
    build_fanout_const_sud,
    build_hadamard_test_spin_s,
    build_hadamard_test_sud,
    build_qpe_log_spin_s,
    build_qpe_log_sud,
    product_state_spin_s,
    product_state_sud,
    run_postselected,
)
from quditdicke.reference import (
    DickeSpecSpinS,
    DickeSpecSUD,
    binomial,
    multinomial,
    probability_spin_s,
    probability_sud,
    spin_s_dicke,
    sud_dicke,
)
from quditdicke.sequential import build_sequential_spin_s, build_sequential_sud
from quditdicke.sim import (
    QuditRegister,
    StateVector,
    accepted_branch,
    apply_gate,
    fidelity,
    new_basis_state,
    outcome_distribution,
    project_on_outcome,
)


def run_ops(register, ops):
    state = new_basis_state(register, (0,) * len(register))
    for op in ops:
        state = apply_gate(state, op)
    return state


def test_product_state_spin_s_edges():
    state, _ = product_state_spin_s(3, 2, 0.0)
    assert state.amplitudes[0] == pytest.approx(1.0)
    state, _ = product_state_spin_s(2, 1, 0.5)
    assert np.allclose(state.amplitudes, 0.5)
    with pytest.raises(ValueError):
        product_state_spin_s(2, 1, 1.5)


def test_product_state_spin_s_dicke_weights():
    n, twice_s, p = 3, 2, 0.35
    state, _ = product_state_spin_s(n, twice_s, p)
    total = twice_s * n
    for k in range(total + 1):
        oracle = spin_s_dicke(DickeSpecSpinS(n, twice_s, k))
        overlap = np.vdot(oracle.amplitudes, state.amplitudes)
        expected = math.sqrt(p**k * (1 - p) ** (total - k) * binomial(total, k))
        assert overlap.real == pytest.approx(expected, abs=1e-10)
        assert abs(overlap.imag) < 1e-12


def test_product_state_prep_ops_match_exact_state():
    for n, twice_s, p in [(2, 1, 0.3), (3, 2, 0.62), (2, 3, 0.9), (2, 2, 1.0)]:
        state, ops = product_state_spin_s(n, twice_s, p)
        assert np.allclose(run_ops(state.register, ops).amplitudes, state.amplitudes, atol=1e-10)
    for n, xi in [(3, (1, 1, 1)), (2, (0.2, 0.5, 0.8, 0.1)), (3, (1.0, 0.0))]:
        state, ops = product_state_sud(n, xi)
        assert np.allclose(run_ops(state.register, ops).amplitudes, state.amplitudes, atol=1e-10)


def test_product_state_sud_cases():
    state, _ = product_state_sud(2, (1, 1, 1))
    assert np.allclose(state.amplitudes, 1 / 3)
    state, _ = product_state_sud(3, (1, 0, 0))
    assert state.amplitudes[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        product_state_sud(2, (0.0, 0.0))
    with pytest.raises(ValueError):
        product_state_sud(2, (0.5, -0.5))


def test_product_state_sud_dicke_weights():
    n, xi = 3, (0.8, 0.55, 0.2)
    state, _ = product_state_sud(n, xi)
    norm2 = sum(v * v for v in xi)
    from quditdicke.suites import compositions

    for kvec in compositions(n, 3):
        oracle = sud_dicke(DickeSpecSUD(n, kvec))
        overlap = np.vdot(oracle.amplitudes, state.amplitudes).real
        expected = math.prod(x**k for x, k in zip(xi, kvec)) * math.sqrt(multinomial(n, kvec)) / norm2 ** (n / 2)
        assert overlap == pytest.approx(expected, abs=1e-10)


def test_qpe_log_spin_s_acceptance():
    spec = DickeSpecSpinS(3, 1, 2)
    report = run_postselected(build_qpe_log_spin_s(spec), spin_s_dicke(spec))
    expected = probability_spin_s(3, 1, 2).probability
    assert report.acceptance_probability == pytest.approx(expected, abs=1e-9)
    assert report.conditional_fidelity >= 1 - 1e-9
    assert report.expected_repetitions == pytest.approx(1 / expected)


def test_qpe_log_spin_s_outcomes_complete_and_binomial():
    spec = DickeSpecSpinS(2, 2, 2)
    circuit = build_qpe_log_spin_s(spec)
    state = circuit.run()
    wires, _ = circuit.accept_rule
    dist = outcome_distribution(state, wires)
    assert dist.sum() == pytest.approx(1.0, abs=1e-10)
    p = spec.k / spec.max_charge
    for value in range(2 ** len(wires)):
        expected = 0.0
        if value <= spec.max_charge:
            expected = binomial(spec.max_charge, value) * p**value * (1 - p) ** (spec.max_charge - value)
        assert dist[value] == pytest.approx(expected, abs=1e-10)


def test_premeasurement_projection_matches_oracle():
    # assemble sum_k sqrt(P(k)) |D_k>|k> by hand, then postselect one charge
    n, twice_s, k = 2, 1, 1
    spec = DickeSpecSpinS(n, twice_s, k)
    circuit = build_qpe_log_spin_s(spec)
    ell = spec.max_charge.bit_length()
    reg = circuit.register
    amps = np.zeros(reg.size, dtype=np.complex128)
    sys_size = (twice_s + 1) ** n
    p = k / spec.max_charge
    for charge in range(spec.max_charge + 1):
        weight = math.sqrt(binomial(spec.max_charge, charge) * p**charge * (1 - p) ** (spec.max_charge - charge))
        oracle = spin_s_dicke(DickeSpecSpinS(n, twice_s, charge))
        amps[charge * sys_size : (charge + 1) * sys_size] += weight * oracle.amplitudes
    handmade = StateVector(reg, amps)
    wires, digits = circuit.accept_rule
    probability, conditional = project_on_outcome(handmade, wires, digits)
    assert probability == pytest.approx(probability_spin_s(n, twice_s, k).probability, abs=1e-12)
    expected = np.zeros(reg.size, dtype=np.complex128)
    expected[k * sys_size : (k + 1) * sys_size] = spin_s_dicke(spec).amplitudes
    assert fidelity(conditional, StateVector(reg, expected)) == pytest.approx(1.0, abs=1e-12)
    # the builder's own pre-measurement state agrees with the hand-made one
    assert fidelity(circuit.run(), handmade) == pytest.approx(1.0, abs=1e-10)


def test_hadamard_spin_s_matches_qpe_probability():
    spec = DickeSpecSpinS(3, 2, 4)
    p_override = 0.3
    qpe = run_postselected(build_qpe_log_spin_s(spec, p=p_override), spin_s_dicke(spec))
    had = run_postselected(build_hadamard_test_spin_s(spec, p=p_override), spin_s_dicke(spec))
    assert abs(qpe.acceptance_probability - had.acceptance_probability) < 1e-10
    assert had.conditional_fidelity >= 1 - 1e-9


def test_hadamard_spin_s_reads_charge_distribution():
    spec = DickeSpecSpinS(2, 2, 1)
    circuit = build_hadamard_test_spin_s(spec)
    state = circuit.run()
    dist = outcome_distribution(state, ("h",))
    p = spec.k / spec.max_charge
    for charge in range(spec.max_charge + 1):
        expected = binomial(spec.max_charge, charge) * p**charge * (1 - p) ** (spec.max_charge - charge)
        assert dist[charge] == pytest.approx(expected, abs=1e-10)


def test_hadamard_spin_s_trivial_target_accepts_surely():
    spec = DickeSpecSpinS(3, 1, 0)
    report = run_postselected(build_hadamard_test_spin_s(spec), spin_s_dicke(spec))
    assert report.acceptance_probability == pytest.approx(1.0, abs=1e-10)
    assert report.conditional_fidelity >= 1 - 1e-9


def test_selection_identity():
    for ell, max_delta in [(2, 3), (3, 6), (4, 12)]:
        for delta in range(-max_delta, max_delta + 1):
            product = 1.0 + 0.0j
            for x in range(1, ell + 1):
                product *= 1.0 + np.exp(2j * np.pi * delta / 2**x)
            expected = 2**ell if delta == 0 else 0.0
            assert abs(product - expected) < 1e-9, (ell, delta)


def test_fanout_spin_s_accepts_and_restores_copies():
    spec = DickeSpecSpinS(3, 1, 2)
    circuit = build_fanout_const_spin_s(spec)
    state = circuit.run()
    wires, digits = circuit.accept_rule
    probability, conditional = project_on_outcome(state, wires, digits)
    assert probability == pytest.approx(probability_spin_s(3, 1, 2).probability, abs=1e-9)
    copies = [w for w in circuit.register.ids if str(w).startswith("c")]
    assert copies
    copy_prob, _ = project_on_outcome(conditional, copies, (0,) * len(copies))
    assert copy_prob == pytest.approx(1.0, abs=1e-10)


def test_fanout_spin_s_smallest_instance():
    spec = DickeSpecSpinS(1, 1, 1)
    circuit = build_fanout_const_spin_s(spec)
    flags = [w for w in circuit.register.ids if str(w).startswith("f")]
    copies = [w for w in circuit.register.ids if str(w).startswith("c")]
    assert len(flags) == 1 and not copies
    report = run_postselected(circuit, spin_s_dicke(spec))
    assert report.acceptance_probability == pytest.approx(1.0, abs=1e-10)
    assert report.conditional_fidelity >= 1 - 1e-9


def test_fanout_depth_constant_in_size():
    from quditdicke.report import count_resources

    depths = {
        n: count_resources(build_fanout_const_spin_s(DickeSpecSpinS(n, 1, max(1, n // 2))))[1] for n in range(2, 7)
    }
    assert len(set(depths.values())) == 1


def test_qpe_log_sud_acceptance_and_joint_distribution():
    spec = DickeSpecSUD(3, (1, 1, 1))
    circuit = build_qpe_log_sud(spec)
    report = run_postselected(circuit, sud_dicke(spec))
    assert report.acceptance_probability == pytest.approx(2 / 9, abs=1e-9)
    assert report.conditional_fidelity >= 1 - 1e-9

    state = circuit.run()
    wires, _ = circuit.accept_rule
    dist = outcome_distribution(state, wires)
    assert dist.sum() == pytest.approx(1.0, abs=1e-10)
    ell = spec.n.bit_length()
    xi = circuit.meta["optimal_parameter"]
    for index, weight in enumerate(dist):
        k1 = index & (2**ell - 1)
        k2 = index >> ell
        k0 = spec.n - k1 - k2
        if k0 >= 0 and max(k1, k2) <= spec.n:
            expected = _multinomial_weight(spec.n, (k0, k1, k2), xi=xi)
        else:
            expected = 0.0
        assert weight == pytest.approx(expected, abs=1e-10)


def _multinomial_weight(n, kvec, xi=None):
    if xi is None:
        xi = tuple(math.sqrt(v / n) for v in kvec)
    norm2 = sum(v * v for v in xi)
    return math.prod(x ** (2 * k) for x, k in zip(xi, kvec)) * multinomial(n, kvec) / norm2**n


def test_qpe_log_sud_trivial_target():
    spec = DickeSpecSUD(3, (3, 0, 0))
    report = run_postselected(build_qpe_log_sud(spec), sud_dicke(spec))
    assert report.acceptance_probability == pytest.approx(1.0, abs=1e-10)
    assert report.conditional_fidelity >= 1 - 1e-9


def test_hadamard_sud_marginals():
    spec = DickeSpecSUD(3, (1, 2, 0))
    circuit = build_hadamard_test_sud(spec)
    state = circuit.run()
    xi = circuit.meta["optimal_parameter"]
    norm2 = sum(v * v for v in xi)
    for level in (1, 2):
        dist = outcome_distribution(state, (f"h{level}",))
        q = xi[level] ** 2 / norm2
        for value in range(spec.n + 1):
            expected = binomial(spec.n, value) * q**value * (1 - q) ** (spec.n - value)
            assert dist[value] == pytest.approx(expected, abs=1e-10)


def test_hadamard_sud_d2_equals_spin_half():
    n, k = 3, 2
    sud = build_hadamard_test_sud(DickeSpecSUD(n, (n - k, k)))
    spin = build_hadamard_test_spin_s(DickeSpecSpinS(n, 1, k))
    assert sud.register.dims == spin.register.dims
    a, b = sud.run(), spin.run()
    assert fidelity(a, b) == pytest.approx(1.0, abs=1e-10)
    ra = run_postselected(sud, sud_dicke(DickeSpecSUD(n, (n - k, k))))
    rb = run_postselected(spin, spin_s_dicke(DickeSpecSpinS(n, 1, k)))
    assert abs(ra.acceptance_probability - rb.acceptance_probability) < 1e-10


def test_fanout_sud_d2_equals_spin_half():
    n, k = 2, 1
    sud_spec = DickeSpecSUD(n, (n - k, k))
    spin_spec = DickeSpecSpinS(n, 1, k)
    a = build_fanout_const_sud(sud_spec)
    b = build_fanout_const_spin_s(spin_spec)
    assert a.register.dims == b.register.dims
    ra = run_postselected(a, sud_dicke(sud_spec))
    rb = run_postselected(b, spin_s_dicke(spin_spec))
    assert abs(ra.acceptance_probability - rb.acceptance_probability) < 1e-10
    wires_a, digits_a = a.accept_rule
    wires_b, digits_b = b.accept_rule
    _, cond_a = project_on_outcome(a.run(), wires_a, digits_a)
    _, cond_b = project_on_outcome(b.run(), wires_b, digits_b)
    assert fidelity(cond_a, cond_b) == pytest.approx(1.0, abs=1e-10)


def test_fanout_sud_register_budget():
    for n, kvec in [(3, (1, 1, 1)), (4, (2, 1, 1)), (5, (1, 2, 2))]:
        spec = DickeSpecSUD(n, kvec)
        circuit = build_fanout_const_sud(spec)
        ell = spec.n.bit_length()
        flags = [w for w in circuit.register.ids if str(w).startswith("f")]
        copies = [w for w in circuit.register.ids if str(w).startswith("c")]
        assert len(flags) == (spec.d - 1) * ell
        assert len(copies) == spec.n * ((spec.d - 1) * ell - 1)


def test_fanout_sud_acceptance_small():
    spec = DickeSpecSUD(2, (1, 1, 0))
    report = run_postselected(build_fanout_const_sud(spec), sud_dicke(spec))
    assert report.acceptance_probability == pytest.approx(probability_sud(2, (1, 1, 0)).probability, abs=1e-9)
    assert report.conditional_fidelity >= 1 - 1e-9


def test_conditional_state_purity():
    # accepted branch has support only on the target charge shell
    spec = DickeSpecSpinS(3, 1, 2)
    circuit = build_qpe_log_spin_s(spec)
    wires, digits = circuit.accept_rule
    _, conditional = project_on_outcome(circuit.run(), wires, digits)
    assert conditional.norm() == pytest.approx(1.0, abs=1e-12)
    reg = conditional.register
    for index, amp in enumerate(conditional.amplitudes):
        if abs(amp) > 1e-12:
            assert sum(reg.digits_of(index)[: spec.n]) == spec.k


def test_conditional_state_purity_sud():
    spec = DickeSpecSUD(3, (1, 2, 0))
    circuit = build_hadamard_test_sud(spec)
    wires, digits = circuit.accept_rule
    _, conditional = project_on_outcome(circuit.run(), wires, digits)
    reg = conditional.register
    for index, amp in enumerate(conditional.amplitudes):
        if abs(amp) > 1e-12:
            sites = reg.digits_of(index)[: spec.n]
            assert tuple(sites.count(level) for level in range(spec.d)) == spec.kvec


def test_qpe_and_hadamard_agree_for_sud_at_off_optimal_boost():
    spec = DickeSpecSUD(3, (1, 1, 1))
    xi = (0.7, 0.5, 0.2)
    a = run_postselected(build_qpe_log_sud(spec, xi=xi), sud_dicke(spec))
    b = run_postselected(build_hadamard_test_sud(spec, xi=xi), sud_dicke(spec))
    assert abs(a.acceptance_probability - b.acceptance_probability) < 1e-10
    assert a.conditional_fidelity >= 1 - 1e-9 and b.conditional_fidelity >= 1 - 1e-9


def test_ancilla_census_per_method():
    from quditdicke.report import count_resources

    spec = DickeSpecSpinS(3, 2, 2)  # 2sn = 6, ell = 3
    _, _, census = count_resources(build_qpe_log_spin_s(spec))
    assert census == [[2, 3]]
    _, _, census = count_resources(build_hadamard_test_spin_s(spec))
    assert census == [[7, 1]]
    _, _, census = count_resources(build_fanout_const_spin_s(spec))
    assert census == [[2, 3], [3, 6]]  # ell flags, n*(ell-1) copies

    sud = DickeSpecSUD(3, (1, 1, 1))  # ell = 2
    _, _, census = count_resources(build_qpe_log_sud(sud))
    assert census == [[2, 4]]
    _, _, census = count_resources(build_hadamard_test_sud(sud))
    assert census == [[4, 2]]
    _, _, census = count_resources(build_fanout_const_sud(sud))
    assert census == [[2, 4], [3, 9]]  # (d-1)ell flags, n((d-1)ell - 1) copies


def test_run_postselected_requires_accept_rule():
    reg = QuditRegister.of_dims([2])
    from quditdicke.sim import Circuit

    with pytest.raises(ValueError, match="circuit has no accept rule to postselect on"):
        run_postselected(Circuit(reg, []), new_basis_state(reg, (0,)))


def test_run_postselected_reports_impossible_acceptance_as_failure():
    from quditdicke.sim import Circuit

    reg = QuditRegister([("s1", 2), ("q0", 2)])
    circuit = Circuit(reg, [], accept_rule=(("q0",), (1,)), meta={"system_wires": ("s1",)})
    oracle = new_basis_state(QuditRegister.of_dims([2]), (0,))
    report = run_postselected(circuit, oracle)
    assert report.acceptance_probability == 0.0
    assert report.conditional_fidelity == 0.0
    assert report.expected_repetitions == math.inf
    assert any("probability 0" in note for note in report.notes)


def test_impossible_acceptance_report_is_strict_json():
    import json

    from quditdicke.report import RunReport
    from quditdicke.sim import Circuit

    reg = QuditRegister([("s1", 2), ("q0", 2)])
    circuit = Circuit(reg, [], accept_rule=(("q0",), (1,)), meta={"system_wires": ("s1",)})
    report = run_postselected(circuit, new_basis_state(QuditRegister.of_dims([2]), (0,)))
    text = report.to_json()

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    assert json.loads(text, parse_constant=reject)["expected_repetitions"] is None
    assert RunReport.from_json(text) == report


def test_empty_accept_rule_is_the_certain_outcome_with_and_without_shots():
    from quditdicke.sim import Circuit

    spec = DickeSpecSpinS(2, 1, 1)
    built = build_hadamard_test_spin_s(spec)
    circuit = Circuit(built.register, built.ops, accept_rule=((), ()), meta=built.meta)
    exact = run_postselected(circuit, spin_s_dicke(spec))
    sampled = run_postselected(circuit, spin_s_dicke(spec), shots=10, seed=1)
    assert exact.acceptance_probability == pytest.approx(1.0)
    assert sampled.acceptance_probability == exact.acceptance_probability
    assert sampled.sampled_frequency == 1.0


def test_sampled_frequency_is_a_report_field():
    from quditdicke.report import RunReport

    spec = DickeSpecSpinS(2, 2, 2)
    circuit = build_hadamard_test_spin_s(spec)
    report = run_postselected(circuit, spin_s_dicke(spec), shots=500, seed=3)
    note = [s for s in report.notes if s.startswith("sampled acceptance frequency")]
    assert report.sampled_frequency == float(note[0].split()[3])
    assert RunReport.from_json(report.to_json()).sampled_frequency == report.sampled_frequency
    assert run_postselected(circuit, spin_s_dicke(spec)).sampled_frequency is None


def test_exported_qpe_circuit_simulates_identically():
    # the exchange format preserves the full pipeline, Fourier block included
    from quditdicke.serialize import circuit_from_json, circuit_to_json

    spec = DickeSpecSpinS(2, 2, 3)
    circuit = build_qpe_log_spin_s(spec)
    rebuilt = circuit_from_json(circuit_to_json(circuit))
    assert np.allclose(rebuilt.run().amplitudes, circuit.run().amplitudes, atol=1e-10)
    wires, digits = rebuilt.accept_rule
    probability, _ = project_on_outcome(rebuilt.run(), wires, digits)
    assert probability == pytest.approx(probability_spin_s(2, 2, 3).probability, abs=1e-9)


def test_reloaded_circuit_verifies():
    # a reloaded circuit has integer wire ids and no builder metadata; its
    # system is still the register's first n wires
    from quditdicke.serialize import circuit_from_json, circuit_to_json

    spec = DickeSpecSpinS(2, 1, 1)
    circuit = build_hadamard_test_spin_s(spec)
    original = run_postselected(circuit, spin_s_dicke(spec))
    reloaded = run_postselected(circuit_from_json(circuit_to_json(circuit)), spin_s_dicke(spec))
    assert reloaded.acceptance_probability == original.acceptance_probability
    assert reloaded.conditional_fidelity == original.conditional_fidelity
    assert reloaded.ancilla_census == original.ancilla_census


def test_run_postselected_on_deterministic_circuit():
    from quditdicke.sequential import build_sequential_spin_s

    spec = DickeSpecSpinS(3, 1, 2)
    report = run_postselected(build_sequential_spin_s(spec), spin_s_dicke(spec))
    assert report.acceptance_probability == pytest.approx(1.0, abs=1e-10)
    assert report.conditional_fidelity >= 1 - 1e-9


def test_sampling_notes_are_deterministic():
    spec = DickeSpecSpinS(2, 1, 1)
    circuit = build_hadamard_test_spin_s(spec)
    oracle = spin_s_dicke(spec)
    first = run_postselected(circuit, oracle, shots=2000, seed=99)
    again = run_postselected(circuit, oracle, shots=2000, seed=99)
    note = [s for s in first.notes if s.startswith("sampled")]
    assert note == [s for s in again.notes if s.startswith("sampled")]
    frequency = float(note[0].split()[3])
    sigma = math.sqrt(0.5 * 0.5 / 2000)
    assert abs(frequency - 0.5) < 5 * sigma


@pytest.mark.parametrize(
    "spec, seed",
    [
        pytest.param(DickeSpecSpinS(2, 1, 1), 0, id="0"),
        pytest.param(DickeSpecSpinS(2, 1, 1), 7, id="7"),
        pytest.param(DickeSpecSpinS(2, 1, 1), 1234, id="1234"),
        # the batch of the benchmark's sample workload
        pytest.param(DickeSpecSpinS(8, 1, 4), 11, id="n8-k4-11"),
    ],
)
def test_shot_counts_in_blocks_equal_one_draw(spec, seed):
    # every outcome, the near-zero tail of the charge readout too, where the CDF ties at 1.0
    from quditdicke.sim import _BLOCK, _count_outcome, outcome_index

    circuit = build_qpe_log_spin_s(spec)
    state = circuit.run()
    wires, digits = circuit.accept_rule
    probs = outcome_distribution(state, wires)
    accept = outcome_index(circuit.register, wires, digits)
    for shots in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
        draws = np.random.default_rng(seed).choice(probs.size, size=shots, p=probs / probs.sum())
        for index in range(probs.size):
            assert _count_outcome(state, wires, index, seed, shots) == np.count_nonzero(draws == index), (shots, index)
        report = run_postselected(circuit, spin_s_dicke(spec), shots=shots, seed=seed)
        assert report.sampled_frequency == np.count_nonzero(draws == accept) / shots


def test_negative_shots_are_rejected():
    spec = DickeSpecSpinS(2, 1, 1)
    with pytest.raises(ValueError, match="shots"):
        run_postselected(build_qpe_log_spin_s(spec), spin_s_dicke(spec), shots=-5, seed=3)


def test_report_seed_reproduces_the_sampled_frequency():
    spec = DickeSpecSpinS(3, 1, 1)
    circuit, oracle = build_qpe_log_spin_s(spec), spin_s_dicke(spec)
    unseeded = run_postselected(circuit, oracle, shots=5000)
    assert unseeded.seed == 0
    assert run_postselected(circuit, oracle, shots=5000, seed=unseeded.seed).sampled_frequency == unseeded.sampled_frequency
    seeded = run_postselected(circuit, oracle, shots=5000, seed=41)
    assert seeded.seed == 41
    assert run_postselected(circuit, oracle, shots=5000, seed=seeded.seed).sampled_frequency == seeded.sampled_frequency
    # without shots nothing is drawn, so no seed is reported, whether or not one was given
    assert run_postselected(circuit, oracle).seed is None
    assert run_postselected(circuit, oracle, seed=5).seed is None


@pytest.mark.parametrize(
    "build, spec",
    [
        # the single-shot state of the benchmark's sample workload, accept wire h
        pytest.param(build_hadamard_test_spin_s, DickeSpecSpinS(8, 2, 8), id="hadamard-spin1-n8-k8"),
        pytest.param(build_fanout_const_sud, DickeSpecSUD(3, (1, 1, 1)), id="fanout-sud-111"),
    ],
)
def test_collapse_is_the_block_over_the_root(build, spec):
    # the collapse multiplies by 1 / sqrt(P), which numpy's complex / real computes too: equal
    # values, bit for bit at every nonzero word, and only the sign of a zero word may differ
    from quditdicke.sim import _digits_of, _outcome_block

    circuit = build(spec)
    state = circuit.run()
    wires = circuit.accept_rule[0]
    dims = [state.register.dim(w) for w in wires]
    for index in range(math.prod(dims)):
        digits = _digits_of(index, dims)
        select, block, probability = _outcome_block(state, wires, digits)
        if probability == 0.0:
            continue
        _, collapsed = project_on_outcome(state, wires, digits)
        got, expected = select(collapsed.amplitudes).ravel(), (block / math.sqrt(probability)).ravel()
        assert np.count_nonzero(collapsed.amplitudes) == np.count_nonzero(got)
        assert np.array_equal(got, expected)
        got, expected = got.view(np.float64), expected.view(np.float64)
        nonzero = expected != 0.0
        assert np.array_equal(got[nonzero].view(np.uint64), expected[nonzero].view(np.uint64))


@pytest.mark.parametrize("method", ("qpe-log", "hadamard"))
def test_acceptance_probability_is_the_verify_readout(method):
    from quditdicke.suites import spin_s_grid

    for spec in spin_s_grid(2, 4):
        circuit = BUILDERS["spin-s"][method](spec)
        report = run_postselected(circuit, spin_s_dicke(spec))
        assert accepted_branch(circuit)[1] == report.acceptance_probability


@pytest.mark.parametrize("method", ("qpe-log", "hadamard", "fanout"))
@pytest.mark.parametrize("family", ("spin-s", "sud"))
def test_seeded_run_reports_the_unseeded_p_and_f(family, method):
    from quditdicke.suites import spin_s_grid, sud_grid

    specs = list(spin_s_grid(3, 4) if family == "spin-s" else sud_grid(3, 4))
    assert family == "spin-s" or DickeSpecSUD(4, (0, 0, 4)) in specs
    for spec in specs:
        circuit = BUILDERS[family][method](spec)
        if circuit.register.size > 6000:
            continue
        oracle = spin_s_dicke(spec) if family == "spin-s" else sud_dicke(spec)
        unseeded, seeded = run_postselected(circuit, oracle), run_postselected(circuit, oracle, shots=1, seed=0)
        assert (seeded.acceptance_probability, seeded.conditional_fidelity) == (unseeded.acceptance_probability, unseeded.conditional_fidelity), spec


def test_shot_counts_hold_one_block_of_draws():
    import tracemalloc

    from quditdicke.sim import _BLOCK

    spec = DickeSpecSpinS(2, 1, 1)
    circuit, oracle = build_qpe_log_spin_s(spec), spin_s_dicke(spec)
    run_postselected(circuit, oracle, shots=1, seed=5)  # one-time allocations would otherwise inflate the 1-shot peak
    peaks = []
    for shots in (1, 4 * _BLOCK + 1):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_postselected(circuit, oracle, shots=shots, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    # one block of float64 uniforms is held at a time, beside its boolean comparison mask;
    # all the shots at once would hold 4 * _BLOCK + 1 uniforms
    assert peaks[1] - peaks[0] < 2 * 8 * _BLOCK + 2**16


# sha256 of circuit_to_json, wire ids and layer tags, recorded from the
# per-family builders; any change to what a builder emits changes a digest
PINNED_BUILDS = [
    (build_sequential_spin_s, DickeSpecSpinS(3, 2, 3), "2286c1b998c78a5518eafa30b03749cc09a862bcd1a8a41579071d033c7fedc1"),
    (build_sequential_spin_s, DickeSpecSpinS(4, 1, 2), "3e350cd9a563b0a547b455dbfc582ab9c00aeb523dfa837e9f47c8087f4fe4de"),
    (build_sequential_sud, DickeSpecSUD(4, (2, 1, 1)), "45143d4e0807251d23bfff8e1ea95f17b506f0ff57c5a30db1e99a7868a36148"),
    (build_sequential_sud, DickeSpecSUD(5, (2, 2, 1)), "69a870b167fce61bf1bcaa0657324b7aefd31773c630b603523e3713c7f7e5df"),
    (build_qpe_log_spin_s, DickeSpecSpinS(2, 2, 2), "1f62bf045abbe36c8c1348a8491a1e8274514b6cd4a71c5c1a641309de075033"),
    (build_qpe_log_spin_s, DickeSpecSpinS(3, 1, 1), "78afd1dca4b2980e1a0b5c11b3cfc7b1887faa534919ab8bf0ee6bff48bda888"),
    (build_hadamard_test_spin_s, DickeSpecSpinS(2, 2, 2), "820db40c5527907537c3c464859581147e45b7fa2d6ba462804b35f6b20b2056"),
    (build_hadamard_test_spin_s, DickeSpecSpinS(3, 1, 1), "3a86c6c361c13c7557776c32462b39537ad75d7f1487a26943e92d8a98fe1da9"),
    (build_fanout_const_spin_s, DickeSpecSpinS(2, 2, 2), "baf78f55eaf0defb4b7b8917a183fad2a5a4f926a61ef10a290b9e634cbc982a"),
    (build_fanout_const_spin_s, DickeSpecSpinS(3, 1, 1), "c47e9de365173188a4e8429b2ac40de5f1a96c8a5817f2ed4a324bcc08bc8bff"),
    (build_qpe_log_sud, DickeSpecSUD(2, (1, 1, 0)), "41f88333596860be10bb55ee15c0dd8dfeed4fb1847b5e8300ad097a766332a6"),
    (build_qpe_log_sud, DickeSpecSUD(3, (1, 1, 1)), "f39e66e96ccee56242dfdf771c0ad956932cb916dadb49d47b3370241ee7bad9"),
    (build_hadamard_test_sud, DickeSpecSUD(2, (1, 1, 0)), "e3f4ea1317eeee8575706bc29c77de9f6ad8b4c75d1c7e2f87c2e73ba8a3e6df"),
    (build_hadamard_test_sud, DickeSpecSUD(3, (1, 1, 1)), "f2f16a2dc9814ea9b2806f872747cf857c1390be461662291dbc5915b32bc8f2"),
    (build_fanout_const_sud, DickeSpecSUD(2, (1, 1, 0)), "01680f9f7bb9479e732833ce3afd1c5346bc211314d12849ee86a50e622fc42f"),
    (build_fanout_const_sud, DickeSpecSUD(3, (1, 1, 1)), "71f1d275c94bb6863b6253714d1df00b31c11a5686d13854ba74715415232d83"),
]


@pytest.mark.parametrize(
    "build, spec, expected", PINNED_BUILDS, ids=[f"{build.__name__}-n{spec.n}" for build, spec, _ in PINNED_BUILDS]
)
def test_builder_output_is_pinned(build, spec, expected):
    import hashlib

    from quditdicke.serialize import circuit_to_json

    circuit = build(spec)
    text = "\n".join([circuit_to_json(circuit), repr(circuit.register.ids), repr([op.layer_tag for op in circuit.ops])])
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def _criterion_3_circuits(methods):
    from quditdicke.suites import spin_s_grid, sud_grid

    for spec in [*spin_s_grid(3, 4), *sud_grid(3, 4)]:
        family = "spin-s" if isinstance(spec, DickeSpecSpinS) else "sud"
        for method in methods:
            yield BUILDERS[family][method](spec)


def _op_key(op):
    params = tuple(sorted((k, v.tobytes().hex() if isinstance(v, np.ndarray) else repr(v)) for k, v in op.params.items()))
    return (op.kind, op.targets, params, op.controls, op.layer_tag)


def test_each_wire_sees_the_same_ops_in_the_same_order():
    # a builder may move an op only past ops on disjoint wires, which keeps the unitary; then every
    # wire still sees the same ops in the same order, and this digest, recorded before the charge
    # registers' closing ops moved up, does not change
    import hashlib

    digest = hashlib.sha256()
    for circuit in _criterion_3_circuits(("qpe-log", "hadamard", "fanout")):
        per_wire = {w: [] for w in circuit.register.ids}
        for op in circuit.ops:
            for w in op.wires():
                per_wire[w].append(_op_key(op))
        digest.update(repr(list(per_wire.items())).encode())
    assert digest.hexdigest() == "a6c4188d596de8e0c6a9e8767eb91e5a1d44bd8143c95236b3ccaabf8cd89164"


def test_each_accept_wire_is_closed_as_soon_as_its_last_dependency_allows():
    # an accept wire's last op follows the latest earlier op that shares one of its wires, with at most
    # other accept wires' closing ops in between, so a postselected run fixes each charge register
    # before the next one joins its group
    for circuit in _criterion_3_circuits(("sequential", "qpe-log", "hadamard", "fanout")):
        wires = [set(op.wires()) for op in circuit.ops]
        touched = [w for w in circuit.accept_rule[0] if any(w in ws for ws in wires)]
        closing = {max(i for i, ws in enumerate(wires) if w in ws) for w in touched}
        for i in closing:
            dependency = max((j for j in range(i) if wires[j] & wires[i]), default=-1)
            assert set(range(dependency + 1, i)) <= closing, (circuit.meta["method"], circuit.meta, i)


@pytest.mark.parametrize(
    "build, spec, peak, size",
    [
        (build_qpe_log_sud, DickeSpecSUD(4, (2, 1, 1)), 648, 5_184),
        (build_fanout_const_spin_s, DickeSpecSpinS(4, 1, 2), 8_192, 32_768),
        (build_fanout_const_sud, DickeSpecSUD(2, (1, 1, 0)), 13_122, 104_976),
    ],
)
def test_postselected_run_holds_one_charge_register_at_a_time(build, spec, peak, size, monkeypatch):
    import quditdicke.sim as sim

    circuit = build(spec)
    sizes = []

    def recording_apply_gate(state, op, **kwargs):
        sizes.append(state.register.size)
        return apply_gate(state, op, **kwargs)

    monkeypatch.setattr(sim, "apply_gate", recording_apply_gate)
    circuit.run(postselect=True)
    assert (max(sizes), circuit.register.size) == (peak, size)
