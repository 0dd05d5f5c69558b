"""Tests for the probabilistic builders: product states, readout, postselection."""

import math

import numpy as np
import pytest

from quditdicke.qpe import (
    ancilla_bits_spin_s,
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
from quditdicke.sim import (
    QuditRegister,
    StateVector,
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


def test_ancilla_bit_counts():
    assert ancilla_bits_spin_s(DickeSpecSpinS(3, 2, 1)) == 3  # 2sn+1 = 7
    assert ancilla_bits_spin_s(DickeSpecSpinS(1, 1, 0)) == 1
    assert ancilla_bits_spin_s(DickeSpecSpinS(4, 3, 5)) == 4  # 2sn+1 = 13


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
    ell = ancilla_bits_spin_s(spec)
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

    with pytest.raises(ValueError):
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


# sha256 of circuit_to_json, wire ids and layer tags, recorded from the
# per-family builders; any change to what a builder emits changes a digest
PINNED_BUILDS = [
    (build_qpe_log_spin_s, DickeSpecSpinS(2, 2, 2), "217ce4763b9f784f3340509b4abab7810c434126ce8c9f0bfbb974f1abc3f22f"),
    (build_qpe_log_spin_s, DickeSpecSpinS(3, 1, 1), "0fa86226a76ac8de94491807a6ba76563adcc6ce36d3edac60519e3eadce3086"),
    (build_hadamard_test_spin_s, DickeSpecSpinS(2, 2, 2), "bcb40f42f7ae6689c0fc7510a18ac6bd0ddcbf6c45b598681a9f3120d993de4d"),
    (build_hadamard_test_spin_s, DickeSpecSpinS(3, 1, 1), "9015ae3c1e4b11cf386bbf25588b8b74a9699c8c01cfe49063cb56fcfae9902f"),
    (build_fanout_const_spin_s, DickeSpecSpinS(2, 2, 2), "9a289d211743665851bb34eb7c45c5f16212591293a900ce9aafe92c0e8205e6"),
    (build_fanout_const_spin_s, DickeSpecSpinS(3, 1, 1), "6c8447c01643f11084222e871e0aeeb6c2714cf477fb4da81a39691e87668e18"),
    (build_qpe_log_sud, DickeSpecSUD(2, (1, 1, 0)), "594a343a4c6043ac8a18bdcc12667deeb891bdc599a9ae80f53e9bee1967f09c"),
    (build_qpe_log_sud, DickeSpecSUD(3, (1, 1, 1)), "dd42ec86a7a42d27935f6cfb4e27ac56067ca4ca44b04bdb9c016299f0248059"),
    (build_hadamard_test_sud, DickeSpecSUD(2, (1, 1, 0)), "e3f4ea1317eeee8575706bc29c77de9f6ad8b4c75d1c7e2f87c2e73ba8a3e6df"),
    (build_hadamard_test_sud, DickeSpecSUD(3, (1, 1, 1)), "91dcbd482b9a441213b03c06cee18de96688cf3f67fbbc354ff6aaee86438e13"),
    (build_fanout_const_sud, DickeSpecSUD(2, (1, 1, 0)), "5c1ad56855ec0f6956f02c6602f062a52ed3c6072c078f35016b6a7aacd2115e"),
    (build_fanout_const_sud, DickeSpecSUD(3, (1, 1, 1)), "ae32a8d5e7dda423ccf1e5356d686ce39920b358f31eca5d9763540a94d40850"),
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
