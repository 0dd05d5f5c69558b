"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete, or ``quditdicke verify`` for the same checks from the
command line.  Registers above the amplitude cap (10^6 by default) are
skipped and listed in the output; every simulated case is asserted at the
stated tolerance.  tests/data/verify_details.txt pins every criterion's
detail lines at the default cap: an unindented line names a criterion and
each indented line below it is one detail line.
"""

import hashlib
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quditdicke.qpe import BUILDERS, build_hadamard_test_spin_s, build_hadamard_test_sud
from quditdicke.reference import (
    DickeSpecSpinS,
    DickeSpecSUD,
    probability_spin_s,
    probability_sud,
    spin_s_dicke,
    sud_dicke,
)
from quditdicke.report import embedded_reference, verify_circuit
from quditdicke.sim import (
    ATOL_PROBABILITY,
    FIDELITY_ACCEPT,
    Circuit,
    fidelity,
    project_on_outcome,
    xd,
)
from quditdicke.suites import (
    ALL_CRITERIA,
    DEFAULT_MAX_AMPLITUDES,
    criterion_parameter_optimality,
    criterion_resource_scaling,
    criterion_sampling,
    run_all,
    spin_s_grid,
    sud_grid,
)


def pinned_details() -> dict[str, list[str]]:
    details: dict[str, list[str]] = {}
    for line in (Path(__file__).parent / "data" / "verify_details.txt").read_text().splitlines():
        if line.startswith("    "):
            details[ident].append(line[4:])
        else:
            ident = line
            details[ident] = []
    return details


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=[c.ident for c in ALL_CRITERIA])
def test_criterion(criterion):
    result = criterion.run(DEFAULT_MAX_AMPLITUDES)
    print(f"{'PASS' if result.passed else 'FAIL'} {result.ident}: {result.description}")
    skipped = [line for line in result.details if line.startswith("skipped")]
    if skipped:
        print(f"    ({len(skipped)} register(s) above the amplitude cap were skipped)")
    failures = [line for line in result.details if not line.startswith("skipped")]
    assert result.passed, "\n".join(failures)
    # the `verify` output stays byte-identical: the same detail lines in the same order
    assert result.details == pinned_details()[criterion.ident]


def test_sequential_amplitudes_match_the_oracle():
    # 1 - F is quadratic in an amplitude error, so criteria 1 and 2 read F and cannot see an error of 1e-8;
    # this reads every amplitude of the 305 circuits, after aligning the global phase on the largest oracle entry
    worst, count = 0.0, 0
    for spec in [*spin_s_grid(3, 5), *sud_grid(4, 5)]:
        spin = isinstance(spec, DickeSpecSpinS)
        circuit = BUILDERS["spin-s" if spin else "sud"]["sequential"](spec)
        wires, digits = circuit.accept_rule
        _, conditional = project_on_outcome(circuit.run(), wires, digits)
        oracle = embedded_reference(circuit, spin_s_dicke(spec) if spin else sud_dicke(spec), dict(zip(wires, digits)))
        top = np.argmax(np.abs(oracle.amplitudes))
        phase = conditional.amplitudes[top] / oracle.amplitudes[top]
        worst = max(worst, np.max(np.abs(conditional.amplitudes - phase / abs(phase) * oracle.amplitudes)))
        count += 1
    assert count == 305
    assert worst <= 1e-14


def _scale_row(name, hit):
    """Patch ``reference.<name>`` to scale each row whose arguments ``hit`` holds for by 1.001."""

    def patch(monkeypatch):
        from quditdicke import reference

        exact = getattr(reference, name)
        monkeypatch.setattr(reference, name, lambda *args: tuple(g * (1.001 if hit(*args) else 1.0) for g in exact(*args)))

    return patch


def _shift_after(spec, i, label):
    """Patch ``suites.bond_table`` to add 1 to every bond digit that ``label`` of ``spec`` leads to at site i."""

    def patch(monkeypatch):
        from quditdicke import suites

        exact = suites.bond_table

        def shifted(other):
            table = exact(other)
            if other != spec:
                return table
            site = [(a, row, tuple(t if t is None or a != label else t + 1 for t in after)) for a, row, after in table[i - 1]]
            return table[: i - 1] + (tuple(site),) + table[i:]

        monkeypatch.setattr(suites, "bond_table", shifted)

    return patch


@pytest.mark.parametrize(
    "patch, lines",
    [
        (
            _scale_row("gamma_row_spin_s", lambda n, twice_s, k, i, j: (n, twice_s, k, i, j) == (3, 2, 3, 2, 1)),
            ["spin-s row n=3 2s=2 k=3 i=2 l=1: sum", "spin-s contraction n=3 2s=2 k=3 digits="],
        ),
        (
            _scale_row("gamma_row_sud", lambda n, kvec, i, a: (n, tuple(kvec), i, tuple(a)) == (4, (2, 1, 1), 3, (1, 1, 0))),
            ["sud row n=4 kvec=(2, 1, 1) i=3 a=(1, 1, 0): sum", "sud contraction n=4 kvec=(2, 1, 1) digits="],
        ),
        # the rows stay exact, so only the contraction can see the relabel: level 0 now leads to the
        # wrong bond digit, and level 2 to a digit past site 4's, which drops its strings
        (
            _shift_after(DickeSpecSUD(4, (2, 1, 1)), 3, (1, 1, 0)),
            ["sud contraction n=4 kvec=(2, 1, 1) digits=(1, 0, 2, 0)"],
        ),
    ],
    ids=["spin-s", "sud", "sud-relabel"],
)
def test_mps_criterion_catches_a_wrong_coefficient(monkeypatch, patch, lines):
    from quditdicke import suites

    patch(monkeypatch)
    result = suites.criterion_mps_canonical()
    assert not result.passed
    for line in lines:
        assert sum(detail.startswith(line) for detail in result.details) == 1
    assert len(result.details) == len(lines)


@st.composite
def spec_method_cases(draw):
    """A small spec of either family with a method whose register holds at most 2^14 amplitudes."""
    method = draw(st.sampled_from(("sequential", "qpe-log", "hadamard", "fanout")))
    n = draw(st.integers(1, 5))
    if draw(st.sampled_from(("spin-s", "sud"))) == "spin-s":
        twice_s = draw(st.integers(1, 3))
        spec = DickeSpecSpinS(n, twice_s, draw(st.integers(0, twice_s * n)))
        closed_form = probability_spin_s(n, twice_s, spec.k).probability
        circuit = BUILDERS["spin-s"][method](spec)
        oracle = spin_s_dicke(spec)
    else:
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=1, max_size=2)))
        kvec = tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))
        spec = DickeSpecSUD(n, kvec)
        closed_form = probability_sud(n, kvec).probability
        circuit = BUILDERS["sud"][method](spec)
        oracle = sud_dicke(spec)
    assume(circuit.register.size <= 2**14)
    # a sequential circuit returns its ancillas with certainty
    return circuit, oracle, 1.0 if method == "sequential" else closed_form


def readouts(circuit, oracle):
    """(P, F) of verify_circuit's branch readout and of the register-sized cross-check:
    project_on_outcome on the full state, then fidelity against embedded_reference."""
    report = verify_circuit(circuit, oracle)
    wires, digits = circuit.accept_rule
    probability, conditional = project_on_outcome(circuit.run(), wires, digits)
    embedded = embedded_reference(circuit, oracle, dict(zip(wires, digits)))
    return (report.acceptance_probability, report.conditional_fidelity), (probability, fidelity(conditional, embedded))


def assert_same_readout(circuit, oracle):
    (block_p, block_f), (full_p, full_f) = readouts(circuit, oracle)
    # two simulations: the branch's ops after a fix multiply fewer columns, which BLAS may round differently
    assert abs(block_p - full_p) <= 4 * np.finfo(float).eps
    assert abs(block_f - full_f) <= 1e-12
    return full_p, full_f


@settings(deadline=None, max_examples=100)
@given(spec_method_cases())
def test_random_spec_prepares_its_oracle(case):
    circuit, oracle, closed_form = case
    probability, fid = assert_same_readout(circuit, oracle)
    assert abs(probability - closed_form) <= ATOL_PROBABILITY
    assert fid >= FIDELITY_ACCEPT


SMALL_SPECS = (DickeSpecSpinS(2, 2, 1), DickeSpecSUD(3, (2, 1)))


@pytest.mark.parametrize("method", ("sequential", "qpe-log", "hadamard", "fanout"))
@pytest.mark.parametrize("spec", SMALL_SPECS, ids=("spin-s", "sud"))
def test_block_readout_matches_the_projected_state(spec, method):
    spin = isinstance(spec, DickeSpecSpinS)
    circuit = BUILDERS["spin-s" if spin else "sud"][method](spec)
    assert_same_readout(circuit, spin_s_dicke(spec) if spin else sud_dicke(spec))


def test_block_readout_sees_an_ancilla_outside_the_accept_rule():
    spec = DickeSpecSpinS(2, 2, 1)
    built = BUILDERS["spin-s"]["fanout"](spec)
    copy = built.register.ids[spec.n]
    assert copy not in built.accept_rule[0]
    # a copy wire left at digit 1: the accept wires still read their digits, but no amplitude has every other ancilla at 0
    circuit = Circuit(built.register, built.ops + (xd(copy),), built.accept_rule, built.meta)
    (block_p, block_f), (full_p, full_f) = readouts(circuit, spin_s_dicke(spec))
    assert block_p == full_p > 0.0
    assert block_f < FIDELITY_ACCEPT and full_f < FIDELITY_ACCEPT


def test_block_readout_rejects_an_oracle_on_other_dims():
    circuit = BUILDERS["spin-s"]["qpe-log"](DickeSpecSpinS(2, 2, 1))
    with pytest.raises(ValueError):
        verify_circuit(circuit, spin_s_dicke(DickeSpecSpinS(2, 1, 1)))


def test_every_criterion_that_simulates_skips_above_the_cap():
    result = criterion_sampling(5000)
    assert result.passed
    assert result.details == [
        "skipped: spin-s fanout n=3 2s=2 k=3: register size 157464",
        "skipped: sud fanout n=2 kvec=(1, 1, 0): register size 104976",
    ]
    # the ten random specs of criterion 4 hold at most 640 amplitudes
    assert criterion_parameter_optimality(640).details == []
    result = criterion_parameter_optimality(100)
    sizes = [int(line.rsplit(" ", 1)[1]) for line in result.details]
    assert result.passed and sizes
    assert all(line.startswith("skipped: ") and " hadamard " in line for line in result.details)
    assert all(100 < size <= 640 for size in sizes)


SWEEP_GRID = [i / 100 for i in range(101)]
SWEEP_CASES = (
    (DickeSpecSpinS(3, 3, 2), SWEEP_GRID),
    # the first boost is the all-zero xi, which reads 0.0 without a simulation
    (DickeSpecSUD(3, (1, 0, 2)), [[0.0, 0.0, 0.0]] + [[x, 0.0, math.sqrt(2 / 3)] for x in SWEEP_GRID]),
)


# registers of 640 (spin-s) and 432 (sud) amplitudes: one sweep, sweeps of 3 or 4 boosts, and one boost per run
@pytest.mark.parametrize("cap", (DEFAULT_MAX_AMPLITUDES, 2000, 641))
@pytest.mark.parametrize("spec, boosts", SWEEP_CASES, ids=("spin-s", "sud"))
def test_boost_sweep_matches_per_point_simulation(spec, boosts, cap):
    from quditdicke import suites

    spin = isinstance(spec, DickeSpecSpinS)
    skips = []
    values = suites._boost_grid(spec, boosts, cap, skips)
    assert skips == []
    exact = []
    for boost in boosts:
        if not (spin or any(boost)):
            exact.append(0.0)
            continue
        circuit = build_hadamard_test_spin_s(spec, p=boost) if spin else build_hadamard_test_sud(spec, xi=boost)
        exact.append(project_on_outcome(circuit.run(), *circuit.accept_rule)[0])
    assert len(values) == len(boosts)
    assert np.max(np.abs(values - np.array(exact))) <= 1e-12
    assert np.argmax(values) == np.argmax(exact)


# sha256 of the float64 bytes of criterion 4's ten 101-point grids at the default cap, in draw order,
# recorded when each sweep still read a marginal of the full state over the accept wires and the grid
CRITERION_4_DIGEST = "fd0e999e7e5a0d0830a54d23e4cb6d1eead642bfd450c2cfcea75cc0672b0c7c"


def test_criterion_4_sweep_values_are_pinned(monkeypatch):
    from quditdicke import suites

    values, boost_grid = [], suites._boost_grid

    def recording(*args):
        values.append(boost_grid(*args))
        return values[-1]

    monkeypatch.setattr(suites, "_boost_grid", recording)
    assert criterion_parameter_optimality().passed
    swept = np.concatenate(values)
    assert swept.shape == (1010,)
    assert hashlib.sha256(swept.tobytes()).hexdigest() == CRITERION_4_DIGEST


def test_criterion_4_fails_on_a_shifted_boost(monkeypatch):
    from quditdicke import suites

    spin, sud = suites._site_amplitudes_spin_s, suites._site_amplitudes_sud
    monkeypatch.setattr(suites, "_site_amplitudes_spin_s", lambda twice_s, p: spin(twice_s, min(1.0, p + 0.1)))
    monkeypatch.setattr(suites, "_site_amplitudes_sud", lambda xi: sud([xi[0] + 0.1, *xi[1:]]))
    result = criterion_parameter_optimality()
    assert not result.passed
    # every spin-s argmax moves by 0.1; the two sud specs searched along an unoccupied level 0 keep theirs at xi = 0
    assert [line.split(" ", 1)[0] for line in result.details] == ["spin-s"] * 5 + ["sud"] * 3


CRITERION_4_SKIPS = {
    DEFAULT_MAX_AMPLITUDES: [],
    640: [],
    100: [
        "skipped: spin-s hadamard n=2 2s=3 k=3: register size 112",
        "skipped: spin-s hadamard n=3 2s=2 k=2: register size 189",
        "skipped: spin-s hadamard n=3 2s=3 k=2: register size 640",
        "skipped: spin-s hadamard n=2 2s=3 k=5: register size 112",
    ],
}


@pytest.mark.parametrize("cap", CRITERION_4_SKIPS)
def test_criterion_4_runs_no_register_above_the_cap(monkeypatch, cap):
    sizes = []
    run = Circuit.run

    def recording(circuit, *args, **kwargs):
        sizes.append(circuit.register.size)
        return run(circuit, *args, **kwargs)

    monkeypatch.setattr(Circuit, "run", recording)
    result = criterion_parameter_optimality(cap)
    assert result.passed and result.details == CRITERION_4_SKIPS[cap]
    assert sizes and max(sizes) <= cap
    if cap == DEFAULT_MAX_AMPLITUDES:
        assert len(sizes) == 10  # one sweep per spec


@pytest.mark.parametrize(
    "ident, spin_s_cases", [("criterion-1", len(list(spin_s_grid(3, 5)))), ("criterion-3", 3 * len(list(spin_s_grid(3, 4))))]
)
def test_criteria_fail_on_a_wrong_oracle(monkeypatch, ident, spin_s_cases):
    from quditdicke import reference

    exact = reference.spin_s_dicke

    def oracle_at_k_minus_1(spec):
        # charge k-1, wrapping k=0 to the largest charge: orthogonal to the target
        return exact(DickeSpecSpinS(spec.n, spec.twice_s, (spec.k - 1) % (spec.max_charge + 1)))

    # the spec's oracle calls reference.spin_s_dicke by name
    monkeypatch.setattr(reference, "spin_s_dicke", oracle_at_k_minus_1)
    result = next(c for c in ALL_CRITERIA if c.ident == ident).run(DEFAULT_MAX_AMPLITUDES)
    assert not result.passed
    skipped = [line for line in result.details if line.startswith("skipped: ")]
    failures = [line for line in result.details if not line.startswith("skipped: ")]
    assert skipped == pinned_details()[ident]
    # every spin-s case that ran fails on its fidelity alone, and no other case fails
    assert all(line.startswith("spin-s ") and ": fidelity " in line for line in failures)
    assert len(failures) == spin_s_cases - sum(line.startswith("skipped: spin-s ") for line in skipped)


def count_sequential_builds(monkeypatch):
    """Wrap both sequential entries of the method registry so that each build counts its spec."""
    built = Counter()

    def counting(build):
        def wrapped(spec):
            built[spec] += 1
            return build(spec)

        return wrapped

    for builders in BUILDERS.values():
        monkeypatch.setitem(builders, "sequential", counting(builders["sequential"]))
    return built


def only_criteria(monkeypatch, *idents):
    from quditdicke import suites

    monkeypatch.setattr(suites, "ALL_CRITERIA", tuple(c for c in ALL_CRITERIA if c.ident in idents))


def test_run_all_builds_each_sequential_circuit_once(monkeypatch):
    built = count_sequential_builds(monkeypatch)
    only_criteria(monkeypatch, "criterion-1", "criterion-2", "criterion-8")
    # a cap of one amplitude skips every simulation; criteria 1 and 2 still build every case
    results = run_all(1)
    assert [r.ident for r in results] == ["criterion-1", "criterion-2", "criterion-8"]
    assert results[2].passed and results[2].details == []
    assert set(built) == set(spin_s_grid(3, 5)) | set(sud_grid(4, 5))
    assert set(built.values()) == {1}
    # the record lives only for that call: criterion 8 run alone builds its 230 circuits again
    built.clear()
    assert criterion_resource_scaling().passed
    assert len(built) == 230 and set(built.values()) == {1}


def test_resource_count_catches_a_dropped_op_under_run_all_and_alone(monkeypatch):
    from quditdicke import suites

    exact = BUILDERS["spin-s"]["sequential"]
    target = DickeSpecSpinS(3, 2, 2)

    def drops_last_op(spec):
        circuit = exact(spec)
        if spec != target:
            return circuit
        return Circuit(circuit.register, circuit.ops[:-1], circuit.accept_rule, circuit.meta)

    monkeypatch.setitem(BUILDERS["spin-s"], "sequential", drops_last_op)
    expected = suites.spin_s_expected_gate_count(target)
    line = f"spin-s count n=3 2s=2 k=2: {expected - 1} vs {expected}"
    alone = criterion_resource_scaling()
    assert not alone.passed and alone.details == [line]
    only_criteria(monkeypatch, "criterion-1", "criterion-8")
    under_run_all = run_all(1)[1]
    assert under_run_all.ident == "criterion-8"
    assert not under_run_all.passed and under_run_all.details == [line]
