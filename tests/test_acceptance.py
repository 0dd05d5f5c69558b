"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete, or ``quditdicke verify`` for the same checks from the
command line.  Registers above the amplitude cap (10^6 by default) are
skipped and listed in the output; every simulated case is asserted at the
stated tolerance.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quditdicke.qpe import BUILDERS
from quditdicke.reference import (
    DickeSpecSpinS,
    DickeSpecSUD,
    probability_spin_s,
    probability_sud,
    spin_s_dicke,
    sud_dicke,
)
from quditdicke.report import embedded_reference
from quditdicke.sequential import build_sequential_spin_s, build_sequential_sud
from quditdicke.sim import ATOL_PROBABILITY, FIDELITY_ACCEPT, fidelity, project_on_outcome
from quditdicke.suites import ALL_CRITERIA, DEFAULT_MAX_AMPLITUDES


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=[c.ident for c in ALL_CRITERIA])
def test_criterion(criterion):
    result = criterion.run(DEFAULT_MAX_AMPLITUDES)
    print(f"{'PASS' if result.passed else 'FAIL'} {result.ident}: {result.description}")
    skipped = [line for line in result.details if line.startswith("skipped")]
    if skipped:
        print(f"    ({len(skipped)} register(s) above the amplitude cap were skipped)")
    failures = [line for line in result.details if not line.startswith("skipped")]
    assert result.passed, "\n".join(failures)


@pytest.mark.parametrize(
    "name, row_of, row_line, contraction_line",
    [
        (
            "gamma_spin_s",
            lambda n, twice_s, k, i, j, m: (n, twice_s, k, i, j) == (3, 2, 3, 2, 1),
            "spin-s row n=3 2s=2 k=3 i=2 l=1: sum",
            "spin-s contraction n=3 2s=2 k=3 digits=",
        ),
        (
            "gamma_sud",
            lambda n, kvec, i, a, m: (n, tuple(kvec), i, tuple(a)) == (4, (2, 1, 1), 3, (1, 1, 0)),
            "sud row n=4 kvec=(2, 1, 1) i=3 a=(1, 1, 0): sum",
            "sud contraction n=4 kvec=(2, 1, 1) digits=",
        ),
    ],
    ids=["spin-s", "sud"],
)
def test_mps_criterion_catches_a_wrong_coefficient(monkeypatch, name, row_of, row_line, contraction_line):
    from quditdicke import suites

    exact = getattr(suites, name)

    def scaled(*args):
        return exact(*args) * (1.001 if row_of(*args) else 1.0)

    monkeypatch.setattr(suites, name, scaled)
    result = suites.criterion_mps_canonical()
    assert not result.passed
    assert sum(line.startswith(row_line) for line in result.details) == 1
    assert sum(line.startswith(contraction_line) for line in result.details) == 1
    assert len(result.details) == 2


@st.composite
def spec_method_cases(draw):
    """A small spec of either family with a method whose register holds at most 2^14 amplitudes."""
    method = draw(st.sampled_from(("sequential", "qpe-log", "hadamard", "fanout")))
    n = draw(st.integers(1, 5))
    if draw(st.sampled_from(("spin-s", "sud"))) == "spin-s":
        twice_s = draw(st.integers(1, 3))
        spec = DickeSpecSpinS(n, twice_s, draw(st.integers(0, twice_s * n)))
        closed_form = probability_spin_s(n, twice_s, spec.k).probability
        circuit = build_sequential_spin_s(spec) if method == "sequential" else BUILDERS["spin-s"][method](spec)
        oracle = spin_s_dicke(spec)
    else:
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=1, max_size=2)))
        kvec = tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))
        spec = DickeSpecSUD(n, kvec)
        closed_form = probability_sud(n, kvec).probability
        circuit = build_sequential_sud(spec) if method == "sequential" else BUILDERS["sud"][method](spec)
        oracle = sud_dicke(spec)
    assume(circuit.register.size <= 2**14)
    # a sequential circuit returns its ancillas with certainty
    return circuit, oracle, 1.0 if method == "sequential" else closed_form


@settings(deadline=None, max_examples=100)
@given(spec_method_cases())
def test_random_spec_prepares_its_oracle(case):
    circuit, oracle, closed_form = case
    wires, digits = circuit.accept_rule
    probability, conditional = project_on_outcome(circuit.run(), wires, digits)
    assert abs(probability - closed_form) <= ATOL_PROBABILITY
    assert fidelity(conditional, embedded_reference(circuit, oracle, dict(zip(wires, digits)))) >= FIDELITY_ACCEPT
