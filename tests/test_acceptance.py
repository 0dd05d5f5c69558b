"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete, or ``quditdicke verify`` for the same checks from the
command line.  Registers above the amplitude cap (10^6 by default) are
skipped and listed in the output; every simulated case is asserted at the
stated tolerance.  tests/data/verify_details.txt pins every criterion's
detail lines at the default cap: an unindented line names a criterion and
each indented line below it is one detail line.
"""

from pathlib import Path

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
from quditdicke.suites import (
    ALL_CRITERIA,
    DEFAULT_MAX_AMPLITUDES,
    criterion_parameter_optimality,
    criterion_sampling,
    spin_s_grid,
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


@pytest.mark.parametrize(
    "ident, spin_s_cases", [("criterion-1", len(list(spin_s_grid(3, 5)))), ("criterion-3", 3 * len(list(spin_s_grid(3, 4))))]
)
def test_criteria_fail_on_a_wrong_oracle(monkeypatch, ident, spin_s_cases):
    from quditdicke import suites

    exact = suites.spin_s_dicke

    def oracle_at_k_minus_1(spec):
        # charge k-1, wrapping k=0 to the largest charge: orthogonal to the target
        return exact(DickeSpecSpinS(spec.n, spec.twice_s, (spec.k - 1) % (spec.max_charge + 1)))

    monkeypatch.setattr(suites, "spin_s_dicke", oracle_at_k_minus_1)
    result = next(c for c in ALL_CRITERIA if c.ident == ident).run(DEFAULT_MAX_AMPLITUDES)
    assert not result.passed
    skipped = [line for line in result.details if line.startswith("skipped: ")]
    failures = [line for line in result.details if not line.startswith("skipped: ")]
    assert skipped == pinned_details()[ident]
    # every spin-s case that ran fails on its fidelity alone, and no other case fails
    assert all(line.startswith("spin-s ") and ": fidelity " in line for line in failures)
    assert len(failures) == spin_s_cases - sum(line.startswith("skipped: spin-s ") for line in skipped)
