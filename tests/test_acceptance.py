"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete, or ``quditdicke verify`` for the same checks from the
command line.  Registers above the amplitude cap (10^6 by default) are
skipped and listed in the output; every simulated case is asserted at the
stated tolerance.
"""

import pytest

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
