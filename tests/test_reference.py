"""Tests for the closed-form states, combinatorics, and probability formulas."""

import math
from fractions import Fraction

import numpy as np
import pytest

from quditdicke.reference import (
    DickeSpecSpinS,
    DickeSpecSUD,
    apply_charge_conjugation,
    binomial,
    charge_moments_spin_s,
    charge_moments_sud,
    gamma_row_spin_s,
    gamma_row_sud,
    gamma_spin_s,
    gamma_sud,
    multinomial,
    probability_spin_s,
    probability_sud,
    spin_s_dicke,
    sud_dicke,
)
from quditdicke.levelsets import build_level_sets
from quditdicke.sim import QuditRegister, StateVector, fidelity
from quditdicke.suites import spin_s_grid, sud_grid


def digit_strings(n: int, dim: int) -> list[tuple[int, ...]]:
    register = QuditRegister.of_dims([dim] * n)
    return [register.digits_of(index) for index in range(register.size)]


def spin_s_by_index(spec: DickeSpecSpinS, strings) -> np.ndarray:
    """The closed form entry by entry, from exact integer numerators."""
    denominator = math.comb(spec.max_charge, spec.k)
    amps = [
        math.sqrt(float(math.prod(math.comb(spec.twice_s, m) for m in digits)) / float(denominator)) if sum(digits) == spec.k else 0.0
        for digits in strings
    ]
    return np.array(amps, dtype=np.complex128)


def sud_by_index(spec: DickeSpecSUD, strings) -> np.ndarray:
    amp = math.sqrt(1.0 / float(multinomial(spec.n, spec.kvec)))
    amps = [amp if tuple(digits.count(level) for level in range(spec.d)) == spec.kvec else 0.0 for digits in strings]
    return np.array(amps, dtype=np.complex128)


def test_binomial_convention():
    assert binomial(4, 2) == 6
    assert binomial(7, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    assert binomial(200, 100) == math.comb(200, 100)
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_multinomial():
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(5, (5, 0, 0)) == 1
    assert multinomial(4, (2, 2)) == 6
    with pytest.raises(ValueError):
        multinomial(4, (1, 1, 1))


def test_spec_validation():
    with pytest.raises(ValueError):
        DickeSpecSpinS(3, 1, 4)
    with pytest.raises(ValueError):
        DickeSpecSpinS(0, 1, 0)
    with pytest.raises(ValueError):
        DickeSpecSUD(3, (1, 1))
    with pytest.raises(ValueError):
        DickeSpecSUD(3, (4, -1))


@pytest.mark.parametrize(
    "make, what",
    [
        (lambda: DickeSpecSpinS(2.5, 1, 1), "site count n"),
        (lambda: DickeSpecSpinS(2, 1.5, 1), "twice_s"),
        (lambda: DickeSpecSpinS(2, 1, 1.5), "charge k"),
        (lambda: DickeSpecSUD(2.5, (1, 1, 0)), "site count n"),
        (lambda: DickeSpecSUD(2, (1.5, 1.5, 0)), "occupation"),
        (lambda: multinomial(3, (1.5, 1.5)), "occupation"),
        (lambda: probability_sud(3, (1.5, 1.5)), "occupation"),
        (lambda: probability_spin_s(2, 1, 1.5), "charge k"),
    ],
    ids=["spin-n", "spin-twice-s", "spin-k", "sud-n", "sud-kvec", "multinomial", "probability-sud", "probability-spin"],
)
def test_spec_integer_field_with_a_fractional_part_is_rejected(make, what):
    # refused, not truncated: DickeSpecSUD(2, (1.5, 1.5, 0)) must not become kvec (1, 1, 0)
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value).startswith(f"{what} must be an integer, got ")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: probability_spin_s(0, 1, 0), "site count n must be >= 1"),
        (lambda: probability_spin_s(2, 0, 0), "twice_s must be a positive integer"),
        (lambda: probability_sud(0, (0, 0)), "site count n must be >= 1"),
        (lambda: probability_sud(2, (2,)), "need at least two levels"),
    ],
    ids=["spin-no-sites", "spin-zero-spin", "sud-no-sites", "sud-one-level"],
)
def test_closed_forms_refuse_what_the_specs_refuse(make, message):
    # the closed forms check their arguments by building the spec: no ZeroDivisionError, no one-level report
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("spec", [DickeSpecSpinS(3, 2, 2), DickeSpecSpinS(2, 1, 0), DickeSpecSUD(3, (1, 0, 2))], ids=str)
def test_spec_carries_its_family_facts(spec):
    spin = isinstance(spec, DickeSpecSpinS)
    closed_form = probability_spin_s(spec.n, spec.twice_s, spec.k) if spin else probability_sud(spec.n, spec.kvec)
    assert spec.closed_form() == closed_form
    assert spec.optimal_boost == closed_form.optimal_parameter
    oracle = spin_s_dicke(spec) if spin else sud_dicke(spec)
    assert spec.oracle().register.dims == oracle.register.dims
    assert np.array_equal(spec.oracle().amplitudes, oracle.amplitudes)
    if spin:
        assert (spec.family, spec.label) == ("spin-s", f"n={spec.n} 2s={spec.twice_s} k={spec.k}")
        assert spec.report_fields() == {"s": spec.twice_s / 2, "k": spec.k}
    else:
        assert (spec.family, spec.label) == ("sud", "n=3 kvec=(1, 0, 2)")
        assert spec.report_fields() == {"kvec": [1, 0, 2]}


def test_spec_integral_fields_of_other_types_become_ints():
    spin = DickeSpecSpinS(np.int64(2), 2.0, np.int64(1))
    assert spin == DickeSpecSpinS(2, 2, 1) and all(type(v) is int for v in (spin.n, spin.twice_s, spin.k))
    sud = DickeSpecSUD(np.int64(2), [np.int64(1), 1.0, 0])
    assert sud == DickeSpecSUD(2, (1, 1, 0)) and all(type(v) is int for v in (sud.n,) + sud.kvec)
    assert multinomial(2, (np.int64(1), 1.0)) == 2
    assert probability_sud(2, (np.int64(1), 1.0)) == probability_sud(2, (1, 1))


def test_spin_s_intro_example():
    # n=3 spin-1 state at charge 2: weight 2/sqrt(15) on digit strings with
    # a single 2, weight 1/sqrt(15) on strings written as 1+1
    state = spin_s_dicke(DickeSpecSpinS(3, 2, 2))
    reg = state.register
    for digits in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
        assert state.amplitudes[reg.flat_index(digits)] == pytest.approx(2 / math.sqrt(15))
    for digits in [(0, 0, 2), (0, 2, 0), (2, 0, 0)]:
        assert state.amplitudes[reg.flat_index(digits)] == pytest.approx(1 / math.sqrt(15))
    assert np.count_nonzero(state.amplitudes) == 6


def test_spin_s_edges_and_support():
    zero = spin_s_dicke(DickeSpecSpinS(4, 2, 0))
    assert zero.amplitudes[0] == 1.0
    half = spin_s_dicke(DickeSpecSpinS(2, 1, 1))
    reg = half.register
    assert half.amplitudes[reg.flat_index((0, 1))] == pytest.approx(1 / math.sqrt(2))
    assert half.amplitudes[reg.flat_index((1, 0))] == pytest.approx(1 / math.sqrt(2))
    # support is exactly the fixed-digit-sum shell
    state = spin_s_dicke(DickeSpecSpinS(3, 3, 5))
    for index, amp in enumerate(state.amplitudes):
        digit_sum = sum(state.register.digits_of(index))
        assert (abs(amp) > 0) == (digit_sum == 5)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_sud_intro_example():
    state = sud_dicke(DickeSpecSUD(3, (1, 1, 1)))
    nonzero = np.abs(state.amplitudes) > 0
    assert nonzero.sum() == 6
    assert np.allclose(np.abs(state.amplitudes[nonzero]), 1 / math.sqrt(6))


def test_sud_examples():
    trivial = sud_dicke(DickeSpecSUD(4, (4, 0, 0)))
    assert trivial.amplitudes[0] == 1.0
    pairs = sud_dicke(DickeSpecSUD(4, (2, 2)))
    nonzero = np.abs(pairs.amplitudes) > 0
    assert nonzero.sum() == 6
    assert np.allclose(np.abs(pairs.amplitudes[nonzero]), 1 / math.sqrt(6))
    # an unused top level changes the register dimension but not the support
    padded = sud_dicke(DickeSpecSUD(4, (2, 2, 0)))
    reg = padded.register
    live = {reg.digits_of(i) for i in np.flatnonzero(np.abs(padded.amplitudes) > 0)}
    assert live == {d for d in live if sorted(d) == [0, 0, 1, 1]} and len(live) == 6
    assert np.allclose(np.abs(padded.amplitudes[np.abs(padded.amplitudes) > 0]), 1 / math.sqrt(6))


def test_sud_reduces_to_spin_half_exactly():
    for n in range(1, 7):
        for k in range(n + 1):
            a = sud_dicke(DickeSpecSUD(n, (n - k, k)))
            b = spin_s_dicke(DickeSpecSpinS(n, 1, k))
            assert np.array_equal(a.amplitudes, b.amplitudes)


def test_gamma_spin_s_values():
    assert gamma_spin_s(2, 1, 1, 1, 0, 0) == pytest.approx(math.sqrt(0.5))
    assert gamma_spin_s(2, 1, 1, 1, 0, 1) == pytest.approx(math.sqrt(0.5))
    assert gamma_spin_s(3, 2, 2, 1, 0, 2) == pytest.approx(math.sqrt(binomial(4, 0) * binomial(2, 2) / binomial(6, 2)))
    # empty binomial and vanishing denominator both give 0, never NaN
    assert gamma_spin_s(3, 1, 1, 1, 1, 1) == 0.0
    assert gamma_spin_s(3, 1, 3, 3, 0, 0) == 0.0


def test_gamma_sud_values():
    value = gamma_sud(3, (1, 1, 1), 1, (0, 0, 0), 0)
    assert value == pytest.approx(math.sqrt(2 / 6))
    assert gamma_sud(3, (1, 1, 1), 2, (1, 0, 0), 0) == 0.0
    with pytest.raises(ValueError):
        gamma_sud(3, (1, 1, 1), 1, (1, 0, 0), 0)


def test_gamma_rows_complete():
    for i in range(1, 4):
        for j in range(3):
            row = [gamma_spin_s(3, 2, 2, i, j, m) for m in range(3)]
            total = sum(g * g for g in row)
            if any(row):
                assert total == pytest.approx(1.0, abs=1e-10)
    for a in [(0, 0, 0,), (1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        i = sum(a) + 1
        total = sum(gamma_sud(3, (1, 1, 1), i, a, m) ** 2 for m in range(3))
        assert total == pytest.approx(1.0, abs=1e-10)


def _exact_spin_s(n, twice_s, k, i, j, m):
    """The coefficient as an exact rational C(2s(n-i), k-j-m) C(2s, m) / C(2s(n-i+1), k-j), then one float."""
    den = binomial(twice_s * (n - i + 1), k - j)
    num = binomial(twice_s * (n - i), k - j - m) * binomial(twice_s, m) if den else 0
    return math.sqrt(float(Fraction(num, den))) if num else 0.0


def _exact_sud(n, kvec, i, a, m):
    """The coefficient as the exact multinomial ratio of the remaining occupations, then one float."""
    rem = [kj - aj for kj, aj in zip(kvec, a)]
    if rem[m] == 0:
        return 0.0
    den = multinomial(n - i + 1, rem)
    rem[m] -= 1
    return math.sqrt(float(Fraction(multinomial(n - i, rem), den)))


def _bits(values):
    return [float(v).hex() for v in values]


def test_bond_rows_are_the_coefficients_bit_for_bit():
    # every row that criteria 1 and 7 (spin-s, 2s <= 3, n <= 5) and criteria 2 and 7 (d <= 4, n <= 5) read
    rows = 0
    for spec in spin_s_grid(3, 5):
        n, twice_s, k = spec.n, spec.twice_s, spec.k
        for i in range(1, n + 1):
            for j in range(k + 1):
                row = gamma_row_spin_s(n, twice_s, k, i, j)
                assert _bits(row) == _bits(gamma_spin_s(n, twice_s, k, i, j, m) for m in range(twice_s + 1))
                assert _bits(row) == _bits(_exact_spin_s(n, twice_s, k, i, j, m) for m in range(twice_s + 1))
                rows += 1
    for spec in sud_grid(4, 5):
        levels = build_level_sets(spec.kvec)
        for i in range(1, spec.n + 1):
            for a in levels.elements(i - 1):
                row = gamma_row_sud(spec.n, spec.kvec, i, a)
                assert _bits(row) == _bits(gamma_sud(spec.n, spec.kvec, i, a, m) for m in range(spec.d))
                assert _bits(row) == _bits(_exact_sud(spec.n, spec.kvec, i, a, m) for m in range(spec.d))
                rows += 1
    assert rows == 3787  # the grids are not empty


def test_bond_coefficients_keep_their_argument_checks():
    assert gamma_spin_s(3, 1, 1, 1, 0, 2) == 0.0  # a level above 2s emits nothing
    assert gamma_spin_s(3, 1, 1, 1, 0, -1) == 0.0
    with pytest.raises(ValueError, match="level 3 out of range"):
        gamma_sud(3, (1, 1, 1), 1, (0, 0, 0), 3)
    with pytest.raises(ValueError, match="wrong length"):
        gamma_row_sud(3, (1, 1, 1), 1, (0, 0))
    with pytest.raises(ValueError, match="not a level-1 element"):
        gamma_row_sud(3, (1, 1, 1), 2, (2, 0, 0))
    with pytest.raises(ValueError, match="do not sum to n=4"):
        gamma_row_sud(4, (1, 1, 1), 1, (0, 0, 0))


def test_oracles_match_the_closed_form_entry_by_entry():
    strings = {}
    for spec in spin_s_grid(3, 5):
        expected = spin_s_by_index(spec, strings.setdefault((spec.n, spec.dim), digit_strings(spec.n, spec.dim)))
        assert spin_s_dicke(spec).amplitudes.tobytes() == expected.tobytes(), spec
    for spec in sud_grid(4, 5):
        expected = sud_by_index(spec, strings.setdefault((spec.n, spec.d), digit_strings(spec.n, spec.d)))
        assert sud_dicke(spec).amplitudes.tobytes() == expected.tobytes(), spec


@pytest.mark.parametrize(
    "spec",
    [DickeSpecSpinS(15, 1, 7), DickeSpecSUD(1, (0,) * 63 + (1,)), DickeSpecSUD(2, (0,) * 44 + (1, 1))],
    ids=["spin-half-n15-k7", "sud-n1-d64", "sud-n2-d46"],
)
def test_pinned_oracle_matches_the_closed_form_entry_by_entry(spec):
    # with many empty levels, a radix-(n+1) key over every level would overflow int64
    if isinstance(spec, DickeSpecSpinS):
        expected = spin_s_by_index(spec, digit_strings(spec.n, spec.dim))
        state = spin_s_dicke(spec)
    else:
        expected = sud_by_index(spec, digit_strings(spec.n, spec.d))
        state = sud_dicke(spec)
    assert state.amplitudes.tobytes() == expected.tobytes()


def test_charge_moments_match_an_index_by_index_count():
    rng = np.random.default_rng(5)
    for n, dim in [(4, 3), (3, 4), (6, 2)]:
        register = QuditRegister.of_dims([dim] * n)
        amps = rng.normal(size=register.size) + 1j * rng.normal(size=register.size)
        state = StateVector(register, amps / np.linalg.norm(amps))
        weights = np.abs(state.amplitudes) ** 2
        strings = digit_strings(n, dim)

        def moments(values):
            values = np.array(values, dtype=float)
            mean = float(np.dot(weights, values))
            return mean, float(np.dot(weights, values**2) - mean**2)

        assert charge_moments_spin_s(state, dim - 1) == moments([sum(digits) for digits in strings])
        for level in range(1, dim):
            assert charge_moments_sud(state, dim, level) == moments([digits.count(level) for digits in strings])


def test_charge_conjugation():
    state = spin_s_dicke(DickeSpecSpinS(3, 2, 2))
    mirror = spin_s_dicke(DickeSpecSpinS(3, 2, 4))
    assert fidelity(apply_charge_conjugation(state, 2), mirror) == pytest.approx(1.0, abs=1e-10)
    # spin 1/2: plain bit reversal
    flip = apply_charge_conjugation(spin_s_dicke(DickeSpecSpinS(1, 1, 0)), 1)
    assert np.allclose(flip.amplitudes, [0.0, 1.0])
    # involution
    twice = apply_charge_conjugation(apply_charge_conjugation(state, 2), 2)
    assert np.array_equal(twice.amplitudes, state.amplitudes)


def test_charge_moments_spin_s():
    state = spin_s_dicke(DickeSpecSpinS(4, 2, 3))
    mean, variance = charge_moments_spin_s(state, 2)
    assert mean == pytest.approx(3.0, abs=1e-10)
    assert variance == pytest.approx(0.0, abs=1e-10)
    zero = spin_s_dicke(DickeSpecSpinS(4, 2, 0))
    assert charge_moments_spin_s(zero, 2) == (0.0, 0.0)
    # equal mix of charges 1 and 2 has variance 1/4
    a = spin_s_dicke(DickeSpecSpinS(3, 1, 1))
    b = spin_s_dicke(DickeSpecSpinS(3, 1, 2))
    mix = StateVector(a.register, (a.amplitudes + b.amplitudes) / math.sqrt(2))
    mean, variance = charge_moments_spin_s(mix, 1)
    assert mean == pytest.approx(1.5, abs=1e-10)
    assert variance == pytest.approx(0.25, abs=1e-10)


def test_charge_moments_sud():
    state = sud_dicke(DickeSpecSUD(4, (2, 1, 1)))
    for level, expected in [(1, 1.0), (2, 1.0)]:
        mean, variance = charge_moments_sud(state, 3, level)
        assert mean == pytest.approx(expected, abs=1e-10)
        assert variance == pytest.approx(0.0, abs=1e-10)
    zeros = sud_dicke(DickeSpecSUD(3, (3, 0, 0)))
    for level in (1, 2):
        assert charge_moments_sud(zeros, 3, level) == (0.0, 0.0)
    # level counts plus the implied level-0 count exhaust the sites
    state = sud_dicke(DickeSpecSUD(5, (2, 2, 1)))
    occupied = sum(charge_moments_sud(state, 3, level)[0] for level in (1, 2))
    assert 5 - occupied == pytest.approx(2.0, abs=1e-10)


def test_probability_spin_s():
    report = probability_spin_s(2, 1, 1)
    assert report.optimal_parameter == pytest.approx(0.5)
    assert report.probability == pytest.approx(0.5)
    assert probability_spin_s(5, 2, 0).probability == 1.0
    report = probability_spin_s(8, 1, 4)
    assert report.probability == pytest.approx(70 / 256, abs=1e-12)


def test_probability_sud():
    assert probability_sud(4, (4, 0, 0)).probability == pytest.approx(1.0)
    assert probability_sud(3, (1, 1, 1)).probability == pytest.approx(2 / 9, abs=1e-12)
    assert probability_sud(4, (2, 2)).probability == pytest.approx(3 / 8, abs=1e-12)
    xi = probability_sud(4, (2, 1, 1)).optimal_parameter
    assert xi == tuple(math.sqrt(v / 4) for v in (2, 1, 1))


def test_normalization_at_scale():
    # half a million amplitudes, still unit norm to 1e-12
    state = spin_s_dicke(DickeSpecSpinS(18, 1, 9))
    assert state.register.size == 2**18
    assert abs(state.norm() - 1.0) < 1e-12
    state = sud_dicke(DickeSpecSUD(12, (4, 4, 4)))
    assert state.register.size == 3**12
    assert abs(state.norm() - 1.0) < 1e-12


def test_probability_argmax_on_grid():
    # 1001-point scan of the single-parameter boost
    n, twice_s, k = 3, 2, 4
    total = twice_s * n
    grid = np.linspace(0.0, 1.0, 1001)
    values = [binomial(total, k) * p**k * (1 - p) ** (total - k) for p in grid]
    best = int(np.argmax(values))
    target = int(np.argmin(np.abs(grid - k / total)))
    assert best == target
