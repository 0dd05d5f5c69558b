"""Closed-form target states, exact combinatorics, and success probabilities.

Everything here is computed independently of the circuit builders so it
can serve as the oracle they are judged against.  Binomials and
multinomials are exact arbitrary-precision integers; an amplitude ratio
is an exact rational rounded once, by correctly rounded integer division,
before the final square root, which keeps the d=2 reduction of the
multilevel family bitwise identical to the spin-1/2 closed form.  The
bond coefficients come as rows, one per (site, bond label), so a row
evaluates its denominator once.  ``bond_table`` lists a spec's rows site
by site in bond-digit order, each with the bond digit that every site
level leads to: the sequential multilevel builder emits its blocks from
this table, and criterion 7 contracts the same table into the closed form.

Every quantity folded over the sites of a digit string (the charge sum,
the product of site weights, the occupation key, a level count) comes
from one site-by-site ``ufunc.outer`` fold, ``_site_reduce``, in the
register's F order.  No matrix of all digit strings is built, and site
weights multiply left to right, so a product below 2^53 is the exact
integer numerator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levelsets import build_level_sets
from .sim import QuditRegister, StateVector, _integral


def binomial(a: int, b: int) -> int:
    """Exact binomial coefficient, 0 whenever b < 0 or b > a."""
    if a < 0:
        raise ValueError("binomial requires a >= 0")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def multinomial(n: int, kvec) -> int:
    """n! / prod(k_i!) for nonnegative k_i summing to n."""
    kvec = tuple([_integral(k, "occupation") for k in kvec])
    if any(k < 0 for k in kvec):
        raise ValueError("occupation numbers must be nonnegative")
    if sum(kvec) != n:
        raise ValueError(f"occupations {kvec} do not sum to n={n}")
    out = 1
    rest = n
    for k in kvec:
        out *= math.comb(rest, k)
        rest -= k
    return out


@dataclass(frozen=True)
class DickeSpecSpinS:
    """Problem descriptor (n sites, spin s stored as 2s, total charge k).

    A spec is the one place for its family's facts: the family name, the
    detail-line label, the report's family fields, the optimal boost (p =
    k/(2sn), or xi_i = sqrt(k_i/n) for ``DickeSpecSUD``), the oracle and
    the closed-form success probability.  ``oracle`` and
    ``closed_form`` call this module's functions by name, so a caller that
    rebinds ``spin_s_dicke`` or ``probability_spin_s`` here sees every call.
    """

    family = "spin-s"
    n: int
    twice_s: int
    k: int

    def __post_init__(self):
        for name, what in (("n", "site count n"), ("twice_s", "twice_s"), ("k", "charge k")):
            object.__setattr__(self, name, _integral(getattr(self, name), what))
        if self.n < 1:
            raise ValueError("site count n must be >= 1")
        if self.twice_s < 1:
            raise ValueError("twice_s must be a positive integer")
        if not 0 <= self.k <= self.twice_s * self.n:
            raise ValueError(f"charge k={self.k} outside 0..{self.twice_s * self.n}")

    @property
    def dim(self) -> int:
        return self.twice_s + 1

    @property
    def s(self) -> float:
        return self.twice_s / 2.0

    @property
    def max_charge(self) -> int:
        return self.twice_s * self.n

    @property
    def label(self) -> str:
        return f"n={self.n} 2s={self.twice_s} k={self.k}"

    def report_fields(self) -> dict:
        return {"s": self.s, "k": self.k}

    @property
    def optimal_boost(self) -> float:
        return self.k / self.max_charge

    def oracle(self) -> StateVector:
        return spin_s_dicke(self)

    def closed_form(self) -> ProbabilityReport:
        return probability_spin_s(self.n, self.twice_s, self.k)


@dataclass(frozen=True)
class DickeSpecSUD:
    """Problem descriptor (n sites, occupation vector over d >= 2 levels), with the same family facts
    as ``DickeSpecSpinS``."""

    family = "sud"
    n: int
    kvec: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _integral(self.n, "site count n"))
        object.__setattr__(self, "kvec", tuple([_integral(k, "occupation") for k in self.kvec]))
        if self.n < 1:
            raise ValueError("site count n must be >= 1")
        if len(self.kvec) < 2:
            raise ValueError("need at least two levels")
        if any(not 0 <= k <= self.n for k in self.kvec):
            raise ValueError("each occupation must lie in 0..n")
        if sum(self.kvec) != self.n:
            raise ValueError(f"occupations {self.kvec} do not sum to n={self.n}")

    @property
    def d(self) -> int:
        return len(self.kvec)

    @property
    def label(self) -> str:
        return f"n={self.n} kvec={self.kvec}"

    def report_fields(self) -> dict:
        return {"kvec": list(self.kvec)}

    @property
    def optimal_boost(self) -> tuple[float, ...]:
        return tuple(math.sqrt(v / self.n) for v in self.kvec)

    def oracle(self) -> StateVector:
        return sud_dicke(self)

    def closed_form(self) -> ProbabilityReport:
        return probability_sud(self.n, self.kvec)


def _site_reduce(ufunc: np.ufunc, site_values: np.ndarray, n: int) -> np.ndarray:
    """Entry i is site_values[m_1] op ... op site_values[m_n] over the digits of index i,
    site 1 least significant (F order), folded left to right: each ``ufunc.outer``
    step joins one more site as the most significant axis."""
    out = site_values
    for _ in range(n - 1):
        out = ufunc.outer(site_values, out).ravel()
    return out


def spin_s_dicke(spec: DickeSpecSpinS) -> StateVector:
    """Closed-form charge-k state on n qudits of dimension 2s+1.

    The amplitude on a digit string with digits m_i summing to k is
    sqrt(prod_i C(2s, m_i) / C(2sn, k)); everything else is zero.
    """
    dim = spec.dim
    register = QuditRegister.of_dims([dim] * spec.n)
    sums = _site_reduce(np.add, np.arange(dim), spec.n)
    site_weights = np.array([binomial(spec.twice_s, m) for m in range(dim)], dtype=float)
    numerators = _site_reduce(np.multiply, site_weights, spec.n)
    denominator = float(binomial(spec.max_charge, spec.k))
    amps = np.where(sums == spec.k, np.sqrt(numerators / denominator), 0.0)
    return StateVector(register, amps.astype(np.complex128))


def sud_dicke(spec: DickeSpecSUD) -> StateVector:
    """Uniform superposition over all arrangements of the occupation multiset."""
    register = QuditRegister.of_dims([spec.d] * spec.n)
    # occupation key: the occupied levels weigh distinct powers of n+1 and every empty level the
    # next power, above any key of n occupied sites, so a key equals the target only at kvec
    occupied = [level for level, k in enumerate(spec.kvec) if k]
    weights = np.full(spec.d, (spec.n + 1) ** len(occupied), dtype=np.int64)
    weights[occupied] = (spec.n + 1) ** np.arange(len(occupied), dtype=np.int64)
    target = int(np.dot(weights, spec.kvec))
    amp = np.sqrt(1.0 / float(multinomial(spec.n, spec.kvec)))
    amps = np.where(_site_reduce(np.add, weights, spec.n) == target, amp, 0.0)
    return StateVector(register, amps.astype(np.complex128))


def gamma_row_spin_s(n: int, twice_s: int, k: int, i: int, j: int) -> tuple[float, ...]:
    """Site-i emission row of bond label j in the spin-s bond factorization, levels m = 0..2s.

    Entry m is sqrt(C(2s(n-i), k-j-m) * C(2s, m) / C(2s(n-i+1), k-j)) with
    the out-of-range binomial convention, 0.0 (never NaN) when either
    binomial vanishes; the denominator binomial is evaluated once per row.
    Exact integers divide by correctly rounded true division, as a reduced
    ``Fraction`` converts.
    """
    den = binomial(twice_s * (n - i + 1), k - j)
    if den == 0:
        return (0.0,) * (twice_s + 1)
    rest = twice_s * (n - i)
    nums = [binomial(rest, k - j - m) * binomial(twice_s, m) for m in range(twice_s + 1)]
    return tuple([math.sqrt(num / den) if num else 0.0 for num in nums])


def gamma_spin_s(n: int, twice_s: int, k: int, i: int, j: int, m: int) -> float:
    """Entry m of ``gamma_row_spin_s``; 0.0 for a level m outside 0..2s."""
    row = gamma_row_spin_s(n, twice_s, k, i, j)
    return row[m] if 0 <= m < len(row) else 0.0


def gamma_row_sud(n: int, kvec, i: int, a) -> tuple[float, ...]:
    """Site-i emission row of partial occupation ``a`` in the multilevel bond factorization, levels m = 0..d-1.

    ``a`` must be a valid partial occupation at bond i-1 (0 <= a_j <= k_j,
    sum(a) = i-1).  With the remaining occupations r = kvec - a, summing to
    N = n-i+1, entry m is sqrt(multinomial(N-1; r - unit(m)) / multinomial(N; r)),
    zero unless a + unit(m) stays within the occupation bounds.  The
    multinomial ratio is r_m / N exactly, so the row divides r_m by the
    one denominator N, correctly rounded as a reduced ``Fraction`` converts.
    """
    kvec = tuple(int(v) for v in kvec)
    a = tuple(int(v) for v in a)
    if len(a) != len(kvec):
        raise ValueError("partial occupation has wrong length")
    if any(not 0 <= aj <= kj for aj, kj in zip(a, kvec)) or sum(a) != i - 1:
        raise ValueError(f"{a} is not a level-{i - 1} element for {kvec}")
    if sum(kvec) != n:
        raise ValueError(f"occupations {kvec} do not sum to n={n}")
    rest = n - i + 1
    return tuple([math.sqrt((kj - aj) / rest) if kj > aj else 0.0 for kj, aj in zip(kvec, a)])


def gamma_sud(n: int, kvec, i: int, a, m: int) -> float:
    """Entry m of ``gamma_row_sud``; a level m outside 0..d-1 raises ValueError."""
    row = gamma_row_sud(n, kvec, i, a)
    if not 0 <= m < len(row):
        raise ValueError(f"level {m} out of range")
    return row[m]


def bond_table(spec) -> tuple[tuple[tuple, ...], ...]:
    """The exact canonical MPS of ``spec``: for each site i = 1..n, one ``(label, row, after)`` per bond digit
    before the site, in digit order.

    ``label`` is the charge j of a spin-s spec (digit j, every j in 0..k) or the partial occupation a of a
    sud spec (digit: its level-set label); ``row`` is its ``gamma_row_*`` over the site levels; ``after[m]``
    is the bond digit that level m leads to, None where row[m] is 0.
    """
    n = spec.n
    if isinstance(spec, DickeSpecSpinS):
        rows = [[(j, gamma_row_spin_s(n, spec.twice_s, spec.k, i, j)) for j in range(spec.k + 1)] for i in range(1, n + 1)]
        digit = lambda i, j, m: j + m
    else:
        levels = build_level_sets(spec.kvec)
        rows = [[(a, gamma_row_sud(n, spec.kvec, i, a)) for a in levels.elements(i - 1)] for i in range(1, n + 1)]
        digit = lambda i, a, m: levels.label(i, a[:m] + (a[m] + 1,) + a[m + 1 :])
    return tuple(
        tuple((label, row, tuple(digit(i, label, m) if g else None for m, g in enumerate(row))) for label, row in site)
        for i, site in enumerate(rows, 1)
    )


def _check_uniform(state: StateVector, dim: int) -> None:
    if any(d != dim for d in state.register.dims):
        raise ValueError(f"state is not a uniform register of dimension {dim}")


def apply_charge_conjugation(state: StateVector, twice_s: int) -> StateVector:
    """Per-site digit reversal m -> 2s-m; maps charge k to 2sn-k."""
    _check_uniform(state, twice_s + 1)
    # reversing every digit of a uniform-radix index reverses the index
    return StateVector(state.register, state.amplitudes[::-1].copy())


def _moments(state: StateVector, site_charges: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the charge summed over the sites, site_charges[m] per digit m."""
    _check_uniform(state, len(site_charges))
    weights = np.abs(state.amplitudes) ** 2
    values = _site_reduce(np.add, site_charges, len(state.register)).astype(float)
    mean = float(np.dot(weights, values))
    var = float(np.dot(weights, values**2) - mean**2)
    return mean, var


def charge_moments_spin_s(state: StateVector, twice_s: int) -> tuple[float, float]:
    """Mean and variance of the total digit-sum charge."""
    return _moments(state, np.arange(twice_s + 1))


def charge_moments_sud(state: StateVector, d: int, level: int) -> tuple[float, float]:
    """Mean and variance of the occupation count of one level (1 <= level <= d-1)."""
    if not 1 <= level <= d - 1:
        raise ValueError(f"level {level} outside 1..{d - 1}")
    return _moments(state, (np.arange(d) == level).astype(np.int64))


@dataclass(frozen=True)
class ProbabilityReport:
    """Optimal boost parameter with the exact success probability."""

    optimal_parameter: object
    probability: float


def probability_spin_s(n: int, twice_s: int, k: int) -> ProbabilityReport:
    """Postselection success probability at the optimal boost p = ``DickeSpecSpinS.optimal_boost``.

    Exact value C(2sn, k) p^k (1-p)^(2sn-k) evaluated in log space, with
    the 0^0 = 1 convention making both charge edges certain.  The arguments
    are checked as ``DickeSpecSpinS`` checks them.
    """
    spec = DickeSpecSpinS(n, twice_s, k)
    total, k, p = spec.max_charge, spec.k, spec.optimal_boost
    if k == 0 or k == total:
        probability = 1.0
    else:
        log_p = math.log(binomial(total, k)) + k * math.log(p) + (total - k) * math.log1p(-p)
        probability = math.exp(log_p)
    return ProbabilityReport(p, probability)


def probability_sud(n: int, kvec) -> ProbabilityReport:
    """Postselection success probability at the optimal boost xi = ``DickeSpecSUD.optimal_boost``.

    Exact value (n!/n^n) prod_i k_i^{k_i}/k_i! with 0^0 = 1, in log space.
    The arguments are checked as ``DickeSpecSUD`` checks them.
    """
    spec = DickeSpecSUD(n, kvec)
    n = spec.n
    log_p = math.log(math.factorial(n)) - n * math.log(n)
    for v in spec.kvec:
        if v > 0:
            log_p += v * math.log(v) - math.log(math.factorial(v))
    return ProbabilityReport(spec.optimal_boost, math.exp(log_p))
