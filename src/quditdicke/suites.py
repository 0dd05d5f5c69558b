"""End-to-end verification suites shared by the test suite and the CLI.

Each criterion runs a full grid at its stated tolerance and reports
failures, and every case skipped for exceeding the amplitude cap, as
detail lines.  The CLI ``verify`` subcommand and tests/test_acceptance.py
both drive these functions, so the command line and the test suite can
never disagree about what passing means.

Every case goes through one path.  ``_case(spec, method)`` is the only
map from a family to its detail-line name, builder, oracle and closed-form
acceptance probability.  A criterion that simulates skips each case whose
register exceeds the cap, and ``check_case`` is the only code that decides
whether a simulated case passes; ``quditdicke prepare`` calls it too.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .levelsets import build_level_sets, compositions, verify_level_set_proposition
from .qpe import (
    BUILDERS,
    build_fanout_const_spin_s,
    build_fanout_const_sud,
    build_hadamard_test_spin_s,
    build_hadamard_test_sud,
    run_postselected,
)
from .reference import (
    DickeSpecSpinS,
    DickeSpecSUD,
    apply_charge_conjugation,
    charge_moments_spin_s,
    charge_moments_sud,
    gamma_spin_s,
    gamma_sud,
    probability_spin_s,
    probability_sud,
    spin_s_dicke,
    sud_dicke,
)
from .report import count_resources
from .sequential import build_sequential_spin_s, build_sequential_sud, spin_s_l_range, verify_sequential
from .sim import (
    ANCILLA_ACCEPT,
    ATOL_IDENTITY,
    ATOL_PROBABILITY,
    FIDELITY_ACCEPT,
    acceptance_probability,
    fidelity,
)

DEFAULT_MAX_AMPLITUDES = 10**6
_PROBABILISTIC = tuple(BUILDERS["spin-s"])  # method names, as in qpe.BUILDERS


def spin_s_grid(max_twice_s: int, max_n: int) -> Iterator[DickeSpecSpinS]:
    for twice_s in range(1, max_twice_s + 1):
        for n in range(1, max_n + 1):
            for k in range(twice_s * n + 1):
                yield DickeSpecSpinS(n, twice_s, k)


def sud_grid(max_d: int, max_n: int) -> Iterator[DickeSpecSUD]:
    for d in range(2, max_d + 1):
        for n in range(1, max_n + 1):
            for kvec in compositions(n, d):
                yield DickeSpecSUD(n, kvec)


@dataclass
class CriterionResult:
    ident: str
    description: str
    passed: bool
    details: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Criterion:
    ident: str
    run: Callable[..., CriterionResult]


def _result(ident: str, description: str, failures: list[str], skips: list[str]) -> CriterionResult:
    details = [f"skipped: {s}" for s in skips] + failures
    return CriterionResult(ident, description, passed=not failures, details=details)


def _family(spec) -> tuple[str, str]:
    """Family name and spec label, as they appear in detail lines."""
    if isinstance(spec, DickeSpecSpinS):
        return "spin-s", f"n={spec.n} 2s={spec.twice_s} k={spec.k}"
    return "sud", f"n={spec.n} kvec={spec.kvec}"


def _bond_factorization(spec):
    """Site dimension, bond labels before site i, label step, coefficient(i, label, m),
    label name in detail lines, and the labels before the first and after the last site."""
    if isinstance(spec, DickeSpecSpinS):
        n, twice_s, k = spec.n, spec.twice_s, spec.k
        return (
            spec.dim,
            lambda i: range(k + 1),
            operator.add,
            lambda i, j, m: gamma_spin_s(n, twice_s, k, i, j, m),
            "l",
            (0, k),
        )
    levels = build_level_sets(spec.kvec)
    return (
        spec.d,
        lambda i: levels.elements(i - 1),
        lambda a, m: a[:m] + (a[m] + 1,) + a[m + 1 :],
        lambda i, a, m: gamma_sud(spec.n, spec.kvec, i, a, m),
        "a",
        ((0,) * spec.d, spec.kvec),
    )


def _case(spec, method: str):
    """(name, circuit, oracle, expected) of one spec under one method: the detail-line
    name, the built circuit, the oracle and the closed-form acceptance probability."""
    family, label = _family(spec)
    spin = family == "spin-s"
    oracle = spin_s_dicke(spec) if spin else sud_dicke(spec)
    if method == "sequential":
        return f"{family} {label}", (build_sequential_spin_s if spin else build_sequential_sud)(spec), oracle, 1.0
    closed_form = probability_spin_s(spec.n, spec.twice_s, spec.k) if spin else probability_sud(spec.n, spec.kvec)
    return f"{family} {method} {label}", BUILDERS[family][method](spec), oracle, closed_form.probability


def _cases(pairs, max_amplitudes: int, skips: list[str]):
    """``_case`` of each (spec, method) pair in order, or a skip line when its register exceeds the cap."""
    for spec, method in pairs:
        name, circuit, oracle, expected = _case(spec, method)
        if circuit.register.size > max_amplitudes:
            skips.append(f"{name}: register size {circuit.register.size}")
        else:
            yield name, circuit, oracle, expected


def check_case(name: str, circuit, oracle, expected: float | None, shots: int = 0, seed: int | None = None):
    """Simulate and judge one built case, (report, failure lines), by the one pass/fail rule: a sequential
    circuit returns its ancillas, P is within ATOL_PROBABILITY of ``expected`` unless None, F >= FIDELITY_ACCEPT."""
    sequential = circuit.meta["method"] == "sequential"
    report = verify_sequential(circuit, oracle) if sequential else run_postselected(circuit, oracle, shots=shots, seed=seed)
    probability, conditional = report.acceptance_probability, report.conditional_fidelity
    close = expected is None or abs(probability - expected) <= ATOL_PROBABILITY
    failures = []
    if not close or (sequential and not probability >= ANCILLA_ACCEPT):
        failures.append(f"{name}: probability {probability!r} vs {expected!r}")
    if not conditional >= FIDELITY_ACCEPT:
        failures.append(f"{name}: fidelity {conditional!r}")
    return report, failures


def _criterion_cases(ident: str, description: str, specs, methods, max_amplitudes: int) -> CriterionResult:
    """Build, cap and check every spec under every method, spec-major."""
    failures, skips = [], []
    for case in _cases(itertools.product(specs, methods), max_amplitudes, skips):
        failures += check_case(*case)[1]
    return _result(ident, description, failures, skips)


def criterion_sequential_spin_s(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES) -> CriterionResult:
    description = "sequential spin-s circuits match the closed form (2s<=3, n<=5, all k)"
    return _criterion_cases("criterion-1", description, spin_s_grid(3, 5), ("sequential",), max_amplitudes)


def criterion_sequential_sud(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES) -> CriterionResult:
    description = "sequential multilevel circuits match the closed form (d<=4, n<=5, all compositions)"
    return _criterion_cases("criterion-2", description, sud_grid(4, 5), ("sequential",), max_amplitudes)


def criterion_qpe_probabilities(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES) -> CriterionResult:
    description = "probabilistic builders accept with the exact success probability (six schemes)"
    specs = itertools.chain(spin_s_grid(3, 4), sud_grid(3, 4))
    return _criterion_cases("criterion-3", description, specs, _PROBABILISTIC, max_amplitudes)


def _acceptance_probability(circuit) -> float:
    return acceptance_probability(circuit.run(), circuit.accept_rule)


def criterion_parameter_optimality(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES, seed: int = 404) -> CriterionResult:
    description = "grid search places the acceptance-probability argmax at the optimal boost (10 random specs)"
    failures, skips = [], []
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 101)
    for _ in range(5):
        twice_s = int(rng.integers(1, 4))
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, twice_s * n))
        spec = DickeSpecSpinS(n, twice_s, k)
        if not list(_cases([(spec, "hadamard")], max_amplitudes, skips)):
            continue  # above the cap: skipped
        best = k / (twice_s * n)
        values = [_acceptance_probability(build_hadamard_test_spin_s(spec, p=float(p))) for p in grid]
        argmax = int(np.argmax(values))
        nearest = int(np.argmin(np.abs(grid - best)))
        if argmax != nearest:
            failures.append(f"spin-s n={n} 2s={twice_s} k={k}: argmax p={grid[argmax]}, optimal {best}")
    for _ in range(5):
        n = int(rng.integers(2, 4))
        while True:
            kvec = tuple(int(v) for v in rng.multinomial(n, [1 / 3] * 3))
            if sum(1 for v in kvec if v > 0) >= 2:
                break
        spec = DickeSpecSUD(n, kvec)
        axis = int(rng.integers(0, 3))
        if not list(_cases([(spec, "hadamard")], max_amplitudes, skips)):
            continue  # above the cap: skipped
        best = math.sqrt(kvec[axis] / n)
        optimal = [math.sqrt(v / n) for v in kvec]
        values = []
        for x in grid:
            xi = list(optimal)
            xi[axis] = float(x)
            if not any(xi):
                values.append(0.0)
                continue
            values.append(_acceptance_probability(build_hadamard_test_sud(spec, xi=xi)))
        argmax = int(np.argmax(values))
        nearest = int(np.argmin(np.abs(grid - best)))
        if argmax != nearest:
            failures.append(f"sud n={n} kvec={kvec} axis={axis}: argmax xi={grid[argmax]}, optimal {best}")
    return _result("criterion-4", description, failures, skips)


def criterion_level_set_proposition(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES) -> CriterionResult:
    description = "level-set label inequality holds exhaustively (d<=5, n<=8)"
    failures: list[str] = []
    for n in range(1, 9):
        for d in range(1, 6):
            for kvec in compositions(n, d):
                ok, witness = verify_level_set_proposition(kvec)
                if not ok:
                    failures.append(f"kvec={kvec}: {witness}")
    return _result("criterion-5", description, failures, [])


def criterion_duality_and_charge(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES) -> CriterionResult:
    description = "digit-reversal duality and zero charge variance on every oracle state"
    failures: list[str] = []
    for spec in spin_s_grid(3, 5):
        state = spin_s_dicke(spec)
        mirror = spin_s_dicke(DickeSpecSpinS(spec.n, spec.twice_s, spec.max_charge - spec.k))
        dual = apply_charge_conjugation(state, spec.twice_s)
        f = fidelity(dual, mirror)
        if f < 1.0 - ATOL_IDENTITY:
            failures.append(f"duality n={spec.n} 2s={spec.twice_s} k={spec.k}: fidelity {f!r}")
        mean, var = charge_moments_spin_s(state, spec.twice_s)
        if abs(mean - spec.k) > ATOL_IDENTITY or abs(var) > ATOL_IDENTITY:
            failures.append(f"charge n={spec.n} 2s={spec.twice_s} k={spec.k}: mean {mean!r} var {var!r}")
    for spec in sud_grid(4, 5):
        state = sud_dicke(spec)
        for level in range(1, spec.d):
            mean, var = charge_moments_sud(state, spec.d, level)
            if abs(mean - spec.kvec[level]) > ATOL_IDENTITY or abs(var) > ATOL_IDENTITY:
                failures.append(f"occupation n={spec.n} kvec={spec.kvec} level={level}: mean {mean!r} var {var!r}")
    return _result("criterion-6", description, failures, [])


def criterion_mps_canonical(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES) -> CriterionResult:
    description = "bond tensors are isometric rows and contract to the closed forms (n<=5)"
    failures: list[str] = []
    for spec in itertools.chain(spin_s_grid(3, 5), sud_grid(4, 5)):
        family, label = _family(spec)
        dim, labels, step, coefficient, name, (first, last) = _bond_factorization(spec)
        # amplitudes of every digit string of the sites so far, by the bond label it ends on
        prefix = {first: np.ones(1)}
        for i in range(1, spec.n + 1):
            rows = {}
            for bond in labels(i):
                row = rows[bond] = [coefficient(i, bond, m) for m in range(dim)]
                total = sum(g * g for g in row)
                if any(row) and abs(total - 1.0) > ATOL_IDENTITY:
                    failures.append(f"{family} row {label} i={i} {name}={bond}: sum {total!r}")
            size = dim ** (i - 1)
            contracted = defaultdict(lambda: np.zeros(dim * size))
            for bond, amplitudes in prefix.items():
                for m, g in enumerate(rows[bond]):
                    if g != 0.0:
                        contracted[step(bond, m)][m * size : (m + 1) * size] = amplitudes * g
            prefix = contracted
        oracle = spin_s_dicke(spec) if family == "spin-s" else sud_dicke(spec)
        mismatch = np.flatnonzero(np.abs(prefix.get(last, 0.0) - oracle.amplitudes.real) > ATOL_IDENTITY)
        if mismatch.size:
            failures.append(f"{family} contraction {label} digits={oracle.register.digits_of(int(mismatch[0]))}")
    return _result("criterion-7", description, failures, [])


def spin_s_expected_gate_count(spec: DickeSpecSpinS) -> int:
    """(2s+4) primitive gates per emission block over the active ranges."""
    blocks = sum(len(spin_s_l_range(spec.n, spec.twice_s, spec.k, i)) for i in range(1, spec.n + 1))
    return (spec.twice_s + 4) * blocks


def sud_expected_gate_count(spec: DickeSpecSUD) -> int:
    """3d primitive gates per emission block, one block per bond label."""
    levels = build_level_sets(spec.kvec)
    return 3 * spec.d * sum(levels.cardinality(i - 1) for i in range(1, spec.n + 1))


def criterion_resource_scaling(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES) -> CriterionResult:
    description = "gate counts match the exact formulas; growth and constant-depth accounting hold"
    failures: list[str] = []
    for spec in spin_s_grid(3, 5):
        if not 0 < spec.k < spec.max_charge:
            continue
        circuit = build_sequential_spin_s(spec)
        expected = spin_s_expected_gate_count(spec)
        if len(circuit.ops) != expected:
            failures.append(f"spin-s count n={spec.n} 2s={spec.twice_s} k={spec.k}: {len(circuit.ops)} vs {expected}")
    for spec in sud_grid(4, 5):
        if sum(1 for v in spec.kvec if v > 0) < 2:
            continue
        circuit = build_sequential_sud(spec)
        expected = sud_expected_gate_count(spec)
        if len(circuit.ops) != expected:
            failures.append(f"sud count n={spec.n} kvec={spec.kvec}: {len(circuit.ops)} vs {expected}")
    # growth along s=1/2, k=floor(n/2): gate count stays within a constant multiple of s*k*n
    ratios = []
    for n in range(3, 9):
        k = n // 2
        count = spin_s_expected_gate_count(DickeSpecSpinS(n, 1, k))
        ratios.append(count / (0.5 * k * n))
    if not all(4.0 <= r <= 16.0 for r in ratios):
        failures.append(f"spin-s growth ratios out of band: {ratios}")
    for twice_s in (1, 2, 3):
        depths = set()
        for n in range(2, 7):
            spec = DickeSpecSpinS(n, twice_s, max(1, (twice_s * n) // 2))
            _, depth, _ = count_resources(build_fanout_const_spin_s(spec))
            depths.add(depth)
        if len(depths) != 1:
            failures.append(f"spin-s fanout depth varies with n for 2s={twice_s}: {sorted(depths)}")
    for d in (2, 3):
        depths = set()
        for n in range(2, 7):
            kvec = [0] * d
            for idx in range(n):
                kvec[idx % d] += 1
            spec = DickeSpecSUD(n, tuple(kvec))
            _, depth, _ = count_resources(build_fanout_const_sud(spec))
            depths.add(depth)
        if len(depths) != 1:
            failures.append(f"sud fanout depth varies with n for d={d}: {sorted(depths)}")
    return _result("criterion-8", description, failures, [])


def criterion_sampling(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES, shots: int = 10_000, seed: int = 1234) -> CriterionResult:
    description = "seeded sampling matches the exact acceptance probability within 5 sigma, bit-identically"
    failures, skips = [], []
    cases = [(DickeSpecSpinS(3, 2, 3), method) for method in _PROBABILISTIC]
    # the d=3 fan-out register grows fastest; sample it at n=2 to stay under the cap
    cases += [(DickeSpecSUD(2, (1, 1, 0)) if m == "fanout" else DickeSpecSUD(3, (1, 1, 1)), m) for m in _PROBABILISTIC]
    for name, circuit, oracle, exact in _cases(cases, max_amplitudes, skips):
        first, failed = check_case(name, circuit, oracle, exact, shots, seed)
        again, _ = check_case(name, circuit, oracle, exact, shots, seed)
        failures += failed
        frequency = first.sampled_frequency
        if frequency != again.sampled_frequency:
            failures.append(f"{name}: rerun with the same seed differs")
            continue
        sigma = math.sqrt(exact * (1.0 - exact) / shots)
        if abs(frequency - exact) > 5.0 * sigma:
            failures.append(f"{name}: frequency {frequency!r} vs exact {exact!r} (sigma {sigma!r})")
    return _result("criterion-9", description, failures, skips)


ALL_CRITERIA = (
    Criterion("criterion-1", criterion_sequential_spin_s),
    Criterion("criterion-2", criterion_sequential_sud),
    Criterion("criterion-3", criterion_qpe_probabilities),
    Criterion("criterion-4", criterion_parameter_optimality),
    Criterion("criterion-5", criterion_level_set_proposition),
    Criterion("criterion-6", criterion_duality_and_charge),
    Criterion("criterion-7", criterion_mps_canonical),
    Criterion("criterion-8", criterion_resource_scaling),
    Criterion("criterion-9", criterion_sampling),
)


def run_all(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES) -> list[CriterionResult]:
    return [criterion.run(max_amplitudes) for criterion in ALL_CRITERIA]
