"""End-to-end verification suites shared by the test suite and the CLI.

Each criterion runs a full grid at its stated tolerance and reports
failures (and any registers skipped for exceeding the amplitude cap) as
detail lines.  The CLI ``verify`` subcommand and tests/test_acceptance.py
both drive these functions, so the command line and the test suite can
never disagree about what passing means.
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
    description: str
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


def _criterion_sequential(ident, description, specs, build, oracle, ancillas, max_amplitudes) -> CriterionResult:
    failures, skips = [], []
    for spec in specs:
        family, label = _family(spec)
        circuit = build(spec)
        if circuit.register.size > max_amplitudes:
            skips.append(f"{family} {label}: register size {circuit.register.size}")
            continue
        report = verify_sequential(circuit, oracle(spec))
        if report.acceptance_probability < ANCILLA_ACCEPT:
            failures.append(f"{label}: {ancillas} probability {report.acceptance_probability!r}")
        if report.conditional_fidelity < FIDELITY_ACCEPT:
            failures.append(f"{label}: fidelity {report.conditional_fidelity!r}")
    return _result(ident, description, failures, skips)


def criterion_sequential_spin_s(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES) -> CriterionResult:
    description = "sequential spin-s circuits match the closed form (2s<=3, n<=5, all k)"
    return _criterion_sequential(
        "criterion-1", description, spin_s_grid(3, 5), build_sequential_spin_s, spin_s_dicke, "ancilla", max_amplitudes
    )


def criterion_sequential_sud(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES) -> CriterionResult:
    description = "sequential multilevel circuits match the closed form (d<=4, n<=5, all compositions)"
    return _criterion_sequential(
        "criterion-2", description, sud_grid(4, 5), build_sequential_sud, sud_dicke, "ancilla/flag", max_amplitudes
    )


def criterion_qpe_probabilities(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES) -> CriterionResult:
    description = "probabilistic builders accept with the exact success probability (six schemes)"
    failures, skips = [], []
    for spec in itertools.chain(spin_s_grid(3, 4), sud_grid(3, 4)):
        family, label = _family(spec)
        if family == "spin-s":
            expected, oracle = probability_spin_s(spec.n, spec.twice_s, spec.k).probability, spin_s_dicke(spec)
        else:
            expected, oracle = probability_sud(spec.n, spec.kvec).probability, sud_dicke(spec)
        for method, build in BUILDERS[family].items():
            case = f"{family} {method} {label}"
            circuit = build(spec)
            if circuit.register.size > max_amplitudes:
                skips.append(f"{case}: register size {circuit.register.size}")
                continue
            report = run_postselected(circuit, oracle)
            if abs(report.acceptance_probability - expected) > ATOL_PROBABILITY:
                failures.append(f"{case}: probability {report.acceptance_probability!r} vs {expected!r}")
            if report.conditional_fidelity < FIDELITY_ACCEPT:
                failures.append(f"{case}: fidelity {report.conditional_fidelity!r}")
    return _result("criterion-3", description, failures, skips)


def _acceptance_probability(circuit) -> float:
    return acceptance_probability(circuit.run(), circuit.accept_rule)


def criterion_parameter_optimality(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES, seed: int = 404) -> CriterionResult:
    description = "grid search places the acceptance-probability argmax at the optimal boost (10 random specs)"
    failures: list[str] = []
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 101)
    for _ in range(5):
        twice_s = int(rng.integers(1, 4))
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, twice_s * n))
        spec = DickeSpecSpinS(n, twice_s, k)
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
    return _result("criterion-4", description, failures, [])


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
    failures: list[str] = []
    cases = []
    spin_spec = DickeSpecSpinS(3, 2, 3)
    for method, build in BUILDERS["spin-s"].items():
        cases.append((f"spin-s {method}", build(spin_spec), spin_s_dicke(spin_spec), probability_spin_s(3, 2, 3).probability))
    for method, build in BUILDERS["sud"].items():
        # the d=3 fan-out register grows fastest; sample it at n=2 to stay under the cap
        spec = DickeSpecSUD(2, (1, 1, 0)) if method == "fanout" else DickeSpecSUD(3, (1, 1, 1))
        cases.append((f"sud {method}", build(spec), sud_dicke(spec), probability_sud(spec.n, spec.kvec).probability))
    for name, circuit, oracle, exact in cases:
        first = run_postselected(circuit, oracle, shots=shots, seed=seed)
        again = run_postselected(circuit, oracle, shots=shots, seed=seed)
        note = [s for s in first.notes if s.startswith("sampled acceptance frequency")]
        note_again = [s for s in again.notes if s.startswith("sampled acceptance frequency")]
        if note != note_again:
            failures.append(f"{name}: rerun with the same seed differs")
            continue
        frequency = float(note[0].split()[3])
        sigma = math.sqrt(exact * (1.0 - exact) / shots)
        if abs(frequency - exact) > 5.0 * sigma:
            failures.append(f"{name}: frequency {frequency!r} vs exact {exact!r} (sigma {sigma!r})")
    return _result("criterion-9", description, failures, [])


ALL_CRITERIA = (
    Criterion("criterion-1", "sequential spin-s exactness", criterion_sequential_spin_s),
    Criterion("criterion-2", "sequential multilevel exactness", criterion_sequential_sud),
    Criterion("criterion-3", "probabilistic acceptance probabilities", criterion_qpe_probabilities),
    Criterion("criterion-4", "boost-parameter optimality", criterion_parameter_optimality),
    Criterion("criterion-5", "level-set label proposition", criterion_level_set_proposition),
    Criterion("criterion-6", "duality and charge invariants", criterion_duality_and_charge),
    Criterion("criterion-7", "canonical bond-tensor checks", criterion_mps_canonical),
    Criterion("criterion-8", "resource scaling", criterion_resource_scaling),
    Criterion("criterion-9", "sampling consistency", criterion_sampling),
)


def run_all(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES) -> list[CriterionResult]:
    return [criterion.run(max_amplitudes) for criterion in ALL_CRITERIA]
