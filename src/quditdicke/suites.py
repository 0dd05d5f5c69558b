"""End-to-end verification suites shared by the test suite and the CLI.

Each criterion runs a full grid at its stated tolerance and reports
failures, and every case skipped for exceeding the amplitude cap, as
detail lines.  The CLI ``verify`` subcommand and tests/test_acceptance.py
both drive these functions, so the command line and the test suite can
never disagree about what passing means.

Every case goes through one path.  ``_case(spec, methods)`` reads the
family, the detail-line label, the oracle and the closed-form acceptance
probability off the spec, which carries its family's facts, evaluating
them once per spec for all of its methods, and it builds every method
through the one registry ``qpe.BUILDERS``, by the spec's family.  A
criterion that simulates skips each case whose register exceeds the cap,
and ``check_case`` is the only code that decides whether a simulated case
passes; ``quditdicke prepare`` calls it too.

Criterion 8 checks the sequential gate counts.  Within one ``run_all`` it
counts the circuits that criteria 1 and 2 built moments earlier: ``_case``
records the op count of each sequential circuit it builds, for that call
only, and criterion 8 builds a circuit itself only when it runs alone.

Criterion 4 draws ten random specs, then places the argmax of each
one's hadamard acceptance probability on a 101-point boost grid.  It
keeps the circuit ``_cases`` builds for each spec (and cap-checks) and
simulates the whole grid with ``qpe._boost_sweep``: one postselected run
in which a ``grid`` wire of dimension L selects the boost, its accepted
branch read like every other P, so a spec costs one build and one run,
not 101 of each.  That run holds L times the built register, so under
the amplitude cap the grid is split into sweeps of at most
cap // register size boosts.  ``quditdicke sweep --param p`` stays
per point: its CSV prints each probability with ``repr``, and a sweep
would move their last bits.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .levelsets import build_level_sets, compositions, verify_level_set_proposition
from .qpe import (
    BUILDERS,
    _boost_sweep,
    _site_amplitudes_spin_s,
    _site_amplitudes_sud,
    run_postselected,
)
from .reference import (
    DickeSpecSpinS,
    DickeSpecSUD,
    apply_charge_conjugation,
    bond_table,
    charge_moments_spin_s,
    charge_moments_sud,
)
from .report import count_resources
from .sequential import spin_s_l_range, verify_sequential
from .sim import (
    ANCILLA_ACCEPT,
    ATOL_IDENTITY,
    ATOL_PROBABILITY,
    FIDELITY_ACCEPT,
    fidelity,
)

DEFAULT_MAX_AMPLITUDES = 10**6
_PROBABILISTIC = tuple(method for method in BUILDERS["spin-s"] if method != "sequential")
# len(circuit.ops) by spec of each sequential circuit ``_case`` built in the running ``run_all``,
# None outside it; ints only, so no circuit outlives its case
_OP_COUNTS: ContextVar[dict | None] = ContextVar("_OP_COUNTS", default=None)


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


def expected_probability(spec, method: str) -> float:
    """The acceptance probability ``check_case`` expects of ``spec`` under ``method`` at its default boost:
    1 for the sequential method, else the spec's closed form at the optimal boost."""
    return 1.0 if method == "sequential" else spec.closed_form().probability


def _case(spec, methods):
    """(name, circuit, oracle, expected) of one spec under each of ``methods`` in turn: the detail-line name,
    the built circuit, the oracle, evaluated once per spec, and ``expected_probability``."""
    oracle = spec.oracle()
    for method in methods:
        circuit = BUILDERS[spec.family][method](spec)
        counts = _OP_COUNTS.get()
        if method == "sequential" and counts is not None:
            counts[spec] = len(circuit.ops)
        name = f"{spec.family} {spec.label}" if method == "sequential" else f"{spec.family} {method} {spec.label}"
        yield name, circuit, oracle, expected_probability(spec, method)


def _cases(pairs, max_amplitudes: int, skips: list[str]):
    """``_case`` of each run of pairs of one spec, in order, or a skip line when a register exceeds the cap."""
    for spec, group in itertools.groupby(pairs, key=operator.itemgetter(0)):
        for name, circuit, oracle, expected in _case(spec, [method for _, method in group]):
            if circuit.register.size > max_amplitudes:
                skips.append(f"{name}: register size {circuit.register.size}")
            else:
                yield name, circuit, oracle, expected


def check_case(name: str, circuit, oracle, expected: float | None, shots: int = 0, seed: int | None = None):
    """Simulate and judge one built case, (report, failure lines), by the one pass/fail rule: a sequential
    circuit returns its ancillas, P is within ATOL_PROBABILITY of ``expected`` unless None, F >= FIDELITY_ACCEPT.
    A circuit whose meta names no method, such as one reloaded from the exchange format, is judged as probabilistic."""
    sequential = circuit.meta.get("method") == "sequential"
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


def _boost_grid(spec, boosts, max_amplitudes: int, skips: list[str]):
    """Acceptance probability of the hadamard circuit of ``spec`` at each boost (p of a spin-s spec, xi of a
    sud spec; an all-zero xi reads 0.0), in sweeps of at most cap // register size boosts each, or None with a
    skip line when the built circuit is above the cap."""
    case = next(_cases([(spec, "hadamard")], max_amplitudes, skips), None)
    if case is None:
        return None
    circuit = case[1]
    spin = spec.family == "spin-s"
    points = [i for i, boost in enumerate(boosts) if spin or any(boost)]
    amps = [_site_amplitudes_spin_s(spec.twice_s, boosts[i]) if spin else _site_amplitudes_sud(boosts[i]) for i in points]
    step = max_amplitudes // circuit.register.size
    values = np.zeros(len(boosts))
    for start in range(0, len(points), step):
        values[points[start : start + step]] = _boost_sweep(circuit, amps[start : start + step])
    return values


def criterion_parameter_optimality(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES, seed: int = 404) -> CriterionResult:
    description = "grid search places the acceptance-probability argmax at the optimal boost (10 random specs)"
    failures, skips = [], []
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 101)
    draws = []  # (spec, boosts, optimal grid value, failure line up to the argmax)
    for _ in range(5):
        twice_s = int(rng.integers(1, 4))
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, twice_s * n))
        spec = DickeSpecSpinS(n, twice_s, k)
        draws.append((spec, [float(p) for p in grid], spec.optimal_boost, f"spin-s {spec.label}: argmax p="))
    for _ in range(5):
        n = int(rng.integers(2, 4))
        while True:
            kvec = tuple(int(v) for v in rng.multinomial(n, [1 / 3] * 3))
            if sum(1 for v in kvec if v > 0) >= 2:
                break
        axis = int(rng.integers(0, 3))
        spec = DickeSpecSUD(n, kvec)
        optimal = list(spec.optimal_boost)
        boosts = [optimal[:axis] + [float(x)] + optimal[axis + 1 :] for x in grid]
        draws.append((spec, boosts, optimal[axis], f"sud {spec.label} axis={axis}: argmax xi="))
    for spec, boosts, best, line in draws:
        values = _boost_grid(spec, boosts, max_amplitudes, skips)
        if values is None:
            continue  # above the cap: skipped
        argmax = int(np.argmax(values))
        if argmax != int(np.argmin(np.abs(grid - best))):
            failures.append(f"{line}{grid[argmax]}, optimal {best}")
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
        state = spec.oracle()
        mirror = DickeSpecSpinS(spec.n, spec.twice_s, spec.max_charge - spec.k).oracle()
        dual = apply_charge_conjugation(state, spec.twice_s)
        f = fidelity(dual, mirror)
        if f < 1.0 - ATOL_IDENTITY:
            failures.append(f"duality {spec.label}: fidelity {f!r}")
        mean, var = charge_moments_spin_s(state, spec.twice_s)
        if abs(mean - spec.k) > ATOL_IDENTITY or abs(var) > ATOL_IDENTITY:
            failures.append(f"charge {spec.label}: mean {mean!r} var {var!r}")
    for spec in sud_grid(4, 5):
        state = spec.oracle()
        for level in range(1, spec.d):
            mean, var = charge_moments_sud(state, spec.d, level)
            if abs(mean - spec.kvec[level]) > ATOL_IDENTITY or abs(var) > ATOL_IDENTITY:
                failures.append(f"occupation {spec.label} level={level}: mean {mean!r} var {var!r}")
    return _result("criterion-6", description, failures, [])


def criterion_mps_canonical(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES) -> CriterionResult:
    description = "bond tensors are isometric rows and contract to the closed forms (n<=5)"
    failures: list[str] = []
    for spec in itertools.chain(spin_s_grid(3, 5), sud_grid(4, 5)):
        spin = spec.family == "spin-s"
        dim = spec.dim if spin else spec.d
        # amplitudes of every digit string of the sites so far, by the bond digit it ends on
        prefix = {0: np.ones(1)}
        for i, site in enumerate(bond_table(spec), 1):
            for bond, row, _ in site:
                total = sum(g * g for g in row)
                if any(row) and abs(total - 1.0) > ATOL_IDENTITY:
                    failures.append(f"{spec.family} row {spec.label} i={i} {'l' if spin else 'a'}={bond}: sum {total!r}")
            size = dim ** (i - 1)
            contracted = defaultdict(lambda: np.zeros(dim * size))
            for digit, amplitudes in prefix.items():
                if not 0 <= digit < len(site):
                    continue  # a digit past the site's bond digits leads nowhere: its strings go missing
                _, row, after = site[digit]
                for m, g in enumerate(row):
                    if g != 0.0:
                        contracted[after[m]][m * size : (m + 1) * size] = amplitudes * g
            prefix = contracted
        oracle = spec.oracle()
        mismatch = np.flatnonzero(np.abs(prefix.get(spec.k if spin else 0, 0.0) - oracle.amplitudes.real) > ATOL_IDENTITY)
        if mismatch.size:
            failures.append(f"{spec.family} contraction {spec.label} digits={oracle.register.digits_of(int(mismatch[0]))}")
    return _result("criterion-7", description, failures, [])


def spin_s_expected_gate_count(spec: DickeSpecSpinS) -> int:
    """(2s+4) primitive gates per emission block over the active ranges."""
    blocks = sum(len(spin_s_l_range(spec.n, spec.twice_s, spec.k, i)) for i in range(1, spec.n + 1))
    return (spec.twice_s + 4) * blocks


def sud_expected_gate_count(spec: DickeSpecSUD) -> int:
    """3d primitive gates per emission block, one block per bond label."""
    levels = build_level_sets(spec.kvec)
    return 3 * spec.d * sum(levels.cardinality(i - 1) for i in range(1, spec.n + 1))


def _op_count(spec) -> int:
    """Op count of the sequential circuit of ``spec``, as ``_case`` recorded it in ``run_all``, else built anew."""
    counts = _OP_COUNTS.get()
    count = None if counts is None else counts.get(spec)
    return len(BUILDERS[spec.family]["sequential"](spec).ops) if count is None else count


def criterion_resource_scaling(max_amplitudes: int = DEFAULT_MAX_AMPLITUDES) -> CriterionResult:
    description = "gate counts match the exact formulas; growth and constant-depth accounting hold"
    failures: list[str] = []
    # each family's formula, over the specs whose builder walks the bond (not a product target's shortcut)
    counted = itertools.chain(
        ((spec, spin_s_expected_gate_count) for spec in spin_s_grid(3, 5) if 0 < spec.k < spec.max_charge),
        ((spec, sud_expected_gate_count) for spec in sud_grid(4, 5) if sum(1 for v in spec.kvec if v > 0) >= 2),
    )
    for spec, formula in counted:
        count, expected = _op_count(spec), formula(spec)
        if count != expected:
            failures.append(f"{spec.family} count {spec.label}: {count} vs {expected}")
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
            _, depth, _ = count_resources(BUILDERS["spin-s"]["fanout"](spec))
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
            _, depth, _ = count_resources(BUILDERS["sud"]["fanout"](spec))
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
    """Every criterion in order, with one op-count record for the call (see ``_op_count``)."""
    token = _OP_COUNTS.set({})
    try:
        return [criterion.run(max_amplitudes) for criterion in ALL_CRITERIA]
    finally:
        _OP_COUNTS.reset(token)
