"""The benchmark's three workloads and the correctness gate behind ``failed``.

Every workload is a closed loop with one caller: a pass issues its
operations one after another, each waiting for the previous result.  A
workload is built from ``--seed`` (its set-up), then ``run_pass`` is called
until the run's time is spent.  Each pass returns the wall time of the
program calls it made (``wall_s``, which excludes the benchmark's own
checks) and the workload's named metrics; ``summarize`` turns the passes of
one run into medians and percentiles.

The program is reached through module attributes (``cli.cli_main``,
``sim.sample_measure``, ``qpe.run_postselected``), so that a traced pass sees
the wrapped versions the tracer binds in their place.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from quditdicke import cli, qpe, reference, sim
from quditdicke.reference import DickeSpecSpinS
from quditdicke.suites import DEFAULT_MAX_AMPLITUDES

clock = time.perf_counter

PROBABILITY_ATOL = 1e-9
BYTES_PER_AMPLITUDE = np.dtype(np.complex128).itemsize


class Gate:
    """Counts correctness checks and the ones that failed; never raises."""

    MAX_MESSAGES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self.MAX_MESSAGES:
                self.messages.append(what)

    @contextlib.contextmanager
    def guard(self, what: str):
        """Turn an exception from the program into one failed check."""
        try:
            yield
        except Exception as exc:  # a failing operation must not end the run
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")


def _median(values) -> float:
    return float(statistics.median(values))


class Verify:
    """The in-process ``quditdicke verify`` at the default amplitude cap.

    It is the fixed user command, so the seed does not change it.  About
    1,600 small circuits, 40k gate applications, 183k bond coefficients and
    the level-set enumeration: fixed per-call cost and oracle work dominate.
    """

    name = "verify"
    CRITERIA = 9

    def __init__(self, seed: int, max_amplitudes: int = DEFAULT_MAX_AMPLITUDES):
        self.argv = ["verify", "--max-amplitudes", str(max_amplitudes)]
        self.largest_vector_bytes = max_amplitudes * BYTES_PER_AMPLITUDE  # an upper bound

    def run_pass(self, gate: Gate) -> dict:
        out = io.StringIO()
        code = None
        start = clock()
        with gate.guard("verify"), contextlib.redirect_stdout(out):
            code = cli.cli_main(self.argv)
        elapsed = clock() - start
        lines = out.getvalue().splitlines()
        passed = sum(1 for line in lines if line.startswith("PASS "))
        gate.check(code == 0, f"verify exit code {code}")
        gate.check(passed == self.CRITERIA, f"verify printed {passed} PASS lines, expected {self.CRITERIA}")
        skipped = sum(1 for line in lines if line.strip().startswith("skipped:"))
        return {"wall_s": elapsed, "cases_skipped": skipped}

    def summarize(self, passes: list[dict]) -> dict:
        return {"verify_s": (_median(p["wall_s"] for p in passes), "s")}


@dataclass(frozen=True)
class PinnedSpec:
    """One ``prepare`` input and the resource counts the program reported for it when pinned."""

    method: str
    family: str
    n: int
    spin: str | None  # spin-s family, as typed on the command line
    k: int | None
    kvec: tuple[int, ...] | None  # sud family; the seed permutes it
    amplitudes: int
    gate_count: int
    logical_depth: int
    ancilla_census: tuple[tuple[int, int], ...]


# Two specs per method on 2^17..2^21 amplitudes.  sequential and fanout keep
# a small support, qpe-log and hadamard are dense.  A permutation of kvec
# changes neither the register nor the counts.  sequential spin-1 runs at
# n=9 rather than 10, and fanout spin-s at spin-1 n=3 rather than spin-1/2
# n=6 (2^21 amplitudes): together they took half of a pass, too few passes
# fitted in a run for a steady median.
PREPARE_SPECS = (
    PinnedSpec("sequential", "spin-s", 9, "1", 9, None, 196_830, 294, 294, ((10, 1),)),
    PinnedSpec("sequential", "sud", 9, None, None, (4, 3, 2), 433_026, 531, 531, ((2, 1), (11, 1))),
    PinnedSpec("qpe-log", "spin-s", 15, "0.5", 7, None, 524_288, 80, 20, ((2, 4),)),
    PinnedSpec("qpe-log", "sud", 8, None, None, (3, 3, 2), 1_679_616, 90, 18, ((2, 8),)),
    PinnedSpec("hadamard", "spin-s", 10, "1", 10, None, 1_240_029, 32, 13, ((21, 1),)),
    PinnedSpec("hadamard", "sud", 9, None, None, (4, 3, 2), 1_968_300, 40, 13, ((10, 2),)),
    PinnedSpec("fanout", "spin-s", 3, "1", 3, None, 157_464, 33, 5, ((2, 3), (3, 6))),
    PinnedSpec("fanout", "sud", 5, None, None, (3, 2), 262_144, 46, 4, ((2, 13),)),
)
METHODS = ("sequential", "qpe-log", "hadamard", "fanout")
PREPARE_MAX_AMPLITUDES = 4_194_304


@dataclass(frozen=True)
class PrepareCase:
    spec: PinnedSpec
    argv: tuple[str, ...]
    expected_probability: float

    @property
    def label(self) -> str:
        spec = self.spec
        shape = f"s={spec.spin} k={spec.k}" if spec.family == "spin-s" else f"kvec={spec.kvec}"
        return f"{spec.method} {spec.family} n={spec.n} {shape}"


def prepare_case(spec: PinnedSpec, rng: random.Random) -> PrepareCase:
    """Command line and exact acceptance probability of one pinned spec."""
    argv = ["prepare", "--family", spec.family, "--n", str(spec.n)]
    if spec.family == "spin-s":
        twice_s = int(2 * Fraction(spec.spin))
        argv += ["--s", spec.spin, "--k", str(spec.k)]
        expected = reference.probability_spin_s(spec.n, twice_s, spec.k).probability
    else:
        kvec = tuple(rng.sample(spec.kvec, len(spec.kvec)))
        spec = replace(spec, kvec=kvec)
        argv += ["--kvec", ",".join(str(v) for v in kvec)]
        expected = reference.probability_sud(spec.n, kvec).probability
    argv += ["--method", spec.method, "--max-amplitudes", str(PREPARE_MAX_AMPLITUDES)]
    if spec.method == "sequential":
        expected = 1.0
    return PrepareCase(spec, tuple(argv), expected)


def check_report(gate: Gate, case: PrepareCase, code, text: str) -> None:
    """Exit code, fidelity, acceptance probability and pinned resource counts."""
    label = case.label
    gate.check(code == 0, f"{label}: exit code {code}")
    with gate.guard(f"{label}: report"):
        report = json.loads(text)
        fidelity = report["conditional_fidelity"]
        gate.check(fidelity >= sim.FIDELITY_ACCEPT, f"{label}: fidelity {fidelity!r}")
        probability = report["acceptance_probability"]
        if case.spec.method == "sequential":
            ok = probability == 1.0
        else:
            ok = abs(probability - case.expected_probability) <= PROBABILITY_ATOL
        gate.check(ok, f"{label}: acceptance probability {probability!r}, expected {case.expected_probability!r}")
        spec = case.spec
        gate.check(report["gate_count"] == spec.gate_count, f"{label}: gate count {report['gate_count']}")
        gate.check(report["logical_depth"] == spec.logical_depth, f"{label}: depth {report['logical_depth']}")
        census = [list(pair) for pair in spec.ancilla_census]
        gate.check(report["ancilla_census"] == census, f"{label}: ancilla census {report['ancilla_census']}")


class PrepareLarge:
    """The in-process ``quditdicke prepare`` on the pinned spec set.

    Simulation takes at least 90% of the time, on 2^17..2^21 amplitudes per
    vector, so per-amplitude gate kernels dominate and the oracle barely
    shows.  The seed permutes the sud occupation vectors.
    """

    name = "prepare-large"

    def __init__(self, seed: int, specs=PREPARE_SPECS):
        rng = random.Random(seed)
        self.cases = [prepare_case(spec, rng) for spec in specs]
        self.largest_vector_bytes = max(spec.amplitudes for spec in specs) * BYTES_PER_AMPLITUDE

    def run_pass(self, gate: Gate) -> dict:
        per_method = dict.fromkeys(METHODS, 0.0)
        for case in self.cases:
            out = io.StringIO()
            code = None
            start = clock()
            with gate.guard(case.label), contextlib.redirect_stdout(out):
                code = cli.cli_main(list(case.argv))
            per_method[case.spec.method] += clock() - start
            check_report(gate, case, code, out.getvalue())
        return {"wall_s": sum(per_method.values()), "per_method": per_method}

    def summarize(self, passes: list[dict]) -> dict:
        out = {"prepare_s": (_median(p["wall_s"] for p in passes), "s")}
        for method in METHODS:
            out[f"prepare.{method}_s"] = (_median(p["per_method"][method] for p in passes), "s")
        return out


class Sample:
    """The read side of ``sim`` on prepared states.

    Set-up simulates hadamard spin-1 n=8 k=8 (111,537 amplitudes) once.  A
    pass draws single shots on its accept wire, then runs one batched
    ``run_postselected`` on qpe-log spin-1/2 n=8 k=4 (4,096 amplitudes),
    where drawing the shots outweighs simulating.  Almost no gates run.
    The share of a pass's shots that draw the accept digits is checked
    against their exact probability, so a draw from a wrong marginal fails.
    """

    name = "sample"
    CHECK_EVERY = 100

    def __init__(self, seed: int, shots: int = 2_000, batch_shots: int = 4_000_000):
        self.shots = shots
        self.batch_shots = batch_shots
        self.seed = seed
        self.passes = 0
        circuit = qpe.build_hadamard_test_spin_s(DickeSpecSpinS(8, 2, 8))
        self.state = circuit.run()
        self.wires, self.accept_digits = circuit.accept_rule
        register = self.state.register
        radix = sim.QuditRegister.of_dims([register.dim(w) for w in self.wires])
        self.accept_probability = float(sim.outcome_distribution(self.state, self.wires)[radix.flat_index(self.accept_digits)])
        batch_spec = DickeSpecSpinS(8, 1, 4)
        self.batch_circuit = qpe.build_qpe_log_spin_s(batch_spec)
        self.batch_oracle = reference.spin_s_dicke(batch_spec)
        self.batch_probability = reference.probability_spin_s(8, 1, 4).probability
        self.largest_vector_bytes = self.state.register.size * BYTES_PER_AMPLITUDE

    def run_pass(self, gate: Gate) -> dict:
        # distinct sampling seeds for every shot of every pass of every run seed
        base = (self.seed * 1_000 + self.passes) * self.shots
        self.passes += 1
        shot_s = []
        drawn = accepted = 0
        for i in range(self.shots):
            digits = collapsed = None
            start = clock()
            with gate.guard(f"shot {base + i}"):
                digits, collapsed = sim.sample_measure(self.state, self.wires, base + i)
            shot_s.append(clock() - start)
            if digits is not None:
                drawn += 1
                accepted += digits == self.accept_digits
            if i % self.CHECK_EVERY == 0 and collapsed is not None:
                with gate.guard(f"shot {base + i} projection"):
                    _, expected = sim.project_on_outcome(self.state, self.wires, digits)
                    same = np.array_equal(collapsed.amplitudes, expected.amplitudes)
                    gate.check(same, f"shot {base + i}: collapse differs from projection on {digits}")
        frequency = accepted / drawn if drawn else math.nan
        self._check_frequency(gate, "single-shot", frequency, drawn, self.accept_probability)
        report = None
        start = clock()
        with gate.guard("batch"):
            report = qpe.run_postselected(self.batch_circuit, self.batch_oracle, shots=self.batch_shots, seed=base)
        batch_s = clock() - start
        if report is not None:
            self._check_batch(gate, report)
        return {"wall_s": sum(shot_s) + batch_s, "shot_s": shot_s, "batch_s": batch_s}

    def _check_batch(self, gate: Gate, report) -> None:
        exact = self.batch_probability
        gate.check(report.conditional_fidelity >= sim.FIDELITY_ACCEPT, f"batch fidelity {report.conditional_fidelity!r}")
        gate.check(
            abs(report.acceptance_probability - exact) <= PROBABILITY_ATOL,
            f"batch acceptance probability {report.acceptance_probability!r}, expected {exact!r}",
        )
        notes = [s for s in report.notes if s.startswith("sampled acceptance frequency")]
        with gate.guard("batch frequency note"):
            frequency = float(notes[0].split()[3])
            self._check_frequency(gate, "batch", frequency, self.batch_shots, exact)

    @staticmethod
    def _check_frequency(gate: Gate, what: str, frequency: float, shots: int, exact: float) -> None:
        """The frequency sampled over ``shots`` lies within 5 sigma of the exact probability."""
        sigma = math.sqrt(exact * (1.0 - exact) / shots) if shots else math.nan
        gate.check(abs(frequency - exact) <= 5.0 * sigma, f"{what} frequency {frequency!r} vs exact {exact!r}")

    def summarize(self, passes: list[dict]) -> dict:
        shots = [t for p in passes for t in p["shot_s"]]
        p99 = statistics.quantiles(shots, n=100)[98] if len(shots) >= 2 else shots[0]
        return {
            "sample.shot_p50_us": (_median(shots) * 1e6, "us"),
            "sample.shot_p99_us": (p99 * 1e6, "us"),
            "sample.shot_count": (len(shots), "count"),
            "sample.batch_s": (_median(p["batch_s"] for p in passes), "s"),
        }


WORKLOADS = {w.name: w for w in (Verify, PrepareLarge, Sample)}
