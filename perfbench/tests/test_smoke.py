"""Reduced-size smoke test of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Small specs and few shots stand in for the pinned inputs; the checks are on
the harness: every metric is emitted with its unit, the tracer binds and
restores its wrappers, and the correctness gate trips on a wrong oracle or
a wrong draw without ending the run.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from quditdicke import cli, reference, sim, suites  # noqa: E402
from quditdicke.reference import DickeSpecSpinS, DickeSpecSUD  # noqa: E402
from quditdicke.report import count_resources  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())

NAMED_METRICS = {
    "verify": {"verify_s": "s"},
    "prepare-large": {
        "prepare_s": "s",
        "prepare.sequential_s": "s",
        "prepare.qpe-log_s": "s",
        "prepare.hadamard_s": "s",
        "prepare.fanout_s": "s",
    },
    "sample": {"sample.shot_p50_us": "us", "sample.shot_p99_us": "us", "sample.batch_s": "s"},
}
SHARED_METRICS = {"setup_s": "s", "peak_rss_mib": "MiB", "fail_ratio": "ratio"}


def pinned(method, family, n, spin=None, k=None, kvec=None):
    """A small spec pinned to what the program reports for it today."""
    spec = DickeSpecSpinS(n, int(2 * Fraction(spin)), k) if family == "spin-s" else DickeSpecSUD(n, kvec)
    circuit = cli._build_circuit(spec, method, None, None)
    gates, depth, census = count_resources(circuit)
    census = tuple(tuple(pair) for pair in census)
    return workloads.PinnedSpec(method, family, n, spin, k, kvec, circuit.register.size, gates, depth, census)


QPE_SPIN = pinned("qpe-log", "spin-s", 4, spin="0.5", k=2)
SMALL_SPECS = (
    pinned("sequential", "spin-s", 3, spin="1", k=2),
    QPE_SPIN,
    pinned("hadamard", "sud", 3, kvec=(1, 1, 1)),
    pinned("fanout", "sud", 2, kvec=(1, 1)),
)


def small(name):
    if name == "verify":
        return workloads.Verify(0, max_amplitudes=2_000)
    if name == "prepare-large":
        return workloads.PrepareLarge(0, specs=SMALL_SPECS)
    return workloads.Sample(0, shots=20, batch_shots=10_000)


@pytest.mark.parametrize("name", sorted(NAMED_METRICS))
def test_end_to_end_metrics_are_named_with_units(name):
    args = run.parse_args(["--workload", name, "--seed", "0", "--seconds", "0"])
    gate = workloads.Gate()
    metrics, details = run.end_to_end(small(name), gate, args, setup_s=0.5)
    expected = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())
    named = {**NAMED_METRICS[name], **SHARED_METRICS}
    assert {k: details[k]["unit"] for k in named} == named
    assert gate.attempted > 0 and gate.failed == 0
    assert details["fail_ratio"]["value"] == 0.0


def test_per_layer_metrics_are_named_with_units():
    gate = workloads.Gate()
    metrics, details = run.per_layer(small("prepare-large"), gate)
    expected = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert gate.failed == 0
    self_sum = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)
    for kind in ("Xd", "Rot", "Hd", "PhaseK", "DenseUnitary", "Sum"):
        assert metrics[f"sim.apply_gate.{kind}.calls"]["value"] > 0
    assert metrics["build.calls"]["value"] == len(SMALL_SPECS)
    assert metrics["sim.peak_support_ratio.qpe-log"]["value"] > 0
    assert "cli.prepare" in details


def test_tracer_rebinds_lookups_and_restores_them():
    originals = (sim.apply_gate, sim.Circuit.run, cli._SPIN_BUILDERS["qpe-log"], suites.ALL_CRITERIA)
    with spans.Tracer().installed():
        assert sim.apply_gate.__wrapped__ is originals[0]
        assert sim.Circuit.run.__wrapped__ is originals[1]
        assert cli._SPIN_BUILDERS["qpe-log"].__wrapped__ is originals[2]
        assert suites.ALL_CRITERIA[0].run.__wrapped__ is originals[3][0].run
    assert (sim.apply_gate, sim.Circuit.run, cli._SPIN_BUILDERS["qpe-log"], suites.ALL_CRITERIA) == originals


def test_gate_trips_on_wrong_expected_probability():
    workload = workloads.PrepareLarge(0, specs=(QPE_SPIN,))
    wrong = reference.probability_spin_s(QPE_SPIN.n, 1, QPE_SPIN.k - 1).probability
    workload.cases[0] = replace(workload.cases[0], expected_probability=wrong)
    gate = workloads.Gate()
    workload.run_pass(gate)
    assert gate.failed == 1
    assert "acceptance probability" in gate.messages[0]


def test_gate_trips_when_the_program_uses_a_wrong_oracle(monkeypatch):
    def oracle_at_k_minus_1(spec):
        return reference.spin_s_dicke(DickeSpecSpinS(spec.n, spec.twice_s, spec.k - 1))

    monkeypatch.setattr(cli, "spin_s_dicke", oracle_at_k_minus_1)
    workload = workloads.PrepareLarge(0, specs=(QPE_SPIN,))
    gate = workloads.Gate()
    workload.run_pass(gate)
    assert gate.failed >= 2
    assert any("exit code 1" in m for m in gate.messages)
    assert any("fidelity" in m for m in gate.messages)


def test_gate_trips_on_wrong_batch_probability():
    workload = small("sample")
    workload.batch_probability = reference.probability_spin_s(8, 1, 1).probability
    gate = workloads.Gate()
    workload.run_pass(gate)
    assert gate.failed == 2
    assert gate.attempted > gate.failed


def test_gate_trips_when_shots_come_from_a_wrong_marginal(monkeypatch):
    def uniform_draw(state, wires, seed):
        # a draw that ignores the marginal, with a consistent collapse
        possible = np.flatnonzero(sim.outcome_distribution(state, wires))
        digit = int(np.random.default_rng(seed).choice(possible))
        return (digit,), sim.project_on_outcome(state, wires, (digit,))[1]

    workload = workloads.Sample(0, shots=1_000, batch_shots=10_000)
    monkeypatch.setattr(sim, "sample_measure", uniform_draw)
    gate = workloads.Gate()
    workload.run_pass(gate)
    assert gate.failed == 1
    assert "single-shot frequency" in gate.messages[0]


def test_exits_without_result_when_the_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, f"{BENCH.name}/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
