"""Tests for the command-line interface and report serialization."""

import json

import pytest

from quditdicke import qpe
from quditdicke.cli import cli_main
from quditdicke.report import RunReport
from quditdicke.serialize import circuit_from_json
from quditdicke.sim import ATOL_PROBABILITY, FIDELITY_ACCEPT


def run_cli(args):
    return cli_main(args)


def test_prepare_sequential_spin_s(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        ["prepare", "--family", "spin-s", "--n", "3", "--s", "1", "--k", "2", "--method", "sequential", "--out", str(out)]
    )
    assert code == 0
    report = RunReport.from_json(out.read_text())
    assert report.conditional_fidelity >= 1 - 1e-9
    assert report.acceptance_probability == 1.0
    assert report.expected_repetitions == 1.0
    assert report.spec["family"] == "spin-s" and report.spec["k"] == 2


def test_prepare_sud_qpe_log(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        ["prepare", "--family", "sud", "--n", "3", "--kvec", "1,1,1", "--method", "qpe-log", "--out", str(out)]
    )
    assert code == 0
    report = RunReport.from_json(out.read_text())
    assert report.acceptance_probability == pytest.approx(2 / 9, abs=1e-9)
    assert report.conditional_fidelity >= 1 - 1e-9


def test_prepare_rejects_invalid_spec(capsys):
    code = run_cli(["prepare", "--family", "sud", "--n", "3", "--kvec", "1,1", "--method", "qpe-log"])
    assert code == 2
    assert "sum to n" in capsys.readouterr().err


def test_prepare_rejects_fractional_spin(capsys):
    code = run_cli(["prepare", "--family", "spin-s", "--n", "2", "--s", "0.3", "--k", "1", "--method", "sequential"])
    assert code == 2
    assert "half-integer" in capsys.readouterr().err


def test_prepare_rejects_zero_denominator_spin(capsys):
    code = run_cli(["prepare", "--family", "spin-s", "--n", "2", "--s", "1/0", "--k", "1", "--method", "sequential"])
    assert code == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("xi", ["1,nan", "1,inf"])
def test_prepare_rejects_non_finite_xi(xi, capsys):
    code = run_cli(["prepare", "--family", "sud", "--n", "2", "--kvec", "1,1", "--method", "hadamard", "--xi", xi])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_prepare_rejects_negative_shots(capsys, monkeypatch):
    monkeypatch.setattr("quditdicke.cli._spec_and_circuit", lambda args: pytest.fail("built a circuit"))
    code = run_cli(
        ["prepare", "--family", "spin-s", "--n", "2", "--s", "1", "--k", "1", "--method", "hadamard",
         "--seed", "1", "--shots", "-1"]
    )
    assert code == 2
    assert "--shots must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, env, message",
    [
        (["--seed", "-1"], None, "--seed and DICKE_SEED take a nonnegative integer, got -1"),
        ([], "-5", "--seed and DICKE_SEED take a nonnegative integer, got '-5'"),
        ([], "1.5", "--seed and DICKE_SEED take a nonnegative integer, got '1.5'"),
    ],
    ids=["flag", "env-negative", "env-fraction"],
)
def test_prepare_rejects_bad_seed_before_building(flags, env, message, capsys, monkeypatch):
    from quditdicke import cli

    monkeypatch.setitem(cli._SPIN_BUILDERS, "hadamard", lambda spec, p: pytest.fail("built a circuit"))
    if env is not None:
        monkeypatch.setenv("DICKE_SEED", env)
    code = run_cli(["prepare", "--family", "spin-s", "--n", "2", "--s", "1", "--k", "1", "--method", "hadamard", *flags])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("points", ["0", "-3"])
def test_sweep_rejects_empty_grid(points, capsys):
    code = run_cli(
        ["sweep", "--family", "spin-s", "--n", "2", "--s", "0.5", "--k", "1", "--method", "hadamard",
         "--param", "p", "--points", points]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "--points must be >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["prepare", "--family", "spin-s", "--n", "2", "--s", "1", "--k", "1", "--method", "hadamard"],
        ["sweep", "--family", "spin-s", "--n", "2", "--s", "0.5", "--k", "1", "--method", "hadamard", "--param", "p"],
    ],
    ids=["verify", "prepare", "sweep"],
)
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_amplitude_cap_below_one_is_rejected_before_any_work(argv, cap, capsys, monkeypatch):
    from quditdicke import cli

    monkeypatch.setattr(cli, "run_all", lambda cap: pytest.fail("ran the suites"))
    monkeypatch.setattr(cli, "_build_circuit", lambda *args: pytest.fail("built a circuit"))
    monkeypatch.setattr(cli, "_spec_and_circuit", lambda args: pytest.fail("built a circuit"))
    assert run_cli([*argv, "--max-amplitudes", cap]) == 2
    captured = capsys.readouterr()
    assert f"--max-amplitudes must be >= 1, got {cap}" in captured.err
    assert captured.out == ""


SPIN_S_SPEC = ["--family", "spin-s", "--s", "1", "--k", "1"]
SUD_SPEC = ["--family", "sud", "--kvec", "1,1"]


@pytest.mark.parametrize("command", ["prepare", "export-circuit"])
@pytest.mark.parametrize(
    "spec, method, flag, family",
    [
        (SPIN_S_SPEC, "qpe-log", ["--xi", "1,2"], "sud"),
        (SUD_SPEC, "hadamard", ["--p", "0.9"], "spin-s"),
        (SPIN_S_SPEC, "sequential", ["--p", "0.3"], "spin-s"),
        (SUD_SPEC, "sequential", ["--xi", "3,4"], "sud"),
    ],
    ids=["xi-spin-s", "p-sud", "p-sequential", "xi-sequential"],
)
def test_boost_flag_that_does_not_apply_is_rejected_before_building(command, spec, method, flag, family, capsys, monkeypatch):
    from quditdicke import cli

    monkeypatch.setattr(cli, "_build_circuit", lambda *args: pytest.fail("built a circuit"))
    assert run_cli([command, "--n", "2", *spec, "--method", method, *flag]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag[0]} applies only to the probabilistic methods of the {family} family\n"
    assert captured.out == ""


def test_usage_errors_exit_2():
    assert run_cli([]) == 2
    assert run_cli(["prepare", "--family", "bogus", "--n", "2"]) == 2


def test_one_parser_serves_every_call_and_keeps_its_usage_errors(capsys, monkeypatch):
    from quditdicke import cli

    built, build_parser = [], cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    argv = ["levelsets", "--kvec", "1,1"]
    assert run_cli(argv) == 0
    first = capsys.readouterr()
    assert run_cli(["levelsets"]) == 2
    assert "the following arguments are required: --kvec" in capsys.readouterr().err
    assert run_cli(["levelsets", "--kvec", "1,1", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert run_cli(argv) == 0
    assert capsys.readouterr() == first
    assert len(built) == 1


def test_amplitude_cap_guard(capsys):
    code = run_cli(["prepare", "--family", "spin-s", "--n", "4", "--s", "1", "--k", "4", "--method", "fanout"])
    assert code == 2
    err = capsys.readouterr().err
    assert "amplitudes" in err and "cap" in err


_SPIN_1E400 = ["--family", "spin-s", "--n", "2", "--s", "1e400", "--k", "1"]


@pytest.mark.parametrize(
    "argv, register",
    [
        (["prepare", *_SPIN_1E400, "--method", "qpe-log"], "2 sites"),
        (["sweep", *_SPIN_1E400, "--method", "hadamard", "--param", "p"], "2 sites"),
        (["prepare", "--family", "spin-s", "--n", "2", "--s", "100000000000000000000", "--k", "1", "--method", "sequential"], "2 sites"),
        (["prepare", "--family", "spin-s", "--n", "100000000", "--s", "0.5", "--k", "1", "--method", "sequential"], "100000000 sites"),
        (["prepare", "--family", "sud", "--n", "100000000", "--kvec", "50000000,50000000", "--method", "fanout"], "100000000 sites"),
        (["export-circuit", *_SPIN_1E400, "--method", "qpe-log"], "2 sites"),
        (["export-circuit", "--family", "spin-s", "--n", "2", "--s", "100000000000000000000", "--k", "1", "--method", "sequential"], "2 sites"),
    ],
    ids=[
        "prepare-huge-dim",
        "sweep-huge-dim",
        "prepare-sequential-huge-dim",
        "prepare-huge-n",
        "prepare-sud-huge-n",
        "export-huge-dim",
        "export-sequential-huge-dim",
    ],
)
def test_oversized_spec_is_rejected_before_building(argv, register, capsys, monkeypatch):
    # the site amplitudes of 2s = 2e400 overflow a float and 2^(10^8) amplitudes are never formed:
    # the spec's own system register is capped before any builder runs
    from quditdicke import cli

    for builders in (cli._SPIN_BUILDERS, cli._SUD_BUILDERS):
        for method in builders:
            monkeypatch.setitem(builders, method, lambda spec, **boost: pytest.fail("built a circuit"))
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: the system register of {register} exceeds the cap of 1000000 amplitudes\n"
    assert captured.out == ""


@pytest.mark.parametrize("kvec", ["100,100,100", "1000,1000,1000", "100,100,99", "10,9090"])
def test_oversized_level_set_index_is_rejected_before_building(kvec, capsys, monkeypatch):
    # prod(k_i + 1) partial occupations are never enumerated past the cap of 10^5; 11 * 9091 is one more
    from quditdicke import cli

    monkeypatch.setattr(cli, "build_level_sets", lambda kvec: pytest.fail("built the level sets"))
    assert run_cli(["levelsets", "--kvec", kvec]) == 2
    captured = capsys.readouterr()
    shown = tuple(int(v) for v in kvec.split(","))
    assert captured.err == f"error: the level-set index of {shown} exceeds the cap of 100000 partial occupations\n"
    assert captured.out == ""


def test_level_set_index_at_the_cap_is_built(capsys):
    from quditdicke.cli import MAX_LEVEL_SET_LABELS

    assert MAX_LEVEL_SET_LABELS == 100 * 1000
    assert run_cli(["levelsets", "--kvec", "99,999"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert sum(len(level["elements"]) for level in data["levels"]) == MAX_LEVEL_SET_LABELS


@pytest.mark.parametrize(
    "argv, flag, family",
    [
        (["prepare", *SUD_SPEC, "--s", "1", "--method", "sequential"], "--s", "spin-s"),
        (["prepare", *SUD_SPEC, "--k", "0", "--method", "hadamard"], "--k", "spin-s"),
        (["prepare", *SPIN_S_SPEC, "--kvec", "1,1", "--method", "qpe-log"], "--kvec", "sud"),
        (["export-circuit", *SUD_SPEC, "--s", "1", "--k", "5", "--method", "sequential"], "--s", "spin-s"),
        (["export-circuit", *SPIN_S_SPEC, "--kvec", "1,1", "--method", "fanout"], "--kvec", "sud"),
        (["sweep", *SPIN_S_SPEC, "--kvec", "1,1", "--method", "hadamard", "--param", "p"], "--kvec", "sud"),
        (["sweep", *SPIN_S_SPEC, "--kvec", "1,1", "--method", "sequential", "--param", "n", "--n-max", "3"], "--kvec", "sud"),
    ],
    ids=["prepare-s", "prepare-k", "prepare-kvec", "export-s-k", "export-kvec", "sweep-p-kvec", "sweep-n-kvec"],
)
def test_spec_flag_of_the_other_family_is_rejected_before_building(argv, flag, family, capsys, monkeypatch):
    from quditdicke import cli

    monkeypatch.setattr(cli, "_build_circuit", lambda *args: pytest.fail("built a circuit"))
    assert run_cli([*argv, "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} applies only to the {family} family\n"
    assert captured.out == ""


def test_prepare_exit_1_on_verification_failure(tmp_path):
    # forcing the boost to 0 while targeting a nonzero charge starves the
    # acceptance branch; the run completes but fails verification
    out = tmp_path / "report.json"
    code = run_cli(
        ["prepare", "--family", "spin-s", "--n", "2", "--s", "0.5", "--k", "1", "--method", "qpe-log", "--p", "0.0", "--out", str(out)]
    )
    assert code == 1
    report = RunReport.from_json(out.read_text())
    assert report.acceptance_probability < 1e-9


def test_prepare_checks_p_against_the_closed_form_at_the_default_boost(capsys, monkeypatch):
    # a default boost of 1/2 instead of k/(2sn) = 1/3 still prepares the target, F = 1, so only P can show it;
    # an explicit boost moves P off the closed form, so P is then reported and not compared
    readout = qpe._spin_s_readout
    monkeypatch.setattr(qpe, "_spin_s_readout", lambda spec, p: readout(spec, 0.5 if p is None else p))
    argv = ["prepare", "--family", "spin-s", "--n", "3", "--s", "0.5", "--k", "1", "--method", "hadamard"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["acceptance_probability"] == pytest.approx(0.375, abs=1e-12)
    assert report["conditional_fidelity"] >= FIDELITY_ACCEPT
    assert captured.err == f"failed: hadamard: probability {report['acceptance_probability']!r} vs {4 / 9!r}\n"
    assert run_cli(argv + ["--p", "0.5"]) == 0


def test_prepare_names_each_failure_on_stderr(capsys):
    # xi = (1, 0) gives the second level no amplitude: the accepted branch is rounding residue, far from the oracle
    code = run_cli(["prepare", "--family", "sud", "--n", "2", "--kvec", "1,1", "--method", "hadamard", "--xi", "1,0"])
    assert code == 1
    captured = capsys.readouterr()
    assert "hadamard: fidelity 0.0" in captured.err
    assert json.loads(captured.out)["conditional_fidelity"] == 0.0


def test_report_json_round_trip(tmp_path):
    out = tmp_path / "report.json"
    run_cli(["prepare", "--family", "spin-s", "--n", "2", "--s", "0.5", "--k", "1", "--method", "hadamard", "--out", str(out)])
    report = RunReport.from_json(out.read_text())
    assert RunReport.from_json(report.to_json()) == report


def test_prepare_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = run_cli(
        ["prepare", "--family", "spin-s", "--n", "2", "--s", "0.5", "--k", "1", "--method", "qpe-log", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    header, row = out.read_text().strip().splitlines()
    assert header.startswith("family,n,s,k,kvec,method")
    assert row.startswith("spin-s,2,0.5,1,,qpe-log")


def test_seed_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("DICKE_SEED", "77")
    out = tmp_path / "report.json"
    code = run_cli(
        ["prepare", "--family", "spin-s", "--n", "2", "--s", "0.5", "--k", "1", "--method", "hadamard", "--shots", "500", "--out", str(out)]
    )
    assert code == 0
    report = RunReport.from_json(out.read_text())
    assert report.seed == 77
    assert any(note.startswith("sampled acceptance frequency") for note in report.notes)


def test_prepare_without_shots_reports_no_seed(capsys):
    # the report's seed is the one the draws used, and with no shot nothing is drawn
    argv = ["prepare", "--family", "spin-s", "--n", "2", "--s", "0.5", "--k", "1", "--method", "qpe-log", "--seed", "5", "--shots", "0"]
    assert run_cli(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] is None and report["sampled_frequency"] is None
    assert not any(note.startswith("sampled acceptance frequency") for note in report["notes"])


def test_sweep_is_sorted_and_reproducible(tmp_path):
    args = [
        "sweep", "--family", "spin-s", "--n", "2", "--s", "0.5", "--k", "1",
        "--method", "hadamard", "--param", "p", "--points", "11",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(first)]) == 0
    assert run_cli(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    rows = first.read_text().strip().splitlines()
    assert rows[0] == "param,value,acceptance_probability,expected_repetitions,gate_count,logical_depth"
    values = [float(line.split(",")[1]) for line in rows[1:]]
    assert values == sorted(values)
    assert len(values) == 11


def test_prepare_reads_rounding_residue_as_impossible_acceptance(capsys):
    # xi=(1, 0) puts no weight on level 1, so kvec (1, 1) is unreachable: the accept block holds only residue
    code = run_cli(["prepare", "--family", "sud", "--n", "2", "--kvec", "1,1", "--method", "hadamard", "--xi", "1,0"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert 0.0 < report["acceptance_probability"] <= ATOL_PROBABILITY  # reported as measured
    assert report["expected_repetitions"] is None
    assert "acceptance has probability 0: reported as failure" in report["notes"]


def test_sweep_reads_rounding_residue_as_impossible_acceptance(capsys):
    args = ["sweep", "--family", "spin-s", "--n", "2", "--s", "0.5", "--k", "1", "--method", "hadamard", "--param", "p"]
    assert run_cli(args + ["--points", "5"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [row[1] for row in rows] == ["0.0", "0.25", "0.5", "0.75", "1.0"]
    # at p = 0 and p = 1 the k = 1 sector is empty in exact arithmetic
    for row in (rows[0], rows[-1]):
        assert 0.0 < float(row[2]) <= ATOL_PROBABILITY and row[3] == "inf"
    assert [row[3] for row in rows[1:-1]] == [repr(1.0 / float(row[2])) for row in rows[1:-1]]


def test_sweep_over_n(tmp_path):
    out = tmp_path / "n.csv"
    code = run_cli(
        ["sweep", "--family", "spin-s", "--n", "2", "--s", "0.5", "--k", "1", "--method", "sequential",
         "--param", "n", "--n-max", "5", "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert [int(r.split(",")[1]) for r in rows] == [2, 3, 4, 5]
    # deterministic circuits accept with certainty
    assert all(abs(float(r.split(",")[2]) - 1.0) < 1e-9 for r in rows)


def test_levelsets_output(capsys):
    assert run_cli(["levelsets", "--kvec", "1,1,1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["chi"] == 3
    assert data["levels"][1]["elements"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_export_circuit_round_trips(tmp_path, capsys):
    code = run_cli(["export-circuit", "--family", "spin-s", "--n", "2", "--s", "0.5", "--k", "1", "--method", "sequential"])
    assert code == 0
    circuit = circuit_from_json(capsys.readouterr().out)
    assert circuit.register.dims == (2, 2, 2)
    state = circuit.run()
    assert abs(state.norm() - 1.0) < 1e-12


def test_verify_reports_failures(monkeypatch, capsys):
    from quditdicke import cli
    from quditdicke.suites import CriterionResult

    def fake_run_all(cap):
        return [
            CriterionResult("criterion-x", "stub pass", True, []),
            CriterionResult("criterion-y", "stub fail", False, ["broken"]),
        ]

    monkeypatch.setattr(cli, "run_all", fake_run_all)
    assert run_cli(["verify"]) == 1
    out = capsys.readouterr().out
    assert "PASS criterion-x" in out and "FAIL criterion-y" in out

    monkeypatch.setattr(cli, "run_all", lambda cap: [CriterionResult("criterion-x", "stub pass", True, [])])
    assert run_cli(["verify"]) == 0


def test_verify_runs_real_suites_under_small_cap():
    # plumbing check with a tight cap; the full-cap run lives in the acceptance tests
    assert run_cli(["verify", "--max-amplitudes", "5000"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["prepare", "--family", "spin-s", "--n", "2", "--s", "1", "--k", "1", "--method", "hadamard"],
        ["sweep", "--family", "spin-s", "--n", "2", "--s", "0.5", "--k", "1", "--method", "hadamard", "--param", "p"],
        ["levelsets", "--kvec", "2,1"],
        ["export-circuit", "--family", "spin-s", "--n", "2", "--s", "1", "--k", "1", "--method", "hadamard"],
    ],
    ids=["prepare", "sweep", "levelsets", "export-circuit"],
)
def test_out_in_missing_directory_is_rejected_before_any_work(argv, tmp_path, capsys, monkeypatch):
    from quditdicke import cli

    monkeypatch.setitem(cli._SPIN_BUILDERS, "hadamard", lambda spec, p: pytest.fail("built a circuit"))
    monkeypatch.setattr(cli, "build_level_sets", lambda kvec: pytest.fail("built the level sets"))
    missing = tmp_path / "missing"
    assert run_cli([*argv, "--out", str(missing / "out.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --out directory {missing} does not exist\n"
    assert captured.out == ""
    assert not missing.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["prepare", "--family", "spin-s", "--n", "2", "--s", "0.5", "--k", "1", "--method", "hadamard"],
        ["sweep", "--family", "spin-s", "--n", "2", "--s", "0.5", "--k", "1", "--method", "hadamard", "--param", "p", "--points", "2"],
        ["levelsets", "--kvec", "2,1"],
        ["export-circuit", "--family", "spin-s", "--n", "2", "--s", "1", "--k", "1", "--method", "hadamard"],
    ],
    ids=["prepare", "sweep", "levelsets", "export-circuit"],
)
def test_out_that_cannot_be_written_exits_2(argv, tmp_path, capsys):
    # the directory exists, so the early check passes and the write itself fails
    assert run_cli([*argv, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: could not write --out {tmp_path}: Is a directory\n"
    assert captured.out == ""
