"""Command-line front end.

Subcommands: ``prepare`` builds, simulates, and verifies one target;
``verify`` runs the full acceptance suites; ``sweep`` emits a CSV grid
over the boost parameter p or the size n; ``levelsets`` prints the label
structure of an occupation vector; ``export-circuit`` writes a circuit in
the exchange format.  Exit codes: 0 success, 1 verification failure,
2 usage error, which includes an ``--out`` path in a missing directory
(rejected before any work) or one that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from fractions import Fraction

from .levelsets import build_level_sets
from .qpe import BUILDERS
from .reference import DickeSpecSpinS, DickeSpecSUD, spin_s_dicke, sud_dicke
from .report import count_resources, expected_repetitions
from .serialize import circuit_to_json
from .sim import accepted_branch
from .suites import DEFAULT_MAX_AMPLITUDES, check_case, expected_probability, run_all

# the level-set index keeps a tuple and a dict entry per partial occupation, about 550 B each,
# so its cap is set by memory rather than borrowed from the 16 B amplitudes
MAX_LEVEL_SET_LABELS = 100_000


def _parse_spin(text: str) -> int:
    """Spin value like '0.5', '1', or '3/2', returned as twice the spin."""
    try:
        twice = 2 * Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"spin {text} has a zero denominator") from None
    if twice.denominator != 1 or twice < 1:
        raise ValueError(f"spin {text} is not a positive half-integer")
    return int(twice)


def _parse_vector(text: str, cast, what: str) -> tuple:
    try:
        return tuple(cast(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"could not parse {what} {text!r}") from None


def _default_seed(args) -> int | None:
    """``--seed``, else a nonempty ``DICKE_SEED``, else None."""
    seed = args.seed if args.seed is not None else os.environ.get("DICKE_SEED") or None
    if seed is not None and not str(seed).isdecimal():
        raise ValueError(f"--seed and DICKE_SEED take a nonnegative integer, got {seed!r}")
    return None if seed is None else int(seed)


def _spec_from_args(args):
    if args.family == "spin-s":
        if args.s is None or args.k is None:
            raise ValueError("family spin-s needs --s and --k")
        return DickeSpecSpinS(args.n, _parse_spin(args.s), args.k)
    if args.kvec is None:
        raise ValueError("family sud needs --kvec")
    return DickeSpecSUD(args.n, _parse_vector(args.kvec, int, "occupation vector"))


_SPIN_BUILDERS = BUILDERS["spin-s"]
_SUD_BUILDERS = BUILDERS["sud"]


def _build_circuit(spec, method: str, p: float | None, xi, cap: int | None = None):
    """The spec's circuit from the method registry, given the boost if one is set.  Under a ``cap``, a larger
    register is a usage error: the spec's system register is checked before any builder runs, the built one after."""
    spin = isinstance(spec, DickeSpecSpinS)
    if cap is not None:
        _cap_check(itertools.repeat(spec.dim if spin else spec.d, spec.n), cap, f"the system register of {spec.n} sites")
    build, name, boost = (_SPIN_BUILDERS[method], "p", p) if spin else (_SUD_BUILDERS[method], "xi", xi)
    circuit = build(spec) if boost is None else build(spec, **{name: boost})
    if cap is not None:
        _cap_check(circuit.register.dims, cap, f"register {list(circuit.register.dims)}")
    return circuit


def _check_spec_flags(args) -> None:
    """Reject a spec flag of the other family, which the spec would otherwise ignore."""
    for flag, value, family in (("--s", args.s, "spin-s"), ("--k", args.k, "spin-s"), ("--kvec", args.kvec, "sud")):
        if value is not None and args.family != family:
            raise ValueError(f"{flag} applies only to the {family} family")


def _spec_and_circuit(args):
    """The spec and its circuit under ``--max-amplitudes``; a spec or boost flag the spec does not take is a usage error."""
    _check_spec_flags(args)
    for flag, value, family in (("--p", args.p, "spin-s"), ("--xi", args.xi, "sud")):
        if value is not None and (args.method == "sequential" or args.family != family):
            raise ValueError(f"{flag} applies only to the probabilistic methods of the {family} family")
    spec = _spec_from_args(args)
    xi = _parse_vector(args.xi, float, "xi vector") if args.xi else None
    return spec, _build_circuit(spec, args.method, args.p, xi, args.max_amplitudes)


def _oracle(spec):
    return spin_s_dicke(spec) if isinstance(spec, DickeSpecSpinS) else sud_dicke(spec)


def _cap_check(dims, cap: int, register: str, unit: str = "amplitudes") -> None:
    """Reject a register whose wire dimensions multiply past ``cap``.  The product stops there, so an
    oversized spec's dimensions are never multiplied out."""
    size = 1
    for dim in dims:
        size *= dim
        if size > cap:
            raise ValueError(f"{register} exceeds the cap of {cap} {unit}")


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True, choices=("spin-s", "sud"))
    parser.add_argument("--n", required=True, type=int)
    parser.add_argument("--s", help="spin, e.g. 0.5, 1, 3/2 (spin-s family)")
    parser.add_argument("--k", type=int, help="target charge (spin-s family)")
    parser.add_argument("--kvec", help="comma-separated occupations (sud family)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quditdicke", description="Build, simulate, and verify qudit Dicke-state circuits")
    sub = parser.add_subparsers(dest="command", required=True)

    prepare = sub.add_parser("prepare", help="build, simulate, and verify one target state")
    _add_spec_flags(prepare)
    prepare.add_argument("--method", required=True, choices=tuple(BUILDERS["spin-s"]))
    prepare.add_argument("--p", type=float, help="override the boost parameter (spin-s)")
    prepare.add_argument("--xi", help="override the boost weights, comma-separated (sud)")
    prepare.add_argument("--seed", type=int)
    prepare.add_argument("--shots", type=int, default=10_000, help="sampling shots when a seed is set")
    prepare.add_argument("--out")
    prepare.add_argument("--format", choices=("json", "csv"), default="json")
    prepare.add_argument("--max-amplitudes", type=int, default=DEFAULT_MAX_AMPLITUDES)

    verify = sub.add_parser("verify", help="run the full acceptance suites")
    verify.add_argument("--max-amplitudes", type=int, default=DEFAULT_MAX_AMPLITUDES)

    sweep = sub.add_parser("sweep", help="CSV grid of acceptance probability and counts (spin-s)")
    _add_spec_flags(sweep)
    sweep.add_argument("--method", required=True, choices=tuple(BUILDERS["spin-s"]))
    sweep.add_argument("--param", required=True, choices=("p", "n"))
    sweep.add_argument("--points", type=int, default=101, help="grid points for --param p")
    sweep.add_argument("--n-max", type=int, help="upper end for --param n (lower end is --n)")
    sweep.add_argument("--out")
    sweep.add_argument("--max-amplitudes", type=int, default=DEFAULT_MAX_AMPLITUDES)

    levelsets = sub.add_parser("levelsets", help="print the level-set index of an occupation vector")
    levelsets.add_argument("--kvec", required=True)
    levelsets.add_argument("--out")

    export = sub.add_parser("export-circuit", help="write a circuit in the exchange format")
    _add_spec_flags(export)
    export.add_argument("--method", required=True, choices=tuple(BUILDERS["spin-s"]))
    export.add_argument("--p", type=float)
    export.add_argument("--xi")
    export.add_argument("--out")
    export.add_argument("--max-amplitudes", type=int, default=DEFAULT_MAX_AMPLITUDES)

    return parser


def _check_out(out: str | None) -> None:
    """Reject an ``--out`` path whose directory does not exist, before any work."""
    if out:
        directory = os.path.dirname(os.path.abspath(out))
        if not os.path.isdir(directory):
            raise ValueError(f"--out directory {directory} does not exist")


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise ValueError(f"could not write --out {out}: {exc.strerror or exc}") from None
    else:
        print(text)


def _cmd_prepare(args) -> int:
    if args.shots < 0:
        raise ValueError(f"--shots must be >= 0, got {args.shots}")
    seed = _default_seed(args)
    spec, circuit = _spec_and_circuit(args)
    # a boost flag moves P off the closed form, which holds at the default boost only
    expected = expected_probability(spec, args.method) if args.p is None and args.xi is None else None
    report, failures = check_case(args.method, circuit, _oracle(spec), expected, args.shots if seed is not None else 0, seed)
    text = report.to_json() if args.format == "json" else report.CSV_HEADER + "\n" + report.to_csv_row()
    _emit(text, args.out)
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_verify(args) -> int:
    results = run_all(args.max_amplitudes)
    failed = False
    for result in results:
        print(f"{'PASS' if result.passed else 'FAIL'} {result.ident}: {result.description}")
        for line in result.details:
            print(f"    {line}")
        failed = failed or not result.passed
    return 1 if failed else 0


def _cmd_sweep(args) -> int:
    if args.family != "spin-s":
        raise ValueError("sweep supports the spin-s family (the sud occupation vector pins n)")
    _check_spec_flags(args)
    if args.param == "p":
        if args.method == "sequential":
            raise ValueError("--param p applies to the probabilistic methods")
        if args.points < 1:
            raise ValueError(f"--points must be >= 1, got {args.points}")
        spec = _spec_from_args(args)
        points = (i / (args.points - 1) if args.points > 1 else 0.0 for i in range(args.points))
        grid = ((p, spec, p) for p in points)
    else:
        if args.n_max is None or args.n_max < args.n:
            raise ValueError("--param n needs --n-max >= --n")
        twice_s = _parse_spin(args.s) if args.s else None
        if twice_s is None or args.k is None:
            raise ValueError("--param n needs --s and --k")
        grid = ((n, DickeSpecSpinS(n, twice_s, args.k), None) for n in range(args.n, args.n_max + 1))
    lines = ["param,value,acceptance_probability,expected_repetitions,gate_count,logical_depth"]
    for value, spec, p in grid:
        circuit = _build_circuit(spec, args.method, p, None, args.max_amplitudes)
        probability = accepted_branch(circuit)[1]
        gates, depth, _ = count_resources(circuit)
        lines.append(f"{args.param},{value!r},{probability!r},{expected_repetitions(probability)!r},{gates},{depth}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_levelsets(args) -> int:
    kvec = _parse_vector(args.kvec, int, "occupation vector")
    # the index lists all prod(k_i + 1) partial occupations
    _cap_check((k + 1 for k in kvec), MAX_LEVEL_SET_LABELS, f"the level-set index of {kvec}", "partial occupations")
    index = build_level_sets(kvec)
    _emit(json.dumps(index.to_dict(), indent=2), args.out)
    return 0


def _cmd_export(args) -> int:
    _, circuit = _spec_and_circuit(args)
    _emit(circuit_to_json(circuit), args.out)
    return 0


_COMMANDS = {
    "prepare": _cmd_prepare,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "levelsets": _cmd_levelsets,
    "export-circuit": _cmd_export,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``cli_main``, built on its first call; ``parse_args`` leaves it unchanged."""
    return build_parser()


def cli_main(argv) -> int:
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "max_amplitudes", 1) < 1:
            raise ValueError(f"--max-amplitudes must be >= 1, got {args.max_amplitudes}")
        _check_out(getattr(args, "out", None))
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
