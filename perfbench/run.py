"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and exits with code 2, printing no result, when that is missing.

With ``--trace 0`` the workload's passes run with no instrumentation for
``--seconds`` seconds and the end-to-end metrics of BENCHMARK.json are
reported: ``setup_s`` (median of one in-process and ``SETUP_PROBES``
fresh-process set-ups, half of them before the passes and half after),
``peak_rss_mib`` and ``wall_s`` (median time of the program calls in one
pass).  With ``--trace 1`` two untraced passes are timed,
then one traced pass, and the per-layer metrics of the traced pass are
reported with ``trace.overhead_ratio`` (traced pass time over the faster
untraced one).

Standard output ends with one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it are
``env {...}`` (machine and library record) and ``details {...}``
(``--trace 0``: every named metric of the workload, including
``fail_ratio``; ``--trace 1``: the traced spans aggregated by name).
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# set-up is timed from here: importing numpy and the package, and making inputs
_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("verify", "prepare-large", "sample")
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 30
# the faster of two untraced passes is the reference, so a warm-up pass does not count
UNTRACED_PASSES = 2
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mib": "MiB", "wall_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def measure(workload, gate, seconds: float) -> list[dict]:
    """Run passes until the next one would end after ``seconds``; at least one."""
    passes, durations = [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append(workload.run_pass(gate))
        durations.append(time.perf_counter() - begun)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return passes


def setup_probe(args) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _size_bytes(text: str) -> int | None:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units and text[:-1].isdigit():
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else None


def _blas_threads() -> int | None:
    """Thread count the OpenBLAS that numpy links reports, when it can be asked."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    # symbols of the libraries numpy links are found through its own handle
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        function = getattr(lib, symbol, None)
        if function is not None:
            function.restype = ctypes.c_int
            function.argtypes = []
            return int(function())
    return None


def environment(workload) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    caches = _cache_sizes()
    l3 = _size_bytes(caches.get("L3", ""))
    largest = workload.largest_vector_bytes
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "caches": caches,
        "largest_vector_bytes": largest,
        "cache_resident": None if l3 is None else largest <= l3,
        "note": (
            "the largest state vector fits in the last-level cache, so these runs support no DRAM-bandwidth claim"
            if l3 is not None and largest <= l3
            else "the largest state vector exceeds the last-level cache"
        ),
    }


def end_to_end(workload, gate, args, setup_s: float) -> tuple[dict, dict]:
    # half the probes before the passes and half after, so the median spans the run's drift
    setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES // 2)]
    passes = measure(workload, gate, args.seconds)
    setups += [setup_probe(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss_mib(),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    details = {name: {"value": value, "unit": unit} for name, (value, unit) in workload.summarize(passes).items()}
    details["setup_s"] = metrics["setup_s"]
    details["peak_rss_mib"] = metrics["peak_rss_mib"]
    details["fail_ratio"] = {"value": gate.failed / gate.attempted if gate.attempted else 1.0, "unit": "ratio"}
    details["passes"] = {"value": len(passes), "unit": "count"}
    return metrics, details


def per_layer(workload, gate) -> tuple[dict, dict]:
    import spans

    untraced = []
    for _ in range(UNTRACED_PASSES):
        begun = time.perf_counter()
        workload.run_pass(gate)
        untraced.append(time.perf_counter() - begun)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = tracer.wrap(workload.run_pass, "bench")(gate)
    values = tracer.per_layer()
    values.update(tracer.peak_support_ratios())
    values["suites.cases_skipped"] = traced.get("cases_skipped", 0)
    values["trace.overhead_ratio"] = values["trace.wall_s"] / min(untraced)
    units = spans.per_layer_units()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    by_name = {}
    for _, name, start, end, _, _ in tracer.spans:
        entry = by_name.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start
    details = {name: {"spans": count, "s": seconds} for name, (count, seconds) in sorted(by_name.items())}
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "quditdicke" / "__init__.py").is_file():
        print("error: the package source src/quditdicke is not in this checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # the program reads its sampling seed from here; the benchmark owns all seeds
    os.environ.pop("DICKE_SEED", None)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    gate = workloads.Gate()
    if args.trace:
        metrics, details = per_layer(workload, gate)
    else:
        metrics, details = end_to_end(workload, gate, args, setup_s)
    print("env " + json.dumps(environment(workload), sort_keys=True))
    print("details " + json.dumps(details))
    for message in gate.messages:
        print(f"failed check: {message}", file=sys.stderr)
    result = {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
