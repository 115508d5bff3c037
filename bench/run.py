#!/usr/bin/env python3
"""Benchmark of cavitychain's four kinds of computation.

Run from the root of a source checkout:

    python3 bench/run.py --workload figure-sweeps --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload runs in one process.  The process checks that ``src/cavitychain``
is present, times ``setup_s`` over fresh interpreters, runs a warm-up pass
whose outputs it checks against the benchmark's own physics (and checks that
every check fails on its negative control), then times passes for
``--seconds``, running slices of the reference kernel after every operation
(see ``refkernel.py``).  Every timed pass must reproduce the
verified outputs exactly.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``pass_ref``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` every other pass is traced and the
metrics are the per-layer ones.  ``--workload all`` runs each workload in a
child process and prints one result line per workload.

A detailed record of each run (raw pass seconds, reference-kernel parts,
machine and library versions) is written to ``bench/out/``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import refkernel  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
NAMES = ("figure-sweeps", "oracle-gate", "wavepacket", "trapped-modes")

#: Set-up interpreters timed for ``setup_s``, each paired with a base one.
SETUP_REPEATS = 7
#: Wall seconds of a bare ``import numpy`` interpreter on the reference
#: machine (2 vCPUs, Python 3.11.7, numpy 2.4.6) at its fast speed.
BASE_SECONDS = 0.15
#: Fewest timed passes a run makes, whatever ``--seconds`` says.
MIN_PASSES = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import cavitychain from this checkout's ``src`` and nowhere else."""
    if not (SRC / "cavitychain" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'cavitychain'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    # cli's sidecar asks git for a hash; keep git from searching above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    import cavitychain

    if Path(cavitychain.__file__).resolve().parent != (SRC / "cavitychain").resolve():
        sys.exit(f"bench: imported cavitychain from {cavitychain.__file__}, not {SRC}")
    import workloads

    return workloads


def _wall(argv: list[str]) -> float:
    start = time.perf_counter()
    # No timeout: waiting with one polls in steps of up to 50 ms.
    subprocess.run(argv, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def time_setup(args) -> tuple[float, list]:
    """Set-up seconds at the reference speed, and the raw (set-up, base) walls.

    Fresh interpreters that import the package and build the inputs alternate
    with bare ``import numpy`` interpreters, the floor every run pays.  Raw
    walls drift with the machine by up to 25 % between sets of runs; their
    ratio does not, and ``BASE_SECONDS`` turns it back into seconds.
    """
    walls = []
    for _ in range(SETUP_REPEATS):
        setup = _wall([sys.executable, str(Path(__file__).resolve()), "--workload",
                       args.workload, "--seed", str(args.seed), "--seconds", "0",
                       "--setup-only"])
        walls.append((setup, _wall([sys.executable, "-c", "import numpy"])))
    return statistics.median(s / b for s, b in walls) * BASE_SECONDS, walls


def fingerprint(records: list) -> bytes:
    return pickle.dumps(records, protocol=4)


def environment() -> dict:
    import numpy as np

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    info["blas_threads"] = os.environ["OPENBLAS_NUM_THREADS"]
    return info


def run_workload(args) -> int:
    wl = import_package()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = wl.WORKLOADS[args.workload](args.seed, SRC, workdir)
        if args.setup_only:
            return 0
        return measure(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload) -> int:
    setup_s, setup_walls = (None, []) if args.trace else time_setup(args)

    def log(msg: str) -> None:
        print(f"bench[{args.workload}]: {msg}", file=sys.stderr)

    records, _ = workload.run_pass()
    # Before the checks allocate their own arrays: import, inputs and one pass.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed_per_pass, problems = workload.check(records)
    missed = workload.negative_controls(records)
    for problem in problems:
        log(f"check failed: {problem}")
    for label in missed:
        log(f"negative control not rejected: {label}")
    for op, record in zip(workload.ops, records):
        if "error" in record:
            log(f"operation failed: {workload.describe(op)}: {record['error']}")
    correct = not problems and not missed
    verified = fingerprint(records)

    tracer = tracing.Tracer() if args.trace else None
    sampler = refkernel.Sampler()
    runs = {"plain": [], "traced": []}
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while True:
        traced_pass = bool(tracer) and passes % 2 == 1
        if traced_pass:
            tracer.install()
        try:
            out, busy = workload.run_pass(sampler.after)
        finally:
            if traced_pass:
                tracer.uninstall()
        runs["traced" if traced_pass else "plain"].append((busy, sampler.take_ref()))
        if fingerprint(out) != verified:
            failed, problems = workload.check(out)
            if problems or failed != failed_per_pass:
                correct = False
                log(f"pass {passes} differs from the verified pass: {problems}")
        passes += 1
        enough = len(runs["plain"]) >= MIN_PASSES and (
            not tracer or len(runs["traced"]) >= MIN_PASSES)
        if enough and time.perf_counter() >= deadline:
            break

    plain = [busy / ref for busy, ref in runs["plain"]]
    pass_ref = statistics.median(plain)
    if tracer:
        traced = [busy / ref for busy, ref in runs["traced"]]
        overhead = statistics.median(traced) / pass_ref
        layer = tracing.layer_metrics(tracer, len(traced), overhead)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    else:
        metrics = {
            "pass_ref": {"value": pass_ref, "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": correct,
        "attempted": passes * len(workload.ops),
        "failed": passes * failed_per_pass,
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "result": result,
        "slices_per_ref": refkernel.SLICES_PER_REF,
        "pass_s_and_ref_s": runs, "ref_part_s": sampler.parts,
        "pass_ref": pass_ref, "setup_s": setup_s, "setup_and_base_wall_s": setup_walls,
        "peak_rss_mb": peak_rss_mb,
        "ops_per_pass": len(workload.ops), "failed_per_pass": failed_per_pass,
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    raw = [busy for busy, _ in runs["plain"]]
    refs = [ref for _, ref in runs["plain"]]
    log(f"{passes} passes, median pass {statistics.median(raw):.4f} s, median ref "
        f"{statistics.median(refs):.4f} s, pass_ref {pass_ref:.4f}; see {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one result line per workload."""
    status = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(json.dumps({"workload": name, "exit_code": proc.returncode}))
            status = 1
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        if not (SRC / "cavitychain" / "__init__.py").is_file():
            sys.exit(f"bench: no package source at {SRC / 'cavitychain'}; run from a checkout")
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
