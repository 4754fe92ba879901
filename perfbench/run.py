"""Benchmark of boltzgas on three workloads.

    python3 perfbench/run.py --workload tagged-grazing --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ``src/`` of
the checkout that holds this file.  A run sets the workload up several
times, then runs whole rounds of the workload until ``--seconds`` have
passed, checks the outputs, and prints one metric per line followed by
one JSON object as the last line of standard output.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
alternates untraced and traced rounds, reports the per-layer metrics and
the tracing overhead, and writes the spans to ``perfbench/out/``.
``--workload all`` runs every workload, one process after another.

The rounds' time metrics are reported at a nominal machine speed: the
harness times the workload's fixed numpy reference computation
(``speed.py``) between rounds, and scales each round's times by the
median reference time just before and just after the round.
``setup_s`` is not scaled.  The unscaled wall time and the machine's
mean slowness are printed as ``as measured:`` lines.
"""

import ctypes
import ctypes.util
import os

# One BLAS thread: the library's matrix products are small, and a single
# thread keeps the run within the machine's cores and steady.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def fix_allocator():
    """Keep freed heap memory mapped, so large temporaries are reused.

    glibc's malloc otherwise adapts its mmap and trim thresholds to the
    allocations it has seen, so how many of numpy's large temporaries are
    mapped and unmapped per call, and so the number of page faults,
    differs from process to process.  Fixed thresholds (32 MiB to mmap,
    1 GiB to trim) take the page faults out of the timed rounds.
    Returns whether the thresholds were set; elsewhere than glibc they
    are left alone.
    """
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 32 << 20)) and bool(
        mallopt(m_trim_threshold, 1 << 30)
    )


ALLOCATOR_FIXED = fix_allocator()

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def import_library():
    """Import the library from this checkout; return the seconds it took."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import boltzgas

    if Path(boltzgas.__file__).resolve().parent != ROOT / "src" / "boltzgas":
        raise ImportError(f"boltzgas imported from {boltzgas.__file__}, not this checkout")
    return time.perf_counter() - start


def measure(workload, seconds, trace):
    """Run whole rounds until ``seconds`` have passed.

    Each round record gains its measured wall time and the seconds it
    spent in each stage, and then those times at nominal machine speed.
    The workload's reference is timed between rounds, about three times
    per second of round, and a round's slowness is the median of the
    samples just before and just after it: the machine's speed swings
    within seconds, so only samples next to a round follow it.
    With tracing, odd rounds are traced and even rounds are not, so the
    overhead is the ratio of their mean times within one process.
    Returns the tracer of the traced rounds.
    """
    import speed
    from tracing import Tracer, traced_model_class

    traced_tracer = Tracer(trace)
    plain_tracer = Tracer(False)
    traced_cls = traced_model_class(workload.model_class, traced_tracer)
    boundaries = [speed.sample(workload.reference, 3)]
    start = time.perf_counter()
    r = 0
    while True:
        traced = trace and r % 2 == 1
        tracer = traced_tracer if traced else plain_tracer
        tracer.round = r
        before = dict(tracer.totals)
        began = time.perf_counter()
        workload.round(r, tracer, traced_cls if traced else workload.model_class, traced)
        rec = workload.rounds[-1]
        rec["raw_wall"] = time.perf_counter() - began
        rec["raw_stages"] = {
            k: v[0] - before.get(k, (0.0, 0))[0] for k, v in tracer.totals.items()
        }
        reps = max(3, round(3 * rec["raw_wall"]))
        boundaries.append(speed.sample(workload.reference, reps))
        r += 1
        if time.perf_counter() - start >= seconds and r >= (2 if trace else 1):
            break
    for rec, before, after in zip(workload.rounds, boundaries, boundaries[1:]):
        slow = rec["slowness"] = speed.slowness(workload.reference, before + after)
        rec["wall"] = rec["raw_wall"] / slow
        rec["stages"] = {k: v / slow for k, v in rec["raw_stages"].items()}
    traced_tracer.enabled = False
    return traced_tracer


def run_one(name, seed, seconds, trace, size=None, out_root=None):
    """Run one workload in this process.

    Returns the result document and the workload, whose round records
    the self-test checks again against wrong references.
    """
    import_s = import_library()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    out_root = HERE / "out" if out_root is None else out_root
    out_dir = out_root / f"{name}-{seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[name](seed, out_dir, size)
        setups = []
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - began)
        traced = measure(workload, seconds, trace)
        walls = {}
        for flag in {rec["traced"] for rec in workload.rounds}:
            recs = [rec for rec in workload.rounds if rec["traced"] == flag]
            walls[flag] = (
                statistics.fmean(r["wall"] for r in recs),
                statistics.fmean(r["raw_wall"] for r in recs),
            )
        if trace:
            values = workload.layers(traced)
            values["trace.overhead_pct"] = 100.0 * (walls[True][0] / walls[False][0] - 1.0)
            with open(out_root / f"trace-{name}-{seed}.jsonl", "w") as fh:
                for tracer in [traced] + workload.probe_tracers:
                    tracer.write(fh)
        else:
            values = workload.end_to_end()
            values["wall_s"] = walls[False][0]
            values["setup_s"] = import_s + statistics.median(setups)
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            print(f"as measured: malloc thresholds fixed = {ALLOCATOR_FIXED}")
            print(f"as measured: wall_s = {walls[False][1]:.6g}")
            slow = statistics.fmean(
                rec["slowness"] for rec in workload.rounds if not rec["traced"]
            )
            print(f"as measured: slowness, {workload.reference} reference = {slow:.4g}")
        results = workload.checks(workload.references())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json"
        )
    failed = sum(1 for _, c in results if not c.ok)
    for _, c in results:
        if not c.ok:
            print(f"FAIL {c.name}: {c.detail}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": workload.operations() + len(results),
        "failed": failed,
        "metrics": {
            k: {"value": float(values[k]), "unit": units[k]} for k in sorted(units)
        },
    }, workload


def run_all(seed, seconds, trace):
    """Run every workload in its own process, one after another."""
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            ok = False
            continue
        doc = json.loads(lines[-1])
        ok = ok and doc["correct"]
        print(f"== {name}: correct={doc['correct']} attempted={doc['attempted']} "
              f"failed={doc['failed']}")
        for key, m in doc["metrics"].items():
            print(f"   {key} = {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("seed must be nonnegative and seconds positive")
    if args.workload == "all":
        import_library()
        return run_all(args.seed, args.seconds, args.trace)
    doc, _ = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, m in doc["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
