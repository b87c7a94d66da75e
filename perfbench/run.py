"""Run one qapgas benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gas-n4 --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports qapgas from ``src/`` of the same
checkout.  With ``--trace 0`` it sets the workload up once, repeats its
measured work for about ``--seconds`` seconds with tracing off, repeats the
set-up a few times on its own and prints the end-to-end metrics.  With
``--trace 1`` it runs an untraced pass, a traced pass and another untraced
pass and prints the per-layer metrics.  Either way
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record, with
the host and the computed working-set sizes, goes to ``perfbench/out/``.  The
exit code is 1 when any correctness gate fails, 2 when the sources are
missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer

# numpy asks the kernel to back large arrays with huge pages, which it does
# only while the host has free ones.  That made circuits' peak RSS read 136 MB
# in one set of runs and 122 MB in another, so the benchmark turns the advice
# off.  numpy reads this when it is first imported, which happens below.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Set-up is repeated beyond the measured passes so setup_s is a median: at
# least MIN_SETUPS samples, and more while they take under a tenth of the run.
MIN_SETUPS = 3
MAX_SETUPS = 25


def import_library() -> None:
    """Put this checkout's ``src/`` first on the path; exit 2 if it is missing."""
    if not (SRC / "qapgas" / "__init__.py").is_file():
        print(f"error: no qapgas sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qapgas

    if Path(qapgas.__file__).resolve().parent != SRC / "qapgas":
        print(f"error: imported qapgas from {qapgas.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def host_record() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "ram_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        "llc_bytes": last_level_cache_bytes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def last_level_cache_bytes() -> int | None:
    best_level, best_size = 0, None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        if level > best_level:
            best_level, best_size = level, size
    return best_size


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# untraced: end-to-end metrics
# ---------------------------------------------------------------------------


def measure(workload, seed: int, seconds: float) -> dict:
    off = Tracer(False)
    works, run_rates, query_rates = [], [], []
    attempted = failed = 0
    errors, science = [], {}
    started = time.perf_counter()
    ctx = workload.setup(seed, off)
    setups = [time.perf_counter() - started]
    sizes = workload.computed_sizes(ctx)
    while True:
        # Repetitions run the measured work on the same inputs, back to back,
        # so no set-up reshapes the heap between them.
        if works and workload.fresh_inputs:
            del ctx
            t0 = time.perf_counter()
            ctx = workload.setup(seed, off)
            setups.append(time.perf_counter() - t0)
        t1 = time.perf_counter()
        out = workload.run(ctx, off)
        t2 = time.perf_counter()
        works.append(t2 - t1)
        if len(works) == 1:
            # Later repetitions may leave glibc holding a freed 16 MiB block of
            # the simulation while it maps a new one, which added 16 MB to
            # circuits' peak in some processes and not in others.
            peak_rss = peak_rss_mb()
        run_rates.append(out.runs / (t2 - t1))
        query_rates.append(out.queries / (t2 - t1))
        attempted += out.attempted
        failed += out.failed
        errors.extend(out.errors)
        science = out.science
        # Stop at the whole number of repetitions whose end lies nearest to `seconds`.
        if time.perf_counter() - started + statistics.median(works) / 2 > seconds:
            break
    del ctx
    extra = 0.0
    while len(setups) < MIN_SETUPS or (len(setups) < MAX_SETUPS and extra < seconds / 10):
        t0 = time.perf_counter()
        workload.setup(seed, off)
        setups.append(time.perf_counter() - t0)
        extra += setups[-1]
    # The first repetition is a warm-up: it fills caches, builds state lazily
    # and raises glibc's mmap threshold, which made circuits' first simulation
    # about 50 % slower.  It is reported only when it is the only one.
    warm = slice(1, None) if len(works) > 1 else slice(None)
    metrics = {
        "wall_s": (statistics.median(setups) + statistics.median(works[warm]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "runs_per_s": (statistics.median(run_rates[warm]), "runs/s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    # Printed but not gated: on gas-large the query count of a few runs
    # varies by a third between seeds while the time is the index build's.
    reported = {
        "queries_per_s": (statistics.median(query_rates[warm]), "queries/s"),
        "fail_rate": (failed / attempted if attempted else 1.0, "fraction"),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "reported": reported,
        "samples": {"repetitions": len(works), "work_s": works, "setup_s": setups},
        "science": science,
        "computed_sizes": sizes,
    }


# ---------------------------------------------------------------------------
# traced: per-layer metrics
# ---------------------------------------------------------------------------


def measure_traced(workload, seed: int, spans_path: Path) -> dict:
    """An untraced pass, the traced pass, and a second untraced pass.

    The untraced passes bracket the traced one in time, so their mean cancels
    a steady drift in host speed when it is subtracted for trace.overhead_s.
    """
    from workloads import tracing_patches

    off = Tracer(False)
    untraced, untraced_walls = [], []

    def untraced_pass():
        t0 = time.perf_counter()
        ctx = workload.setup(seed, off)
        untraced.append(workload.run(ctx, off))
        untraced_walls.append(time.perf_counter() - t0)
        return workload.computed_sizes(ctx)

    sizes = untraced_pass()
    tracer = Tracer(True)
    with tracer.span("bench.pass"), tracing_patches(tracer):
        ctx = workload.setup(seed, tracer)
        traced = workload.run(ctx, tracer)
        del ctx
    tracer.write(spans_path)
    untraced_pass()

    outcomes = [*untraced, traced]
    attempted = sum(out.attempted for out in outcomes) + 1
    failed = sum(out.failed for out in outcomes)
    errors = [error for out in outcomes for error in out.errors]
    if any(out.kind_queries != traced.kind_queries for out in untraced):
        failed += 1
        errors.append("traced query counts differ from the untraced ones")
    summary = tracer.summary()
    traced_wall = tracer.spans[0].busy
    untraced_wall = statistics.mean(untraced_walls)
    metrics = layer_metrics(summary, tracer.counters, sizes, traced_wall, untraced_wall)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "reported": {"fail_rate": (failed / attempted, "fraction")},
        "self_by_layer": dict(sorted(summary.self_by_layer.items())),
        "samples": {"untraced_wall_s": untraced_walls},
        "science": traced.science,
        "computed_sizes": sizes,
    }


def layer_metrics(summary, counters, sizes, traced_wall, untraced_wall) -> dict:
    from qapgas.analysis import ALL_KINDS

    busy, calls, items, own = summary.busy, summary.calls, summary.items, summary.self_by_layer
    iterations = counters["gas.driver.iterations"]
    accepted = counters["gas.driver.accepted"]
    engine_samples = calls["gas.engine.sample"]
    distributions = calls["gas.engine.distribution"]
    metrics = {
        "qap.brute_force_s": (busy["qap.brute_force"], "s"),
        "encodings.encode_s": (busy["encodings.encode"], "s"),
    }
    for kind in ALL_KINDS:
        metrics[f"encodings.encode_s.{kind}"] = (busy[f"encodings.encode.{kind}"], "s")
    metrics.update({
        "polynomials.evaluate_table_s": (busy["polynomials.evaluate_table"], "s"),
        "circuits.objective_values_s": (busy["circuits.objective_values"], "s"),
        "circuits.dicke_ranks": (items["circuits.objective_values"], "count"),
        "circuits.build_s": (busy["circuits.build"], "s"),
        "circuits.grover_build_s": (busy["circuits.grover_build"], "s"),
        "circuits.gates_built": (items["circuits.build"] + items["circuits.grover_build"], "count"),
        "circuits.count_s": (busy["circuits.count"], "s"),
        "analysis.closed_form_s": (busy["analysis.closed_form"], "s"),
        "sim.apply_s": (busy["sim.apply"], "s"),
        "sim.gates_applied": (items["sim.apply"], "count"),
        "sim.qubits": (counters["sim.qubits"], "count"),
        "sim.bytes_moved": (counters["sim.bytes_moved"], "bytes"),
        "gas.space.build_s": (busy["gas.space.build"], "s"),
        **{f"gas.space.build_s.{kind}": (busy[f"gas.space.build.{kind}"], "s")
           for kind in ALL_KINDS},
        **{f"circuits.objective_values_s.{kind}": (busy[f"circuits.objective_values.{kind}"], "s")
           for kind in ALL_KINDS},
        "gas.space.index_s": (busy["gas.space.build"] - busy["circuits.objective_values"], "s"),
        "gas.space.bytes": (counters["gas.space.bytes"], "bytes"),
        "gas.space.levels": (counters["gas.space.levels"], "count"),
        "gas.sampler.sample_calls": (calls["gas.space.sample"] + engine_samples, "count"),
        "gas.sampler.sample_s": (busy["gas.space.sample"] + busy["gas.engine.sample"], "s"),
        "gas.driver.iterations": (iterations, "count"),
        "gas.driver.queries": (counters["gas.driver.queries"], "count"),
        "gas.driver.accepted": (accepted, "count"),
        "gas.driver.accept_ratio": (accepted / iterations if iterations else 0.0, "fraction"),
        "gas.driver.us_per_iter": (
            1e6 * busy["gas.driver.run"] / iterations if iterations else 0.0, "us"
        ),
        "gas.engine.init_s": (busy["gas.engine.init"], "s"),
        "gas.engine.grid_bytes": (sizes.get("exact_grid_bytes", 0), "bytes"),
        "gas.engine.distributions": (distributions, "count"),
        "gas.engine.cache_hit_ratio": (
            1.0 - distributions / engine_samples if engine_samples else 0.0, "fraction"
        ),
        "gas.engine.grover_steps": (calls["gas.engine.step"], "count"),
        "gas.engine.prepare_s": (busy["gas.engine.prepare"], "s"),
        "gas.engine.step_s": (busy["gas.engine.step"], "s"),
        "gas.engine.distribution_s": (busy["gas.engine.distribution"], "s"),
    })
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (own[layer], "s")
    metrics.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.unattributed_s": (own["bench"], "s"),
    })
    return metrics


# Layers whose self times, with trace.unattributed_s, add up to trace.wall_s.
LAYERS = (
    "qap", "encodings", "polynomials", "circuits", "sim",
    "gas.space", "gas.driver", "gas.engine", "analysis", "trace",
)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = measure_traced(workload, args.seed, stem.with_suffix(".spans.jsonl"))
    else:
        result = measure(workload, args.seed, args.seconds)
    host = host_record()
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, **result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"host: {json.dumps(host)}")
    print(f"computed (not measured) sizes: {json.dumps(result['computed_sizes'])}")
    if result["science"]:
        print(f"science (not gated): {json.dumps(result['science'])}")
    if args.trace:
        layers = result["self_by_layer"]
        print(f"self time by layer: {json.dumps(layers)}; sum {sum(layers.values())!r} s")
    for name, (value, unit) in {**result["metrics"], **result["reported"]}.items():
        print(f"{name} = {value!r} {unit}")
    for error in result["errors"]:
        print(f"FAILED: {error}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
