"""eteleport benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  With
--trace 0 the last stdout line holds the end-to-end metrics, measured
with no wrappers installed.  With --trace 1 it holds the per-layer
metrics from a traced run.  The line before it carries the details
(sample counts, the issue-named figures) and the machine and provenance
block; both are also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "workloads.json")) as _handle:
    SPEC = json.load(_handle)
# BLAS and OpenMP read these when numpy loads; set before any import of it.
os.environ.update(SPEC["thread_env"])

import layers  # noqa: E402
import speed  # noqa: E402  (loads numpy)
import tracer  # noqa: E402

OUT_DIR = ".bench_out"
SOURCE_DIR = os.path.join("src", "eteleport")
_clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int, workdir: str) -> list[tuple[float, float, float]]:
    """Fresh-process set-up, SPEC['setup_repeats'] times: (seconds, spawned, reaped)."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SPEC["setup_repeats"]):
        with speed.held():
            spawned = _clock()
            done = subprocess.run(
                [sys.executable, probe, workload, str(seed), workdir],
                capture_output=True, text=True, timeout=120, check=True,
            )
            reaped = _clock()
        times.append((float(done.stdout.strip().splitlines()[-1]), spawned, reaped))
    return times


def attempt(workload, inp, recorder=None, tag="loop"):
    """Run and check one operation: ((start, end) or None, units attempted, units failed)."""
    try:
        if recorder is None:
            start = _clock()
            out = workload.run(inp)
            end = _clock()
        else:
            patches = tracer.install(recorder)
            try:
                recorder.begin_op(tag)
                start = _clock()
                out = recorder.span(f"bench.{workload.name}", workload.run, inp, recorder)
                end = _clock()
            finally:
                tracer.uninstall(patches)
        failed = workload.check(inp, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, workload.units, workload.units
    return (start, end), workload.units, failed


def closed_loop(workload, inputs, seconds: float, recorder=None) -> list[tuple]:
    """One caller, next input only after the previous one finished.

    Returns (untraced interval, traced interval or None, attempted, failed)
    per input; with a recorder each input runs untraced, then traced.
    """
    for i in range(workload.warmup_ops):
        attempt(workload, inputs[i])
    records = []
    i = workload.warmup_ops
    start = _clock()
    while True:
        plain, attempted, failed = attempt(workload, inputs[i])
        traced = None
        if recorder is not None:
            traced, more_attempted, more_failed = attempt(workload, inputs[i], recorder)
            attempted += more_attempted
            failed += more_failed
        records.append((plain, traced, attempted, failed))
        i += 1
        if _clock() - start >= seconds:
            return records


def intervals(records, column: int) -> tuple[list[tuple[float, float]], bool]:
    """(start, end) of the operations that passed; all timed ones if none passed."""
    good = [r[column] for r in records if r[3] == 0 and r[column] is not None]
    if good:
        return good, True
    return [r[column] for r in records if r[column] is not None], False


def source_digest() -> str:
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(SOURCE_DIR):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(path.encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(".git"):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy
    import eteleport

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "eteleport": eteleport.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": SPEC["thread_env"],
    }


def end_to_end(workload, inputs, records, setup, meter):
    """Contract metrics at the kernel's nominal speed; raw figures in the details."""
    timed, passed = intervals(records, 0)
    raw = [end - start for start, end in timed]
    scaled = [(end - start) / meter.slowdown(start, end) for start, end in timed]
    setup_raw = [s for s, _, _ in setup]
    setup_scaled = [s / meter.slowdown(a, b) for s, a, b in setup]

    def summary(times):
        n = len(times)
        # the highest percentile with at least ten samples beyond it
        p90 = statistics.quantiles(times, n=10)[8] if n >= 100 else None
        return statistics.median(times), p90, workload.items * n / sum(times)

    p50, p90, items_per_s = summary(scaled)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (workload.peak_rss_kb(inputs) / 1024.0, "MB"),
        "op_ms_p50": (p50 * 1e3, "ms"),
        "items_per_s": (items_per_s, "1/s"),
    }
    named = {
        "verify": {"verify_s": (p50, "s")},
        "exact_sweep": {
            "exact_points_per_s": (items_per_s, "1/s"),
            "exact_point_ms_p50": (p50 * 1e3, "ms"),
            "exact_point_ms_p90": (None if p90 is None else p90 * 1e3, "ms"),
        },
        "mc_dephasing": {"mc_samples_per_s": (items_per_s, "1/s")},
        "cli_readme": {"cli_readme_s": (p50, "s")},
    }[workload.name]
    named.update(setup_s=metrics["setup_s"], peak_rss_mb=metrics["peak_rss_mb"])
    raw_p50, raw_p90, raw_items_per_s = summary(raw)
    details = {
        "samples": len(raw),
        "timed_ops_passed": passed,
        "issue_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "raw": {
            "op_ms_p50": raw_p50 * 1e3,
            "op_ms_p90": None if raw_p90 is None else raw_p90 * 1e3,
            "items_per_s": raw_items_per_s,
            "setup_s": statistics.median(setup_raw),
            "setup_samples_s": setup_raw,
        },
        "speed": {
            "samples": len(meter.kernel_s),
            "kernel_s_p50": statistics.median(meter.kernel_s),
            "nominal_kernel_s": speed.NOMINAL_KERNEL_S,
        },
    }
    return metrics, details


def per_layer(workload, records, recorder, args, workdir):
    from workloads import WORKLOADS

    missing_stages = tracer.missing_private_stages()
    missing = layers.missing_metrics(missing_stages)
    probes = []
    for owner in layers.probes_needed(recorder.spans, recorder.ops, workload.name, missing):
        probe = WORKLOADS[owner]
        probes.append(attempt(probe, probe.build(args.seed, workdir)[0], recorder, f"probe:{owner}"))
    recorder.begin_op("import")
    recorder.span(
        "cli.import", subprocess.run, [sys.executable, "-c", "import eteleport"],
        env={**os.environ, "PYTHONPATH": os.path.abspath("src")}, check=True, timeout=120,
    )
    values, sources = layers.compute(recorder.spans, recorder.ops, missing)
    metrics = {
        name: (value, layers.METRICS[name][0]) for name, value in values.items()
    }
    pairs = [(r[0][1] - r[0][0], r[1][1] - r[1][0])
             for r in records if r[3] == 0 and None not in r[:2]]
    plain = statistics.median(p for p, _ in pairs) if pairs else 0.0
    traced = statistics.median(t for _, t in pairs) if pairs else 0.0
    metrics[layers.OVERHEAD] = (traced / plain - 1.0 if pairs else 0.0, "frac")
    details = {
        "samples": len(pairs),
        "spans": len(recorder.spans),
        "sources": sources,
        "missing_private_stages": missing_stages,
        "after_loop": [tag for tag in recorder.ops if tag != "loop"],
        "untraced_op_s_p50": plain,
        "traced_op_s_p50": traced,
    }
    trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}-s{args.seed}.json.gz")
    recorder.dump(trace_path, {"sources": sources, "missing_private_stages": missing_stages})
    details["trace_file"] = trace_path
    return metrics, details, probes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE_DIR, "__init__.py")):
        print(f"error: {SOURCE_DIR} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    # one core for this process and every child it starts, so the speed
    # samples and the work they scale share a core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    meter = speed.Speedometer()
    if not args.trace:
        meter.start()
    try:
        setup = [] if args.trace else setup_seconds(args.workload, args.seed, workdir)
        import eteleport
        from workloads import WORKLOADS

        if not os.path.abspath(eteleport.__file__).startswith(os.path.abspath(SOURCE_DIR)):
            print(f"error: eteleport imported from {eteleport.__file__}", file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload]
        inputs = workload.build(args.seed, workdir)
        recorder = tracer.Recorder() if args.trace else None
        records = closed_loop(workload, inputs, args.seconds, recorder)
        if not args.trace:
            meter.stop()
        attempted = sum(r[2] for r in records)
        failed = sum(r[3] for r in records)
        if args.trace:
            metrics, details, probes = per_layer(workload, records, recorder, args, workdir)
            attempted += sum(p[1] for p in probes)
            failed += sum(p[2] for p in probes)
        else:
            metrics, details = end_to_end(workload, inputs, records, setup, meter)
        details["failed_frac"] = {"value": failed / attempted, "unit": "frac"}
        record = {"details": details, "provenance": provenance(args)}
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        out_path = os.path.join(
            OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
        )
        with open(out_path, "w") as handle:
            json.dump({**record, "result": result}, handle, indent=1)
        print(json.dumps(record))
        print(json.dumps(result))
        return 0
    finally:
        meter.stop()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
