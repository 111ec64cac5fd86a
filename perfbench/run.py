"""ctqw benchmark driver: one workload, one process, one closed-loop client.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload walk-mix --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
runs every op once untraced and once traced, in alternating order, and
reports per-layer metrics from the traced copies plus the tracing overhead.
Every op's output is checked outside the timed region.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run records, spans and the per-function
self-time table are written under ``.bench_runs/`` in the checkout.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPS = 3
# Ops keep running past --seconds by at most this much when a cycle is open.
MAX_OVERRUN_S = 60.0
MIB = float(1 << 20)
LAYERS = ("spectral", "operators", "linalg", "fft", "properties", "walk", "graphs", "cli")


def parse_args(argv):
    def nonnegative(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=nonnegative, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    return p.parse_args(argv)


def run_op(
    workload, i: int, tracer=None, memory: bool = False
) -> tuple[float, object, BaseException | None]:
    """Time one op, traced when a tracer is given; returns (latency, outcome, exception)."""
    error = None
    outcome = None
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.begin_op(memory)
    try:
        outcome = workload.op(i)
    except Exception as exc:  # a failed op is counted, not fatal
        error = exc
    if tracer is not None:
        tracer.end_op(error is not None)
    return time.perf_counter() - t0, outcome, error


def checked(workload, i: int, outcome, error, failures: list) -> bool:
    """Check an op's output untimed; record the reason when it fails."""
    if error is None:
        try:
            workload.check(i, outcome)
            return True
        except Exception as exc:
            error = exc
    failures.append(f"op {i}: {type(error).__name__}: {error}")
    return False


def set_up(workloads, name: str, seed: int, workdir: Path, tiny: bool, failures: list):
    """Generate inputs and run one warm-up op, SETUP_REPS times; median time."""
    times = []
    workload = None
    for rep in range(SETUP_REPS):
        rep_dir = workdir / f"setup-{rep}"
        rep_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        workload = workloads.WORKLOADS[name](seed, str(rep_dir), tiny)
        latency, outcome, error = run_op(workload, 0)
        times.append(time.perf_counter() - t0)
        checked(workload, 0, outcome, error, failures)
    return workload, statistics.median(times)


def tail(latencies: list) -> tuple[float, float, int]:
    """Latency at the highest percentile with ``beyond`` samples above it.

    ``beyond`` is ten when there are at least 40 samples, else a quarter of
    them (at least one), so short runs report their upper quartile.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = max(1, min(10, n // 4)) if n > 1 else 0
    idx = n - 1 - beyond
    return ordered[idx], 100.0 * (idx + 1) / n, beyond


def measure(workload, seconds: float, failures: list, tracer=None) -> dict:
    """Closed loop: run whole cycles of ops until ``seconds`` of op time pass.

    With a tracer, op i runs untraced and traced in alternating order, and
    the ops of the first cycle run a third time with memory tracing.
    """
    plain, traced = [], []
    ok_latencies = []
    attempted = 0
    artifact_bytes = 0
    i = 0
    wall0 = time.perf_counter()
    while i == 0 or sum(plain) + sum(traced) < seconds or i % workload.cycle:
        if time.perf_counter() - wall0 > seconds + MAX_OVERRUN_S:
            break
        if tracer is None:
            runs = ["plain"]
        else:
            runs = ["plain", "traced"] if i % 2 == 0 else ["traced", "plain"]
            runs += ["memory"] if i < workload.cycle else []
        for kind in runs:
            latency, outcome, error = run_op(
                workload, i, None if kind == "plain" else tracer, kind == "memory"
            )
            ok = checked(workload, i, outcome, error, failures)
            del outcome
            attempted += 1
            if kind == "plain":
                plain.append(latency)
                if ok:
                    ok_latencies.append(latency)
            elif kind == "traced":
                traced.append(latency)
                artifact_bytes += sum(
                    os.path.getsize(p) for p in workload.artifacts(i) if os.path.isfile(p)
                )
        i += 1
    return {
        "attempted": attempted,
        "artifact_bytes": artifact_bytes,
        "plain": plain,
        "traced": traced,
        "ok_latencies": ok_latencies,
    }


def end_to_end(run: dict, setup_s: float, failures: list) -> tuple[dict, dict]:
    lat = run["ok_latencies"] or run["plain"]  # all failed: still report a number
    tail_s, tail_pct, beyond = tail(lat)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(run["plain"]) / sum(run["plain"]), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }
    notes = {
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "op_samples": len(run["ok_latencies"]),
        "failed_frac": len(failures) / run["attempted"],
    }
    return metrics, notes


def per_layer(tracer, run: dict) -> dict:
    """Per-layer metrics, per traced op, from the spans of the timing-traced ops."""
    spans = tracer.spans
    timed = [s.op not in tracer.memory_ops for s in spans]
    roots = [s for s, t in zip(spans, timed) if t and s.parent < 0]
    ops = len(roots)
    op_wall = sum(s.duration for s in roots)
    by_layer = {layer: [] for layer in LAYERS}
    for span, own, t in zip(spans, tracer.self_times(), timed):
        if t and span.layer in by_layer:
            by_layer[span.layer].append((span, own))

    def ancestors_in(span, layer: str) -> bool:
        while span.parent >= 0:
            span = spans[span.parent]
            if span.layer == layer:
                return True
        return False

    def io_stats(name: str) -> tuple[float, float]:
        hits = [(s, own) for s, own in by_layer["walk"] + by_layer["cli"] if s.name == name]
        busy = sum(s.duration for s, _ in hits)
        moved = sum(s.file_bytes for s, _ in hits)
        return sum(own for _, own in hits) / ops, (moved / MIB / busy if busy else 0.0)

    m: dict[str, tuple[float, str]] = {}
    for layer, rows in by_layer.items():
        busy = sum(own for _, own in rows)
        if layer == "linalg":
            m["linalg.eigh_calls"] = (len(rows) / ops, "count")
            m["linalg.eigh_s"] = (busy / ops, "s")
        else:
            m[f"{layer}.self_s"] = (busy / ops, "s")
            m[f"{layer}.calls"] = (len(rows) / ops, "count")
        m[f"{layer}.share"] = (busy / op_wall, "ratio")
        m[f"{layer}.errors"] = (sum(s.error for s, _ in rows), "count")
    eighs = [s.eigh for s, _ in by_layer["linalg"]]
    m["linalg.eigh_complex_frac"] = (
        sum(c for _, c in eighs) / len(eighs) if eighs else 0.0, "ratio"
    )
    # Computed, not counted: ~9 n^3 real flops for a symmetric eigensolve with
    # vectors (Golub and Van Loan), four times that for complex Hermitian.
    m["linalg.eigh_gflop"] = (
        sum(9.0 * n**3 * (4 if c else 1) for n, c in eighs) / 1e9 / ops, "GFLOP"
    )
    checks = [s for s, _ in by_layer["properties"] if s.name.startswith("properties.check_")]
    in_checks = [
        s for s, t in zip(spans, timed)
        if t and s.layer in ("walk", "linalg") and ancestors_in(s, "properties")
    ]
    m["properties.walks_per_check"] = (
        sum(s.name == "walk.run_walk" for s in in_checks) / len(checks) if checks else 0.0, "count"
    )
    m["properties.eigh_per_check"] = (
        sum(s.layer == "linalg" for s in in_checks) / len(checks) if checks else 0.0, "count"
    )
    for layer in ("spectral", "walk"):
        peak = max(
            (s.mem_peak - s.mem_base for s in spans
             if s.layer == layer and s.op in tracer.memory_ops),
            default=0,
        )
        m[f"{layer}.peak_alloc_mb"] = (peak / MIB, "MiB")
    for name in ("walk.write_walk_csv", "walk.read_walk_csv"):
        busy, rate = io_stats(name)
        m[f"{name}.self_s"] = (busy, "s")
        m[f"{name}.mb_per_s"] = (rate, "MiB/s")
    m["cli.write_heatmap_pgm.self_s"] = (io_stats("cli.write_heatmap_pgm")[0], "s")
    m["cli.artifact_bytes"] = (run["artifact_bytes"] / ops, "bytes")
    m["trace.overhead_frac"] = (sum(run["traced"]) / sum(run["plain"]) - 1.0, "ratio")
    return m


def blas_info() -> dict:
    """BLAS library, version and thread count as the loaded OpenBLAS reports them."""
    import ctypes
    import numpy as np

    info = {"library": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(library=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ctqw").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def metadata(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **source_identity(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ctqw" / "__init__.py").is_file():
        print(f"error: no ctqw sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ctqw  # noqa: F401  (imported here so setup_s covers the package import)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / f"tmp-{label}-{os.getpid()}"
    failures: list[str] = []
    tracer = None
    try:
        workload, setup_s = set_up(
            workloads, args.workload, args.seed, workdir, args.tiny, failures
        )
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        run = measure(workload, args.seconds, failures, tracer)
        run["attempted"] += SETUP_REPS
        if args.trace:
            metrics = per_layer(tracer, run)
            notes = {"functions": tracer.function_table()}
        else:
            metrics, notes = end_to_end(run, import_s + setup_s, failures)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    meta = metadata(args)
    record = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "latencies_s": run["plain"],
        "traced_latencies_s": run["traced"],
        "failures": failures,
        **notes,
    }
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / f"{label}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(RUNS / f"{label}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.dump_spans()}, fh)
    for line in failures:
        print(f"failed {line}")
    print(json.dumps({"meta": meta, **{k: v for k, v in notes.items() if k != "functions"}}))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": run["attempted"],
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
