"""Run alternating parent/change benchmark pairs and collect them in one BENCH file.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent ../parent --change . --label 3522a5a \
        --seeds 1801-1810 --seconds 25 --trace-seed 1811 --trace-seconds 10 \
        --what "..." --claim "..." --out BENCH_3522a5a.json

``--parent`` and ``--change`` are two source checkouts, each with its own
``perfbench/run.py``.  For every workload and seed the two sides run one after
the other, one process at a time; the parent goes first on the first, third,
... seed and the change on the others, so slow drift of the host hits both
sides alike.  With ``--trace-seed`` each side then makes one traced run per
workload.  The output file holds every run's JSON line, and per workload each
side's median, quartiles (inclusive method), extremes, the number of pairs
the change wins and a ``verdict`` on every end-to-end metric of
``BENCHMARK.json``.  ``traced.layers`` sets the traced runs' per-layer
metrics side by side, parent against change.  ``src_lines`` holds each
side's line count of ``src/ctqw/*.py``, the design metric.  The file is
rewritten after every run, so an interrupted measurement keeps what it
measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """``"1801-1810"`` or ``"1801,1805,1809"``."""
    if "-" in text:
        first, last = (int(v) for v in text.split("-"))
        return list(range(first, last + 1))
    return [int(v) for v in text.split(",")]


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[str, dict]:
    args = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run([sys.executable, *args], cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(args)} exited {done.returncode}\n{done.stderr}")
    return "python3 " + " ".join(args), json.loads(done.stdout.strip().splitlines()[-1])


def src_lines(checkout: Path) -> int:
    """Lines of the package's modules, ``src/ctqw/*.py``, in one checkout."""
    modules = (checkout / "src" / "ctqw").glob("*.py")
    return sum(len(path.read_bytes().splitlines()) for path in modules)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def verdict(parent: dict, change: dict, wins: int, pairs: int, higher: bool, bound: float,
            failed: dict) -> str:
    """One metric's verdict from both sides' ``spread`` and the pairs the change wins.

    ``worse``: the change's median is worse than the parent's by more than
    ``bound``, a fraction of the parent's median.  ``unresolved``: the
    parent's own q3 - q1 exceeds that fraction, unless every run of the
    change reads better than every run of the parent.  ``gain``: there are
    at least 10 pairs, the change wins at least 9 of 10 of them, its median
    is better by more than the parent's q3 - q1, and it fails no more ops
    than the parent (``failed`` maps each side to its failed-op count).
    ``within bound``: none of these.  The first that holds is given.
    """
    gap = (change["median"] - parent["median"]) * (1 if higher else -1)
    scale = bound * abs(parent["median"])
    iqr = parent["q3"] - parent["q1"]
    apart = change["min"] > parent["max"] if higher else change["max"] < parent["min"]
    if -gap > scale:
        return "worse"
    if iqr > scale and not apart:
        return "unresolved"
    if pairs >= 10 and 10 * wins >= 9 * pairs and gap > iqr and failed["change"] <= failed["parent"]:
        return "gain"
    return "within bound"


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        sides = {side: {r["seed"]: r["result"] for r in mine if r["side"] == side}
                 for side in ("parent", "change")}
        pairs = sorted(set(sides["parent"]) & set(sides["change"]))
        entry = {
            "runs": {side: len(results) for side, results in sides.items()},
            "failed_ops": {side: sum(r["failed"] for r in results.values())
                           for side, results in sides.items()},
            "attempted_ops": {side: sum(r["attempted"] for r in results.values())
                              for side, results in sides.items()},
        }
        if len(pairs) >= 2:
            for metric in metrics:
                name, higher = metric["name"], metric["better"] == "higher"
                value = {side: {seed: results[seed]["metrics"][name]["value"] for seed in pairs}
                         for side, results in sides.items()}
                wins = sum((value["change"][s] > value["parent"][s]) if higher
                           else (value["change"][s] < value["parent"][s]) for s in pairs)
                parent = spread(list(value["parent"].values()))
                change = spread(list(value["change"].values()))
                entry[name] = {
                    "better": metric["better"],
                    "parent": parent,
                    "change": change,
                    "change_wins": f"{wins}/{len(pairs)}",
                    "verdict": verdict(parent, change, wins, len(pairs), higher, metric["bound"],
                                       entry["failed_ops"]),
                }
        summary[workload] = entry
    return summary


def side_by_side(traced_runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload, each per-layer metric's value in the parent's and the change's traced run.

    Metrics follow ``metrics``' order; a side whose run lacks one has no value for it.
    """
    layers: dict = {}
    for run in traced_runs:
        values = run["result"]["metrics"]
        row = layers.setdefault(run["workload"], {})
        for metric in metrics:
            if metric["name"] in values:
                entry = row.setdefault(metric["name"], {"unit": metric["unit"],
                                                        "better": metric["better"]})
                entry[run["side"]] = values[metric["name"]]["value"]
    return layers


def host() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return (f"{os.cpu_count()} vCPU {model} ({platform.machine()}), "
            f"Python {platform.python_version()}, numpy {numpy_version}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout with the change")
    p.add_argument("--label", required=True, help="short sha of the parent commit")
    p.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1801-1810")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--workloads", nargs="*", help="default: every workload of BENCHMARK.json")
    p.add_argument("--trace-seed", type=int, help="one traced run per side and workload")
    p.add_argument("--trace-seconds", type=float, default=10.0)
    p.add_argument("--what", default="", help="what the change is")
    p.add_argument("--claim", default="", help="the metric claimed and how a pair is won")
    p.add_argument("--out", type=Path, help="default: BENCH_<label>.json in the change checkout")
    args = p.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    out = args.out or args.change / f"BENCH_{args.label}.json"
    checkouts = {"parent": args.parent, "change": args.change}
    seeds = args.seeds
    record = {
        "label": args.label,
        "what": args.what,
        "method": (f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   f"--trace 0, run from a fresh checkout of each side; seeds {seeds[0]}-{seeds[-1]}; "
                   f"parent runs first on {', '.join(map(str, seeds[::2][:2]))}, ..., change runs "
                   f"first on {', '.join(map(str, seeds[1::2][:2]))}, ...; one process at a time."),
        "host": host(),
        "src_lines": {side: src_lines(path) for side, path in checkouts.items()},
        "claim": args.claim,
        "summary": {},
        "runs": [],
    }

    def save() -> None:
        record["summary"] = summarize(record["runs"], bench["end_to_end"])
        if "traced" in record:
            record["traced"]["layers"] = side_by_side(record["traced"]["runs"], bench["per_layer"])
        out.write_text(json.dumps(record, indent=1) + "\n")

    for workload in workloads:
        for index, seed in enumerate(seeds):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                command, result = run_bench(checkouts[side], workload, seed, args.seconds, 0)
                record["runs"].append({"workload": workload, "seed": seed, "side": side,
                                       "order": position, "command": command, "result": result})
                print(f"{workload} seed {seed} {side}: ops_per_s "
                      f"{result['metrics']['ops_per_s']['value']:.3f}", file=sys.stderr)
                save()
    if args.trace_seed is not None:
        record["traced"] = {
            "method": (f"python3 perfbench/run.py --workload W --seed {args.trace_seed} --seconds "
                       f"{args.trace_seconds:g} --trace 1, one run per side; per-layer metrics are per op"),
            "runs": [],
        }
        for workload in workloads:
            for side in ("parent", "change"):
                _, result = run_bench(checkouts[side], workload, args.trace_seed, args.trace_seconds, 1)
                record["traced"]["runs"].append({"workload": workload, "side": side, "result": result})
                save()
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
