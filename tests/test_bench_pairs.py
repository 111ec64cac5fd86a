"""tools/bench_pairs.py: seed parsing and the pair summary, without running a benchmark."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "ops_per_s", "better": "higher"},
    {"name": "op_p50_s", "better": "lower"},
]


def run(workload, seed, side, ops_per_s, op_p50_s, failed=0, attempted=10):
    return {
        "workload": workload,
        "seed": seed,
        "side": side,
        "result": {
            "failed": failed,
            "attempted": attempted,
            "metrics": {"ops_per_s": {"value": ops_per_s}, "op_p50_s": {"value": op_p50_s}},
        },
    }


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1801-1810") == list(range(1801, 1811))
    assert bench_pairs.parse_seeds("1801,1805") == [1801, 1805]
    assert bench_pairs.parse_seeds("7") == [7]


def test_summarize_counts_strict_wins_and_inclusive_quartiles():
    runs = [
        # seed: parent (ops, p50), change (ops, p50)
        run("w", 1, "parent", 1.0, 0.4), run("w", 1, "change", 2.0, 0.4),  # ops win, p50 tie
        run("w", 2, "parent", 2.0, 0.3), run("w", 2, "change", 2.0, 0.2),  # ops tie, p50 win
        run("w", 3, "change", 5.0, 0.1), run("w", 3, "parent", 3.0, 0.1, failed=2),
        run("w", 4, "parent", 4.0, 0.1), run("w", 4, "change", 3.0, 0.5, attempted=12),
        # a seed with only one side is not a pair
        run("w", 5, "parent", 99.0, 9.9),
    ]
    entry = bench_pairs.summarize(runs, METRICS)["w"]
    assert entry["runs"] == {"parent": 5, "change": 4}
    assert entry["failed_ops"] == {"parent": 2, "change": 0}
    assert entry["attempted_ops"] == {"parent": 50, "change": 42}
    ops = entry["ops_per_s"]
    assert ops["better"] == "higher"
    assert ops["change_wins"] == "2/4"
    # inclusive quartiles of the paired parent values 1, 2, 3, 4
    assert ops["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "min": 1.0, "max": 4.0}
    assert ops["change"]["median"] == 2.5
    assert (ops["change"]["min"], ops["change"]["max"]) == (2.0, 5.0)
    p50 = entry["op_p50_s"]
    assert p50["better"] == "lower"
    assert p50["change_wins"] == "1/4"


def test_summarize_needs_two_pairs_for_metrics():
    runs = [
        run("one", 1, "parent", 1.0, 0.1), run("one", 1, "change", 2.0, 0.1, failed=1),
        run("two", 1, "parent", 1.0, 0.1), run("two", 1, "change", 2.0, 0.1),
        run("two", 2, "change", 2.0, 0.1), run("two", 2, "parent", 1.0, 0.1),
    ]
    summary = bench_pairs.summarize(runs, METRICS)
    assert list(summary) == ["one", "two"]
    assert set(summary["one"]) == {"runs", "failed_ops", "attempted_ops"}
    assert summary["one"]["failed_ops"] == {"parent": 0, "change": 1}
    assert summary["two"]["ops_per_s"]["change_wins"] == "2/2"
    assert summary["two"]["op_p50_s"]["change_wins"] == "0/2"
