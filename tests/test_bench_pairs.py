"""tools/bench_pairs.py: seed parsing and the pair summary, without running a benchmark."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_s", "better": "lower", "bound": 0.25},
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


def pairs(parent, change, failed=None):
    """Runs of workload "w" pairing parent[k] with change[k] (ops_per_s; op_p50_s is 1/ops).

    ``failed`` maps a side to the failed ops of each of its runs (default none).
    """
    failed = failed or {}
    return [
        run("w", seed, side, value, 1.0 / value, failed=failed.get(side, 0))
        for seed, values in enumerate(zip(parent, change))
        for side, value in zip(("parent", "change"), values)
    ]


PARENT = [9.8, 9.9, 10.0, 10.0, 10.0, 10.1, 10.2, 10.0, 9.9, 10.1]


def test_verdict_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread():
    summary = bench_pairs.summarize(pairs(PARENT, [v + 1.0 for v in PARENT]), METRICS)["w"]
    assert summary["ops_per_s"]["change_wins"] == "10/10"
    assert summary["ops_per_s"]["verdict"] == "gain"
    assert summary["op_p50_s"]["verdict"] == "gain"  # lower is better
    # 8/10 wins is not enough, however large the gap
    eight = [v + 1.0 for v in PARENT[:8]] + [v - 0.01 for v in PARENT[8:]]
    entry = bench_pairs.summarize(pairs(PARENT, eight), METRICS)["w"]["ops_per_s"]
    assert (entry["change_wins"], entry["verdict"]) == ("8/10", "within bound")
    # 9/10 wins by less than the parent's q3 - q1 (0.15 here) is no gain either
    nine = [v + 0.02 for v in PARENT[:9]] + [PARENT[9] - 0.01]
    entry = bench_pairs.summarize(pairs(PARENT, nine), METRICS)["w"]["ops_per_s"]
    assert (entry["change_wins"], entry["verdict"]) == ("9/10", "within bound")
    entry = bench_pairs.summarize(pairs(PARENT, [v + 0.5 for v in PARENT[:9]] + [9.0]), METRICS)
    assert entry["w"]["ops_per_s"]["verdict"] == "gain"


def test_verdict_worse_beyond_the_bound_in_the_worse_direction():
    slower = bench_pairs.summarize(pairs(PARENT, [0.7 * v for v in PARENT]), METRICS)["w"]
    assert slower["ops_per_s"]["verdict"] == "worse"  # 30% fewer ops, bound 25%
    assert slower["op_p50_s"]["verdict"] == "worse"  # p50 up 43%
    # 20% slower is within the 25% bound
    within = bench_pairs.summarize(pairs(PARENT, [0.8 * v for v in PARENT]), METRICS)["w"]
    assert within["ops_per_s"]["verdict"] == "within bound"


def test_verdict_unresolved_when_the_parent_spreads_beyond_the_bound():
    wide = [4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 9.0, 11.0]  # q3 - q1 = 6 > 0.25 * 10.5
    summary = bench_pairs.summarize(pairs(wide, [v + 10.0 for v in wide]), METRICS)["w"]
    assert summary["ops_per_s"]["change_wins"] == "10/10"
    assert summary["ops_per_s"]["verdict"] == "unresolved"
    # unless every run of the change reads better than every run of the parent
    summary = bench_pairs.summarize(pairs(wide, [v + 15.0 for v in wide]), METRICS)["w"]
    assert summary["ops_per_s"]["verdict"] == "gain"
    assert summary["op_p50_s"]["verdict"] == "gain"
    # a change worse by more than the bound is worse, whatever the spread
    summary = bench_pairs.summarize(pairs(wide, [0.5 * v for v in wide]), METRICS)["w"]
    assert summary["ops_per_s"]["verdict"] == "worse"


def test_verdict_within_bound_for_an_unchanged_metric():
    summary = bench_pairs.summarize(pairs(PARENT, PARENT[1:] + PARENT[:1]), METRICS)["w"]
    assert {summary[m]["verdict"] for m in ("ops_per_s", "op_p50_s")} == {"within bound"}


def test_verdict_gain_needs_ten_pairs():
    # nine pairs, each won by a wide margin, are too few for a gain
    summary = bench_pairs.summarize(pairs(PARENT[:9], [v + 1.0 for v in PARENT[:9]]), METRICS)
    entry = summary["w"]["ops_per_s"]
    assert (entry["change_wins"], entry["verdict"]) == ("9/9", "within bound")


def test_verdict_gain_needs_no_more_failed_ops_than_the_parent():
    faster = [v + 1.0 for v in PARENT]
    summary = bench_pairs.summarize(pairs(PARENT, faster, failed={"change": 1}), METRICS)["w"]
    assert summary["failed_ops"] == {"parent": 0, "change": 10}
    assert summary["ops_per_s"]["change_wins"] == "10/10"
    assert {summary[m]["verdict"] for m in ("ops_per_s", "op_p50_s")} == {"within bound"}
    # as many failed ops on both sides do not hold a gain back
    summary = bench_pairs.summarize(
        pairs(PARENT, faster, failed={"parent": 1, "change": 1}), METRICS)["w"]
    assert summary["ops_per_s"]["verdict"] == "gain"


def test_src_lines_counts_the_package_modules_only(tmp_path):
    package = tmp_path / "src" / "ctqw"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\n# note\n")
    (package / "b.py").write_text("y = 2")  # no final newline: still one line
    (package / "notes.txt").write_text("not\ncode\n")
    (package / "sub").mkdir()
    (package / "sub" / "c.py").write_text("z = 3\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("assert True\n")
    assert bench_pairs.src_lines(tmp_path) == 4
    assert bench_pairs.src_lines(tmp_path / "tests") == 0


def test_side_by_side_sets_each_traced_metric_of_both_sides_in_order():
    per_layer = [
        {"name": "spectral.peak_alloc_mb", "unit": "MiB", "better": "lower"},
        {"name": "fft.calls", "unit": "count", "better": "lower"},
        {"name": "cli.self_s", "unit": "s", "better": "lower"},
    ]

    def traced(workload, side, values):
        metrics = {name: {"value": v, "unit": "?"} for name, v in values.items()}
        return {"workload": workload, "side": side, "result": {"metrics": metrics}}

    runs = [
        traced("walk-mix", "parent", {"fft.calls": 40.0, "spectral.peak_alloc_mb": 19.4}),
        traced("walk-mix", "change", {"spectral.peak_alloc_mb": 0.11, "fft.calls": 40.0}),
        # a metric the run reports but BENCHMARK.json does not list is left out
        traced("verify-suite", "parent", {"cli.self_s": 0.003, "walk.calls": 9.0}),
    ]
    layers = bench_pairs.side_by_side(runs, per_layer)
    assert list(layers) == ["walk-mix", "verify-suite"]
    assert list(layers["walk-mix"]) == ["spectral.peak_alloc_mb", "fft.calls"]
    assert layers["walk-mix"]["spectral.peak_alloc_mb"] == {
        "unit": "MiB", "better": "lower", "parent": 19.4, "change": 0.11}
    assert layers["walk-mix"]["fft.calls"] == {
        "unit": "count", "better": "lower", "parent": 40.0, "change": 40.0}
    # the change's traced run is missing: only the parent's value is set
    assert layers["verify-suite"] == {
        "cli.self_s": {"unit": "s", "better": "lower", "parent": 0.003}}
