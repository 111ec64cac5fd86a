"""End-to-end CLI runs: configs in, CSV/PGM artifacts and exit codes out."""

import json
import math

import numpy as np
import pytest

from ctqw import (
    CouplingSeries,
    TimeGrid,
    build_moebius_ladder,
    read_walk_csv,
    ring_spec,
    run_walk,
    write_edge_list,
    write_heatmap_pgm,
)
from ctqw.cli import main


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def simulate_cfg(**overrides):
    cfg = {
        "graph": {"family": "ring", "size": 6},
        "alphas": "pi/4",
        "time_grid": {"start": 0.0, "end": 2.0, "steps": 10},
        "initial_node": 0,
    }
    cfg.update(overrides)
    return cfg


def test_simulate_writes_csv(tmp_path, capsys):
    cfg = simulate_cfg(output={"csv": "out.csv"})
    code = main(["simulate", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert code == 0
    assert "normalization defect" in capsys.readouterr().out
    times, probs = read_walk_csv(tmp_path / "out.csv")
    oracle = run_walk(
        ring_spec(6), math.pi / 4, CouplingSeries.exp(), 0, TimeGrid(0.0, 2.0, 10)
    )
    assert np.array_equal(times, oracle.times)
    assert np.array_equal(probs, oracle.probabilities)
    text = (tmp_path / "out.csv").read_text()
    assert text.startswith("# generated-by: ctqw simulate\n")
    assert "# config:" in text and "# alpha:" in text


def test_simulate_default_artifact_name(tmp_path):
    cfg = simulate_cfg()
    code = main(["simulate", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "walk.csv").exists()


def test_simulate_creates_missing_out_dir(tmp_path):
    cfg = simulate_cfg(output={"csv": "nested/out.csv", "heatmap": "nested/out.pgm"})
    out_dir = tmp_path / "fresh"
    code = main(["simulate", "--config", write_config(tmp_path, cfg), "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "nested" / "out.csv").exists()
    assert (out_dir / "nested" / "out.pgm").exists()


def test_simulate_star_with_heatmap(tmp_path):
    cfg = simulate_cfg(
        graph={"family": "star", "size": 4},
        output={"csv": "star.csv", "heatmap": "star.pgm", "scale": "log"},
    )
    code = main(["simulate", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "star.pgm").read_text().splitlines()
    assert lines[0] == "P2"
    body = [l for l in lines[1:] if not l.startswith("#")]
    assert body[0] == "5 10"
    assert body[1] == "255"
    assert len(body) == 2 + 10


def test_simulate_rejects_multiple_alphas(tmp_path):
    cfg = simulate_cfg(alphas=["0", "pi/2"])
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 1


def test_unknown_keys_rejected(tmp_path):
    for cfg in (
        simulate_cfg(extra=1),
        simulate_cfg(graph={"family": "ring", "size": 6, "flavor": "x"}),
        simulate_cfg(output={"csv": "a.csv", "format": "hdf5"}),
    ):
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 1


def test_bad_inputs_exit_one(tmp_path):
    bad_phase = simulate_cfg(alphas="tau/4")
    assert main(["simulate", "--config", write_config(tmp_path, bad_phase)]) == 1
    bad_family = simulate_cfg(graph={"family": "torus", "size": 6})
    assert main(["simulate", "--config", write_config(tmp_path, bad_family)]) == 1
    bad_node = simulate_cfg(initial_node=17)
    assert main(["simulate", "--config", write_config(tmp_path, bad_node)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["simulate", "--config", str(missing)]) == 1
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    assert main(["simulate", "--config", str(not_json)]) == 1


@pytest.mark.parametrize(
    "overrides",
    [
        {"graph": {"family": "ring", "size": 6.7}},
        {"time_grid": {"start": 0.0, "end": 2.0, "steps": 4.9}},
        {"initial_node": True},
        {"graph": {"family": "ring"}},
    ],
    ids=["fractional-size", "fractional-steps", "bool-initial-node", "missing-size"],
)
def test_non_integer_config_fields_exit_one(tmp_path, capsys, overrides):
    cfg = simulate_cfg(**overrides)
    assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {
            "graph": {"family": "circulant", "coefficients": [0, True, "0", 0]},
            "time_grid": {"start": True, "end": "2"},
        },
        {"graph": {"family": "circulant", "coefficients": [0, True, 0, 0]}},
        {"graph": {"family": "circulant", "coefficients": [0, 1, "0", 0]}},
        {"graph": {"family": "circulant", "coefficients": [0, 1, float("nan"), 0]}},
        {"coupling": {"kind": "polynomial", "coefficients": [0, "1"]}},
        {"coupling": {"kind": "polynomial", "coefficients": [False, 1]}},
        {"time_grid": {"start": True, "end": 2.0, "steps": 10}},
        {"time_grid": {"start": 0.0, "end": "2", "steps": 10}},
        {"time_grid": {"start": 0.0, "end": float("inf"), "steps": 10}},
        {"time_grid": {"start": 0.0, "end": 10**400, "steps": 10}},
    ],
    ids=[
        "reported-config",
        "bool-circulant-coefficient",
        "string-circulant-coefficient",
        "nan-circulant-coefficient",
        "string-polynomial-coefficient",
        "bool-polynomial-coefficient",
        "bool-start",
        "string-end",
        "infinite-end",
        "huge-int-end",
    ],
)
def test_non_numeric_config_fields_exit_one(tmp_path, capsys, overrides):
    cfg = simulate_cfg(**overrides)
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out-dir", str(tmp_path)]) == 1
    assert "must be a finite number" in capsys.readouterr().err


def test_integral_float_config_fields_accepted(tmp_path):
    cfg = simulate_cfg(
        graph={"family": "ring", "size": 6.0},
        time_grid={"start": 0.0, "end": 2.0, "steps": 10.0},
        initial_node=2.0,
        output={"csv": "out.csv"},
    )
    code = main(["simulate", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert code == 0
    _, probs = read_walk_csv(tmp_path / "out.csv")
    oracle = run_walk(
        ring_spec(6), math.pi / 4, CouplingSeries.exp(), 2, TimeGrid(0.0, 2.0, 10)
    )
    assert np.array_equal(probs, oracle.probabilities)


def test_simulate_edge_list_family(tmp_path):
    graph_path = tmp_path / "ladder.txt"
    write_edge_list(build_moebius_ladder(6), graph_path)
    cfg = simulate_cfg(graph={"family": "edge-list", "path": str(graph_path)})
    code = main(["simulate", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert code == 0


def test_sweep_writes_suffixed_files(tmp_path, capsys):
    cfg = simulate_cfg(alphas=["0", "pi/4", "pi/2"], output={"csv": "scan.csv"})
    code = main(["sweep", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.count("normalization defect") == 3
    for index, alpha in enumerate((0.0, math.pi / 4, math.pi / 2)):
        path = tmp_path / f"scan_{index:02d}.csv"
        times, probs = read_walk_csv(path)
        oracle = run_walk(
            ring_spec(6), alpha, CouplingSeries.exp(), 0, TimeGrid(0.0, 2.0, 10)
        )
        assert np.array_equal(probs, oracle.probabilities)
        assert f"# alpha-index: {index}" in path.read_text()


def test_simulate_is_the_one_alpha_sweep(tmp_path, capsys):
    output = {"csv": "walk.csv", "heatmap": "walk.pgm", "scale": "log"}
    cfg = simulate_cfg(alphas=["pi/4"], output=output)
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out-dir", str(tmp_path)]) == 0
    simulate_out = capsys.readouterr().out
    assert main(["sweep", "--config", path, "--out-dir", str(tmp_path)]) == 0
    sweep_out = capsys.readouterr().out
    defect = simulate_out.split(": ")[1]
    assert simulate_out == f"normalization defect: {defect}"
    assert sweep_out == f"alpha={math.pi / 4:.6g}: normalization defect {defect}"
    config_line = "# config: " + json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    for single, suffixed in (("walk.csv", "walk_00.csv"), ("walk.pgm", "walk_00.pgm")):
        single_lines = (tmp_path / single).read_text().splitlines()
        sweep_lines = (tmp_path / suffixed).read_text().splitlines()
        data = [l for l in single_lines if not l.startswith("#")]
        assert data == [l for l in sweep_lines if not l.startswith("#")]
        assert [l for l in single_lines if l.startswith("#")] == [
            "# generated-by: ctqw simulate",
            config_line,
            "# seed: none",
            f"# alpha: {math.pi / 4:.17g}",
        ]
        assert [l for l in sweep_lines if l.startswith("#")] == [
            "# generated-by: ctqw sweep",
            config_line,
            "# seed: none",
            "# alpha-index: 0",
            f"# alpha: {math.pi / 4:.17g}",
        ]


def test_verify_default_suppression_suite(tmp_path, capsys):
    cfg = {"checks": [{"property": "suppression"}], "report": "report.csv"}
    code = main(["verify", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("property,instance,deviation,tolerance,verdict")
    for label in ("star-n5", "ring-n6", "moebius-n10"):
        assert label in out
    report = (tmp_path / "report.csv").read_text()
    assert report.count(",pass") == 3


def test_verify_rejects_unsuitable_instance(tmp_path, capsys):
    cfg = {
        "checks": [
            {"property": "suppression", "graph": {"family": "ring", "size": 5}}
        ]
    }
    code = main(["verify", "--config", write_config(tmp_path, cfg)])
    assert code == 2
    assert "rejected" in capsys.readouterr().out


@pytest.mark.parametrize(
    "check",
    [
        {"property": "suppression-random", "count": 2.5},
        {"property": "suppression-random", "max_nodes": True},
        {"property": "suppression-random", "max_degree": "3"},
        {"property": "stationary", "graph": {"family": "ring", "size": 6}, "initial_node": 0.5},
        {"property": "suppression", "graph": {"family": "ring", "size": 6.7}},
        {"property": "suppression", "graph": {"family": "ring", "size": 6}, "bogus": 1},
        {"property": "nope"},
        {"property": "stationary"},
        {"property": "suppression", "graph": {"family": "ring", "size": 6}, "tolerance": "0"},
        {"property": "suppression", "graph": {"family": "ring", "size": 6}, "tolerance": True},
        {
            "property": "stationary",
            "graph": {"family": "ring", "size": 6, "directed": False},
            "time_grid": {"start": True, "end": 2.0, "steps": 5},
        },
        {
            "property": "stationary",
            "graph": {"family": "ring", "size": 6, "directed": False},
            "coupling": {"kind": "polynomial", "coefficients": [0, "1"]},
        },
    ],
    ids=[
        "fractional-count",
        "bool-max-nodes",
        "string-max-degree",
        "fractional-initial-node",
        "fractional-size",
        "unknown-key",
        "unknown-property",
        "missing-graph",
        "string-tolerance",
        "bool-tolerance",
        "bool-time-grid-start",
        "string-coupling-coefficient",
    ],
)
def test_verify_config_errors_exit_one(tmp_path, capsys, check):
    # A malformed check is a config error, not an ineligible instance: no
    # report line, exit 1.
    cfg = {"checks": [{"property": "suppression"}, check]}
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 1
    captured = capsys.readouterr()
    assert "rejected" not in captured.out
    assert "error:" in captured.err


def test_verify_explicit_partition_on_non_bipartite_graph(tmp_path):
    cfg = {
        "checks": [
            {
                "property": "suppression",
                "graph": {
                    "family": "circulant",
                    "coefficients": [0, 1, 0, 0, 1, 0, 0, 0],
                },
                "partition": [0, 2, 4, 6],
            }
        ]
    }
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 0


def test_verify_mirror_stationary_cancellation(tmp_path, capsys):
    cfg = {
        "checks": [
            {
                "property": "mirror",
                "graph": {"family": "ring", "size": 6},
                "deltas": ["0.1", "0.5"],
                "half_pi": True,
            },
            {
                "property": "stationary",
                "graph": {"family": "ring", "size": 8, "directed": False},
            },
            {
                "property": "cancellation",
                "graph": {"family": "ring", "size": 6},
                "graph_b": {"family": "moebius", "size": 6},
            },
        ]
    }
    code = main(["verify", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count(",pass") == 3


def test_verify_tolerance_may_only_tighten(tmp_path, capsys):
    base = {"property": "suppression", "graph": {"family": "ring", "size": 6}}
    tight = dict(base, tolerance=1e-20)
    code = main(["verify", "--config", write_config(tmp_path, {"checks": [tight]})])
    assert code == 0  # deviation is typically ~1e-26, still below 1e-20
    loose = dict(base, tolerance=1.0)
    code = main(
        ["verify", "--config", write_config(tmp_path, {"checks": [loose]}, "loose.json")]
    )
    assert code == 2
    assert "tighten" in capsys.readouterr().out


@pytest.mark.parametrize(
    "tolerance, code", [("1e-12", 1), (1.0, 2), (-1e-12, 2), (1e-20, 0)]
)
def test_verify_tolerance_checked_before_walks(tmp_path, capsys, monkeypatch, tolerance, code):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(m):
        calls.append(m.shape)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    check = {
        "property": "suppression",
        "graph": {"family": "star", "size": 5},
        "tolerance": tolerance,
    }
    assert main(["verify", "--config", write_config(tmp_path, {"checks": [check]})]) == code
    out = capsys.readouterr().out
    if code == 0:
        assert calls and out.count(",pass") == 1
    else:
        assert calls == []
        assert (",rejected" in out) == (code == 2)


def test_verify_random_suppression_exhausted_draw_is_rejected(tmp_path, capsys):
    # Seed 39 draws instance 1 as a 30/1 split of 31 nodes, connected with
    # probability 0.75^30 per draw, and 10000 draws all miss: the check is
    # rejected with exit 2 instead of ending in a traceback.
    cfg = {"checks": [{"property": "suppression-random", "count": 10, "max_nodes": 32}]}
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--seed", "39"]) == 2
    reason = "rejected: failed to draw a connected bipartite graph"
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [f"suppression-random,{reason},nan,1e-10,rejected"]


def test_verify_random_suppression_is_seeded(tmp_path, capsys):
    cfg = {"checks": [{"property": "suppression-random", "count": 3, "max_nodes": 8}]}
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path, "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--config", path, "--seed", "11"]) == 0
    assert capsys.readouterr().out == first
    assert "seed11" in first


def test_render_round_trip(tmp_path):
    cfg = simulate_cfg(output={"csv": "walk.csv"})
    main(["simulate", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    out = tmp_path / "rendered" / "render.pgm"
    code = main(
        ["render", "--csv", str(tmp_path / "walk.csv"), "--out", str(out), "--scale", "log"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "P2"
    assert any(l.startswith("# scale: log") for l in lines)


def test_render_rejects_unknown_scale(tmp_path):
    cfg = simulate_cfg(output={"csv": "walk.csv"})
    main(["simulate", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    code = main(
        ["render", "--csv", str(tmp_path / "walk.csv"), "--out", "x.pgm", "--scale", "sqrt"]
    )
    assert code == 1


def test_heatmap_pixels_frozen(tmp_path):
    probs = np.array([[0.0, 1.0], [0.25, 0.5]])
    path = tmp_path / "tiny.pgm"
    write_heatmap_pgm(probs, path, scale="linear")
    assert path.read_text() == "P2\n2 2\n255\n0 255\n64 128\n"
    write_heatmap_pgm(probs, path, scale="log")
    lines = path.read_text().splitlines()
    # log scale pins P=1 at 255 and the floor at 0
    assert lines[3] == "0 255"
    with pytest.raises(ValueError):
        write_heatmap_pgm(np.zeros((0, 2)), path)
    with pytest.raises(ValueError):
        write_heatmap_pgm(probs, path, scale="sqrt")


def test_heatmap_all_zero_field(tmp_path):
    path = tmp_path / "zero.pgm"
    write_heatmap_pgm(np.zeros((2, 3)), path, scale="linear")
    lines = path.read_text().splitlines()
    assert lines[-1] == "0 0 0" and lines[-2] == "0 0 0"


def test_cli_requires_subcommand():
    assert main([]) == 1


def test_circulant_family_with_coefficients(tmp_path):
    cfg = simulate_cfg(
        graph={"family": "circulant", "coefficients": [0, 1, 0, 0, 0, 1]},
        output={"csv": "c.csv"},
    )
    code = main(["simulate", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert code == 0
    times, probs = read_walk_csv(tmp_path / "c.csv")
    assert probs.shape == (10, 6)
