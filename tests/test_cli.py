"""End-to-end CLI runs: configs in, CSV/PGM artifacts and exit codes out."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ctqw
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


def test_unknown_keys_rejected(tmp_path, capsys):
    graph_path = tmp_path / "ladder.txt"
    write_edge_list(build_moebius_ladder(6), graph_path)
    for cfg in (
        simulate_cfg(extra=1),
        simulate_cfg(graph={"family": "ring", "size": 6, "flavor": "x"}),
        simulate_cfg(output={"csv": "a.csv", "format": "hdf5"}),
        # each graph family reads only its own keys
        simulate_cfg(graph={"family": "star", "size": 4, "coefficients": [0, 1]}),
        simulate_cfg(graph={"family": "ring", "size": 6, "path": str(graph_path)}),
        simulate_cfg(graph={"family": "moebius", "size": 6, "coefficients": [0, 1, 0, 1, 0, 1]}),
        simulate_cfg(graph={"family": "circulant", "coefficients": [0, 1, 0, 1], "size": 7}),
        simulate_cfg(graph={"family": "edge-list", "path": str(graph_path), "directed": False}),
    ):
        assert main(["simulate", "--config", write_config(tmp_path, cfg)]) == 1
        assert "unknown keys" in capsys.readouterr().err


def test_bad_inputs_exit_one(tmp_path, capsys):
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
    huge_phase = simulate_cfg(alphas=[10**400])
    assert main(["simulate", "--config", write_config(tmp_path, huge_phase)]) == 1
    # int and float would read these as 10; the number rule takes ASCII digits and no "_"
    capsys.readouterr()
    separated_phase = simulate_cfg(alphas="1_0")
    assert main(["simulate", "--config", write_config(tmp_path, separated_phase)]) == 1
    assert "phase must be spelled with ASCII digits and no '_'" in capsys.readouterr().err
    graph_path = tmp_path / "separated.txt"
    graph_path.write_text("n 12\n0 1_0\n")
    separated_node = simulate_cfg(graph={"family": "edge-list", "path": str(graph_path)})
    assert main(["simulate", "--config", write_config(tmp_path, separated_node)]) == 1
    assert "node must be spelled with ASCII digits and no '_'" in capsys.readouterr().err
    # np.random.default_rng takes no negative seed: a config error before any check runs
    random_check = {"checks": [{"property": "suppression-random", "count": 1}]}
    argv = ["verify", "--config", write_config(tmp_path, random_check), "--seed", "-1"]
    assert main(argv) == 1
    seed_error = "error: --seed must be a non-negative integer, got -1\n"
    assert tuple(capsys.readouterr()) == ("", seed_error)


def _complete_edges(n, missing=()):
    return "".join(f"{i} {j}\n" for i in range(n) for j in range(n) if i != j and (i, j) not in missing)


def test_transitive_tournament_under_exp_exits_zero(tmp_path, capsys):
    # J = V exp(w) V^H of the 14-node transitive tournament at alpha 0 misses exact
    # Hermiticity by 3.6e-12 from rounding alone; it is stored as its Hermitian part,
    # so the valid input walks to a normalized field and is no config error
    n = 14
    graph_path = tmp_path / "tournament.txt"
    edges = "".join(f"{i} {j}\n" for i in range(n) for j in range(i + 1, n))
    graph_path.write_text(f"n {n}\n" + edges)
    cfg = simulate_cfg(graph={"family": "edge-list", "path": str(graph_path)}, alphas=0,
                       coupling={"kind": "exp"}, output={"csv": "tournament.csv"})
    code = main(["simulate", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert code == 0
    assert "normalization defect" in capsys.readouterr().out
    times, probs = read_walk_csv(tmp_path / "tournament.csv")
    assert probs.shape == (len(times), n)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-10


def test_non_finite_coupling_exits_three(tmp_path, capsys):
    # exp(A_H) of the complete 400-node digraph at alpha 0 reaches e^798, past
    # the float range: a numerical failure and not a config error.  The complete
    # digraph is undirected, so its J(w) overflows on the eigenvalues of S = A + A^T;
    # without the edge (0, 1) it is directed and the spectral V J(w) V^H overflows
    n = 400
    graph_path = tmp_path / "complete.txt"
    cfg = simulate_cfg(graph={"family": "edge-list", "path": str(graph_path)}, alphas=[0],
                       coupling={"kind": "exp"}, output={"csv": "never.csv"})
    for missing in ((), ((0, 1),)):
        graph_path.write_text(f"n {n}\n" + _complete_edges(n, missing))
        with warnings.catch_warnings(record=True) as warned:  # the failure is reported once
            warnings.simplefilter("always")
            code = main(["simulate", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
        assert not [w for w in warned if issubclass(w.category, RuntimeWarning)]
        assert code == 3
        assert "numeric failure: operator has non-finite entries" in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()
    # polynomial [0, 1e308] at alpha 1 on the complete 4-node digraph: J(6 cos(1))
    # overflows on the largest eigenvalue 6 of S.  Without the edge (0, 1) the
    # Horner J = 1e308 A_H has entries up to 2 cos(1) 1e308 and is finite, and
    # only H = 2 Re J overflows
    cfg.update(alphas=[1], coupling={"kind": "polynomial", "coefficients": [0, 1e308]})
    for missing in ((), ((0, 1),)):
        graph_path.write_text("n 4\n" + _complete_edges(4, missing))
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            code = main(["simulate", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
        assert not [w for w in warned if issubclass(w.category, RuntimeWarning)]
        assert code == 3
        assert "numeric failure: operator has non-finite entries" in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize(
    "output",
    [{"csv": 5}, {"csv": ""}, {"heatmap": 5}, {"heatmap": None}, {"amplitudes": "no"},
     {"amplitudes": 1}, {"scale": "sqrt"}, {"scale": None}],
    ids=["int-csv", "empty-csv", "int-heatmap", "null-heatmap", "string-amplitudes",
         "int-amplitudes", "unknown-scale", "null-scale"],
)
def test_bad_output_exits_one_before_walks(tmp_path, capsys, monkeypatch, command, output):
    walks = []
    monkeypatch.setattr("ctqw.cli.run_walk", lambda *args: walks.append(args))
    cfg = simulate_cfg(alphas=["0.1"] if command == "simulate" else ["0.1", "0.2"],
                       output=dict({"heatmap": "walk.pgm"}, **output))
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main([command, "--config", path, "--out-dir", str(out_dir)]) == 1
    assert "error: output:" in capsys.readouterr().err
    assert walks == []
    assert not out_dir.exists()


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


@pytest.mark.parametrize(
    "cfg, code, message",
    [
        # exp of the Fourier spectrum 4000 overflows
        (simulate_cfg(graph={"family": "circulant", "coefficients": [0, 1000, 0, 1000]}, alphas=0),
         3, "numeric failure: operator has non-finite entries"),
        # the Horner product of 1e308 A_H with itself overflows on the dense route
        (simulate_cfg(graph={"family": "star", "size": 3}, alphas=0,
                      coupling={"kind": "polynomial", "coefficients": [0, 1e308, 1e308]}),
         3, "numeric failure: operator has non-finite entries"),
        # H is finite, but t * values overflows in the phases the walk is propagated by
        (simulate_cfg(graph={"family": "star", "size": 3}, alphas=0.3,
                      time_grid={"start": 0.0, "end": 100.0, "steps": 3},
                      coupling={"kind": "polynomial", "coefficients": [0, 1e307]}),
         3, "numeric failure: probability rows deviate from 1 by nan (> 1e-10)"),
        (simulate_cfg(time_grid={"start": -1e308, "end": 1e308, "steps": 3}),
         1, "error: time_grid: time grid span t_end - t_start = inf is not finite"),
        # counts are array lengths: one past sys.maxsize is a config error, not an IndexError
        (simulate_cfg(time_grid={"steps": 2**63}), 1,
         f"error: time_grid: steps must be a whole number <= {sys.maxsize} in size, got {2**63}"),
        (simulate_cfg(graph={"family": "ring", "size": 1e30}), 1,
         f"error: graph: ring size must be a whole number <= {sys.maxsize} in size, got 1e+30"),
    ],
    ids=[
        "fourier-overflow",
        "dense-overflow",
        "phase-overflow",
        "span-overflow",
        "steps-overflow",
        "size-overflow",
    ],
)
def test_overflows_exit_with_one_line_under_error_warnings(tmp_path, cfg, code, message):
    # -W error::RuntimeWarning turns any numpy warning left on the way into a traceback
    src = str(Path(ctqw.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "ctqw", "simulate"]
    argv += ["--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path / "out")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (code, message + "\n")
    assert not (tmp_path / "out").exists()


def test_module_entry_point_runs_the_cli(tmp_path):
    # python -m ctqw is the console script, with no RuntimeWarning about ctqw.cli
    cfg = write_config(tmp_path, {"checks": [{"property": "suppression"}]})
    src = str(Path(ctqw.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "ctqw", "verify", "--config", cfg]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.count(",pass\n") == 3
    bad = subprocess.run(argv[:5] + ["bogus"], env=env, capture_output=True, text=True)
    assert bad.returncode == 1 and "invalid choice" in bad.stderr
    # the package root does not import ctqw.cli, so running it as a module does not warn
    cli_help = argv[:4] + ["ctqw.cli", "--help"]
    done = subprocess.run(cli_help, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage:")


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
        {"property": "suppression-random", "count": 0},
        {"property": "suppression-random", "count": -5},
        {"property": "suppression-random", "max_nodes": 1},
        {"property": "suppression-random", "max_degree": -1},
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
        {"property": "suppression", "graph": {"family": "star", "size": 4}, "partition": 5},
        {"property": "suppression", "graph": {"family": "ring", "size": 6}, "partition": [0.5]},
        {"property": "mirror", "graph": {"family": "ring", "size": 6}, "deltas": 0.5},
        {"property": "mirror", "graph": {"family": "ring", "size": 6}, "deltas": ["tau"]},
        {
            "property": "mirror",
            "graph": {"family": "star", "size": 4},
            "deltas": [0.1],
            "half_pi": "yes",
        },
        {"property": "suppression", "graph": {"family": "ring", "size": 6}, "initial_node": 1},
        {
            "property": "stationary",
            "graph": {"family": "ring", "size": 6, "directed": False},
            "deltas": [0.1],
        },
        {
            "property": "stationary",
            "graph": {"family": "ring", "size": 6, "directed": False},
            "time_grid": {"start": 2.0, "end": 1.0, "steps": 5},
        },
        {"property": "suppression", "graph": {"family": "ring", "size": 2}},
        {"property": "suppression", "graph": {"family": "moebius", "size": 7}},
        {"property": "suppression", "graph": {"family": "circulant", "coefficients": []}},
        {
            "property": "suppression",
            "graph": {"family": "ring", "size": 6},
            "coupling": {"kind": "polynomial", "coefficients": []},
        },
        {"property": "suppression", "graph": {"family": "edge-list", "path": 5}},
        5,
        {"property": "suppression", "graph": {"family": "ring", "size": 6, "directed": "no"}},
        {"property": "suppression", "graph": {"family": "circulant", "coefficients": "0101"}},
        {"property": "suppression", "graph": {"family": "edge-list"}},
        {
            "property": "suppression",
            "graph": {"family": "ring", "size": 6},
            "coupling": {"kind": "polynomial", "coefficients": 1},
        },
        {
            "property": "suppression",
            "graph": {"family": "ring", "size": 6},
            "coupling": {"kind": "exp", "coefficients": [1]},
        },
        {
            "property": "suppression",
            "graph": {"family": "ring", "size": 6},
            "coupling": {"kind": "fourier"},
        },
        # a present null is not an absent key
        {"property": "suppression", "graph": {"family": "ring", "size": 6}, "coupling": None},
        {
            "property": "stationary",
            "graph": {"family": "ring", "size": 6, "directed": False},
            "time_grid": None,
        },
        # empty lists are refused with the other malformed fields, not as rejected lines
        {"property": "mirror", "graph": {"family": "ring", "size": 6}, "deltas": []},
        {"property": "suppression", "graph": {"family": "ring", "size": 6}, "partition": []},
        # an unhashable choice is refused like any other
        {"property": "suppression", "graph": {"family": []}},
        {"property": []},
    ],
    ids=[
        "fractional-count",
        "bool-max-nodes",
        "string-max-degree",
        "zero-count",
        "negative-count",
        "one-max-node",
        "negative-max-degree",
        "fractional-initial-node",
        "fractional-size",
        "unknown-key",
        "unknown-property",
        "missing-graph",
        "string-tolerance",
        "bool-tolerance",
        "bool-time-grid-start",
        "string-coupling-coefficient",
        "scalar-partition",
        "fractional-partition-entry",
        "scalar-deltas",
        "unparsable-delta",
        "string-half-pi",
        "initial-node-on-suppression",
        "deltas-on-stationary",
        "backward-check-time-grid",
        "two-node-ring",
        "odd-moebius",
        "empty-circulant",
        "empty-polynomial",
        "integer-edge-list-path",
        "non-object-check",
        "string-directed",
        "string-circulant-coefficients",
        "edge-list-without-path",
        "scalar-polynomial-coefficients",
        "coefficients-on-exp",
        "unknown-coupling-kind",
        "null-coupling",
        "null-time-grid",
        "empty-deltas",
        "empty-partition",
        "list-family",
        "list-property",
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


def _without(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        ("simulate", [simulate_cfg()], "top-level config must be an object"),
        ("simulate", _without(simulate_cfg(), "alphas"), "missing 'alphas'"),
        ("simulate", simulate_cfg(alphas=[]), "'alphas' must be a nonempty list"),
        ("simulate", _without(simulate_cfg(), "graph"), "missing 'graph'"),
        ("verify", {"checks": []}, "'checks' must be a nonempty list"),
        ("simulate", simulate_cfg(coupling="exp"), "coupling: expected an object"),
        ("simulate", simulate_cfg(time_grid=5), "time_grid: expected an object"),
        ("simulate", simulate_cfg(output=[]), "output: expected an object"),
        ("simulate", simulate_cfg(coupling=None), "coupling: expected an object"),
        ("simulate", simulate_cfg(time_grid=None), "time_grid: expected an object"),
        ("verify", {"checks": [{"property": "suppression"}], "time_grid": None},
         "time_grid: expected an object"),
    ],
    ids=[
        "non-object-config",
        "missing-alphas",
        "empty-alphas",
        "missing-graph",
        "empty-checks",
        "string-coupling",
        "number-time-grid",
        "list-output",
        "null-coupling",
        "null-time-grid",
        "null-verify-time-grid",
    ],
)
def test_malformed_configs_exit_one(tmp_path, capsys, command, cfg, message):
    out_dir = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out-dir", str(out_dir)]) == 1
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("report", [5, "", None])
def test_verify_bad_report_name_exits_one_before_checks(tmp_path, capsys, monkeypatch, report):
    checks = []
    monkeypatch.setattr("ctqw.cli._parse_check", lambda *args: checks.append(args))
    cfg = {"checks": [{"property": "suppression"}], "report": report}
    out_dir = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out-dir", str(out_dir)]) == 1
    assert "error: config: 'report'" in capsys.readouterr().err
    assert checks == []
    assert not out_dir.exists()


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


def _star_check(**fields):
    return dict({"property": "suppression", "graph": {"family": "star", "size": 5}}, **fields)


@pytest.mark.parametrize(
    "checks, code",
    [
        ([_star_check(tolerance="1e-12")], 1),
        ([_star_check(tolerance=1.0)], 2),
        ([_star_check(tolerance=-1e-12)], 2),
        ([_star_check(tolerance=1e-20)], 0),
        # every check is parsed before any runs: a malformed second check stops the
        # first, also one that alone exits 3 (J(x) = 1e308 x overflows on the 6-ring)
        ([_star_check(), {"property": "suppression", "bogus": 1}], 1),
        (
            [
                {
                    "property": "mirror",
                    "graph": {"family": "ring", "size": 6, "directed": False},
                    "deltas": [0.1],
                    "coupling": {"kind": "polynomial", "coefficients": [0, 1e308]},
                },
                {"property": "nope"},
            ],
            1,
        ),
    ],
    ids=["1e-12-1", "1.0-2", "-1e-12-2", "1e-20-0", "valid-then-malformed",
         "numeric-failure-then-malformed"],
)
def test_verify_tolerance_checked_before_walks(tmp_path, capsys, monkeypatch, checks, code):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(m):
        calls.append(m.shape)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    assert main(["verify", "--config", write_config(tmp_path, {"checks": checks})]) == code
    out = capsys.readouterr().out
    if code == 0:
        assert calls and out.count(",pass") == 1
    else:
        assert calls == []
        assert (",rejected" in out) == (code == 2)
        assert (out == "") == (code == 1)


def test_verify_labels_spell_the_built_instance(tmp_path, capsys):
    graph_path = tmp_path / "ladder.txt"
    write_edge_list(build_moebius_ladder(6), graph_path)
    cfg = {
        "checks": [
            {"property": "stationary", "graph": {"family": "ring", "size": 6.0, "directed": False}},
            {"property": "stationary", "graph": {"family": "ring", "size": 6, "directed": False}},
            {"property": "suppression"},
            {"property": "suppression", "graph": {"family": "edge-list", "path": str(graph_path)}},
        ]
    }
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 0
    rows = [line.split(",")[:2] for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [
        ["stationary", "ring-n6-undirected"],
        ["stationary", "ring-n6-undirected"],
        ["suppression", "star-n5"],
        ["suppression", "ring-n6"],
        ["suppression", "moebius-n10"],
        ["suppression", "edge-list"],
    ]


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


def test_readme_configs_run(tmp_path, capsys):
    # every fenced json block of README.md is a config the CLI accepts as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [json.loads(b) for b in re.findall(r"^```json\n(.*?)^```", readme, re.M | re.S)]
    assert len(blocks) >= 2
    for k, cfg in enumerate(blocks):
        command = "verify" if "checks" in cfg else "sweep"
        path = write_config(tmp_path, cfg, f"readme-{k}.json")
        argv = [command, "--config", path, "--out-dir", str(tmp_path), "--seed", "7"]
        assert main(argv) == 0, capsys.readouterr()


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


def test_simulate_rejects_repeated_grid_times(tmp_path, capsys):
    # render reads equal times back as one row, so such a grid would not round-trip
    cfg = simulate_cfg(
        time_grid={"start": 1, "end": 1, "steps": 3}, output={"csv": "walk.csv", "heatmap": "walk.pgm"}
    )
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out-dir", str(out_dir)]) == 1
    assert "rise strictly" in capsys.readouterr().err
    assert not out_dir.exists()


def test_render_out_of_memory_exits_one(tmp_path, capsys):
    # node 2**53 asks for a field of 2**53 + 1 columns (64 PiB), which no allocator grants
    csv = tmp_path / "huge.csv"
    csv.write_text("t,node,probability\n0,0,1\n0,9007199254740992,0\n")
    out = tmp_path / "huge.pgm"
    assert main(["render", "--csv", str(csv), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


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
