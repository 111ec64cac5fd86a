"""The benchmark's workloads: seeded inputs, one timed op, and its output check.

Every workload uses the default time grid, T = 500 points on [0, 25].  The
workload seed draws the phases alpha (uniform in [-pi, pi)), the start nodes
and the random graphs; the package only ever sees the generated inputs.

``op(i)`` is the timed operation; ``check(i, outcome)`` runs untimed and
raises :class:`CheckFailed` when the output is wrong.  ``tiny=True`` shrinks
every size for the benchmark's self-tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import ctqw
import ctqw.cli
import reference

T_END = 25.0
STEPS = 500
# Criterion 6 (fast vs dense propagators) and the directed branch of
# criterion 1 (star closed forms) both pin 1e-9.
FIELD_TOL = 1e-9
STAR_TOL = 1e-9
POLY = (0.0, 1.0, 0.5, 1.0 / 6.0)
# Distinct seeded draws per run; op i uses draw i mod POOL.
POOL = 64
WORKLOAD_IDS = {"walk-mix": 1, "verify-suite": 2}


class CheckFailed(Exception):
    """An op's output is wrong."""


def _rng(name: str, seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng((seed, WORKLOAD_IDS[name], *stream))


def random_out_degree_edges(rng: np.random.Generator, n: int, degree: int) -> list:
    """Each node gets ``degree`` distinct out-neighbours other than itself."""
    edges = []
    for i in range(n):
        targets = rng.choice(n - 1, size=degree, replace=False)
        edges.extend((i, int(j) + (j >= i)) for j in targets)
    return edges


def ring_edges(n: int) -> list:
    return [(i, (i + 1) % n) for i in range(n)]


def moebius_edges(n: int) -> list:
    """Directed outer ring plus both directions of every rung i <-> i + n/2."""
    return ring_edges(n) + [(i, (i + n // 2) % n) for i in range(n)]


def undirected(edges) -> list:
    return sorted(set(edges) | {(j, i) for i, j in edges})


def write_edge_list(path: str, n: int, edges) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"n {n}\n")
        fh.writelines(f"{i} {j}\n" for i, j in sorted(set(edges)))


def _call_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = ctqw.cli.main(argv)
    return code, out.getvalue()


class WalkMix:
    """One Fourier ``run_walk`` then one dense ``run_walk`` at the same alpha.

    The Fourier walk alternates between the directed ring and Moebius specs
    (N = 2000); the dense walk runs on one seeded digraph with N = 500 and
    out-degree 2.  Both walks of op i share a coupling, which alternates
    between exp and the polynomial (0, 1, 1/2, 1/6) every two ops.
    """

    name = "walk-mix"
    cycle = 4

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.n_fourier = 64 if tiny else 2000
        self.n_dense = 40 if tiny else 500
        rng = _rng(self.name, seed)
        self.alphas = rng.uniform(-math.pi, math.pi, POOL)
        self.fourier_starts = rng.integers(0, self.n_fourier, POOL)
        self.dense_starts = rng.integers(0, self.n_dense, POOL)
        self.star_sizes = rng.integers(1, 17, POOL)
        edges = random_out_degree_edges(rng, self.n_dense, 2)
        self.graph = ctqw.DirectedGraph(self.n_dense, frozenset(edges))
        self.adjacency = reference.adjacency(self.n_dense, edges)
        self.grid = ctqw.TimeGrid(0.0, T_END, 50 if tiny else STEPS)
        self.specs = (ctqw.ring_spec(self.n_fourier), ctqw.moebius_spec(self.n_fourier))
        self.series = (ctqw.CouplingSeries.exp(), ctqw.CouplingSeries.polynomial(POLY))
        self.couplings = (np.exp, reference.polynomial_coupling(POLY))

    def op(self, i: int):
        k = i % POOL
        series = self.series[(i // 2) % 2]
        alpha = float(self.alphas[k])
        fourier = ctqw.run_walk(
            self.specs[i % 2], alpha, series, int(self.fourier_starts[k]), self.grid
        )
        dense = ctqw.run_walk(self.graph, alpha, series, int(self.dense_starts[k]), self.grid)
        return fourier, dense

    def check(self, i: int, outcome) -> None:
        fourier, dense = outcome
        k = i % POOL
        alpha = float(self.alphas[k])
        coupling = self.couplings[(i // 2) % 2]
        times = self.grid.times()
        refs = (
            (fourier, reference.CirculantWalk(
                self.specs[i % 2].coefficients, alpha, coupling, int(self.fourier_starts[k])
            )),
            (dense, reference.DenseWalk(
                self.adjacency, alpha, coupling, int(self.dense_starts[k])
            )),
        )
        for result, ref in refs:
            if not np.array_equal(result.times, times):
                raise CheckFailed(f"{result.label}: time grid differs")
            gap = reference.max_field_gap(ref, times, result.amplitudes, result.probabilities)
            if not gap <= FIELD_TOL:
                raise CheckFailed(f"{result.label}: field gap {gap:.3e} > {FIELD_TOL:g}")
        n = int(self.star_sizes[k])
        star = ctqw.run_walk(ctqw.build_star(n, True), alpha, ctqw.CouplingSeries.exp(), 0, self.grid)
        oracle = ctqw.star_probability_field(n, True, alpha, times)
        gap = float(np.max(np.abs(star.probabilities - oracle)))
        if not gap <= STAR_TOL:
            raise CheckFailed(f"directed star n={n}: closed-form gap {gap:.3e} > {STAR_TOL:g}")

    def artifacts(self, i: int) -> list:
        return []


class VerifySuite:
    """In-process ``ctqw verify`` runs on one-check configs, plus one artifact round trip.

    The cycle is six ops: five verify checks, each on its own config, then
    ``ctqw simulate`` of a directed 120-ring edge list followed by
    ``ctqw render`` of the CSV it wrote.  The round trip keeps the artifact
    writers and reader measured at a minority share of the cycle.

    Inputs are dense edge-list files written at set-up from the workload
    seed, so the Fourier engine never runs.  ``suppression-random`` runs
    without ``--seed``, so the CLI draws its default instances: seeded
    instances make the check's cost heavy-tailed across seeds, and some
    seeds (39, for one) make ``random_bipartite_graph`` raise RuntimeError,
    a standing defect listed in README.md.  Seed the check once that defect
    is fixed.
    """

    name = "verify-suite"
    cycle = 6
    ROUND_TRIP = 5
    CONFIGS = 16
    SAMPLED_ROWS = 3

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.workdir = workdir
        n_moebius, n_ring, n_mirror = (14, 20, 20) if tiny else (102, 200, 200)
        count, max_nodes = (3, 8) if tiny else (10, 32)
        self.n_artifact = 20 if tiny else 120
        self.steps = 50 if tiny else STEPS
        rng = _rng(self.name, seed)
        files = {
            "moebius-directed": (n_moebius, moebius_edges(n_moebius)),
            "digraph": (n_mirror, random_out_degree_edges(rng, n_mirror, 2)),
            "ring-undirected": (n_ring, undirected(ring_edges(n_ring))),
            "moebius-undirected": (n_ring, undirected(moebius_edges(n_ring))),
            "ring-directed": (self.n_artifact, ring_edges(self.n_artifact)),
        }
        graphs = {}
        for stem, (n, edges) in files.items():
            path = os.path.join(workdir, f"{stem}.edges")
            write_edge_list(path, n, edges)
            graphs[stem] = {"family": "edge-list", "path": path}
        starts = [int(s) for s in rng.integers(0, n_ring, 3)]
        checks = [
            {"property": "suppression", "graph": graphs["moebius-directed"]},
            {"property": "suppression-random", "count": count, "max_nodes": max_nodes},
            {"property": "mirror", "graph": graphs["digraph"], "deltas": [0.1, 0.5],
             "initial_node": starts[0]},
            {"property": "stationary", "graph": graphs["ring-undirected"],
             "initial_node": starts[1]},
            {"property": "cancellation", "graph": graphs["ring-undirected"],
             "graph_b": graphs["moebius-undirected"], "initial_node": starts[2]},
        ]
        self.expected_lines = [1, count, 1, 1, 1]
        self.configs = []
        self.reports = []
        for k, check in enumerate(checks):
            path = os.path.join(workdir, f"verify-{k}.json")
            self.reports.append(os.path.join(workdir, f"report-{k}.csv"))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"checks": [check], "report": os.path.basename(self.reports[k])}, fh)
            self.configs.append(path)

        self.alphas = rng.uniform(-math.pi, math.pi, self.CONFIGS)
        self.starts = rng.integers(0, self.n_artifact, self.CONFIGS)
        self.csv = os.path.join(workdir, "walk.csv")
        self.pgm = os.path.join(workdir, "walk.pgm")
        self.rendered = os.path.join(workdir, "render.pgm")
        self.simulate_configs = []
        for k in range(self.CONFIGS):
            cfg = {
                "graph": graphs["ring-directed"],
                "coupling": {"kind": "exp"},
                "alphas": [float(self.alphas[k])],
                "time_grid": {"start": 0.0, "end": T_END, "steps": self.steps},
                "initial_node": int(self.starts[k]),
                "output": {"csv": "walk.csv", "heatmap": "walk.pgm", "scale": "log"},
            }
            path = os.path.join(workdir, f"simulate-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            self.simulate_configs.append(path)
        self.sample_rng = _rng(self.name, seed, 1)

    def op(self, i: int):
        k = i % self.cycle
        if k != self.ROUND_TRIP:
            return _call_cli(["verify", "--config", self.configs[k], "--out-dir", self.workdir])
        sim = _call_cli(["simulate", "--config", self.simulate_configs[i % self.CONFIGS],
                         "--out-dir", self.workdir])
        if sim[0] != 0:
            return sim, None
        return sim, _call_cli(
            ["render", "--csv", self.csv, "--out", self.rendered, "--scale", "log"]
        )

    def check(self, i: int, outcome) -> None:
        k = i % self.cycle
        if k == self.ROUND_TRIP:
            self._check_round_trip(i, outcome)
            return
        code, text = outcome
        if code != 0:
            raise CheckFailed(f"verify exited {code}: {text.strip()[-300:]}")
        lines = text.splitlines()
        if not lines or lines[0] != "property,instance,deviation,tolerance,verdict":
            raise CheckFailed("verify printed no report header")
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != self.expected_lines[k]:
            raise CheckFailed(f"verify printed {len(rows)} report lines")
        for row in rows:
            if len(row) != 5 or row[4] != "pass" or not float(row[2]) <= float(row[3]):
                raise CheckFailed(f"report line not a pass: {','.join(row)}")

    def _check_round_trip(self, i: int, outcome) -> None:
        sim, render = outcome
        for step, result in (("simulate", sim), ("render", render)):
            if result is None or result[0] != 0:
                raise CheckFailed(f"{step} failed: {result}")
        k = i % self.CONFIGS
        rows = sorted(self.sample_rng.choice(self.steps, self.SAMPLED_ROWS, replace=False))
        times, probs = self._read_rows(rows)
        ref = reference.CirculantWalk(
            ctqw.ring_spec(self.n_artifact).coefficients, float(self.alphas[k]), np.exp,
            int(self.starts[k]),
        )
        gap = float(np.max(np.abs(probs - np.abs(ref.amplitudes(times)) ** 2)))
        if not gap <= FIELD_TOL:
            raise CheckFailed(f"CSV probabilities off the reference by {gap:.3e}")
        if _pgm_body(self.pgm) != _pgm_body(self.rendered):
            raise CheckFailed("rendered PGM pixels differ from the simulate PGM")

    def _read_rows(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Stream the CSV: count data rows and keep the sampled time rows."""
        n = self.n_artifact
        wanted = set(rows)
        expected_times = np.linspace(0.0, T_END, self.steps)
        times, probs = [], []
        count = 0
        with open(self.csv, "r", encoding="ascii") as fh:
            lines = (line for line in fh if not line.startswith("#"))
            if next(lines, "").strip() != "t,node,probability":
                raise CheckFailed("CSV header is not t,node,probability")
            for line in lines:
                ti, node = divmod(count, n)
                count += 1
                if ti not in wanted:
                    continue
                t, node_field, p = line.split(",")
                if int(node_field) != node or float(t) != expected_times[ti]:
                    raise CheckFailed(f"CSV row {count} is out of order: {line.strip()}")
                if node == 0:
                    times.append(float(t))
                    probs.append([])
                probs[-1].append(float(p))
        if count != n * self.steps:
            raise CheckFailed(f"CSV has {count} data rows, expected {n * self.steps}")
        return np.asarray(times), np.asarray(probs)

    def artifacts(self, i: int) -> list:
        k = i % self.cycle
        if k == self.ROUND_TRIP:
            return [self.csv, self.pgm, self.rendered]
        return [self.reports[k]]


def _pgm_body(path: str) -> bytes:
    with open(path, "rb") as fh:
        return b"".join(line for line in fh if not line.startswith(b"#"))


WORKLOADS = {cls.name: cls for cls in (WalkMix, VerifySuite)}
