"""Config-driven command line front end.

Subcommands: ``simulate`` (one walk), ``sweep`` (one walk per phase),
``verify`` (property certification), ``render`` (CSV to PGM heatmap).
Configs are strict JSON: unknown keys are rejected at every level.  Exit
codes: 0 success, 1 validation error, 2 property failure or rejection,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .graphs import CirculantSpec, read_edge_list
from .graphs import moebius_spec, ring_spec, build_star
from .operators import TIME_CHUNK, CouplingSeries, EigendecompositionError, parse_phase
from .properties import (
    TOL_CANCELLATION,
    TOL_MIRROR,
    TOL_STATIONARY,
    TOL_SUPPRESSION,
    PropertyReport,
    check_bidirected_edge_cancellation,
    check_mirror_symmetries,
    check_stationary_at_half_pi,
    check_transport_suppression,
    random_bipartite_graph,
    random_polynomial_series,
)
from .walk import (
    DEFAULT_TIME_GRID,
    NormalizationError,
    TimeGrid,
    read_walk_csv,
    run_walk,
    write_walk_csv,
)

LOG_FLOOR = 1e-12
LOG_SPAN = 12.0

# Gray levels 0..255 spelled with the separator that follows them in a P2
# row, NUL-padded to 4 bytes; the padding is dropped when a block is written.
_GRAY_CELLS = np.array([b"%d " % v for v in range(256)])
_GRAY_ROW_ENDS = np.array([b"%d\n" % v for v in range(256)])


class ConfigError(ValueError):
    """A malformed config; exits 1, also when raised inside a verify check."""


def _check_keys(cfg: dict, allowed, context: str) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{context}: expected an object")
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")


def _load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top-level config must be an object")
    return cfg


def _config_int(cfg, key: str, context: str, default: int | None = None) -> int:
    """Read an integer field; integral floats pass, bools and fractions do not."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"{context}: missing '{key}'")
        return default
    value = cfg[key]
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"{context}: '{key}' must be an integer, got {value!r}")
    return int(value)


def _config_number(value, what: str) -> float:
    """Read a real number; ints and finite floats pass, bools, strings, inf and nan do not."""
    # the bound also rejects nan, and ints too large for a float
    if isinstance(value, bool) or not (
        isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    ):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _build_graph(cfg, context: str = "graph"):
    """Build a DirectedGraph or CirculantSpec from a config object."""
    _check_keys(cfg, {"family", "size", "directed", "coefficients", "path"}, context)
    family = cfg.get("family")
    directed = cfg.get("directed", True)
    if not isinstance(directed, bool):
        raise ConfigError(f"{context}: 'directed' must be a boolean")
    if family == "star":
        return build_star(_config_int(cfg, "size", context), directed)
    if family == "ring":
        return ring_spec(_config_int(cfg, "size", context), directed)
    if family == "moebius":
        return moebius_spec(_config_int(cfg, "size", context), directed)
    if family == "circulant":
        coeffs = cfg.get("coefficients")
        if not isinstance(coeffs, list):
            raise ConfigError(f"{context}: circulant family needs a 'coefficients' list")
        return CirculantSpec(
            tuple(_config_number(c, f"{context}: 'coefficients' entry") for c in coeffs)
        )
    if family == "edge-list":
        if "path" not in cfg:
            raise ConfigError(f"{context}: edge-list family needs a 'path'")
        return read_edge_list(cfg["path"])
    raise ConfigError(
        f"{context}: unknown family {family!r}; expected star, ring, moebius, "
        "circulant, or edge-list"
    )


def _graph_label(cfg) -> str:
    family = cfg.get("family", "?")
    bits = [str(family)]
    if "size" in cfg:
        bits.append(f"n{cfg['size']}")
    if "coefficients" in cfg:
        bits.append(f"n{len(cfg['coefficients'])}")
    if not cfg.get("directed", True):
        bits.append("undirected")
    return "-".join(bits)


def _build_series(cfg) -> CouplingSeries:
    if cfg is None:
        return CouplingSeries.exp()
    _check_keys(cfg, {"kind", "coefficients"}, "coupling")
    kind = cfg.get("kind")
    if kind == "polynomial":
        coeffs = cfg.get("coefficients")
        if not isinstance(coeffs, list):
            raise ConfigError("coupling: polynomial kind needs a 'coefficients' list")
        return CouplingSeries.polynomial(
            [_config_number(c, "coupling: 'coefficients' entry") for c in coeffs]
        )
    if "coefficients" in cfg:
        raise ConfigError(f"coupling: kind {kind!r} takes no coefficients")
    if kind in ("exp", "sinh", "cosh", "identity"):
        return CouplingSeries(kind)
    raise ConfigError(f"coupling: unknown kind {kind!r}")


def _build_grid(cfg) -> TimeGrid:
    if cfg is None:
        return DEFAULT_TIME_GRID
    _check_keys(cfg, {"start", "end", "steps"}, "time_grid")
    return TimeGrid(
        _config_number(cfg.get("start", DEFAULT_TIME_GRID.t_start), "time_grid: 'start'"),
        _config_number(cfg.get("end", DEFAULT_TIME_GRID.t_end), "time_grid: 'end'"),
        _config_int(cfg, "steps", "time_grid", DEFAULT_TIME_GRID.steps),
    )


def _parse_alphas(cfg) -> list[float]:
    if "alphas" not in cfg:
        raise ConfigError("config: missing 'alphas'")
    raw = cfg["alphas"]
    tokens = raw if isinstance(raw, list) else [raw]
    if not tokens:
        raise ConfigError("config: 'alphas' must not be empty")
    return [parse_phase(tok) for tok in tokens]


def _header_lines(cfg: dict, seed, command: str, extra=()) -> list[str]:
    lines = [
        f"generated-by: ctqw {command}",
        f"config: {json.dumps(cfg, sort_keys=True, separators=(',', ':'))}",
        f"seed: {seed if seed is not None else 'none'}",
    ]
    lines.extend(extra)
    return lines


def write_heatmap_pgm(probabilities, path, scale: str = "linear", header_lines=()) -> None:
    """Write a probability field as a P2 PGM, time down the rows, nodes across.

    ``linear`` maps the max probability to 255; ``log`` maps log10(P) over
    the fixed [-12, 0] window.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 2 or probs.size == 0:
        raise ValueError("heatmap needs a nonempty (steps, nodes) array")
    if not (np.isfinite(probs).all() and probs.min() >= 0.0):
        raise ValueError("heatmap needs finite, non-negative probabilities")
    if scale == "linear":
        pmax = probs.max()
        values = probs / pmax if pmax > 0 else np.zeros_like(probs)
    elif scale == "log":
        values = np.clip(np.log10(np.maximum(probs, LOG_FLOOR)) / LOG_SPAN + 1.0, 0.0, 1.0)
    else:
        raise ValueError(f"unknown scale {scale!r}; expected 'linear' or 'log'")
    pixels = np.rint(255.0 * values).astype(int)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("P2\n")
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"{pixels.shape[1]} {pixels.shape[0]}\n255\n")
        for start in range(0, pixels.shape[0], TIME_CHUNK):
            block = pixels[start : start + TIME_CHUNK]
            cells = _GRAY_CELLS[block]
            cells[:, -1] = _GRAY_ROW_ENDS[block[:, -1]]
            text = cells.view(np.uint8)
            fh.write(text[text != 0].tobytes().decode("ascii"))


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _out_path(out_dir: str, name: str) -> str:
    path = name if os.path.isabs(name) else os.path.join(out_dir, name)
    _ensure_parent(path)
    return path


def _suffixed(name: str, index: int) -> str:
    stem, ext = os.path.splitext(name)
    return f"{stem}_{index:02d}{ext}"


def cmd_walk(args) -> int:
    """``simulate`` (exactly one alpha) and ``sweep`` (one walk per alpha, suffixed artifacts)."""
    cfg = _load_config(args.config)
    _check_keys(
        cfg, {"graph", "coupling", "alphas", "time_grid", "initial_node", "output"}, "config"
    )
    if "graph" not in cfg:
        raise ConfigError("config: missing 'graph'")
    alphas = _parse_alphas(cfg)
    sweep = args.command == "sweep"
    if not sweep and len(alphas) != 1:
        raise ConfigError(f"simulate needs exactly one alpha, got {len(alphas)}")
    graph = _build_graph(cfg["graph"])
    series = _build_series(cfg.get("coupling"))
    grid = _build_grid(cfg.get("time_grid"))
    initial = _config_int(cfg, "initial_node", "config", 0)
    output = cfg.get("output", {})
    _check_keys(output, {"csv", "heatmap", "scale", "amplitudes"}, "output")
    include_amps, scale = bool(output.get("amplitudes", False)), output.get("scale", "linear")
    results = [run_walk(graph, alpha, series, initial, grid) for alpha in alphas]
    for index, result in enumerate(results):
        csv_name, pgm_name = output.get("csv", "walk.csv"), output.get("heatmap")
        extra = [f"alpha: {result.alpha:.17g}"]
        defect = result.normalization_defect
        summary = f"normalization defect: {defect:.3e}"
        if sweep:
            csv_name = _suffixed(csv_name, index)
            pgm_name = pgm_name and _suffixed(pgm_name, index)
            extra.insert(0, f"alpha-index: {index}")
            summary = f"alpha={result.alpha:.6g}: normalization defect {defect:.3e}"
        header = _header_lines(cfg, args.seed, args.command, extra)
        write_walk_csv(result, _out_path(args.out_dir, csv_name), include_amps, header)
        if pgm_name is not None:
            pgm_path = _out_path(args.out_dir, pgm_name)
            write_heatmap_pgm(result.probabilities, pgm_path, scale, header)
        print(summary)
    return 0


_DEFAULT_SUPPRESSION_INSTANCES = (
    ("star-n5", {"family": "star", "size": 5, "directed": True}),
    ("ring-n6", {"family": "ring", "size": 6, "directed": True}),
    ("moebius-n10", {"family": "moebius", "size": 10, "directed": True}),
)

_CHECK_TOLERANCES = {
    "suppression": TOL_SUPPRESSION,
    "suppression-random": TOL_SUPPRESSION,
    "mirror": TOL_MIRROR,
    "stationary": TOL_STATIONARY,
    "cancellation": TOL_CANCELLATION,
}


def _run_check(check_cfg, grid, seed) -> list[PropertyReport]:
    _check_keys(
        check_cfg,
        {
            "property",
            "graph",
            "graph_b",
            "coupling",
            "deltas",
            "initial_node",
            "partition",
            "half_pi",
            "count",
            "max_nodes",
            "max_degree",
            "tolerance",
            "time_grid",
        },
        "check",
    )
    prop = check_cfg.get("property")
    if prop not in _CHECK_TOLERANCES:
        raise ConfigError(
            f"check: unknown property {prop!r}; expected one of {sorted(_CHECK_TOLERANCES)}"
        )
    # checked before any walk runs: malformed exits 1, loosening is a rejected line
    default = _CHECK_TOLERANCES[prop]
    tol = _config_number(check_cfg.get("tolerance", default), "check: 'tolerance'")
    if not (0.0 <= tol <= default):
        raise ValueError(f"tolerance may only tighten the default {default:g}, got {tol:g}")
    series = _build_series(check_cfg.get("coupling"))
    if "time_grid" in check_cfg:
        grid = _build_grid(check_cfg["time_grid"])
    initial = _config_int(check_cfg, "initial_node", "check", 0)
    reports: list[PropertyReport] = []
    if prop == "suppression":
        if "graph" in check_cfg:
            instances = [(_graph_label(check_cfg["graph"]), check_cfg["graph"])]
        else:
            instances = list(_DEFAULT_SUPPRESSION_INSTANCES)
        for label, graph_cfg in instances:
            graph = _build_graph(graph_cfg)
            partition = check_cfg.get("partition")
            reports.append(
                check_transport_suppression(graph, series, grid, partition, label)
            )
    elif prop == "suppression-random":
        count = _config_int(check_cfg, "count", "check", 20)
        max_nodes = _config_int(check_cfg, "max_nodes", "check", 16)
        max_degree = _config_int(check_cfg, "max_degree", "check", 5)
        base = seed if seed is not None else 0
        for k in range(count):
            rng = np.random.default_rng((base, k))
            graph = random_bipartite_graph(rng, max_nodes)
            poly = random_polynomial_series(rng, max_degree)
            label = f"random-bipartite-n{graph.n}-seed{base}.{k}"
            reports.append(check_transport_suppression(graph, poly, grid, None, label))
    elif prop == "mirror":
        if "graph" not in check_cfg or "deltas" not in check_cfg:
            raise ConfigError("mirror check needs 'graph' and 'deltas'")
        graph = _build_graph(check_cfg["graph"])
        deltas = [parse_phase(d) for d in check_cfg["deltas"]]
        reports.append(
            check_mirror_symmetries(
                graph,
                series,
                deltas,
                initial,
                grid,
                check_cfg.get("half_pi"),
                _graph_label(check_cfg["graph"]),
            )
        )
    elif prop == "stationary":
        if "graph" not in check_cfg:
            raise ConfigError("stationary check needs 'graph'")
        graph = _build_graph(check_cfg["graph"])
        reports.append(
            check_stationary_at_half_pi(
                graph, series, initial, grid, _graph_label(check_cfg["graph"])
            )
        )
    else:
        if "graph" not in check_cfg or "graph_b" not in check_cfg:
            raise ConfigError("cancellation check needs 'graph' and 'graph_b'")
        first = _build_graph(check_cfg["graph"])
        second = _build_graph(check_cfg["graph_b"], "graph_b")
        label = f"{_graph_label(check_cfg['graph'])}|{_graph_label(check_cfg['graph_b'])}"
        reports.append(
            check_bidirected_edge_cancellation(first, second, series, initial, grid, label)
        )
    return [PropertyReport(r.name, r.instance, r.deviation, tol) for r in reports]


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"checks", "report", "time_grid"}, "config")
    checks = cfg.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ConfigError("config: 'checks' must be a nonempty list")
    grid = _build_grid(cfg.get("time_grid"))
    lines = ["property,instance,deviation,tolerance,verdict"]
    all_ok = True
    for check_cfg in checks:
        prop = check_cfg.get("property", "?") if isinstance(check_cfg, dict) else "?"
        try:
            for report in _run_check(check_cfg, grid, args.seed):
                lines.append(report.line())
                all_ok = all_ok and report.passed
        except ConfigError:
            raise
        except ValueError as exc:
            tol = _CHECK_TOLERANCES.get(prop, float("nan"))
            reason = str(exc).replace(",", ";")
            lines.append(f"{prop},rejected: {reason},nan,{tol:g},rejected")
            all_ok = False
    for line in lines:
        print(line)
    if "report" in cfg:
        header = _header_lines(cfg, args.seed, "verify")
        with open(_out_path(args.out_dir, cfg["report"]), "w", encoding="ascii") as fh:
            for line in header:
                fh.write(f"# {line}\n")
            fh.write("\n".join(lines) + "\n")
    return 0 if all_ok else 2


def cmd_render(args) -> int:
    times, probs = read_walk_csv(args.csv)
    header = [
        "generated-by: ctqw render",
        f"source: {os.path.basename(args.csv)}",
        f"scale: {args.scale}",
        f"t-range: {times[0]:.17g} {times[-1]:.17g}",
    ]
    _ensure_parent(args.out)
    write_heatmap_pgm(probs, args.out, args.scale, header)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctqw", description="Continuous-time quantum walks on directed graphs."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("simulate", cmd_walk, "run one walk and write artifacts"),
        ("sweep", cmd_walk, "run one walk per phase value"),
        ("verify", cmd_verify, "certify walk properties"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out-dir", default=".", help="directory for artifacts")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
        p.set_defaults(func=func)

    p_render = sub.add_parser("render", help="render a walk CSV as a PGM heatmap")
    p_render.add_argument("--csv", required=True, help="walk CSV produced by simulate/sweep")
    p_render.add_argument("--out", required=True, help="output PGM path")
    p_render.add_argument("--scale", default="linear", choices=("linear", "log"))
    p_render.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EigendecompositionError, NormalizationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
