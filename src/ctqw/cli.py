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
from .operators import (
    TIME_CHUNK,
    CouplingSeries,
    EigendecompositionError,
    NonFiniteOperatorError,
    _real_number,
    _whole_number,
    parse_phase,
)
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


def _check_keys(cfg: dict, allowed, context: str) -> None:
    if not isinstance(cfg, dict):
        raise ValueError(f"{context}: expected an object")
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ValueError(f"{context}: unknown keys {unknown}")


def _load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: top-level config must be an object")
    return cfg


def _config_string(cfg: dict, key: str, context: str) -> None:
    """Reject a present ``key`` whose value is not a nonempty string."""
    if key in cfg and not (isinstance(cfg[key], str) and cfg[key]):
        raise ValueError(f"{context}: '{key}' must be a nonempty string, got {cfg[key]!r}")


def _config_build(build, context: str, *args):
    """Call a library constructor, prefixing its ValueError with ``context``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{context}: {exc}") from None


# family -> the graph keys it reads besides "family"
_GRAPH_KEYS = {
    "star": {"size", "directed"},
    "ring": {"size", "directed"},
    "moebius": {"size", "directed"},
    "circulant": {"coefficients"},
    "edge-list": {"path"},
}
_SIZED_BUILDERS = {"star": build_star, "ring": ring_spec, "moebius": moebius_spec}


def _build_graph(cfg, context: str = "graph"):
    """Build a DirectedGraph or CirculantSpec from a config object, with its report label.

    The label is spelled from the built instance, so ``6`` and ``6.0`` name one graph.
    """
    if not isinstance(cfg, dict) or cfg.get("family") not in _GRAPH_KEYS:
        raise ValueError(f"{context}: expected an object with 'family' one of {sorted(_GRAPH_KEYS)}")
    family = cfg["family"]
    _check_keys(cfg, {"family", *_GRAPH_KEYS[family]}, context)
    if family == "circulant":
        coeffs = cfg.get("coefficients")
        if not isinstance(coeffs, list):
            raise ValueError(f"{context}: circulant family needs a 'coefficients' list")
        spec = _config_build(CirculantSpec, context, coeffs)
        return spec, f"circulant-n{spec.n}"
    if family == "edge-list":
        if "path" not in cfg:
            raise ValueError(f"{context}: edge-list family needs a 'path'")
        _config_string(cfg, "path", context)
        return _config_build(read_edge_list, context, cfg["path"]), "edge-list"
    directed = cfg.get("directed", True)
    if not isinstance(directed, bool):
        raise ValueError(f"{context}: 'directed' must be a boolean")
    graph = _config_build(_SIZED_BUILDERS[family], context, cfg.get("size"), directed)
    size = graph.n - 1 if family == "star" else graph.n  # a star's size counts its leaves
    return graph, f"{family}-n{size}" + ("" if directed else "-undirected")


def _build_series(cfg) -> CouplingSeries:
    if cfg is None:
        return CouplingSeries.exp()
    _check_keys(cfg, {"kind", "coefficients"}, "coupling")
    coeffs = cfg.get("coefficients", [])
    if not isinstance(coeffs, list):
        raise ValueError(f"coupling: 'coefficients' must be a list, got {coeffs!r}")
    return _config_build(CouplingSeries, "coupling", cfg.get("kind"), coeffs)


def _build_grid(cfg) -> TimeGrid:
    if cfg is None:
        return DEFAULT_TIME_GRID
    _check_keys(cfg, {"start", "end", "steps"}, "time_grid")
    default = DEFAULT_TIME_GRID
    return _config_build(
        TimeGrid,
        "time_grid",
        cfg.get("start", default.t_start),
        cfg.get("end", default.t_end),
        cfg.get("steps", default.steps),
    )


def _parse_alphas(cfg) -> list[float]:
    if "alphas" not in cfg:
        raise ValueError("config: missing 'alphas'")
    raw = cfg["alphas"]
    tokens = raw if isinstance(raw, list) else [raw]
    if not tokens:
        raise ValueError("config: 'alphas' must not be empty")
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
        raise ValueError("config: missing 'graph'")
    alphas = _parse_alphas(cfg)
    sweep = args.command == "sweep"
    if not sweep and len(alphas) != 1:
        raise ValueError(f"simulate needs exactly one alpha, got {len(alphas)}")
    graph, _ = _build_graph(cfg["graph"])
    series = _build_series(cfg.get("coupling"))
    grid = _build_grid(cfg.get("time_grid"))
    initial = _whole_number(cfg.get("initial_node", 0), "config: 'initial_node'")
    output = cfg.get("output", {})
    _check_keys(output, {"csv", "heatmap", "scale", "amplitudes"}, "output")
    _config_string(output, "csv", "output")
    _config_string(output, "heatmap", "output")
    include_amps, scale = output.get("amplitudes", False), output.get("scale", "linear")
    if not isinstance(include_amps, bool):
        raise ValueError(f"output: 'amplitudes' must be a boolean, got {include_amps!r}")
    if scale not in ("linear", "log"):
        raise ValueError(f"output: 'scale' must be 'linear' or 'log', got {scale!r}")
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


_DEFAULT_SUPPRESSION_GRAPHS = (
    {"family": "star", "size": 5},
    {"family": "ring", "size": 6},
    {"family": "moebius", "size": 10},
)

# property -> (default tolerance, the keys its check reads besides "property",
# "tolerance" and "time_grid", the required ones among them)
_CHECKS = {
    "suppression": (TOL_SUPPRESSION, {"graph", "coupling", "partition"}, set()),
    "suppression-random": (TOL_SUPPRESSION, {"count", "max_nodes", "max_degree"}, set()),
    "mirror": (
        TOL_MIRROR,
        {"graph", "coupling", "deltas", "initial_node", "half_pi"},
        {"graph", "deltas"},
    ),
    "stationary": (TOL_STATIONARY, {"graph", "coupling", "initial_node"}, {"graph"}),
    "cancellation": (
        TOL_CANCELLATION,
        {"graph", "graph_b", "coupling", "initial_node"},
        {"graph", "graph_b"},
    ),
}
_CHECK_INT_DEFAULTS = {"initial_node": 0, "count": 20, "max_nodes": 16, "max_degree": 5}


def _config_list(cfg, key: str, parse, context: str):
    """Each entry of an optional list field through ``parse``; None when absent."""
    if key not in cfg:
        return None
    if not isinstance(cfg[key], list):
        raise ValueError(f"{context}: '{key}' must be a list, got {cfg[key]!r}")
    return [parse(entry, f"{context}: '{key}' entry") for entry in cfg[key]]


def _config_phase(token, what: str) -> float:
    return _config_build(parse_phase, what, token)


def _parse_check(check_cfg, grid, seed):
    """Parse a check against its ``_CHECKS`` row: its property and a function running its walks.

    A malformed field raises ValueError here, before ``verify`` runs any
    check; a ValueError from the returned function (a loosened tolerance, an
    ineligible instance or a failed random draw) is a rejected line.
    """
    if not isinstance(check_cfg, dict) or check_cfg.get("property") not in _CHECKS:
        raise ValueError(f"check: expected an object with 'property' one of {sorted(_CHECKS)}")
    prop = check_cfg["property"]
    default, reads, required = _CHECKS[prop]
    context = f"{prop} check"
    _check_keys(check_cfg, {"property", "tolerance", "time_grid", *reads}, context)
    missing = sorted(required - check_cfg.keys())
    if missing:
        raise ValueError(f"{context}: missing {missing}")
    tol = _real_number(check_cfg.get("tolerance", default), f"{context}: 'tolerance'")
    series = _build_series(check_cfg.get("coupling"))
    if "time_grid" in check_cfg:
        grid = _build_grid(check_cfg["time_grid"])
    initial, count, max_nodes, max_degree = (
        _whole_number(check_cfg.get(key, fallback), f"{context}: '{key}'")
        for key, fallback in _CHECK_INT_DEFAULTS.items()
    )
    if count < 1 or max_nodes < 2 or max_degree < 0:
        raise ValueError(f"{context}: needs 'count' >= 1, 'max_nodes' >= 2 and 'max_degree' >= 0")
    deltas = _config_list(check_cfg, "deltas", _config_phase, context)
    partition = _config_list(check_cfg, "partition", _whole_number, context)
    half_pi = check_cfg.get("half_pi")
    if "half_pi" in check_cfg and not isinstance(half_pi, bool):
        raise ValueError(f"{context}: 'half_pi' must be a boolean, got {half_pi!r}")
    built = [_build_graph(check_cfg[key], key) for key in ("graph", "graph_b") if key in check_cfg]
    if prop == "suppression" and not built:
        built = [_build_graph(cfg) for cfg in _DEFAULT_SUPPRESSION_GRAPHS]
    graphs, labels = [graph for graph, _ in built], [label for _, label in built]
    if prop != "suppression":  # one instance of one or two graphs
        labels = ["|".join(labels)]

    def run() -> list[PropertyReport]:
        if not (0.0 <= tol <= default):
            raise ValueError(f"tolerance may only tighten the default {default:g}, got {tol:g}")
        names = labels
        if prop == "mirror":
            reports = [check_mirror_symmetries(*graphs, series, deltas, initial, grid, half_pi)]
        elif prop == "stationary":
            reports = [check_stationary_at_half_pi(*graphs, series, initial, grid)]
        elif prop == "cancellation":
            reports = [check_bidirected_edge_cancellation(*graphs, series, initial, grid)]
        elif prop == "suppression":
            reports = [check_transport_suppression(g, series, grid, partition) for g in graphs]
        else:
            base = seed if seed is not None else 0
            names, reports = [], []
            for k in range(count):
                rng = np.random.default_rng((base, k))
                graph = random_bipartite_graph(rng, max_nodes)
                poly = random_polynomial_series(rng, max_degree)
                names.append(f"random-bipartite-n{graph.n}-seed{base}.{k}")
                reports.append(check_transport_suppression(graph, poly, grid))
        return [PropertyReport(r.name, name, r.deviation, tol) for name, r in zip(names, reports)]

    return prop, run


def cmd_verify(args) -> int:
    if args.seed is not None and args.seed < 0:  # it seeds np.random.default_rng
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    cfg = _load_config(args.config)
    _check_keys(cfg, {"checks", "report", "time_grid"}, "config")
    _config_string(cfg, "report", "config")
    checks = cfg.get("checks")
    if not isinstance(checks, list) or not checks:
        raise ValueError("config: 'checks' must be a nonempty list")
    grid = _build_grid(cfg.get("time_grid"))
    # every check is parsed before any runs, so a malformed one exits 1 without a report
    parsed = [_parse_check(check_cfg, grid, args.seed) for check_cfg in checks]
    lines = ["property,instance,deviation,tolerance,verdict"]
    all_ok = True
    for prop, run in parsed:
        try:
            for report in run():
                lines.append(report.line())
                all_ok = all_ok and report.passed
        except ValueError as exc:
            reason = str(exc).replace(",", ";")
            lines.append(f"{prop},rejected: {reason},nan,{_CHECKS[prop][0]:g},rejected")
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
        # an overflow is reported once, as the numeric failure below, not as numpy warnings too
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EigendecompositionError, NonFiniteOperatorError, NormalizationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
