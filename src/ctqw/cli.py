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
from functools import partial

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
_REQUIRED = object()  # _field's default for a key that must be present

# Gray levels 0..255 spelled with the separator that follows them in a P2
# row, NUL-padded to 4 bytes; the padding is dropped when a block is written.
_GRAY_CELLS = np.array([b"%d " % v for v in range(256)])
_GRAY_ROW_ENDS = np.array([b"%d\n" % v for v in range(256)])


def _field(cfg, key: str, context, rule, default=_REQUIRED):
    """``rule(cfg[key], "'key'")``, or ``default`` if ``key`` is absent: the one config reader.

    A rule takes the value and its quoted key.  Errors are prefixed with
    ``context``.  A section (``graph``, ``coupling``, ``time_grid``) is read
    under its own name and reads its keys with ``context=None``, so that no
    message is prefixed twice.
    """
    prefix = f"{context}: " if context else ""
    if not isinstance(cfg, dict):
        raise ValueError(f"{prefix}expected an object")
    if key not in cfg:
        if default is _REQUIRED:
            raise ValueError(f"{prefix}missing '{key}'")
        return default
    try:
        return rule(cfg[key], f"'{key}'")
    except ValueError as exc:
        raise ValueError(prefix + str(exc)) from None


def _check_keys(cfg: dict, allowed, context=None) -> None:
    """Reject the keys of ``cfg``, an object read by ``_field``, that are not ``allowed``."""
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ValueError((f"{context}: " if context else "") + f"unknown keys {unknown}")


def _load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: top-level config must be an object")
    return cfg


def _given(value, what):
    return value  # for a library builder that checks it


def _boolean(value, what) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be a boolean, got {value!r}")
    return value


def _string(value, what) -> str:
    if not (isinstance(value, str) and value):
        raise ValueError(f"{what} must be a nonempty string, got {value!r}")
    return value


def _choice(*choices):
    def rule(value, what):
        if value not in choices:
            raise ValueError(f"{what} must be one of {sorted(choices)}, got {value!r}")
        return value

    return rule


def _list(value, what, parse=_given, nonempty=False) -> list:
    if not isinstance(value, list) or (nonempty and not value):
        raise ValueError(f"{what} must be a {'nonempty ' * nonempty}list, got {value!r}")
    return [parse(entry, f"{what} entry") for entry in value]


def _phase(token, what) -> float:
    return parse_phase(token)


def _phases(value, what) -> list[float]:  # a phase or a list of phases
    return _list(value if isinstance(value, list) else [value], what, _phase, nonempty=True)


# family -> the graph keys it reads besides "family"
_GRAPH_KEYS = {
    "star": {"size", "directed"},
    "ring": {"size", "directed"},
    "moebius": {"size", "directed"},
    "circulant": {"coefficients"},
    "edge-list": {"path"},
}
_SIZED_BUILDERS = {"star": build_star, "ring": ring_spec, "moebius": moebius_spec}


def _build_graph(cfg, what=None):
    """Build a DirectedGraph or CirculantSpec from a config object, with its report label.

    The label is spelled from the built instance, so ``6`` and ``6.0`` name one graph.
    """
    family = _field(cfg, "family", None, _choice(*_GRAPH_KEYS))
    _check_keys(cfg, {"family", *_GRAPH_KEYS[family]})
    if family == "circulant":
        spec = CirculantSpec(_field(cfg, "coefficients", None, _list))
        return spec, f"circulant-n{spec.n}"
    if family == "edge-list":
        return read_edge_list(_field(cfg, "path", None, _string)), "edge-list"
    directed = _field(cfg, "directed", None, _boolean, True)
    graph = _SIZED_BUILDERS[family](_field(cfg, "size", None, _given), directed)
    size = graph.n - 1 if family == "star" else graph.n  # a star's size counts its leaves
    return graph, f"{family}-n{size}" + ("" if directed else "-undirected")


def _build_series(cfg, what) -> CouplingSeries:
    kind = _field(cfg, "kind", None, _given)
    coeffs = _field(cfg, "coefficients", None, _list, [])
    _check_keys(cfg, {"kind", "coefficients"})
    return CouplingSeries(kind, coeffs)


def _build_grid(cfg, what) -> TimeGrid:
    default = DEFAULT_TIME_GRID
    start = _field(cfg, "start", None, _given, default.t_start)
    end = _field(cfg, "end", None, _given, default.t_end)
    steps = _field(cfg, "steps", None, _given, default.steps)
    _check_keys(cfg, {"start", "end", "steps"})
    return TimeGrid(start, end, steps)


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
    alphas = _field(cfg, "alphas", "config", _phases)
    sweep = args.command == "sweep"
    if not sweep and len(alphas) != 1:
        raise ValueError(f"simulate needs exactly one alpha, got {len(alphas)}")
    graph, _ = _field(cfg, "graph", "graph", _build_graph)
    series = _field(cfg, "coupling", "coupling", _build_series, CouplingSeries.exp())
    grid = _field(cfg, "time_grid", "time_grid", _build_grid, DEFAULT_TIME_GRID)
    initial = _field(cfg, "initial_node", "config", _whole_number, 0)
    output = cfg.get("output", {})
    csv_name = _field(output, "csv", "output", _string, "walk.csv")
    pgm_name = _field(output, "heatmap", "output", _string, None)
    scale = _field(output, "scale", "output", _choice("linear", "log"), "linear")
    include_amps = _field(output, "amplitudes", "output", _boolean, False)
    _check_keys(output, {"csv", "heatmap", "scale", "amplitudes"}, "output")
    results = [run_walk(graph, alpha, series, initial, grid) for alpha in alphas]
    for index, result in enumerate(results):
        extra = [f"alpha: {result.alpha:.17g}"]
        defect = result.normalization_defect
        summary = f"normalization defect: {defect:.3e}"
        csv_path, pgm_path = csv_name, pgm_name
        if sweep:
            csv_path = _suffixed(csv_name, index)
            pgm_path = pgm_name and _suffixed(pgm_name, index)
            extra.insert(0, f"alpha-index: {index}")
            summary = f"alpha={result.alpha:.6g}: normalization defect {defect:.3e}"
        header = _header_lines(cfg, args.seed, args.command, extra)
        write_walk_csv(result, _out_path(args.out_dir, csv_path), include_amps, header)
        if pgm_path is not None:
            pgm_path = _out_path(args.out_dir, pgm_path)
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


def _parse_check(check_cfg, grid, seed):
    """Parse a check against its ``_CHECKS`` row: its property and a function running its walks.

    Every field is read through ``_field``, so a malformed one (a present
    ``null`` and an empty ``deltas`` or ``partition`` list among them) raises
    ValueError here, before ``verify`` runs any check.  A ValueError from the
    returned function (a loosened tolerance, an ineligible instance, a node
    outside the graph or a failed random draw) is a rejected line.
    """
    prop = _field(check_cfg, "property", "check", _choice(*_CHECKS))
    default, reads, required = _CHECKS[prop]
    context = f"{prop} check"
    _check_keys(check_cfg, {"property", "tolerance", "time_grid", *reads}, context)

    def field(key, rule, fallback=None, where=context):
        return _field(check_cfg, key, where, rule, _REQUIRED if key in required else fallback)

    tol = field("tolerance", _real_number, default)
    series = field("coupling", _build_series, CouplingSeries.exp(), "coupling")
    grid = field("time_grid", _build_grid, grid, "time_grid")
    initial, count, max_nodes, max_degree = (
        field(key, _whole_number, fallback) for key, fallback in _CHECK_INT_DEFAULTS.items()
    )
    if count < 1 or max_nodes < 2 or max_degree < 0:
        raise ValueError(f"{context}: needs 'count' >= 1, 'max_nodes' >= 2 and 'max_degree' >= 0")
    deltas = field("deltas", partial(_list, parse=_phase, nonempty=True))
    partition = field("partition", partial(_list, parse=_whole_number, nonempty=True))
    half_pi = field("half_pi", _boolean)
    built = [g for key in ("graph", "graph_b") if (g := field(key, _build_graph, where=key))]
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
    report_name = _field(cfg, "report", "config", _string, None)
    checks = _field(cfg, "checks", "config", partial(_list, nonempty=True))
    grid = _field(cfg, "time_grid", "time_grid", _build_grid, DEFAULT_TIME_GRID)
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
    if report_name is not None:
        header = _header_lines(cfg, args.seed, "verify")
        with open(_out_path(args.out_dir, report_name), "w", encoding="ascii") as fh:
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
