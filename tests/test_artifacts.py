"""Artifact codecs: walk CSV and PGM heatmap bytes, CSV reader behaviour, writer memory.

The loop writers and reader below are the reference: the library's batched
codecs must write the same bytes and read back the same arrays.
"""

import os
import tracemalloc

import numpy as np
import pytest

from ctqw import WalkResult, read_walk_csv, write_heatmap_pgm, write_walk_csv
from ctqw.cli import LOG_FLOOR, LOG_SPAN


def loop_write_walk_csv(result, path, include_amplitudes=False, header_lines=()):
    with open(path, "w", encoding="ascii") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        cols = "t,node,probability" + (",re,im" if include_amplitudes else "")
        fh.write(cols + "\n")
        for ti, t in enumerate(result.times):
            for node in range(result.n):
                row = f"{t:.17g},{node},{result.probabilities[ti, node]:.17g}"
                if include_amplitudes:
                    a = result.amplitudes[ti, node]
                    row += f",{a.real:.17g},{a.imag:.17g}"
                fh.write(row + "\n")


def loop_write_heatmap_pgm(probabilities, path, scale="linear", header_lines=()):
    probs = np.asarray(probabilities, dtype=float)
    if scale == "linear":
        pmax = probs.max()
        values = probs / pmax if pmax > 0 else np.zeros_like(probs)
    else:
        values = np.clip(np.log10(np.maximum(probs, LOG_FLOOR)) / LOG_SPAN + 1.0, 0.0, 1.0)
    pixels = np.rint(255.0 * values).astype(int)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("P2\n")
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"{pixels.shape[1]} {pixels.shape[0]}\n255\n")
        for row in pixels:
            fh.write(" ".join(str(v) for v in row) + "\n")


def loop_read_walk_csv(path):
    times, rows = [], {}
    with open(path, "r", encoding="ascii") as fh:
        header = None
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            parts = line.split(",")
            t, node, prob = float(parts[0]), int(parts[1]), float(parts[2])
            if t not in rows:
                rows[t] = {}
                times.append(t)
            rows[t][node] = prob
    n = max(max(r) for r in rows.values()) + 1
    probs = np.zeros((len(times), n))
    for ti, t in enumerate(times):
        for node, p in rows[t].items():
            probs[ti, node] = p
    return np.asarray(times), probs


def edge_case_walk():
    # Probabilities 1.0, 0.0, ~1e-300 and subnormals; imaginary parts of -0.0.
    amps = np.zeros((4, 5), dtype=complex)
    amps[0] = [complex(1.0, -0.0), 0, 0, 0, 0]
    amps[1] = [complex(-0.0, 1.0), complex(1e-150, -0.0), complex(3e-162, 0.0), 0, 0]
    amps[2] = np.full(5, complex(1.0, -2.0) / np.sqrt(25.0))
    amps[3] = np.exp(1j * np.arange(5)) / np.sqrt(5.0)
    times = np.array([0.0, 1.0 / 3.0, 2.5e-7, 25.0])
    result = WalkResult("edge", 0.25, times, amps)
    probs = result.probabilities
    assert probs[0, 0] == 1.0 and probs[0, 1] == 0.0
    assert 0.0 < probs[1, 2] <= 5e-323 and 1e-301 < probs[1, 1] < 1e-299
    return result


def random_walk(steps, n, seed=5):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(steps, n)) + 1j * rng.normal(size=(steps, n))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return WalkResult("random", 0.5, np.linspace(0.0, 25.0, steps), amps)


@pytest.mark.parametrize("include_amplitudes", [False, True])
@pytest.mark.parametrize(
    "make", [edge_case_walk, lambda: random_walk(70, 13)], ids=["edge-values", "random"]
)
def test_walk_csv_bytes_match_loop_writer(tmp_path, make, include_amplitudes):
    result = make()
    header = ["generated-by: ctqw simulate", 'config: {"a":1}', "alpha: 0.25"]
    for lines in ((), header):
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_walk_csv(result, new, include_amplitudes, lines)
        loop_write_walk_csv(result, ref, include_amplitudes, lines)
        assert new.read_bytes() == ref.read_bytes()


def test_walk_csv_edge_values_are_spelled_out(tmp_path):
    path = tmp_path / "edge.csv"
    write_walk_csv(edge_case_walk(), path, include_amplitudes=True)
    lines = path.read_text().splitlines()
    assert lines[1] == "0,0,1,1,-0"
    assert lines[2] == "0,1,0,0,0"
    assert lines[6].startswith("0.33333333333333331,0,1,-0,1")


@pytest.mark.parametrize("scale", ["linear", "log"])
def test_heatmap_bytes_match_loop_writer(tmp_path, scale):
    fields = [
        random_walk(70, 13).probabilities,
        edge_case_walk().probabilities,
        np.zeros((3, 4)),
        np.array([[0.7]]),
    ]
    for probs in fields:
        for lines in ((), ["generated-by: ctqw render", "scale: " + scale]):
            new, ref = tmp_path / "new.pgm", tmp_path / "ref.pgm"
            write_heatmap_pgm(probs, new, scale, lines)
            loop_write_heatmap_pgm(probs, ref, scale, lines)
            assert new.read_bytes() == ref.read_bytes()


def test_heatmap_rejects_pixels_outside_the_gray_range(tmp_path):
    # the loop writer spelled these as "-64" or "510", outside P2's 0..255
    path = tmp_path / "bad.pgm"
    with pytest.raises(ValueError, match="non-negative"):
        write_heatmap_pgm(np.array([[0.5, -0.25], [0.25, 0.5]]), path, "linear")
    # non-finite fields are rejected on both scales, before any scaling
    for field in ([[np.nan, 0.5], [0.25, 1.0]], [[np.inf, 0.5], [0.25, 1.0]]):
        with pytest.raises(ValueError, match="non-negative"):
            write_heatmap_pgm(np.array(field), path, "linear")
    with pytest.raises(ValueError, match="non-negative"):
        write_heatmap_pgm(np.array([[np.nan, 1.0]]), path, "log")


def write_rows(path, rows, header="t,node,probability", comments=("# written by hand",)):
    text = "".join(f"{c}\n" for c in comments) + (header + "\n" if header else "")
    path.write_text(text + "".join(row + "\n" for row in rows))


def assert_reads_like_loop_reader(path):
    times, probs = read_walk_csv(path)
    ref_times, ref_probs = loop_read_walk_csv(path)
    assert np.array_equal(times, ref_times)
    assert np.array_equal(probs, ref_probs)
    return times, probs


def test_reader_round_trips_written_walks(tmp_path):
    for result in (edge_case_walk(), random_walk(70, 13)):
        for include_amplitudes in (False, True):
            path = tmp_path / "walk.csv"
            write_walk_csv(result, path, include_amplitudes, ["alpha: 0.5"])
            times, probs = assert_reads_like_loop_reader(path)
            assert np.array_equal(times, result.times)
            assert np.array_equal(probs, result.probabilities)


def test_reader_skips_comment_and_blank_lines_between_rows(tmp_path):
    path = tmp_path / "gaps.csv"
    rows = ["0,0,0.25", "", "# mid-file note", "0,1,0.75", "   ", "1,0,0.5", "1,1,0.5"]
    write_rows(path, rows, comments=("", "# first", ""))
    times, probs = assert_reads_like_loop_reader(path)
    assert times.tolist() == [0.0, 1.0]
    assert probs.tolist() == [[0.25, 0.75], [0.5, 0.5]]


def test_reader_orders_times_by_first_appearance(tmp_path):
    path = tmp_path / "shuffled.csv"
    rows = ["2.5,1,0.4", "0.5,0,0.9", "2.5,0,0.6", "0.5,1,0.1", "1.5,1,1", "1.5,0,0"]
    write_rows(path, rows)
    times, probs = assert_reads_like_loop_reader(path)
    assert times.tolist() == [2.5, 0.5, 1.5]
    assert probs.tolist() == [[0.6, 0.4], [0.9, 0.1], [0.0, 1.0]]


def test_reader_shuffled_written_walk(tmp_path):
    path = tmp_path / "walk.csv"
    write_walk_csv(random_walk(20, 7), path, include_amplitudes=True)
    lines = path.read_text().splitlines()
    body = lines[1:]
    np.random.default_rng(3).shuffle(body)
    write_rows(path, body, header=lines[0])
    assert_reads_like_loop_reader(path)


def test_reader_groups_time_spellings_by_value(tmp_path):
    path = tmp_path / "spellings.csv"
    rows = ["0.5,0,0.25", " 0.5,1,0.75", "5e-1,0,0.5", "1,0,1", "1.0,1,0", "0.50 ,2,0"]
    write_rows(path, rows)
    times, probs = assert_reads_like_loop_reader(path)
    assert times.tolist() == [0.5, 1.0]
    assert probs.tolist() == [[0.5, 0.75, 0.0], [1.0, 0.0, 0.0]]


def test_reader_leaves_missing_cells_zero(tmp_path):
    path = tmp_path / "sparse.csv"
    write_rows(path, ["0,3,0.5", "0,1,0.5", "1,0,1"])
    times, probs = assert_reads_like_loop_reader(path)
    assert probs.tolist() == [[0.0, 0.5, 0.0, 0.5], [1.0, 0.0, 0.0, 0.0]]


def test_reader_takes_first_three_of_five_columns(tmp_path):
    path = tmp_path / "amps.csv"
    write_rows(path, ["0,0,0.5,0.5,0.5", "0,1,0.5,-0.5,-0.5"], header="t,node,probability,re,im")
    times, probs = assert_reads_like_loop_reader(path)
    assert probs.tolist() == [[0.5, 0.5]]


def test_reader_last_duplicate_cell_wins(tmp_path):
    path = tmp_path / "dup.csv"
    write_rows(path, ["0,0,0.1", "0,1,0.9", "1,0,1", "0,0,0.2", "0,0,0.3", "1,1,0"])
    times, probs = assert_reads_like_loop_reader(path)
    assert times.tolist() == [0.0, 1.0]
    assert probs.tolist() == [[0.3, 0.9], [1.0, 0.0]]


@pytest.mark.parametrize(
    "header, rows",
    [
        pytest.param("time,node,probability", ["0,0,1"], id="bad-header"),
        pytest.param("t,node", ["0,0,1"], id="short-header"),
        pytest.param("t,node,probability", ["0,0,1", "0,1"], id="short-row"),
        pytest.param("t,node,probability", [], id="no-data-rows"),
        pytest.param("t,node,probability", ["", "# only a comment"], id="only-comments"),
        pytest.param(None, [], id="empty-file"),
        pytest.param("t,node,probability", ["0,0.5,1"], id="fractional-node"),
        pytest.param("t,node,probability", ["0,x,1"], id="non-numeric-node"),
        pytest.param("t,node,probability", ["0,nan,1"], id="nan-node"),
        pytest.param("t,node,probability", ["0,inf,1"], id="infinite-node"),
        pytest.param("t,node,probability", ["0,0,zero"], id="non-numeric-probability"),
        pytest.param("t,node,probability", ["0,0,1", "t,node,probability"], id="second-header"),
    ],
)
def test_reader_rejects_malformed_files(tmp_path, header, rows):
    path = tmp_path / "bad.csv"
    write_rows(path, rows, header=header)
    with pytest.raises(ValueError):
        read_walk_csv(path)


def test_reader_rejects_overlong_time_field(tmp_path):
    # %.17g needs at most 24 characters; 32 or more could not be told from a cut field
    path = tmp_path / "long.csv"
    write_rows(path, ["0." + "3" * 29 + ",0,1"])
    assert read_walk_csv(path)[0][0] == pytest.approx(1 / 3)
    write_rows(path, ["0." + "3" * 30 + ",0,1"])
    with pytest.raises(ValueError, match="shorter than 32"):
        read_walk_csv(path)


def test_reader_rejects_negative_node(tmp_path):
    # the loop reader wrapped a negative node around to the last column
    path = tmp_path / "negative.csv"
    write_rows(path, ["0,0,0.5", "0,-1,0.5"])
    with pytest.raises(ValueError, match="non-negative"):
        read_walk_csv(path)


def test_write_walk_csv_memory_is_bounded_per_row():
    # 2000 x 500 = one million rows; the writer's own scratch must stay a few
    # formatted rows, never a copy of the (T, N) field or its text.
    steps, n = 2000, 500
    result = random_walk(steps, n)
    row_bytes = n * 64
    tracemalloc.start()
    try:
        write_walk_csv(result, os.devnull)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * row_bytes
