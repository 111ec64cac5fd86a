"""Acceptance gate: one test per headline behavior, at pinned tolerances.

Each test prints a single ``[criterion k] name: PASS/FAIL (details)`` line;
run ``pytest tests/test_acceptance.py -s`` (or ``-rA``) to see every line.
All deviations are computed before any assertion so the printed line always
carries the full measurement.

Criterion 1 checks both star branches against the closed forms: the directed
star oscillates at 4 sinh(sqrt N) cos(alpha) and the undirected star at
4 sinh(2 sqrt(N) cos(alpha)), exp's cases of ctqw.closed_forms.star_frequency
(which derives them for any series).  Its tolerance is 1e-9 per cell, widened
only where the rounding floor of the phase, eps (1 + |x|) max|E| t_end,
exceeds it; see the test's comment.
"""

import itertools
import math
import time

import numpy as np

from ctqw import (
    CirculantSpec,
    CouplingSeries,
    DirectedGraph,
    TimeGrid,
    arrival_time,
    assemble_hamiltonian,
    bipartition,
    build_star,
    check_bidirected_edge_cancellation,
    check_mirror_symmetries,
    check_stationary_at_half_pi,
    check_transport_suppression,
    half_pi_spectrum_shift,
    moebius_spec,
    propagator,
    random_bipartite_graph,
    random_directed_graph,
    random_polynomial_series,
    ring_closed_form_support,
    ring_hamiltonian_closed_form,
    ring_spec,
    run_walk,
    star_probability_field,
)

EXP = CouplingSeries.exp()
HALF_PI = math.pi / 2


def _report(k: int, name: str, ok: bool, detail: str) -> str:
    line = f"[criterion {k}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_1_star_closed_forms():
    # Both sides compute H's eigenvalues through exp(x), x = sqrt(N) on the
    # directed star and 2 sqrt(N) cos(alpha) on the undirected one.  exp of a
    # normal matrix has relative condition number ||A|| (Higham, Functions of
    # Matrices, ch. 3), so a rounding of eps in x moves each eigenvalue by
    # about eps (1 + |x|) |E| and the phase E t by that times t_end.  A cell is
    # held to 1e-9 unless that floor, with max|E| = 2 e^|x| + 2, is larger:
    # only the undirected n = 32 cells at alpha = 0 and 0.3 are widened
    # (to about 4.5e-9 and 2.6e-9).
    floor = 1e-9
    budget_s = 5.0
    t0 = time.perf_counter()
    grid = TimeGrid(0.0, 10.0, 200)
    times = grid.times()
    eps = np.finfo(float).eps
    # per branch: (gap / tol, gap, n, alpha, tol) of the cell with least margin
    worst = {True: (0.0, 0.0, 0, 0.0, floor), False: (0.0, 0.0, 0, 0.0, floor)}
    for n in (1, 2, 4, 8, 16, 32):
        for alpha in (0.0, 0.3, math.pi / 4, math.pi / 2):
            for directed in (True, False):
                x = math.sqrt(n) if directed else 2 * math.sqrt(n) * math.cos(alpha)
                max_energy = 2 * math.exp(abs(x)) + 2
                tol = max(floor, eps * (1 + abs(x)) * max_energy * grid.t_end)
                res = run_walk(build_star(n, directed), alpha, EXP, 0, grid)
                oracle = star_probability_field(n, directed, alpha, times)
                gap = float(np.max(np.abs(res.probabilities - oracle)))
                worst[directed] = max(worst[directed], (gap / tol, gap, n, alpha, tol))
    elapsed = time.perf_counter() - t0
    ok = worst[True][0] <= 1 and worst[False][0] <= 1 and elapsed < budget_s

    def cell(branch):
        _, gap, n, alpha, tol = worst[branch]
        return f"dev {gap:.3e} at n={n}, alpha={alpha:.3g} (tol {tol:.2g})"

    line = _report(
        1,
        "star closed forms",
        ok,
        f"directed {cell(True)}, undirected {cell(False)}, "
        f"{elapsed:.2f}s of {budget_s:.0f}s",
    )
    assert ok, line


def test_criterion_2_suppression_on_random_bipartite_graphs():
    tol = 1e-10
    budget_s = 60.0
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(200):
        rng = np.random.default_rng((20260814, k))
        graph = random_bipartite_graph(rng, max_nodes=16)
        series = random_polynomial_series(rng, max_degree=5)
        rep = check_transport_suppression(graph, series)
        worst = max(worst, rep.deviation)
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < budget_s
    line = _report(
        2,
        "cross-partition suppression, 200 random instances",
        ok,
        f"max cross probability {worst:.3e}, tol {tol:g}, "
        f"{elapsed:.1f}s of {budget_s:.0f}s",
    )
    assert ok, line


def test_criterion_3_mirror_symmetries():
    tol = 1e-9
    budget_s = 60.0
    deltas = (0.1, 0.5, 1.0)
    t0 = time.perf_counter()
    worst_dense = 0.0
    for k in range(50):
        rng = np.random.default_rng((555001, k))
        graph = random_directed_graph(rng, max_nodes=10)
        series = random_polynomial_series(rng, max_degree=5)
        rep = check_mirror_symmetries(
            graph, series, deltas, initial=0, half_pi_branch=False
        )
        worst_dense = max(worst_dense, rep.deviation)
    worst_circ = 0.0
    instances = [ring_spec(4), ring_spec(6), moebius_spec(6), ring_spec(10),
                 moebius_spec(10), ring_spec(200)]
    for spec in instances:
        for initial in (0, 1):
            rep = check_mirror_symmetries(
                spec, EXP, deltas, initial=initial, half_pi_branch=True
            )
            worst_circ = max(worst_circ, rep.deviation)
    # the pi/2 branch also runs on dense bipartite graphs, from node 0's side
    worst_bip = 0.0
    for k in range(40):
        rng = np.random.default_rng((555002, k))
        graph = random_bipartite_graph(rng, max_nodes=16)
        series = random_polynomial_series(rng, max_degree=5)
        rep = check_mirror_symmetries(graph, series, deltas, initial=0, half_pi_branch=True)
        worst_bip = max(worst_bip, rep.deviation)
    elapsed = time.perf_counter() - t0
    ok = max(worst_dense, worst_circ, worst_bip) <= tol and elapsed < budget_s
    line = _report(
        3,
        "mirror symmetries and pi-periodicity",
        ok,
        f"random digraphs dev {worst_dense:.3e}, bipartite circulants dev "
        f"{worst_circ:.3e}, random bipartite graphs dev {worst_bip:.3e}, tol {tol:g}, "
        f"{elapsed:.1f}s of {budget_s:.0f}s",
    )
    assert ok, line


def test_criterion_4_half_spectrum_shift_identities():
    tol = 1e-9
    worst = 0.0
    for n in (6, 10, 202):
        for spec in (ring_spec(n), moebius_spec(n)):
            for delta in (0.1, 0.5, 1.0):
                for t in (0.7, 5.0):
                    report = half_pi_spectrum_shift(spec, EXP, delta, t)
                    worst = max(worst, report.max_deviation)
    ok = worst <= tol
    line = _report(
        4,
        "spectrum shift and sign conjugation about pi/2",
        ok,
        f"max deviation {worst:.3e}, tol {tol:g}",
    )
    assert ok, line


def test_criterion_5_ring_closed_form():
    tol_identity = 1e-12
    tol_trunc = 1e-6
    # identity coupling: closed form equals dense assembly
    dev_identity = 0.0
    for n in (3, 5, 8):
        for alpha in (0.0, 0.3, HALF_PI):
            closed = ring_hamiltonian_closed_form(n, alpha, (1.0,))
            dense = assemble_hamiltonian(
                ring_spec(n).to_graph(), alpha, CouplingSeries.identity()
            )
            dev_identity = max(
                dev_identity, float(np.max(np.abs(closed.matrix - dense.matrix)))
            )
    # truncated exponential at N=6: same explicit polynomial on both routes
    order = 6
    coeffs = tuple(1 / math.factorial(p) for p in range(1, order + 1))
    series = CouplingSeries.polynomial((1.0,) + coeffs)
    dev_trunc = 0.0
    for alpha in (0.0, 0.3, HALF_PI):
        closed = ring_hamiltonian_closed_form(6, alpha, coeffs)
        dense = assemble_hamiltonian(ring_spec(6).to_graph(), alpha, series)
        # the closed form omits the constant contribution 2 j_0 I
        gap = np.abs(closed.matrix + 2.0 * np.eye(6) - dense.matrix)
        dev_trunc = max(dev_trunc, float(np.max(gap)))
    # parity-zero pattern: structural zeros coincide with dense zeros
    n, alpha = 10, 0.3
    pattern_coeffs = (1.0, 0.5, 1 / 6)
    closed = ring_hamiltonian_closed_form(n, alpha, pattern_coeffs)
    dense = assemble_hamiltonian(
        ring_spec(n).to_graph(), alpha, CouplingSeries.polynomial((0.0,) + pattern_coeffs)
    )
    mask_row = ring_closed_form_support(n, len(pattern_coeffs))
    offsets = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    mask = mask_row[offsets]
    pattern_ok = bool(np.array_equal(np.abs(dense.matrix) > 1e-12, mask))
    ok = dev_identity <= tol_identity and dev_trunc <= tol_trunc and pattern_ok
    line = _report(
        5,
        "ring Hamiltonian closed form",
        ok,
        f"identity dev {dev_identity:.3e} (tol {tol_identity:g}), truncated-exp "
        f"dev {dev_trunc:.3e} (tol {tol_trunc:g}), zero pattern "
        f"{'exact' if pattern_ok else 'MISMATCH'}",
    )
    assert ok, line


def _propagator_matrix(graph_or_spec, alpha, series, t):
    """U(t) with column j the walk of basis state j, all N streamed at the one time t."""
    n = graph_or_spec.n
    u = np.empty((n, n), dtype=complex)

    def keep(first, _, block):
        u[:, first : first + len(block)] = block[:, 0].T

    propagator(graph_or_spec, alpha, series)(np.eye(n, dtype=complex), TimeGrid(t, t, 1), keep)
    return u


def test_criterion_6_circulant_vs_dense_engines():
    tol_agree = 1e-9
    tol_unitary = 1e-10
    kinds = (
        CouplingSeries.exp(),
        CouplingSeries.sinh(),
        CouplingSeries.cosh(),
        CouplingSeries.identity(),
    )
    dev_agree = 0.0
    dev_unitary = 0.0
    for k in range(100):
        rng = np.random.default_rng((918273, k))
        n = int(rng.integers(2, 65))
        coeffs = np.zeros(n)
        hops = rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False)
        coeffs[hops[: int(rng.integers(1, len(hops) + 1))]] = 1.0
        spec = CirculantSpec(tuple(coeffs))
        alpha = float(rng.uniform(0.0, 2.0 * math.pi))
        t = float(rng.uniform(0.0, 2.0))
        if k % 5 == 4:
            series = random_polynomial_series(rng, max_degree=5)
        else:
            series = kinds[k % 5]
        # U from each engine's own propagator, the code every walk runs; the dense
        # engine takes one real eigensolve of A + A^T on the symmetric specs, the
        # assembled H on the others
        u_fast = _propagator_matrix(spec, alpha, series, t)
        u_dense = _propagator_matrix(spec.to_graph(), alpha, series, t)
        dev_agree = max(dev_agree, float(np.max(np.abs(u_fast - u_dense))))
        gram = u_fast.conj().T @ u_fast
        dev_unitary = max(dev_unitary, float(np.max(np.abs(gram - np.eye(n)))))
    ok = dev_agree <= tol_agree and dev_unitary <= tol_unitary
    line = _report(
        6,
        "fast vs dense propagators, 100 seeded configs",
        ok,
        f"route gap {dev_agree:.3e} (tol {tol_agree:g}), unitarity defect "
        f"{dev_unitary:.3e} (tol {tol_unitary:g})",
    )
    assert ok, line


def test_criterion_7_wavefront_arrival_times():
    budget_s = 120.0
    t0 = time.perf_counter()
    # directed 200-ring, pi/4, from node 100 to the opposite node
    ring_res = run_walk(ring_spec(200), math.pi / 4, EXP, 100, TimeGrid(0.0, 25.0, 500))
    t_ring = arrival_time(ring_res, 0, threshold=0.01)
    ring_ok = t_ring is not None and 9.0 <= t_ring <= 17.0

    # Directed-outer 202-ladder.  The node opposite the start is its direct
    # rung partner: a standing beam puts ~0.2 of the probability there within
    # t ~ 0.05 whenever the rung conducts (any phase away from pi/2), and at
    # pi/2 that node sits in the suppressed partition, so its probability is
    # identically zero.  No threshold at the opposite node itself can
    # therefore clock the traveling front.  The front is read instead on the
    # start-parity sublattice three ring steps short of the antipode (node
    # start + 98), where the beam cascade floors at <= 0.022 for every phase
    # while the front peaks at >= 0.054; threshold 0.03 separates the two
    # uniformly (any value in 0.025..0.04 gives the same verdicts).
    start, n = 100, 202
    front_node = start + 98
    quoted = {0.0: 1.0, math.pi / 4: 4.0, HALF_PI: 19.0}
    grid = TimeGrid(0.0, 40.0, 2000)
    ladder_times = {}
    ladder_ok = True
    for alpha, target in quoted.items():
        res = run_walk(moebius_spec(n), alpha, EXP, start, grid)
        t_arr = arrival_time(res, front_node, threshold=0.03)
        ladder_times[alpha] = t_arr
        ladder_ok = ladder_ok and t_arr is not None and target / 2 <= t_arr <= target * 2

    # undirected-outer ladder freezes completely at pi/2
    stat = check_stationary_at_half_pi(moebius_spec(n, outer_directed=False), EXP, start)
    stat_ok = stat.deviation <= 1e-10
    elapsed = time.perf_counter() - t0
    ok = ring_ok and ladder_ok and stat_ok and elapsed < budget_s
    shown = ", ".join(
        f"alpha={a:.3g}: {t if t is None else round(t, 2)} vs {q:g}"
        for (a, q), t in zip(quoted.items(), ladder_times.values())
    )
    line = _report(
        7,
        "wavefront arrival times",
        ok,
        f"ring t={t_ring} in [9,17]; ladder front at node {front_node} ({shown}, "
        f"factor-2 bands); stationary dev {stat.deviation:.3e}; "
        f"{elapsed:.1f}s of {budget_s:.0f}s",
    )
    assert ok, line


def test_criterion_8_bidirected_edge_cancellation():
    tol = 1e-9
    rep_cancel = check_bidirected_edge_cancellation(
        ring_spec(202), moebius_spec(202), EXP, initial=100
    )
    # non-bipartite 8-ring with bidirected diameters still suppresses
    spec = CirculantSpec((0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    graph = spec.to_graph()
    non_bipartite = bipartition(graph) is None
    rep_supp = check_transport_suppression(graph, EXP, partition=(0, 2, 4, 6))
    ok = rep_cancel.passed and rep_cancel.deviation <= tol and non_bipartite and rep_supp.passed
    line = _report(
        8,
        "bidirected edges cancel at pi/2",
        ok,
        f"ring-vs-ladder field gap {rep_cancel.deviation:.3e} (tol {tol:g}); "
        f"8-ring+diameters non-bipartite={non_bipartite}, cross probability "
        f"{rep_supp.deviation:.3e}",
    )
    assert ok, line


def _two_way(g, pairs, rng, p):
    """``g`` plus both directions of each of ``pairs`` drawn with probability ``p``, in order."""
    drawn = [pair for pair, u in zip(pairs, rng.random(len(pairs))) if u < p]
    return DirectedGraph(g.n, g.edges | {e for i, j in drawn for e in ((i, j), (j, i))})


def test_criterion_9_half_pi_claims_on_random_non_bipartite_graphs():
    # The abstract's two pi/2 claims on seeded random families.  Suppression: a
    # bipartite draw with two-way pairs added inside its sides, mostly no longer
    # bipartite, is walked from its even side.  Cancellation: a digraph against
    # itself plus two-way pairs on node pairs it leaves free.
    tol_supp, tol_cancel = 1e-10, 1e-9
    budget_s = 60.0
    t0 = time.perf_counter()
    worst_supp = worst_cancel = 0.0
    non_bipartite = 0
    for k in range(40):
        g = random_bipartite_graph(np.random.default_rng((99, k)), 24)
        rng = np.random.default_rng((99, k, 1))
        parts = bipartition(g)
        sides = (parts.even, parts.odd)
        inside = [pair for side in sides for pair in itertools.combinations(side, 2)]
        h = _two_way(g, inside, rng, 0.3)
        non_bipartite += bipartition(h) is None
        for series in (EXP, random_polynomial_series(rng, 5)):
            rep = check_transport_suppression(h, series, partition=parts.even)
            worst_supp = max(worst_supp, rep.deviation)
        d = random_directed_graph(np.random.default_rng((98, k)), 24)
        rng = np.random.default_rng((98, k, 1))
        free = [
            (i, j)
            for i, j in itertools.combinations(range(d.n), 2)
            if (i, j) not in d.edges and (j, i) not in d.edges
        ]
        with_pairs = _two_way(d, free, rng, 0.2)
        for series in (EXP, random_polynomial_series(rng, 5)):
            rep = check_bidirected_edge_cancellation(d, with_pairs, series)
            worst_cancel = max(worst_cancel, rep.deviation)
    elapsed = time.perf_counter() - t0
    ok = (
        non_bipartite >= 30
        and worst_supp <= tol_supp
        and worst_cancel <= tol_cancel
        and elapsed < budget_s
    )
    line = _report(
        9,
        "pi/2 suppression and cancellation, 2 x 40 random instances",
        ok,
        f"{non_bipartite}/40 suppression graphs non-bipartite, max cross probability "
        f"{worst_supp:.3e} (tol {tol_supp:g}); max field gap {worst_cancel:.3e} "
        f"(tol {tol_cancel:g}); {elapsed:.1f}s of {budget_s:.0f}s",
    )
    assert ok, line
