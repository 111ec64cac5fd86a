"""Continuous-time quantum walks on directed graphs.

Directed graphs are mapped to Hermitian operators through a single global
phase: A_H(alpha) = exp(i*alpha) A + exp(-i*alpha) A^T.  A coupling series J
turns A_H into the walk Hamiltonian H = J(A_H) + J(A_H)^T, and the walk is
the Schroedinger evolution exp(-iHt) of a normalized state.  Circulant
graphs get an exact Fourier-diagonal fast path.
"""

from .graphs import (
    Bipartition,
    CirculantSpec,
    DirectedGraph,
    bipartition,
    build_moebius_ladder,
    build_ring,
    build_star,
    moebius_spec,
    read_edge_list,
    ring_spec,
    weakly_connected_components,
    write_edge_list,
)
from .operators import (
    CouplingSeries,
    EigendecompositionError,
    EigenSystem,
    HermitianOperator,
    NonFiniteOperatorError,
    apply_coupling,
    assemble_hamiltonian,
    hamiltonian_eigensystem,
    hermitian_adjacency,
    hermitian_eigendecomposition,
    parse_phase,
    propagate,
)
from .spectral import (
    circulant_ah_spectrum,
    circulant_amplitudes,
    circulant_column,
    circulant_hamiltonian_spectrum,
    fourier_basis,
)
from .walk import (
    DEFAULT_TIME_GRID,
    NormalizationError,
    TimeGrid,
    WalkResult,
    arrival_time,
    localized_state,
    propagator,
    read_walk_csv,
    run_walk,
    validate_state,
    write_walk_csv,
)
from .closed_forms import (
    ShiftReport,
    StarClosedForm,
    half_pi_spectrum_shift,
    ring_closed_form_support,
    ring_hamiltonian_closed_form,
    star_frequency_polynomial,
    star_probability_field,
)
from .properties import (
    PropertyReport,
    check_bidirected_edge_cancellation,
    check_mirror_symmetries,
    check_stationary_at_half_pi,
    check_transport_suppression,
    random_bipartite_graph,
    random_directed_graph,
    random_polynomial_series,
)

__all__ = [name for name in dir() if not name.startswith("_")] + ["write_heatmap_pgm"]
__version__ = "0.1.0"


def __getattr__(name):
    # the PGM writer lives in the CLI, which is imported on first use only, so that
    # `python -m ctqw.cli` does not find ctqw.cli already imported by the package
    if name == "write_heatmap_pgm":
        from .cli import write_heatmap_pgm

        return write_heatmap_pgm
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
