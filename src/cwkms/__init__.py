"""Weight calculus on directed graphs and oriented 2-complexes.

Public surface: graph and complex builders, the constant-edge-weight solver
(determinant, positive roots, positive kernels), rank 2 / 2D CW weight
verifiers and solvers, path-monomial functionals with the equilibrium
identity checker, weight splicing over amalgams, and the rank-2 building
constructions (projective planes, triangle presentations, sector graphs,
shape-lattice weights).

The package keeps what the CLI, a golden case or a benchmark workload runs,
what the README's "Library" list documents, and the paper's objects: the
path monomials and their products, the flow at t = +-i, ``fano_plane`` and
``adjacency_counts``.  Every export below is run by a golden case or listed
there (``tests/test_src_names.py``).
"""

from .buildings import (
    IncidencePlane,
    TrianglePresentation,
    fano_plane,
    lattice_weight_check,
    matched_weight_search,
    presentation_complex,
    presentation_from_spec,
    sector_graphs,
)
from .complexes import (
    LabeledBoundaryGraph,
    Oriented2Complex,
    boundary_graph,
    build_complex,
    predecessor_graph,
)
from .cwweights import (
    Rank2Weight,
    TriangularWeight,
    solve_2dcw,
    solve_triangular_special,
    verify_rank2,
    verify_triangular,
)
from .exact import AlgebraicScalar, NumberField, Poly, isolate_positive_roots
from .graphs import DirectedGraph, adjacency_counts, build_graph
from .pathalgebra import (
    PathMonomial,
    Rank2Monomial,
    WeightFunctional,
    all_monomials,
    edge_isometry,
    functional_from_graph_weight,
    functional_from_rank2,
    gauge_check,
    kms_check,
    monomial,
    monomial_product,
    rank2_product,
    vertex_projection,
)
from .solver import (
    GraphWeight,
    boundary_matrix,
    det_polynomial,
    positive_kernel,
    solve_special_weights,
    verify_graph_weight,
)
from .splicing import (
    Amalgam,
    GraphEmbedding,
    build_amalgam,
    glue_graphs,
    splice_cw_weights,
    splice_graph_weights,
)

__version__ = "0.1.0"
