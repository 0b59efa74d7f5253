"""Boundary structure of metric graphs: epsilon-component partitions,
harmonic extensions, exit measures, generalized Haar bases, and
Dirichlet-to-Neumann maps with the finite-truncation limit procedure."""

from .graph import Edge, MetricGraph, metric_graph, validate, multi_source_distance
from .families import (TreeFamilySpec, CounterexampleSpec, build_kary_tree,
                       build_counterexample, load_graph, save_graph)
from .partition import (BoundarySet, Partition, CellTree, tree_boundary_set,
                        graph_boundary_set, epsilon_components, jump_values,
                        canonical_nested_partitions)
from .harmonic import (HarmonicSolver, HarmonicFunction, assemble_laplacian,
                       solve_dirichlet, edge_derivative, vertex_flux,
                       dirichlet_energy, check_harmonic, counterexample_recurrence)
from .measures import (CellMeasure, equal_split_measure, counting_measure,
                       cell_measure_from_point_masses, exit_measure,
                       exit_measure_point_masses, exit_measure_limit,
                       dominance_constant)
from .dtn import (DtNMatrix, dtn_matrix, compressed_dtn, compressed_dtn_limit,
                  quadratic_form_check)
from .haar import (HaarBasis, build_haar_basis, analyze, synthesize,
                   multiresolution_operator, multiresolution_eigenvalues)

__version__ = "0.1.0"
