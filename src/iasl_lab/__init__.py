"""Integer additive set-labelings of small graphs.

Verifiers for the labeling classes (plain, set-indexer, uniform, set-graceful,
topological), exhaustive backtracking searches with structural screens,
topology enumeration and star realisations, smallest-ground-set search, and a
theorem-checking suite that confirms or refutes every structural result at
desk scale.
"""

from .graphs import (Graph, GraphParseError, GraphStructure, canonical_mask,
                     complete, complete_bipartite, cycle,
                     enumerate_connected_graphs, enumerate_trees,
                     graphs_isomorphic, parse_graph, path, star, structure)
from .intsets import (DEFAULT_GROUND_CAP, DEFAULT_MAX_ELEMENT,
                      EnumerationInfeasible, GroundSet, IntSet, ParseError,
                      SubsetClass, SumsetClassification, all_nonempty_subsets,
                      classify, summand_decompositions, sumset)
from .labelings import (IncompleteLabelingError, Labeling, LabelingParseError,
                        SetIndexingReport, VerificationReport, Violation,
                        induced_edge_labels, parse_labeling,
                        set_indexing_numbers, verify_iasgl, verify_iasi,
                        verify_iasl, verify_uniform)
from .oracle import (ORACLE_CHECKS, Finding, OracleScope, TheoremReport,
                     Witness, run_all, run_checks, run_oracle, suite_clean)
from .search import (SearchOutcome, StructuralScreen, iter_iasgl_assignments,
                     iter_top_iasgl_assignments, iter_top_iasl_assignments,
                     minimal_ground_set, screen, search_iasgl,
                     search_top_iasgl, search_top_iasl)
from .topology import (DegenerateTopologyError, NotRealizableError, Topology,
                       TopologyCheck, TopologyParseError, enumerate_topologies,
                       is_topology, parse_topology, realize_topology,
                       verify_top_iasgl, verify_top_iasl)

__version__ = "0.1.0"
