"""Exact-arithmetic semantics for Bayesian networks with directed cycles.

The package computes, in exact rationals, every semantics of a
generalized Bayesian network: the constraint families (strong, weak and
independence-extended consistency), the cutset Markov chain semantics,
and the limit and limit-average semantics, together with the graph
theory (d-separation, closure, cutsets, SCCs, periods) and linear
algebra they need.
"""

from .chain import (CutsetChain, LimStatus, NotACutsetError, cutset_mc,
                    dissect, extend, is_smooth, lim, lim_avg,
                    long_run_frequency, mcs, next_dist, reach_probs,
                    stationary_set)
from .constraints import (build_cpt_system, build_wcpt_system,
                          check_consistency, check_cpt_i_member,
                          closed_cut_triples, cpt_i_via_cutsets,
                          is_strongly_consistent, solve_family)
from .families import (EMPTY, INFINITE, UNIQUE, UNSUPPORTED,
                       SemanticsFamily)
from .graph import (DiGraph, SccDecomposition, close, cut_restrict,
                    d_separated, enumerate_cutsets, is_acyclic, is_cutset,
                    scc_decompose)
from .inference import (CyclicGraphError, IndependenceTriple,
                        chain_rule_dist, check_independence,
                        dsep_implies_indep_check, enumerate_dsep_triples,
                        to_digraph)
from .linalg import (LinearSystem, PolytopeClass, classify_polytope,
                     null_space_left, simplex_maximize, solve_affine)
from .model import (CapacityError, Cpt, Gbn, InternalError, JointDistribution,
                    Violation,
                    all_assignments, assignment_from_index,
                    canonical_index, dirac, format_rational, make_gbn,
                    parse_rational)
from .oracle import (IterationTrace, dsep_by_paths, iterate_next,
                     power_iteration, total_variation)

__version__ = "0.1.0"
