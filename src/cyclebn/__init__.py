"""Exact-arithmetic semantics for Bayesian networks with directed cycles.

The package computes, in exact rationals, every semantics of a
generalized Bayesian network: the constraint families (strong, weak and
independence-extended consistency), the cutset Markov chain semantics,
and the limit and limit-average semantics, together with the graph
theory (d-separation, cutsets, SCCs, periods) and linear algebra they
need.  The brute-force definitions the compiled routes are checked
against (closure, cut-restriction, independence triples, CPT-I
membership) are re-exported here from ``oracle``, which is imported on
first use of one of them.
"""

from .chain import (CutsetChain, LimStatus, NotACutsetError, cutset_mc,
                    dissect, is_smooth, lim, long_run_frequency, mcs,
                    next_dist, reach_probs)
from .constraints import (build_cpt_system, build_wcpt_system,
                          check_consistency, cpt_i_via_cutsets,
                          is_strongly_consistent, solve_family)
from .families import EMPTY, INFINITE, UNIQUE, SemanticsFamily
from .graph import (DiGraph, d_separated, enumerate_cutsets, is_acyclic,
                    is_cutset)
from .inference import CyclicGraphError, chain_rule_dist, to_digraph
from .linalg import (LinearSystem, PolytopeClass, classify_polytope,
                     null_space_left, simplex_maximize, solve_affine)
from .model import (CapacityError, Cpt, Gbn, InternalError, JointDistribution,
                    Violation, assignment_from_index, canonical_index,
                    dirac, parse_rational)

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset((
    "IndependenceTriple", "IterationTrace", "check_cpt_i_member",
    "check_independence", "close", "closed_cut_triples", "cut_restrict",
    "dsep_by_paths", "dsep_implies_indep_check", "enumerate_dsep_triples",
    "iterate_next", "power_iteration", "total_variation"))


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
