"""Brute-force oracles and the reference checks the tests hold the
compiled routes to: exact iteration of the unfolding, simple-path
d-separation, closure and cut-restriction of a graph, conditional
independence over every d-separation triple, membership in the
independence-extended family, cutsets by testing every node subset,
Cesàro power iteration of the cutset chain, stationary vectors by state
reduction, ``Fraction`` row reduction, and polytope classification by
vertex enumeration.  None of them runs the integer elimination kernel
of ``linalg``, and no other module of the package but the command line
calls them.

Everything here stays in exact rationals; closeness assertions compare
exact total-variation distances against rational bounds.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .chain import CutsetChain, next_dist
from .constraints import is_strongly_consistent
from .graph import DiGraph, d_separated, is_cutset
from .inference import chain_rule_dist, to_digraph
from .linalg import LinearSystem
from .model import (MAX_DENSE_VARS, CapacityError, Gbn, JointDistribution,
                    _Value, sub_indices)

ZERO = Fraction(0)
ONE = Fraction(1)

#: Simple-path enumeration is exponential; keep it to tiny graphs.
MAX_PATH_NODES = 7

#: Column-subset enumeration is exponential; keep it to tiny systems.
MAX_VERTEX_COLUMNS = 8

#: Exhaustive triple enumeration is capped at this many variables.
MAX_ENUM_VARS = 8

#: Budget for the estimated bits of an exact ``iterate_next`` trace.
MAX_TRACE_BITS = 1 << 24


class IterationTrace(_Value):
    """Exact trace gamma_0 .. gamma_N of the cutset sequence, with the
    running Cesaro averages alongside."""

    _fields = ("cutset", "steps", "cesaro")

    def __init__(self, cutset: tuple[str, ...],
                 steps: tuple[tuple[Fraction, ...], ...],
                 cesaro: tuple[tuple[Fraction, ...], ...]) -> None:
        vars(self).update(cutset=cutset, steps=steps, cesaro=cesaro)


def iterate_next(g: Gbn, cut, gamma0: JointDistribution,
                 steps: int) -> IterationTrace:
    """Apply the one-level unfolding ``steps`` times, exactly.  Each step
    builds a table over the nodes and the primed cutset, and the trace
    keeps every step.  Refused up front when the steps times that table
    size exceed the dense cap, or when the trace would exceed
    ``MAX_TRACE_BITS``: step k of the trace has 2**|cut| entries whose
    denominators grow by about the bits of every CPT, iota and gamma0
    denominator per step, so the trace holds about steps**2 * 2**|cut|
    times those bits."""
    if steps < 1:
        raise ValueError("need at least one step")
    cut = tuple(sorted(cut))
    width = len(g.nodes) + len(cut)
    if steps << width > 1 << MAX_DENSE_VARS:
        raise CapacityError(
            f"{steps} steps over 2**{width} assignments exceed the dense cap "
            f"of 2**{MAX_DENSE_VARS}")
    bits = (sum(cpt.den.bit_length() for cpt in g.cpts.values())
            + g.iota.den.bit_length() + gamma0.den.bit_length())
    estimate = steps * steps * bits << len(cut)
    if estimate > MAX_TRACE_BITS:
        raise CapacityError(
            f"{steps} steps over {1 << len(cut)} cutset states would trace about "
            f"{estimate} bits, over the budget of {MAX_TRACE_BITS}")
    trace = [gamma0.probs]
    gamma = gamma0
    for _ in range(steps):
        gamma = next_dist(g, cut, gamma).restrict(cut)
        trace.append(gamma.probs)
    n = len(trace[0])
    cesaro = []
    running = [ZERO] * n
    for k, vec in enumerate(trace):
        running = [r + v for r, v in zip(running, vec)]
        cesaro.append(tuple(r / (k + 1) for r in running))
    return IterationTrace(cut, tuple(trace), tuple(cesaro))


def dsep_by_paths(g: DiGraph, xs: Iterable[str], ys: Iterable[str],
                  zs: Iterable[str]) -> bool:
    """Literal simple-undirected-path formulation of d-separation."""
    xs, ys, zs = frozenset(xs), frozenset(ys), frozenset(zs)
    if xs & ys or xs & zs or ys & zs:
        raise ValueError("query sets must be pairwise disjoint")
    if len(g.nodes) > MAX_PATH_NODES:
        raise CapacityError(f"path enumeration capped at {MAX_PATH_NODES} nodes")
    for x in xs:
        for y in ys:
            for path in _simple_paths(g, x, y):
                if not _blocked(g, path, zs):
                    return False
    return True


def _simple_paths(g: DiGraph, x: str, y: str):
    """All simple undirected paths as lists of (node, forward-flag) steps;
    each path is [x, (v1, d1), ..., (y, dk)] encoded as node list plus
    edge directions."""
    # path: list of nodes; dirs[i] True if edge path[i] -> path[i+1].
    def walk(node, nodes, dirs):
        if node == y:
            yield list(nodes), list(dirs)
            return
        for nxt in sorted(g.successors(node) - {node}):
            if nxt not in nodes:
                nodes.append(nxt)
                dirs.append(True)
                yield from walk(nxt, nodes, dirs)
                nodes.pop()
                dirs.pop()
        for nxt in sorted(g.predecessors(node) - {node}):
            if nxt not in nodes:
                nodes.append(nxt)
                dirs.append(False)
                yield from walk(nxt, nodes, dirs)
                nodes.pop()
                dirs.pop()
    yield from walk(x, [x], [])


def _blocked(g: DiGraph, path, zs: frozenset[str]) -> bool:
    nodes, dirs = path
    for i in range(1, len(nodes) - 1):
        into = dirs[i - 1]          # edge nodes[i-1] -> nodes[i]?
        out = dirs[i]               # edge nodes[i] -> nodes[i+1]?
        if into and not out:        # collider
            if nodes[i] not in zs and not (post_star(g, nodes[i]) & zs):
                return True
        else:                       # chain or fork
            if nodes[i] in zs:
                return True
    return False


def post_star(g: DiGraph, node) -> frozenset:
    """Nodes reachable from ``node`` via at least one edge."""
    seen: set = set()
    stack = list(g.successors(node))
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(g.successors(v) - seen)
    return frozenset(seen)


def close(g: DiGraph) -> DiGraph:
    """Add both edges between every pair of distinct initial nodes."""
    init = [v for v in g.nodes if not g.predecessors(v)]
    extra = {(a, b) for a in init for b in init if a != b}
    return DiGraph(g.nodes, g.edges | extra)


def cut_restrict(g: DiGraph, cut: Iterable[str]) -> DiGraph:
    """G[C]: drop every edge targeting a cut node; the cut becomes initial."""
    cut = set(cut)
    if not is_cutset(g, cut):
        raise ValueError(f"{sorted(cut)} is not a cutset")
    return DiGraph(g.nodes, frozenset((u, v) for (u, v) in g.edges if v not in cut))


class IndependenceTriple(_Value):
    """(X independent of Y given Z) for pairwise disjoint variable sets."""

    _fields = ("x", "y", "z")

    def __init__(self, x: Iterable[str], y: Iterable[str], z: Iterable[str]) -> None:
        x, y, z = frozenset(x), frozenset(y), frozenset(z)
        if x & y or x & z or y & z:
            raise ValueError("independence triple sets must be pairwise disjoint")
        vars(self).update(x=x, y=y, z=z)


def check_independence(mu: JointDistribution, t: IndependenceTriple) -> bool:
    """Exact conditional independence of a triple under ``mu``.

    Checked in the division-free product form
    mu(a,b,c) * mu(c) == mu(a,c) * mu(b,c), which is equivalent to the
    conditional formulation with the zero-mass escape applied per
    assignment.
    """
    joint = mu.restrict(t.x | t.y | t.z)
    vs = joint.variables
    xz = joint.restrict(t.x | t.z)
    yz = joint.restrict(t.y | t.z)
    z = joint.restrict(t.z)
    return all(p * z.probs[k] == xz.probs[i] * yz.probs[j]
               for p, i, j, k in zip(joint.probs, sub_indices(vs, xz.variables),
                                     sub_indices(vs, yz.variables),
                                     sub_indices(vs, z.variables)))


def enumerate_dsep_triples(dg: DiGraph) -> list[IndependenceTriple]:
    """Singleton-pair d-separation triples with every conditioning set:
    x and y range over single nodes, z over all subsets of the rest."""
    if len(dg.nodes) > MAX_ENUM_VARS:
        raise CapacityError(
            f"triple enumeration capped at {MAX_ENUM_VARS} variables")
    triples = []
    for x, y in itertools.combinations(dg.nodes, 2):
        rest = [v for v in dg.nodes if v not in (x, y)]
        for k in range(len(rest) + 1):
            for z in itertools.combinations(rest, k):
                if d_separated(dg, {x}, {y}, z):
                    triples.append(IndependenceTriple({x}, {y}, z))
    return triples


def dsep_implies_indep_check(g: Gbn) -> bool:
    """Executable form of: graph separations of the closed graph hold as
    independencies of the chain-rule distribution.  A cyclic network
    raises ``CyclicGraphError``, as ``chain_rule_dist`` does."""
    mu = chain_rule_dist(g)
    return all(check_independence(mu, t)
               for t in enumerate_dsep_triples(close(to_digraph(g))))


def check_cpt_i_member(mu: JointDistribution, g: Gbn,
                       independencies: Iterable[IndependenceTriple]) -> bool:
    """Membership in the independence-extended consistency family.

    Requires strong consistency everywhere, the pinned initial
    distribution, and each independence constraint in division-free
    product form: mu(b) * mu(b_W) == mu(b_{X union W}) * mu(b_{U union W})
    for every assignment b over X, U and W.
    """
    independencies = list(independencies)
    if any(len(t.x) != 1 for t in independencies):
        raise ValueError("constraints expect singleton left-hand sets")
    return is_strongly_consistent(mu, g) and all(
        check_independence(mu, t) for t in independencies)


def closed_cut_triples(g: Gbn, cut) -> list[IndependenceTriple]:
    """Bounded independence triples of the closed cut-restricted graph."""
    return enumerate_dsep_triples(close(cut_restrict(to_digraph(g), cut)))


def cutsets_by_subsets(g: DiGraph, minimal_only: bool = False) -> list[frozenset[str]]:
    """All cutsets (or all inclusion-minimal cutsets), by size then name:
    an acyclicity test of what each node subset leaves, smallest first."""
    result: list[frozenset[str]] = []
    for size in range(len(g.nodes) + 1):
        for combo in itertools.combinations(g.nodes, size):
            cand = frozenset(combo)
            if not is_cutset(g, cand):
                continue
            if minimal_only and any(prev < cand for prev in result):
                continue
            result.append(cand)
    return sorted(result, key=lambda c: (len(c), tuple(sorted(c))))


def power_iteration(chain: CutsetChain, gamma0: Sequence[Fraction],
                    steps: int) -> tuple[Fraction, ...]:
    """Exact Cesaro average of gamma0 . P^i for i = 0..steps.

    Computed through a doubling recurrence on integer matrices over a
    shared power-of-denominator scale, so large step counts stay cheap
    and exact.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    n = chain.num_states
    denom = math.lcm(*chain.dens)
    p_int = [[x * (denom // d) for x in row] for row, d in zip(chain.rows, chain.dens)]
    acc = _sum_of_powers(p_int, denom, n, steps + 1)
    scale = denom ** steps * (steps + 1)
    return tuple(sum(gamma0[i] * acc[i][j] for i in range(n)) / scale
                 for j in range(n))


def _sum_of_powers(p_int, denom, n, count):
    """Integer form of sum_{i=0}^{count-1} P^i, scaled by denom**(count-1).

    Doubling on (S_k, M_k) with S_k = the first k powers summed (scale
    denom**(k-1)) and M_k = P^k (scale denom**k):
    S_2k = S_k * denom**k + M_k S_k,   M_2k = M_k M_k,
    S_{k+1} = S_k * denom + M_k,       M_{k+1} = M_k P.
    """
    def matmul(a, b):
        return [[sum(a[i][l] * b[l][j] for l in range(n)) for j in range(n)]
                for i in range(n)]

    s = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    m = [row[:] for row in p_int]
    k = 1
    for bit in bin(count)[3:]:
        dk = denom ** k
        s = [[s[i][j] * dk + sum(m[i][l] * s[l][j] for l in range(n))
              for j in range(n)] for i in range(n)]
        m = matmul(m, m)
        k *= 2
        if bit == "1":
            s = [[s[i][j] * denom + m[i][j] for j in range(n)] for i in range(n)]
            m = matmul(m, p_int)
            k += 1
    return s


def is_solution(system: LinearSystem, x: Sequence[Fraction]) -> bool:
    """Does ``x`` satisfy every row of ``A x = b``?"""
    return all(sum(a * xi for a, xi in zip(row, x)) == b
               for row, b in zip(system.matrix, system.rhs))


def total_variation(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum(abs(x - y) for x, y in zip(a, b)) / 2


def fraction_rref(matrix, rhs) -> tuple[list[list[Fraction]], list[Fraction], list[int]]:
    """Reduced row echelon form of [A | b] by ``Fraction`` row operations;
    returns (A', b', pivot columns)."""
    a = [list(row) for row in matrix]
    b = list(rhs)
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        b[r], b[pivot_row] = b[pivot_row], b[r]
        inv = ONE / a[r][c]
        a[r] = [x * inv for x in a[r]]
        b[r] *= inv
        for i in range(n_rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                b[i] -= f * b[r]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return a, b, pivots


def stationary_by_state_reduction(p: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    """Stationary vector of an irreducible chain by the Grassmann-Taksar-
    Heyman state reduction: censor the states from the last one down,
    with 1 - P[k][k] taken as the row sum off the diagonal, so nothing is
    subtracted, then build the vector back up and normalize."""
    a = [[Fraction(x) for x in row] for row in p]
    for k in range(len(a) - 1, 0, -1):
        out = sum(a[k][:k])
        if not out:
            raise ValueError("chain is not irreducible")
        for i in range(k):
            a[i][k] /= out
            for j in range(k):
                a[i][j] += a[i][k] * a[k][j]
    pi = [ONE]
    for k in range(1, len(a)):
        pi.append(sum(pi[i] * a[i][k] for i in range(k)))
    total = sum(pi)
    return tuple(x / total for x in pi)


def _vertices(matrix, rhs, n: int) -> set[tuple[Fraction, ...]]:
    """Basic feasible solutions of ``A x = b, x >= 0``: the solution on
    each column subset (at most one column per row) that has exactly one,
    when it is nonnegative, zero-padded."""
    found = set()
    for k in range(min(n, len(matrix)) + 1):
        for cols in itertools.combinations(range(n), k):
            _, b, pivots = fraction_rref(
                [[row[j] for j in cols] for row in matrix], rhs)
            if len(pivots) == k and not any(b[k:]) \
                    and all(x >= 0 for x in b[:k]):
                x = dict(zip(cols, b))
                found.add(tuple(x.get(j, ZERO) for j in range(n)))
    return found


def classify_by_vertices(system: LinearSystem) -> tuple[str, set]:
    """Kind of {x : A x = b, x >= 0} ('empty', 'point' or 'infinite') and
    its vertices.  The set is a point iff it has exactly one vertex and
    no ray: {d >= 0 : A d = 0, sum(d) = 1} has no vertex."""
    n = system.num_cols
    if n > MAX_VERTEX_COLUMNS:
        raise CapacityError(
            f"vertex enumeration capped at {MAX_VERTEX_COLUMNS} columns")
    vertices = _vertices(system.matrix, system.rhs, n)
    if not vertices:
        return "empty", vertices
    rays = _vertices(system.matrix + ((ONE,) * n,),
                     (ZERO,) * len(system.rhs) + (ONE,), n)
    return ("point" if len(vertices) == 1 and not rays else "infinite"), vertices
