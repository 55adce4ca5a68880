"""Brute-force oracles: exact iteration of the unfolding, simple-path
d-separation, Cesàro power iteration of the cutset chain, and polytope
classification by vertex enumeration.

Everything here stays in exact rationals; closeness assertions compare
exact total-variation distances against rational bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .chain import CutsetChain, next_dist
from .graph import DiGraph
from .linalg import LinearSystem, solve_affine
from .model import CapacityError, Gbn, JointDistribution

ZERO = Fraction(0)
ONE = Fraction(1)

#: Simple-path enumeration is exponential; keep it to tiny graphs.
MAX_PATH_NODES = 7

#: Column-subset enumeration is exponential; keep it to tiny systems.
MAX_VERTEX_COLUMNS = 8


@dataclass(frozen=True)
class IterationTrace:
    """Exact trace gamma_0 .. gamma_N of the cutset sequence, with the
    running Cesaro averages alongside."""

    cutset: tuple[str, ...]
    steps: tuple[tuple[Fraction, ...], ...]
    cesaro: tuple[tuple[Fraction, ...], ...]


def iterate_next(g: Gbn, cut, gamma0: JointDistribution,
                 steps: int) -> IterationTrace:
    """Apply the one-level unfolding ``steps`` times, exactly."""
    if steps < 1:
        raise ValueError("need at least one step")
    cut = tuple(sorted(cut))
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
            if nodes[i] not in zs and not (g.post_star(nodes[i]) & zs):
                return True
        else:                       # chain or fork
            if nodes[i] in zs:
                return True
    return False


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
    denom = 1
    for row in chain.matrix:
        for p in row:
            denom = denom * p.denominator // math.gcd(denom, p.denominator)
    p_int = [[int(p * denom) for p in row] for row in chain.matrix]
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


def total_variation(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum(abs(x - y) for x, y in zip(a, b)) / 2


def _vertices(matrix, rhs, n: int) -> set[tuple[Fraction, ...]]:
    """Basic feasible solutions of ``A x = b, x >= 0``: the solution on
    each column subset (at most one column per row) that has exactly one,
    when it is nonnegative, zero-padded."""
    found = set()
    for k in range(min(n, len(matrix)) + 1):
        for cols in itertools.combinations(range(n), k):
            space = solve_affine(LinearSystem(
                tuple(tuple(row[j] for j in cols) for row in matrix), rhs))
            if not space.is_empty and not space.basis \
                    and all(x >= 0 for x in space.particular):
                x = dict(zip(cols, space.particular))
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
