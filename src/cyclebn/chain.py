"""Cutset machinery: dissection, one-step unfolding, the cutset Markov
chain, and the limit / limit-average / stationary semantics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import graph as graphmod
from .families import INFINITE, UNIQUE, SemanticsFamily
from .inference import chain_rule_dist, to_digraph
from .linalg import null_space_left
from .model import (CapacityError, Cpt, Gbn, InternalError,
                    JointDistribution, assignment_from_index, sums_to_one)

ZERO = Fraction(0)
ONE = Fraction(1)

#: Cutset chains are capped at 2**16 states.
MAX_CUTSET_SIZE = 16

PRIME = "'"


class NotACutsetError(Exception):
    pass


def _primed(name: str) -> str:
    return name + PRIME


def _check_cutset(g: Gbn, cut) -> tuple[str, ...]:
    cut = tuple(sorted(cut))
    dg = to_digraph(g)
    if not graphmod.is_cutset(dg, cut):
        raise NotACutsetError(f"{list(cut)} is not a cutset")
    overlap = set(cut) & g.initial_nodes
    if overlap:
        # Initial nodes lie on no cycle, so any cutset containing them has
        # an equivalent cutset without them; the dissection product
        # distribution is only defined for the disjoint form.
        raise NotACutsetError(
            f"cutset must not contain initial nodes: {sorted(overlap)}")
    return cut


def dissect(g: Gbn, cut, gamma: JointDistribution) -> Gbn:
    """Acyclic copy of ``g`` where each cut node gets a primed duplicate
    receiving its incoming edges, and the cut nodes become initial with
    distribution ``gamma``."""
    cut = _check_cutset(g, cut)
    if tuple(gamma.variables) != cut:
        raise ValueError(
            f"gamma covers {gamma.variables}, cutset is {cut}")
    if not cut:
        return g
    clashes = set(_primed(c) for c in cut) & set(g.nodes)
    if clashes:
        raise ValueError(f"primed names already taken: {sorted(clashes)}")
    cut_set = set(cut)
    nodes = g.nodes + tuple(_primed(c) for c in cut)
    edges = frozenset(
        (u, _primed(v)) if v in cut_set else (u, v) for (u, v) in g.edges)
    cpts = {}
    for x, cpt in g.cpts.items():
        if x in cut_set:
            cpts[_primed(x)] = Cpt(_primed(x), cpt.parents, cpt.rows)
        else:
            cpts[x] = cpt
    iota = g.iota.product(gamma)
    out = Gbn(nodes, edges, cpts, iota)
    if not graphmod.is_acyclic(to_digraph(out)):
        raise InternalError(f"dissecting at cutset {list(cut)} left a cycle")
    return out


def next_dist(g: Gbn, cut, gamma: JointDistribution) -> JointDistribution:
    """One level of the unfolding: the distribution over the next copy of
    all variables induced by the cutset distribution ``gamma``."""
    cut = tuple(sorted(cut))
    if not cut:
        return chain_rule_dist(dissect(g, cut, gamma))
    full = chain_rule_dist(dissect(g, cut, gamma))
    kept = [v for v in g.nodes if v not in set(cut)] + [_primed(c) for c in cut]
    return full.restrict(kept).rename({_primed(c): c for c in cut})


def _validate(g: Gbn) -> None:
    violations = g.validate()
    if violations:
        raise ValueError(f"invalid network: {violations}")


def _spread(index: int, bits) -> int:
    """Key of the assignment with canonical ``index`` over variables
    whose key bits are ``bits``, first-sorted variable first."""
    return sum(b for j, b in enumerate(reversed(bits)) if index >> j & 1)


def _forward_eliminate(g: Gbn, cut: tuple[str, ...], rows: bool,
                       gammas) -> list[dict[int, Fraction]]:
    """Chain-rule product over the dissected DAG of ``g`` for each sparse
    cutset distribution ``{index: prob}`` in ``gammas``, without building
    the dissected network.  ``g`` must be valid and ``cut`` a cutset.

    Keys are ints: bit n-1-i is the i-th sorted node and bit n+k-1-j the
    primed copy of cut node j, so a key over the original nodes is its
    canonical index.  Each table starts as iota x gamma.  The non-initial
    nodes are placed in topological order, each entry splitting into
    ``p*r`` and ``p - p*r``, and every other node is summed out once its
    last child is placed.  What stays are the targets: the primed cut
    nodes when ``rows`` is set, the original nodes otherwise.  Nodes that
    are not ancestors of a target cannot change the result and are never
    placed.
    """
    n, k = len(g.nodes), len(cut)
    bit = {v: 1 << (n - 1 - i) for i, v in enumerate(g.nodes)}
    primed = {c: 1 << (n + k - 1 - j) for j, c in enumerate(cut)}
    cpt_of = {primed.get(x, bit[x]): cpt for x, cpt in g.cpts.items()}
    parents = {b: [bit[u] for u in cpt.parents] for b, cpt in cpt_of.items()}
    targets = set(primed.values()) if rows else set(bit.values())
    relevant, stack = set(), list(targets)
    while stack:
        b = stack.pop()
        if b not in relevant:
            relevant.add(b)
            stack.extend(parents.get(b, ()))
    pending = dict.fromkeys(relevant, 0)      # children not yet placed
    unplaced = {}                             # parents not yet placed
    children: dict[int, list[int]] = {}
    for b in relevant & cpt_of.keys():
        unplaced[b] = 0
        for u in parents[b]:
            pending[u] += 1
            if u in cpt_of:
                unplaced[b] += 1
                children.setdefault(u, []).append(b)
    start_keep = ~sum(b for b in bit.values()
                      if b not in targets and not pending.get(b))
    # Kahn's topological order, lowest bit first: the primed targets,
    # whose bits are highest, come last.
    steps = []
    ready = {b for b, m in unplaced.items() if not m}
    while ready:
        b = min(ready)
        ready.remove(b)
        drop = 0
        for u in parents[b]:
            pending[u] -= 1
            if not pending[u] and u not in targets:
                drop |= u
        steps.append((b, parents[b], cpt_of[b].rows, ~drop))
        for c in children.get(b, ()):
            unplaced[c] -= 1
            if not unplaced[c]:
                ready.add(c)
    if len(steps) != len(unplaced):
        raise InternalError(
            f"dissected graph at cutset {list(cut)} has no topological order")

    iota_bits = [bit[v] for v in g.iota.variables]
    cut_bits = [bit[c] for c in cut]
    iota = [(_spread(a, iota_bits), p) for a, p in enumerate(g.iota.probs) if p]
    out = []
    for gamma in gammas:
        table: dict[int, Fraction] = {}
        for c, w in gamma.items():
            ckey = _spread(c, cut_bits)
            for ikey, p in iota:
                key = (ikey | ckey) & start_keep
                table[key] = table[key] + p * w if key in table else p * w
        for b, pbits, cpt_rows, keep in steps:
            placed: dict[int, Fraction] = {}
            for key, p in table.items():
                idx = 0
                for u in pbits:
                    idx = idx << 1 | (key & u != 0)
                pr = p * cpt_rows[idx]
                q = p - pr
                if pr:
                    hi = (key | b) & keep
                    placed[hi] = placed[hi] + pr if hi in placed else pr
                if q:
                    lo = key & keep
                    placed[lo] = placed[lo] + q if lo in placed else q
            table = placed
        if not sums_to_one(table.values()):
            raise InternalError(
                f"forward elimination mass is {sum(table.values())}, not 1")
        out.append(table)
    return out


def extend(g: Gbn, cut, gamma: JointDistribution) -> JointDistribution:
    """Full joint distribution over the original variables recovered from
    a cutset distribution."""
    cut = _check_cutset(g, cut)
    if tuple(gamma.variables) != cut:
        raise ValueError(
            f"gamma covers {gamma.variables}, cutset is {cut}")
    _validate(g)
    return _extend(g, cut, gamma.probs)


def _extend(g: Gbn, cut: tuple[str, ...], gamma) -> JointDistribution:
    """:func:`extend` without its checks: ``g`` must be valid, ``cut`` a
    sorted cutset and ``gamma`` a distribution over it in canonical order."""
    [table] = _forward_eliminate(
        g, cut, False, [{i: p for i, p in enumerate(gamma) if p}])
    probs = [ZERO] * (1 << len(g.nodes))
    for key, p in table.items():
        probs[key] = p
    return JointDistribution(g.nodes, tuple(probs))


@dataclass(frozen=True)
class CutsetChain:
    """DTMC over cutset assignments with exact transition matrix.

    State ``i`` is the cutset assignment with canonical index ``i``.
    """

    cutset: tuple[str, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    @property
    def num_states(self) -> int:
        return len(self.matrix)

    def state_assignment(self, index: int) -> dict[str, bool]:
        return assignment_from_index(index, self.cutset)

    def step(self, gamma: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        n = self.num_states
        return tuple(sum(gamma[i] * self.matrix[i][j] for i in range(n))
                     for j in range(n))

    @cached_property
    def _digraph(self) -> graphmod.DiGraph:
        names = tuple(str(i) for i in range(self.num_states))
        edges = frozenset((str(i), str(j))
                          for i in range(self.num_states)
                          for j in range(self.num_states)
                          if self.matrix[i][j] > 0)
        return graphmod.DiGraph(names, edges)

    @cached_property
    def bsccs(self) -> tuple[frozenset[int], ...]:
        dec = graphmod.scc_decompose(self._digraph)
        return tuple(frozenset(int(v) for v in comp)
                     for comp in dec.bottom_components)

    @cached_property
    def periods(self) -> tuple[int, ...]:
        """Period of each BSCC: gcd of (1 + depth(u) - depth(v)) over its
        internal edges, from a BFS depth labeling."""
        out = []
        for comp in self.bsccs:
            nodes = sorted(comp)
            depth = {nodes[0]: 0}
            queue = [nodes[0]]
            while queue:
                u = queue.pop(0)
                for v in nodes:
                    if self.matrix[u][v] > 0 and v not in depth:
                        depth[v] = depth[u] + 1
                        queue.append(v)
            period = 0
            for u in nodes:
                for v in nodes:
                    if self.matrix[u][v] > 0:
                        period = math.gcd(period, depth[u] + 1 - depth[v])
            out.append(abs(period))
        return tuple(out)

    @cached_property
    def bscc_lrfs(self) -> tuple[tuple[Fraction, ...], ...]:
        """Long-run frequency vector of each BSCC, padded with zeros."""
        out = []
        for comp in self.bsccs:
            nodes = sorted(comp)
            sub = [[self.matrix[u][v] for v in nodes] for u in nodes]
            space = null_space_left(sub)
            if space.is_empty or space.basis:
                raise InternalError(
                    "irreducible chain must have a unique stationary vector")
            vec = [ZERO] * self.num_states
            for pos, u in enumerate(nodes):
                vec[u] = space.particular[pos]
            out.append(tuple(vec))
        return tuple(out)

    def is_stationary(self, gamma: tuple[Fraction, ...]) -> bool:
        return self.step(gamma) == tuple(gamma)


def cutset_mc(g: Gbn, cut) -> CutsetChain:
    """Transition matrix P(b, c) = one-step probability of cutset
    assignment c when starting from the point mass on b."""
    cut = _check_cutset(g, cut)
    if len(cut) > MAX_CUTSET_SIZE:
        raise CapacityError(f"cutset size capped at {MAX_CUTSET_SIZE}")
    _validate(g)
    if not cut:
        return CutsetChain(cut, ((ONE,),))
    n, size = len(g.nodes), 1 << len(cut)
    rows = []
    for table in _forward_eliminate(g, cut, True,
                                    ({i: ONE} for i in range(size))):
        row = [ZERO] * size
        for key, p in table.items():
            row[key >> n] = p
        rows.append(tuple(row))
    return CutsetChain(cut, tuple(rows))


def reach_probs(chain: CutsetChain,
                gamma0: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Exact probability of getting absorbed in each BSCC from ``gamma0``."""
    n = chain.num_states
    recurrent: dict[int, int] = {}
    for k, comp in enumerate(chain.bsccs):
        for s in comp:
            recurrent[s] = k
    transient = [s for s in range(n) if s not in recurrent]
    out = []
    for k, comp in enumerate(chain.bsccs):
        hit = [ZERO] * n
        for s in comp:
            hit[s] = ONE
        if transient:
            # (I - P_TT) x = P_(T -> comp) . 1
            rows = [[(ONE if s == t else ZERO) - chain.matrix[s][t]
                     for t in transient] for s in transient]
            rhs = [sum(chain.matrix[s][t] for t in comp) for s in transient]
            from .linalg import LinearSystem, solve_affine
            space = solve_affine(LinearSystem(tuple(rows), tuple(rhs)))
            if space.is_empty or space.basis:
                raise InternalError("absorption system must have a unique solution")
            for pos, s in enumerate(transient):
                hit[s] = space.particular[pos]
        out.append(sum(gamma0[s] * hit[s] for s in range(n)))
    if sum(out) != 1:
        raise InternalError(f"absorption probabilities sum to {sum(out)}, not 1")
    return tuple(out)


def long_run_frequency(chain: CutsetChain,
                       gamma0: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Reach-probability-weighted combination of the BSCC frequencies."""
    lam = reach_probs(chain, gamma0)
    n = chain.num_states
    return tuple(sum(lam[k] * chain.bscc_lrfs[k][s]
                     for k in range(len(chain.bsccs)))
                 for s in range(n))


def stationary_set(chain: CutsetChain) -> SemanticsFamily:
    """Stationary distributions of the chain: the convex hull of the
    per-BSCC frequency vectors; a singleton iff there is one BSCC."""
    extremes = tuple(JointDistribution(chain.cutset, lrf)
                     for lrf in chain.bscc_lrfs)
    status = UNIQUE if len(extremes) == 1 else INFINITE
    return SemanticsFamily("mc", status, extremes)


def mcs(g: Gbn, cut, gamma0: JointDistribution) -> JointDistribution:
    """Markov chain semantics: extend the long-run frequency of the
    cutset chain started from ``gamma0``."""
    chain = cutset_mc(g, cut)
    if tuple(gamma0.variables) != chain.cutset:
        raise ValueError("gamma0 must cover exactly the cutset")
    return _extend(g, chain.cutset, long_run_frequency(chain, gamma0.probs))


@dataclass(frozen=True)
class LimStatus:
    """Outcome of the limit semantics: a distribution, or the periods of
    the BSCCs that prevent convergence."""

    distribution: JointDistribution | None
    offending_periods: tuple[int, ...] = ()

    @property
    def defined(self) -> bool:
        return self.distribution is not None


def lim(g: Gbn, cut, gamma0: JointDistribution) -> LimStatus:
    """Limit semantics; defined iff the transient sequence converges.

    Convergence criterion: ``gamma0`` already stationary, or every BSCC
    reached with positive probability is aperiodic.
    """
    chain = cutset_mc(g, cut)
    if tuple(gamma0.variables) != chain.cutset:
        raise ValueError("gamma0 must cover exactly the cutset")
    if chain.is_stationary(gamma0.probs):
        return LimStatus(_extend(g, chain.cutset, gamma0.probs))
    lam = reach_probs(chain, gamma0.probs)
    offending = tuple(chain.periods[k] for k in range(len(chain.bsccs))
                      if lam[k] > 0 and chain.periods[k] > 1)
    if offending:
        return LimStatus(None, offending)
    lrf = long_run_frequency(chain, gamma0.probs)
    return LimStatus(_extend(g, chain.cutset, lrf))


def lim_avg(g: Gbn, cut, gamma0: JointDistribution) -> JointDistribution:
    """Limit-average semantics; coincides with :func:`mcs`."""
    return mcs(g, cut, gamma0)


def is_smooth(g: Gbn) -> bool:
    """All CPT entries and all initial-distribution values strictly in (0, 1)."""
    for cpt in g.cpts.values():
        if any(not 0 < r < 1 for r in cpt.rows):
            return False
    if g.iota.variables and any(not 0 < p < 1 for p in g.iota.probs):
        return False
    return True
