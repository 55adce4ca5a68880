"""Cutset machinery: dissection, one-step unfolding, the cutset Markov
chain compiled once per (network, cutset) by ``cutset_mc``, and the
Markov-chain (also limit-average) and limit semantics over it.  Starts,
bottom-component and long-run frequencies are each a
:class:`JointDistribution` over the cutset, the last two built from the
integers of the chain's solves; one over other variables a ValueError."""

from __future__ import annotations

import math
from functools import cached_property

from . import graph as graphmod
from .inference import chain_rule_dist, to_digraph
from .linalg import null_space_left, solve_affine
from .model import (CapacityError, Cpt, Gbn, InternalError,
                    JointDistribution, _Value, rational_text)

#: Cutset chains are capped at 2**16 states.
MAX_CUTSET_SIZE = 16

PRIME = "'"


class NotACutsetError(ValueError):
    pass


def _check_cut(g: Gbn, cut) -> tuple[str, ...]:
    """``cut`` sorted, once it names distinct nodes of ``g``, none
    initial; whether it is a cutset is left to the caller."""
    cut = tuple(sorted(cut))
    if len(set(cut)) != len(cut):
        raise ValueError(f"duplicate variable names: {cut}")
    if not set(cut) <= set(g.nodes):
        raise ValueError("cutset contains unknown nodes")
    overlap = set(cut) & g.initial_nodes
    if overlap:
        # Initial nodes lie on no cycle, so a cutset holding them has an
        # equivalent one without them, the only form dissection defines.
        raise NotACutsetError(
            f"cutset must not contain initial nodes: {sorted(overlap)}")
    return cut


def _check_cover(cut: tuple[str, ...], gamma: JointDistribution) -> JointDistribution:
    """``gamma``, once it is checked to be over exactly the cutset ``cut``."""
    if gamma.variables != cut:
        raise ValueError(f"start covers {list(gamma.variables)}, cutset is {list(cut)}")
    return gamma


def dissect(g: Gbn, cut, gamma: JointDistribution) -> Gbn:
    """Acyclic copy of ``g`` where each cut node gets a primed duplicate
    receiving its incoming edges, and the cut nodes become initial with
    distribution ``gamma``."""
    cut = _check_cut(g, cut)
    if not graphmod.is_cutset(to_digraph(g), cut):
        raise NotACutsetError(f"{list(cut)} is not a cutset")
    _check_cover(cut, gamma)
    if not cut:
        return g
    clashes = set(c + PRIME for c in cut) & set(g.nodes)
    if clashes:
        raise ValueError(f"primed names already taken: {sorted(clashes)}")
    cut_set = set(cut)
    nodes = g.nodes + tuple(c + PRIME for c in cut)
    edges = frozenset(
        (u, v + PRIME) if v in cut_set else (u, v) for (u, v) in g.edges)
    cpts = {x: cpt for x, cpt in g.cpts.items() if x not in cut_set}
    cpts.update((x + PRIME, Cpt._of_table(x + PRIME, cpt.parents, cpt.nums, cpt.den))
                for x, cpt in g.cpts.items() if x in cut_set)
    iota = g.iota.product(gamma)
    out = Gbn(nodes, edges, cpts, iota)
    if not graphmod.is_acyclic(to_digraph(out)):
        raise InternalError(f"dissecting at cutset {list(cut)} left a cycle")
    return out


def next_dist(g: Gbn, cut, gamma: JointDistribution) -> JointDistribution:
    """One level of the unfolding: the distribution over the next copy of
    all variables induced by the cutset distribution ``gamma``."""
    cut = tuple(sorted(cut))
    full = chain_rule_dist(dissect(g, cut, gamma))
    kept = [v for v in g.nodes if v not in set(cut)] + [c + PRIME for c in cut]
    return full.restrict(kept).rename({c + PRIME: c for c in cut})


def _check_cutset_size(cut) -> None:
    if len(cut) > MAX_CUTSET_SIZE:
        raise CapacityError(f"cutset size capped at {MAX_CUTSET_SIZE}")


def _spread(index: int, bits) -> int:
    """Key of the assignment with canonical ``index`` over variables
    whose key bits are ``bits``, first-sorted variable first."""
    return sum(b for j, b in enumerate(reversed(bits)) if index >> j & 1)


def _layout(g: Gbn, cut: tuple[str, ...]):
    """The bit layout shared by every elimination over the dissected DAG
    of ``g`` at ``cut``: bit n-1-i is the i-th sorted node and bit
    n+k-1-j the primed copy of cut node j, so a key over the original
    nodes is its canonical index.  Returns each CPT as ``(parent bits,
    nums, den)`` keyed by its node's bit (a cut node's primed bit), and
    what a start table is built from: iota's nonzero entries keyed by
    bit, its denominator and the cut nodes' bits."""
    n, k = len(g.nodes), len(cut)
    bit = {v: 1 << (n - 1 - i) for i, v in enumerate(g.nodes)}
    primed = {c: 1 << (n + k - 1 - j) for j, c in enumerate(cut)}
    cpts = {primed.get(x, bit[x]): ([bit[u] for u in cpt.parents], cpt.nums, cpt.den)
            for x, cpt in g.cpts.items()}
    iota_bits = [bit[v] for v in g.iota.variables]
    iota = [(_spread(a, iota_bits), p) for a, p in enumerate(g.iota.nums) if p]
    return cpts, (iota, g.iota.den, [bit[c] for c in cut])


def _build_plan(cpts, cut: tuple[str, ...], targets: int) -> tuple[int, list]:
    """The plan of an elimination that keeps the nodes on the bits of
    ``targets``: the mask a start table keeps, and a step ``(bit, parent
    bits, nums, den, keep)`` per placed node.  Only the targets'
    ancestors are placed, in topological order, lowest ready bit first
    (the primed targets, highest, last); a node is summed out by the
    ``keep`` of the step placing its last child.  A node that cannot be
    placed lies on or below a cycle of G minus ``cut``: NotACutsetError.
    With every original node a target, every non-initial node off the
    cut must be placed, so that plan is the cutset test."""
    relevant = set()
    stack = [1 << i for i in range(targets.bit_length()) if targets >> i & 1]
    while stack:
        b = stack.pop()
        if b not in relevant:
            relevant.add(b)
            if b in cpts:
                stack.extend(cpts[b][0])
    todo = relevant & cpts.keys()             # nodes not yet placed
    pending = dict.fromkeys(relevant, 0)      # children not yet placed
    for b in todo:
        for u in cpts[b][0]:
            pending[u] += 1
    start_keep = targets | sum(b for b, m in pending.items() if m)
    steps = []
    while todo:
        b = min((b for b in todo if todo.isdisjoint(cpts[b][0])), default=None)
        if b is None:
            raise NotACutsetError(f"{list(cut)} is not a cutset")
        todo.remove(b)
        parents, nums, den = cpts[b]
        drop = 0
        for u in parents:
            pending[u] -= 1
            if not pending[u] and not u & targets:
                drop |= u
        steps.append((b, parents, nums, den, ~drop))
    return start_keep, steps


def _forward_eliminate(chain: CutsetChain, targets: int,
                       gammas) -> list[tuple[dict[int, int], int]]:
    """Chain-rule product over the dissected DAG of the chain's network,
    kept on the nodes on the bits of ``targets`` and summed over the
    rest, for each sparse cutset distribution ``({index: num}, den)`` in
    ``gammas``, without building the dissected network: each table
    starts as iota x gamma and runs the chain's plan for ``targets``,
    built on first use and kept.

    Table values are int numerators over one shared denominator ``D``,
    first the product of the denominators of iota and gamma.  Placing a
    node with CPT ``nums`` over ``d`` splits an entry ``p`` into
    ``p*nums[idx]`` and ``p*d - p*nums[idx]`` and sets ``D *= d``; the
    mass check is ``sum == D``.  Each table comes with its ``D``,
    unreduced: callers reduce what they keep."""
    if targets not in chain._plans:
        chain._plans[targets] = _build_plan(chain._cpts, chain.cutset, targets)
    start_keep, steps = chain._plans[targets]
    iota, iota_den, cut_bits = chain._start
    out = []
    for gamma, den in gammas:
        den *= iota_den
        table: dict[int, int] = {}
        for c, w in gamma.items():
            ckey = _spread(c, cut_bits)
            for ikey, p in iota:
                key = (ikey | ckey) & start_keep
                table[key] = table.get(key, 0) + p * w
        for b, pbits, num, d, keep in steps:
            placed: dict[int, int] = {}
            for key, p in table.items():
                idx = 0
                for u in pbits:
                    idx = idx << 1 | (key & u != 0)
                pr = p * num[idx]
                q = p * d - pr
                if pr:
                    hi = (key | b) & keep
                    placed[hi] = placed[hi] + pr if hi in placed else pr
                if q:
                    lo = key & keep
                    placed[lo] = placed[lo] + q if lo in placed else q
            table = placed
            den *= d
        mass = sum(table.values())
        if mass != den:
            raise InternalError(
                f"forward elimination mass is {rational_text(mass, den)}, not 1")
        out.append((table, den))
    return out


class CutsetChain:
    """DTMC over cutset assignments with an exact transition matrix,
    compiled once per (network, cutset) by :func:`cutset_mc`, its only
    constructor.

    State ``i`` is the cutset assignment with canonical index ``i``.
    Row ``u`` is held as integers ``rows[u]`` over its least denominator
    ``dens[u]``, so ``P[u][v] = rows[u][v] / dens[u]`` and the gcd of a
    row and its denominator is 1.  The support, the BSCCs (listed by
    smallest state), their periods and both solves read these integers;
    the ``Fraction`` ``matrix`` is built only when it is read.  The chain
    keeps its ``network``, the bit layout and one elimination plan per
    target set, built at most once: the primed cut for the rows, the
    original nodes for :meth:`extend`.
    """

    def extend(self, gammas) -> tuple[JointDistribution, ...]:
        """Full joints over the network's variables recovered from the
        distributions ``gammas`` over the cutset, all in one elimination
        and in the order given."""
        nodes, cut = self.network.nodes, self.cutset
        starts = [({i: p for i, p in enumerate(_check_cover(cut, d).nums) if p}, d.den)
                  for d in gammas]
        out = []
        for table, den in _forward_eliminate(self, (1 << len(nodes)) - 1, starts):
            nums = [0] * (1 << len(nodes))
            for key, p in table.items():
                nums[key] = p
            out.append(JointDistribution._of_table(nodes, nums, den))
        return tuple(out)

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        from fractions import Fraction
        return tuple(tuple(Fraction(x, d) for x in row)
                     for row, d in zip(self.rows, self.dens))

    @property
    def num_states(self) -> int:
        return len(self.rows)

    def step(self, gamma: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        return tuple(sum(x * p for x, p in zip(gamma, col)) for col in zip(*self.matrix))

    @cached_property
    def _successors(self) -> list[list[int]]:
        """For each state, the states its row gives nonzero probability."""
        return [[j for j, x in enumerate(row) if x] for row in self.rows]

    @cached_property
    def bsccs(self) -> tuple[frozenset[int], ...]:
        """Bottom strongly connected components, by smallest state."""
        comps, bottom = graphmod.strong_components(self._successors)
        return tuple(sorted((frozenset(c) for c, b in zip(comps, bottom) if b),
                            key=min))

    @cached_property
    def periods(self) -> tuple[int, ...]:
        """Period of each BSCC: gcd of (depth(u) + 1 - depth(v)) over its
        edges, all of which stay inside it, from a BFS over the support."""
        succ = self._successors
        depth = [-1] * self.num_states
        out = []
        for comp in self.bsccs:
            order = [min(comp)]
            depth[order[0]] = 0
            period = 0
            for u in order:             # grows as the search goes
                du = depth[u] + 1
                for v in succ[u]:
                    if depth[v] < 0:
                        depth[v] = du
                        order.append(v)
                    else:
                        period = math.gcd(period, du - depth[v])
            out.append(period)
        return tuple(out)

    @cached_property
    def bscc_lrfs(self) -> tuple[JointDistribution, ...]:
        """Long-run frequency of each BSCC, a distribution over the
        cutset that is zero off the component."""
        out = []
        for comp in self.bsccs:
            nodes = sorted(comp)
            pi = null_space_left([[self.rows[u][v] for v in nodes] for u in nodes],
                                 [self.dens[u] for u in nodes])
            if pi is None:
                raise InternalError(
                    "irreducible chain must have a unique stationary vector")
            vec = [0] * self.num_states
            for u, p in zip(nodes, pi[0]):
                vec[u] = p
            out.append(JointDistribution._of_table(self.cutset, vec, pi[1]))
        return tuple(out)


def cutset_mc(g: Gbn, cut) -> CutsetChain:
    """The chain of ``g`` at ``cut``, compiled once: the cut checked, ``g``
    validated, the bit layout and the extension plan (the cutset test)
    built.  Row b holds P(b, c), the one-step probability of cutset
    assignment c from the point mass on b; one elimination gives every
    row, and each is reduced by one gcd."""
    cut = _check_cut(g, cut)
    _check_cutset_size(cut)
    g._require_valid()
    chain = CutsetChain.__new__(CutsetChain)
    chain.network, chain.cutset = g, cut
    chain._cpts, chain._start = _layout(g, cut)
    n, size = len(g.nodes), 1 << len(cut)
    chain._plans = {(1 << n) - 1: _build_plan(chain._cpts, cut, (1 << n) - 1)}
    rows, dens = [], []
    for table, den in _forward_eliminate(chain, (size - 1) << n,
                                         (({i: 1}, 1) for i in range(size))):
        common = math.gcd(den, *table.values())
        row = [0] * size
        for key, p in table.items():
            row[key >> n] = p // common
        rows.append(row)
        dens.append(den // common)
    chain.rows, chain.dens = tuple(rows), tuple(dens)
    return chain


def reach_probs(chain: CutsetChain,
                gamma0: JointDistribution) -> tuple[tuple[int, ...], int]:
    """Exact probability of getting absorbed in each BSCC from the start
    ``gamma0`` over the cutset, ``(masses, den)``: its starting mass plus
    the flow y P into it, where one left solve y (I - P_TT) = gamma0_T
    gives the expected visits y to transient states.  It is solved in
    z_s = y_s / dens[s], whose coefficients ``dens[s]*[s == t] -
    rows[s][t]`` are integers, for the start's numerators: z = visits / d,
    so each mass is an integer over ``den = gamma0.den * d``."""
    start = _check_cover(chain.cutset, gamma0).nums
    recurrent = set().union(*chain.bsccs)
    transient = [s for s in range(chain.num_states) if s not in recurrent]
    rows, dens = chain.rows, chain.dens
    system = [[dens[s] - rows[s][t] if s == t else -rows[s][t]
               for s in transient] + [start[t]] for t in transient]
    solved = solve_affine(system, len(transient))
    if solved is None:
        raise InternalError("absorption system must have a unique solution")
    visits, d = solved
    mass = [d * p for p in start]
    for s, z in zip(transient, visits):
        for c in chain._successors[s]:
            mass[c] += z * rows[s][c]
    out = tuple(sum(mass[c] for c in comp) for comp in chain.bsccs)
    den = gamma0.den * d
    if sum(out) != den:
        raise InternalError(f"absorption probabilities sum to {sum(out)}/{den}, not 1")
    return out, den


def long_run_frequency(chain: CutsetChain,
                       gamma0: JointDistribution) -> JointDistribution:
    """Long-run frequency over the cutset from the start ``gamma0``: the
    reach-probability-weighted combination of the BSCC frequencies, each
    zero off its own component, summed over one common denominator."""
    masses, rden = reach_probs(chain, gamma0)
    terms = [(w, comp, lrf) for w, comp, lrf in
             zip(masses, chain.bsccs, chain.bscc_lrfs) if w]
    den = rden * math.lcm(*(lrf.den for _, _, lrf in terms))
    nums = [0] * chain.num_states
    for w, comp, lrf in terms:
        f = w * (den // (rden * lrf.den))
        for s in comp:
            nums[s] = f * lrf.nums[s]
    return JointDistribution._of_table(chain.cutset, nums, den)


def mcs(chain: CutsetChain, gamma0: JointDistribution) -> JointDistribution:
    """Markov chain semantics: extend the long-run frequency of the
    cutset chain started from ``gamma0``.  It is also the limit-average
    semantics, the extension of the Cesaro limit of the cutset sequence."""
    return chain.extend([long_run_frequency(chain, gamma0)])[0]


class LimStatus(_Value):
    """Outcome of the limit semantics: a distribution, or the periods of
    the BSCCs that prevent convergence."""

    _fields = ("distribution", "offending_periods")

    def __init__(self, distribution: JointDistribution | None,
                 offending_periods: tuple[int, ...] = ()) -> None:
        vars(self).update(distribution=distribution,
                          offending_periods=offending_periods)

    @property
    def defined(self) -> bool:
        return self.distribution is not None


def lim(chain: CutsetChain, gamma0: JointDistribution) -> LimStatus:
    """Limit semantics: the extension of the limit of the cutset sequence.

    It is the long-run frequency f from ``gamma0``, reported undefined,
    with the periods of the periodic BSCCs that ``gamma0`` reaches, when
    there are any and f differs from ``gamma0`` (so ``gamma0`` is not
    stationary).  The test is sufficient, not necessary: a start with no
    transient mass that gives each cyclic class of a periodic BSCC the
    same mass also converges, yet is reported undefined with that period.
    """
    freq = long_run_frequency(chain, gamma0)
    # f is positive on every state of a component that gamma0 reaches
    offending = tuple(p for p, comp in zip(chain.periods, chain.bsccs)
                      if freq.nums[min(comp)] and p > 1)
    if offending and freq != gamma0:
        return LimStatus(None, offending)
    return LimStatus(chain.extend([freq])[0])


def is_smooth(g: Gbn) -> bool:
    """All CPT entries and all initial-distribution values strictly in (0, 1)."""
    tables = [(cpt.nums, cpt.den) for cpt in g.cpts.values()]
    if g.iota.variables:
        tables.append((g.iota.nums, g.iota.den))
    return all(0 < min(nums) and max(nums) < den for nums, den in tables)
