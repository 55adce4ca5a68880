"""Integer linear systems, each row read off a CPT or iota times its
denominator, for CPT consistency, and for the independence-extended
semantics an LP over mixtures of the cutset chain semantics; all three
are classified by ``linalg.classify_polytope``.  Membership in that
family by its definition is checked in ``oracle``."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .chain import cutset_mc
from .families import EMPTY, INFINITE, UNIQUE, SemanticsFamily
from .linalg import LinearSystem, classify_polytope
from .model import Gbn, InternalError, JointDistribution, sub_indices


def _weak_rows(g: Gbn):
    """Per non-initial node x: its CPT, the parent row of every column,
    and the weak-consistency row Pr(x=T | parents) - [x=T] over the
    columns, times the CPT's den; the strong rows cut it by parent row."""
    for x in sorted(set(g.nodes) - g.initial_nodes):
        cpt = g.cpts[x]
        parent_of = sub_indices(g.nodes, cpt.parents)
        nums, den = cpt.nums, cpt.den
        yield cpt, parent_of, [nums[k] - den if t else nums[k] for k, t in
                               zip(parent_of, sub_indices(g.nodes, (x,)))]


def _pinned(g: Gbn, rows: list) -> LinearSystem:
    """``rows`` equal to 0, then one row per assignment of iota's
    variables (zero-mass ones included) pinning the restriction to them
    to iota, times iota's denominator; without initial nodes that is
    the normalization row."""
    init_of, den = sub_indices(g.nodes, g.iota.variables), g.iota.den
    pins = [[den if k == i else 0 for k in init_of] for i in range(len(g.iota.nums))]
    return LinearSystem(rows + pins, [0] * len(rows) + [*g.iota.nums])


def build_cpt_system(g: Gbn) -> LinearSystem:
    """Strong-consistency system: for each non-initial node X and parent
    assignment c, the row Pr(X=T|c) * mu(c) - mu(X=T, c) = 0, followed by
    the initial-distribution pinning rows."""
    return _pinned(g, [[w if k == c else 0 for k, w in zip(parent_of, row)]
                       for cpt, parent_of, row in _weak_rows(g)
                       for c in range(len(cpt.nums))])


def build_wcpt_system(g: Gbn) -> LinearSystem:
    """Weak-consistency system: one marginal equation per non-initial
    node, plus initial-distribution pinning."""
    return _pinned(g, [row for _, _, row in _weak_rows(g)])


def _witness(g: Gbn, nums, den: int) -> JointDistribution:
    """The distribution ``nums / den`` over the nodes of ``g`` of an LP
    witness, once its numerators are checked to be nonnegative and sum to den."""
    if min(nums) < 0 or sum(nums) != den:
        raise InternalError(f"LP witness {list(nums)} / {den} is not a distribution")
    return JointDistribution._of_table(g.nodes, nums, den)


def solve_family(g: Gbn, kind: str) -> SemanticsFamily:
    """Classify the strong ("cpt") or weak ("wcpt") consistency family.
    The weak one is never empty: at the cutset of every non-initial node,
    each stationary vector pi of the chain extends to iota x pi, which is
    weakly consistent, so an empty "wcpt" is an ``InternalError``."""
    if kind == "cpt":
        system = build_cpt_system(g)
    elif kind == "wcpt":
        system = build_wcpt_system(g)
    else:
        raise ValueError(f"unknown family kind: {kind}")
    poly = classify_polytope(system)
    if poly.kind == "empty":
        if kind == "wcpt":
            raise InternalError("the weak consistency family is never empty")
        return SemanticsFamily(kind, EMPTY)
    status = UNIQUE if poly.kind == "point" else INFINITE
    return SemanticsFamily(kind, status, (_witness(g, *poly.witness),))


def check_consistency(mu: JointDistribution, g: Gbn, x: str,
                      mode: str = "strong") -> bool:
    """Does ``mu`` agree with the CPT of ``x``?  Strong: conditioned on
    every parent assignment; weak: only the marginal of x."""
    if x in g.initial_nodes or x not in g.nodes:
        raise ValueError(f"{x} is not a non-initial node")
    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown mode: {mode}")
    cpt = g.cpts[x]
    nums, den = cpt.nums, cpt.den
    # mass[c] = mu(c) and mass_true[c] = mu(X=T, c) per parent row c, times mu.den
    mass, mass_true = [0] * len(nums), [0] * len(nums)
    for p, k, t in zip(mu.nums, sub_indices(mu.variables, cpt.parents),
                       sub_indices(mu.variables, (x,))):
        if p:
            mass[k] += p
            if t:
                mass_true[k] += p
    if mode == "strong":
        return all(mt * den == m * r for mt, m, r in zip(mass_true, mass, nums))
    return sum(mass_true) * den == sum(map(int.__mul__, mass, nums))


def is_strongly_consistent(mu: JointDistribution, g: Gbn) -> bool:
    """Strong consistency at every non-initial node plus iota pinning."""
    init = g.initial_nodes
    if mu.restrict(init) != g.iota:
        return False
    return all(check_consistency(mu, g, x, "strong")
               for x in set(g.nodes) - init)


def cpt_i_via_cutsets(g: Gbn, cutsets: Sequence[Iterable[str]]) -> SemanticsFamily:
    """Intersection of the chain semantics over a family of cutsets.

    The cutsets must leave every node uncovered by at least one of them;
    that the intersection then is the independence-extended family is
    the paper's claim.  The tests check witnesses, vertices and their
    midpoints against that family's definition: evidence, not a proof.

    A cutset's semantics is the convex hull of its chain's extended
    bottom-component vectors, so the intersection is a polytope in
    mixture weights, one per vector of each cutset.  The first cutset's
    weights sum to 1, and each other cutset's mixture equals the first
    one's at every assignment, which makes its weights sum to 1 too.
    The vectors of one cutset have disjoint supports, so a point in the
    weights is a point in mu: the witness's first weights mixed over the
    first cutset's vectors.  A vector's column holds its integer
    numerators, and its entry in the sum row its denominator, so the LP
    variable of a vector is its weight over that denominator, and mu
    mixes the witness's first numerators into those integer columns.
    """
    cutsets = [tuple(sorted(c)) for c in cutsets]
    if not all(any(x not in set(c) for c in cutsets) for x in g.nodes):
        raise ValueError("some node belongs to every cutset in the family")
    vecs = []
    for cut in cutsets:
        chain = cutset_mc(g, cut)
        vecs.append(chain.extend(chain.bscc_lrfs))
    cols = [(k, d.nums, d.den) for k, ds in enumerate(vecs) for d in ds]
    rows = [[den if k == 0 else 0 for k, _, den in cols]]
    for j in range(1, len(vecs)):
        for a in range(1 << len(g.nodes)):
            row = [v[a] if k == j else -v[a] if k == 0 else 0 for k, v, _ in cols]
            if any(row):        # both mixtures vanish here: 0 = 0
                rows.append(row)
    poly = classify_polytope(LinearSystem(rows, [1] + [0] * (len(rows) - 1)))
    if poly.kind == "empty":
        return SemanticsFamily("cpti", EMPTY, notes="cutset semantics disagree")
    weights, den = poly.witness
    mu = [sum(w * x for w, x in zip(weights, col))
          for col in zip(*(d.nums for d in vecs[0]))]
    status = UNIQUE if poly.kind == "point" else INFINITE
    return SemanticsFamily("cpti", status, (_witness(g, mu, den),),
                           notes=f"intersection of {len(cutsets)} cutset chains")
