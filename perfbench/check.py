"""Answer checking, outside the timed region.

Each query's machine-format output is reduced to a canonical form whose
digest is compared with the one recorded in ``answers.json``:

- stable answers (statuses, unique distributions, chain matrices,
  stationary vectors, periods, dsep verdicts, cutset lists) enter the
  canonical form as printed;
- where the output order is unspecified (bottom components, the extreme
  points of an infinite mc family, the cutset members) it is sorted;
- the witness of an infinite ``cpt``/``wcpt`` family may legitimately
  vary, so it is replaced by a marker and checked for membership instead.

The paper's worked examples are also checked against their literal values.
"""

from __future__ import annotations

import hashlib
import json

ANSWERS_FILE = "answers.json"


def arg(argv, flag, default=None):
    """The value given to ``flag`` in ``argv``."""
    return argv[argv.index(flag) + 1] if flag in argv else default


def command(argv) -> str:
    """The subcommand, with the semantics kind appended."""
    cmd = argv[2]
    return f"semantics-{arg(argv, '--kind')}" if cmd == "semantics" else cmd


def _dist_key(d) -> str:
    return json.dumps(d, sort_keys=True)


def canonical(argv, out: dict) -> tuple[dict, str | None]:
    """Canonical form of one output, and the family kind whose witness
    needs a membership check (None when the output is compared whole)."""
    out = dict(out)
    cmd = command(argv)
    member = None
    if cmd == "cutsets":
        out["cutsets"] = [sorted(c) for c in out["cutsets"]]
    elif cmd == "chain":
        pairs = sorted([sorted(c), p] for c, p in zip(out.pop("bsccs"), out.pop("periods")))
        out["bsccs_with_periods"] = pairs
    elif cmd == "classify":
        out["periods"] = sorted(out["periods"])
    elif cmd in ("semantics-cpt", "semantics-wcpt"):
        if out["status"] == "infinite":
            member = out["kind"]
            out["distributions"] = [dict(d, probs="member") for d in out["distributions"]]
    elif cmd == "semantics-mc":
        out["distributions"] = sorted(out.get("distributions", []), key=_dist_key)
    elif cmd == "semantics-lim" and "offending_periods" in out:
        out["offending_periods"] = sorted(out["offending_periods"])
    return out, member


def digest(rc: int, argv, text: str) -> tuple[str, dict | None, str | None]:
    """Recorded form ``"<rc>:<hash>"`` of an output, with the parsed
    output and membership kind.  Raises ValueError on unparsable output."""
    if rc != 0:
        return f"{rc}:-", None, None
    try:
        out = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"output is not JSON: {e}") from None
    form, member = canonical(argv, out)
    h = hashlib.sha256(json.dumps(form, sort_keys=True).encode()).hexdigest()[:20]
    return f"{rc}:{h}", out, member


def is_member(doc_text: str, kind: str, dist: dict) -> bool:
    """Is the printed witness a member of the ``kind`` family of the
    network?  Strong: ``is_strongly_consistent``.  Weak: every node's
    weak consistency, non-negativity and iota pinning."""
    from cyclebn.cli import _bit_keys, parse_document
    from cyclebn.constraints import check_consistency, is_strongly_consistent
    from cyclebn.model import JointDistribution, parse_rational

    g = parse_document(doc_text)
    if dist["variables"] != sorted(g.nodes) or \
            dist["assignment_order"] != _bit_keys(dist["variables"]):
        return False
    probs = [parse_rational(p) for p in dist["probs"]]
    if any(p < 0 for p in probs) or sum(probs) != 1:
        return False
    try:
        mu = JointDistribution(tuple(dist["variables"]), tuple(probs))
    except ValueError:
        return False
    if kind == "cpt":
        return is_strongly_consistent(mu, g)
    init = g.initial_nodes
    return mu.restrict(init).probs == g.iota.probs and all(
        check_consistency(mu, g, x, "weak") for x in set(g.nodes) - init)


def _probs(out, i=0):
    return out["distributions"][i]["probs"]


#: Literal values of the paper's worked examples: (item key, query index)
#: -> predicate over the parsed output.
PAPER = {
    ("paper:trichotomy-empty", 0): lambda o: o["status"] == "empty",
    ("paper:trichotomy-infinite", 0): lambda o: o["status"] == "infinite",
    ("paper:trichotomy-unique", 0): lambda o: o["status"] == "unique"
    and _probs(o) == ["1/10", "3/10", "3/10", "3/10"],
    ("paper:stationary-121", 1): lambda o: o["status"] == "unique"
    and _probs(o) == ["48/121", "18/121", "40/121", "15/121"],
    ("paper:period-4", 0): lambda o: o["periods"] == [4] and o["num_bsccs"] == 1,
    ("paper:period-4", 2): lambda o: o["status"] == "undefined"
    and o["offending_periods"] == [4],
    ("paper:period-4", 3): lambda o: _probs(o) == ["1/4"] * 4,
}


def check(item, qi: int, rc: int, text: str, expected: str) -> str | None:
    """None when the output of query ``qi`` of ``item`` is right,
    otherwise the reason it is wrong."""
    try:
        got, out, member = digest(rc, item.queries[qi], text)
        if got != expected:
            return f"answer {got} differs from the recorded {expected}"
        if member and not all(is_member(item.doc, member, d) for d in out["distributions"]):
            return f"witness is not in the {member} family"
        rule = PAPER.get((item.key, qi))
        if rule is not None and not rule(out):
            return "paper value differs"
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"
    return None


def doc_digest(doc: str) -> str:
    return hashlib.sha256(doc.encode()).hexdigest()[:16]
