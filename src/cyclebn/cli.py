"""Command-line interface and the textual network document format.

A network document is JSON with four sections::

    {
      "variables": ["X", "Y"],
      "edges": [["X", "Y"], ["Y", "X"]],
      "cpts": {
        "X": {"parents": ["Y"], "rows": {"0": "3/4", "1": "1/2"}},
        "Y": {"parents": ["X"], "rows": {"0": "3/4", "1": "1/2"}}
      },
      "iota": {"": "1"}
    }

CPT row keys are bitstrings over the sorted parent set (first-sorted
variable is the leftmost bit, F=0, T=1) and hold Pr(node=T | row).
``iota`` keys are bitstrings over the sorted initial variables; a network
without initial nodes uses the single key "".  Rationals are "p/q"
strings or decimal literals.

Exit codes: 1 invalid input, 2 capacity exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii as _encode_str

from . import chain as chainmod
from . import constraints, graph as graphmod, inference
from .families import INFINITE, UNIQUE, SemanticsFamily
from .model import (MAX_DENSE_VARS, CapacityError, Cpt, Gbn,
                    JointDistribution, Violation, parse_rational,
                    rational_text, scaled)

EXIT_INVALID = 1
EXIT_CAPACITY = 2


class DocumentError(Exception):
    """The document does not describe a valid network."""

    def __init__(self, violations: list[Violation]):
        super().__init__("; ".join(v.message for v in violations))
        self.violations = violations


def _bit_keys(variables) -> list[str]:
    """Bitstring of every canonical index, first variable leftmost,
    built by doubling."""
    keys = [""]
    for _ in variables:
        keys = [k + b for k in keys for b in "01"]
    return keys


class _Table:
    """Rationals ``nums[i] / den`` in a result, spelled out in lowest
    terms only when written, without a ``Fraction`` per entry."""

    __slots__ = ("nums", "den")

    def __init__(self, nums, den: int):
        self.nums, self.den = nums, den

    def texts(self) -> list[str]:
        den = self.den
        return [rational_text(p, den) for p in self.nums]


class _Cutsets:
    """A cutset listing in a result: ``rows`` are name tuples, each name
    one of ``names``, and only the first row may be empty."""

    __slots__ = ("rows", "names")

    def __init__(self, rows: list[tuple[str, ...]], names: tuple[str, ...]):
        self.rows, self.names = rows, names

    def json_text(self, pad: str) -> str:
        """The listing as ``_json_text`` writes a list of lists: each
        distinct name is encoded once, and the rows are joined whole."""
        inner = pad + "  "
        deeper = inner + "  "
        head, rows = "[" + inner, self.rows
        if not rows[0]:
            head, rows = head + "[]", rows[1:]
            if not rows:
                return head + pad + "]"
            head += "," + inner
        bodies = {v: _encode_str(v)[1:-1] for v in self.names}
        if any(bodies[v] != v for v in self.names):
            rows = map(map, repeat(bodies.__getitem__), rows)
        close = '"' + inner + "]"
        text = (close + "," + inner + "[" + deeper + '"').join(
            map(('",' + deeper + '"').join, rows))
        return "".join((head, "[", deeper, '"', text, close, pad, "]"))


def _pair(text) -> tuple[int, int]:
    """Numerator and positive denominator of a rational text, not
    necessarily in lowest terms.  Plain ASCII "p" and "p/q" texts are
    read as integers; every other text goes through
    :func:`parse_rational`."""
    if type(text) is str and text.isascii():
        p, slash, q = text.partition("/")
        if p.isdigit() and (q.isdigit() or not slash):
            q = int(q) if slash else 1
            if q:
                return int(p), q
    r = parse_rational(text)
    return r.numerator, r.denominator


def _vector_from_keys(mapping: dict, keys: list[str],
                      what: str) -> tuple[list[int], int]:
    """Read a table keyed by the bitstrings ``keys``, given in canonical
    order, as integer numerators over the lcm of the denominators, and
    that lcm.  When a key or an entry is wrong, the first fault in the
    document's order is reported."""
    if len(mapping) == len(keys):
        try:
            pairs = [_pair(text) for text in map(mapping.__getitem__, keys)]
        except (KeyError, ValueError):
            pass
        else:
            den = math.lcm(*[q for _, q in pairs])
            return [p * (den // q) for p, q in pairs], den
    n = len(keys[0])
    for key, text in mapping.items():
        if len(key) != n or set(key) - {"0", "1"}:
            raise ValueError(f"{what}: bad assignment key {key!r}")
        parse_rational(text)
    missing = [k for k in keys if k not in mapping]
    more = f" and {len(missing) - 8} more" if len(missing) > 8 else ""
    raise ValueError(f"{what}: missing keys {missing[:8]}{more}")


def _check_width(names, what: str) -> None:
    """Refuse a table over more than ``MAX_DENSE_VARS`` variables before
    it is allocated."""
    if len(names) > MAX_DENSE_VARS:
        raise CapacityError(
            f"{len(names)} {what} exceed the dense cap of {MAX_DENSE_VARS}")


def _distinct(names: tuple[str, ...]) -> tuple[str, ...]:
    """``names`` sorted; a name given twice is a ValueError."""
    names = tuple(sorted(names))
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names: {names}")
    return names


def _strings(value, what: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(map(isinstance, value, repeat(str))):
        raise ValueError(f"{what} must be a list of strings")
    return tuple(value)


def _json(text: str):
    """``json.loads``, with nesting too deep to decode reported as a
    ValueError instead of a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("not valid JSON: nested too deeply") from None


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object")
    return value


def _edges(value) -> frozenset[tuple[str, str]]:
    """The ``edges`` section as a set of (from, to) pairs."""
    if isinstance(value, list) and all(
            type(e) is list and len(e) == 2
            and type(e[0]) is str and type(e[1]) is str for e in value):
        return frozenset(map(tuple, value))
    if isinstance(value, list):
        for e in value:          # the first bad edge words the error
            if len(_strings(e, "each edge")) != 2:
                break
    raise ValueError("each edge must be a [from, to] pair")


def parse_document(text: str) -> Gbn:
    """Parse a JSON network document; raises DocumentError on problems
    and CapacityError, before any table is read, over the dense cap."""
    problems: list[Violation] = []
    try:
        doc = _object(_json(text), "document")
        nodes = _strings(doc.get("variables", []), "variables")
        _check_width(nodes, "variables")
        nodes = _distinct(nodes)
        edges = _edges(doc.get("edges", []))
        cpt_entries = _object(doc.get("cpts", {}), "cpts")
        iota_table = _object(doc.get("iota", {"": "1"}), "iota")
    except json.JSONDecodeError as e:
        raise DocumentError([Violation("ParseError", "", f"not valid JSON: {e}")])
    except ValueError as e:
        raise DocumentError([Violation("ParseError", "", str(e))])
    keys_of: dict[int, list[str]] = {}       # bitstring keys by table width
    cpts = {}
    for name, entry in cpt_entries.items():
        what = f"cpt of {name}"
        try:
            entry = _object(entry, what)
            parents = _strings(entry.get("parents"), f"{what}: parents")
            _check_width(parents, f"parents of {name}")
            rows = _object(entry.get("rows"), f"{what}: rows")
            keys = keys_of.get(len(parents)) or keys_of.setdefault(
                len(parents), _bit_keys(parents))
            nums, den = _vector_from_keys(rows, keys, what)
            cpts[name] = Cpt._of_table(name, _distinct(parents), nums, den)
        except ValueError as e:
            problems.append(Violation("ParseError", name, str(e)))
    targets = {v for (_, v) in edges}
    init = tuple(v for v in nodes if v not in targets)
    iota = None
    try:
        nums, den = _vector_from_keys(
            iota_table, keys_of.get(len(init)) or _bit_keys(init), "iota")
        total = sum(nums)
        if total != den:
            problems.append(Violation(
                "NotNormalized", ",".join(init),
                f"iota sums to {rational_text(total, den)}, not 1"))
        elif min(nums) < 0:
            problems.append(Violation("OutOfRange", ",".join(init),
                                      "iota entry outside [0, 1]"))
        else:
            iota = JointDistribution._of_table(init, nums, den)
    except ValueError as e:
        problems.append(Violation("ParseError", "iota", str(e)))
    if problems:
        raise DocumentError(problems)
    g = Gbn(nodes, edges, cpts, iota)
    violations = g.validate()
    if violations:
        raise DocumentError(violations)
    return g


def _load(path: str) -> Gbn:
    with open(path, encoding="utf-8") as fh:
        return parse_document(fh.read())


def _vector_out(d: JointDistribution) -> dict:
    return {"variables": list(d.variables),
            "assignment_order": _bit_keys(d.variables),
            "probs": _Table(d.nums, d.den)}


def _parse_names(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _parse_gamma0(source: str, cut: tuple[str, ...]) -> JointDistribution:
    """The start over the sorted cutset ``cut``."""
    _check_width(cut, "cutset variables")
    if source == "uniform":
        return JointDistribution.uniform(cut)
    if source.startswith("dirac:"):
        bits = source[len("dirac:"):]
        if len(bits) != len(cut) or set(bits) - {"0", "1"}:
            raise ValueError(
                f"dirac assignment needs {len(cut)} bits over {list(cut)}")
        nums = [0] * (1 << len(cut))
        nums[int(bits, 2) if cut else 0] = 1
        return JointDistribution._of_table(_distinct(cut), nums, 1)
    with open(source, encoding="utf-8") as fh:
        table = _object(_json(fh.read()), "gamma0")
    nums, den = _vector_from_keys(table, _bit_keys(cut), "gamma0")
    from fractions import Fraction
    return JointDistribution(cut, [Fraction(p, den) for p in nums])


def _cutset(args, g: Gbn) -> tuple[str, ...]:
    """The ``--cutset`` names, or else every non-initial node, sorted:
    the order of the output and of ``dirac:`` bits."""
    if args.cutset:
        return tuple(sorted(_parse_names(args.cutset)))
    return tuple(sorted(set(g.nodes) - g.initial_nodes))


def _json_text(value, pad: str = "\n") -> str:
    """``value`` in exactly the layout of ``json.dumps(value, indent=2)``,
    each ``_Table`` written as its list of strings "p/q" (or "p" when
    integral) and each ``_Cutsets`` as its list of name lists.  ``pad``
    is the newline and indent of the line ``value`` starts on."""
    if type(value) is str:
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return repr(value)
    inner = pad + "  "
    if type(value) is _Table:
        # rational texts need no escaping
        return ("[" + inner + '"' + ('",' + inner + '"').join(value.texts())
                + '"' + pad + "]")
    if type(value) is _Cutsets:
        return value.json_text(pad)
    if type(value) is dict:
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join([
            _encode_str(k) + ": " + _json_text(v, inner)
            for k, v in value.items()]) + pad + "}"
    if type(value) is list or type(value) is tuple:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([
            _encode_str(v) if type(v) is str else _json_text(v, inner)
            for v in value]) + pad + "]"
    raise TypeError(f"{type(value).__name__} is not written as JSON")


def _emit(result: dict, fmt: str) -> None:
    """Write a result whose rationals are still ``_Table`` integers."""
    if fmt == "machine":
        sys.stdout.write(_json_text(result))
        sys.stdout.write("\n")
        return
    _pretty(result, indent=0)


def _pretty(value, indent: int, label: str | None = None) -> None:
    pad = "  " * indent
    if type(value) is _Table:
        value = value.texts()
    elif type(value) is _Cutsets:
        value = value.rows
    if isinstance(value, dict):
        if label is not None:
            print(f"{pad}{label}:")
        for k, v in value.items():
            _pretty(v, indent + (label is not None), k)
    elif isinstance(value, (list, tuple)) and value \
            and isinstance(value[0], (dict, list, tuple, _Table)):
        if label is not None:
            print(f"{pad}{label}:")
        for v in value:
            _pretty(v, indent + 1)
    else:
        text = " ".join(map(str, value)) if isinstance(value, (list, tuple)) else value
        if label is None:
            print(f"{pad}{text}")
        else:
            print(f"{pad}{label}: {text}")


def _family_out(fam: SemanticsFamily) -> dict:
    out = {"kind": fam.kind, "status": fam.status}
    if fam.distributions:
        out["distributions"] = [_vector_out(d) for d in fam.distributions]
    if fam.notes:
        out["notes"] = fam.notes
    return out


def _cmd_validate(args) -> tuple[dict, int]:
    try:
        _load(args.file)
    except DocumentError as e:
        return ({"command": "validate", "valid": False,
                 "violations": [{"kind": v.kind, "node": v.node,
                                 "message": v.message} for v in e.violations]},
                EXIT_INVALID)
    return {"command": "validate", "valid": True, "violations": []}, 0


def _cmd_dsep(args) -> tuple[dict, int]:
    g = _load(args.file)
    xs, ys, zs = map(_parse_names, (args.x, args.y, args.given))
    sep = graphmod.d_separated(inference.to_digraph(g), xs, ys, zs)
    return {"command": "dsep", "x": sorted(xs), "y": sorted(ys),
            "given": sorted(zs), "separated": sep}, 0


def _cmd_cutsets(args) -> tuple[dict, int]:
    g = _load(args.file)
    cuts = graphmod.enumerate_cutsets(inference.to_digraph(g),
                                      minimal_only=args.minimal)
    return {"command": "cutsets", "minimal": args.minimal,
            "cutsets": _Cutsets(cuts, g.nodes)}, 0


def _chain_out(mc: chainmod.CutsetChain) -> dict:
    keys = _bit_keys(mc.cutset)
    return {
        "cutset": list(mc.cutset),
        "assignment_order": keys,
        "matrix": [_Table(row, d) for row, d in zip(mc.rows, mc.dens)],
        "bsccs": [sorted(keys[s] for s in comp) for comp in mc.bsccs],
        "periods": list(mc.periods),
    }


def _cmd_chain(args) -> tuple[dict, int]:
    g = _load(args.file)
    mc = chainmod.cutset_mc(g, _parse_names(args.cutset))
    return {"command": "chain", **_chain_out(mc)}, 0


def _cmd_semantics(args) -> tuple[dict, int]:
    g = _load(args.file)
    kind = args.kind
    out: dict = {"command": "semantics", "kind": kind}
    if kind == "bn":
        try:
            # the empty set is a cutset exactly when the graph is acyclic
            mc = chainmod.cutset_mc(g, ())
        except chainmod.NotACutsetError:
            out.update(status="empty", notes="cyclic graph")
            return out, 0
        mu = mc.extend([JointDistribution.uniform(())])[0]
        out.update(status=UNIQUE, distributions=[_vector_out(mu)])
        return out, 0
    if kind in ("cpt", "wcpt"):
        out.update(_family_out(constraints.solve_family(g, kind)))
        return out, 0
    if kind == "cpti":
        if args.cutset:
            cutsets = [_parse_names(c) for c in args.cutset.split(";")]
        else:
            cutsets = graphmod.enumerate_cutsets(inference.to_digraph(g),
                                                 minimal_only=True)
            cutsets = [c for c in cutsets if not set(c) & g.initial_nodes]
        out.update(_family_out(constraints.cpt_i_via_cutsets(g, cutsets)))
        return out, 0
    cut = _cutset(args, g)
    if kind == "mc":
        mc = chainmod.cutset_mc(g, cut)
        status = UNIQUE if len(mc.bsccs) == 1 else INFINITE
        extended = mc.extend(mc.bscc_lrfs)
        out.update(_family_out(SemanticsFamily("mc", status, extended)))
        out["cutset"] = list(cut)
        return out, 0
    # the start has 2**|cut| entries: refuse an oversized cutset first
    chainmod._check_cutset_size(cut)
    gamma0 = _parse_gamma0(args.gamma0, cut)
    mc = chainmod.cutset_mc(g, cut)
    if kind == "lim":
        status = chainmod.lim(mc, gamma0)
        out["cutset"] = list(cut)
        if not status.defined:
            out.update(status="undefined",
                       offending_periods=list(status.offending_periods))
            return out, 0
        out.update(status=UNIQUE, distributions=[_vector_out(status.distribution)])
        return out, 0
    if kind == "limavg":
        # the limit average is the extended long-run frequency
        out.update(status=UNIQUE, cutset=list(cut),
                   distributions=[_vector_out(chainmod.mcs(mc, gamma0))])
        return out, 0
    raise ValueError(f"unknown semantics kind: {kind}")


def _cmd_classify(args) -> tuple[dict, int]:
    g = _load(args.file)
    cut = _cutset(args, g)
    mc = chainmod.cutset_mc(g, cut)
    aperiodic = all(p == 1 for p in mc.periods)
    return {"command": "classify", "cutset": list(cut),
            "cardinality": "1" if len(mc.bsccs) == 1 else "infinite",
            "smooth": chainmod.is_smooth(g),
            "num_bsccs": len(mc.bsccs),
            "periods": list(mc.periods),
            "lim_defined": "always" if aperiodic else "stationary-only"}, 0


def _cmd_oracle_iterate(args) -> tuple[dict, int]:
    from . import oracle      # the brute-force references load on first use
    g = _load(args.file)
    cut = _cutset(args, g)
    gamma0 = _parse_gamma0(args.gamma0, cut)
    trace = oracle.iterate_next(g, cut, gamma0, args.steps)
    return {"command": "oracle-iterate", "cutset": list(cut),
            "assignment_order": _bit_keys(cut),
            "steps": [_Table(*scaled(vec)) for vec in trace.steps],
            "cesaro": [_Table(*scaled(vec)) for vec in trace.cesaro]}, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclebn",
        description="Exact semantics for Bayesian networks with cycles.")
    parser.add_argument("--format", choices=("pretty", "machine"),
                        default="pretty")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("dsep", help="d-separation query")
    p.add_argument("file")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--given", default="")
    p.set_defaults(func=_cmd_dsep)

    p = sub.add_parser("cutsets", help="enumerate cutsets")
    p.add_argument("file")
    p.add_argument("--minimal", action="store_true")
    p.set_defaults(func=_cmd_cutsets)

    p = sub.add_parser("chain", help="cutset Markov chain analysis")
    p.add_argument("file")
    p.add_argument("--cutset", required=True)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("semantics", help="compute a semantics family")
    p.add_argument("file")
    p.add_argument("--kind", required=True,
                   choices=("bn", "cpt", "wcpt", "cpti", "mc", "lim", "limavg"))
    p.add_argument("--cutset", default="")
    p.add_argument("--gamma0", default="uniform",
                   help="uniform | dirac:BITS | path to a JSON table")
    p.set_defaults(func=_cmd_semantics)

    p = sub.add_parser("classify", help="cardinality and limit summary")
    p.add_argument("file")
    p.add_argument("--cutset", default="")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("oracle", help="brute-force oracles")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = osub.add_parser("iterate", help="exact unfolding iteration")
    q.add_argument("file")
    q.add_argument("--cutset", default="")
    q.add_argument("--gamma0", default="uniform")
    q.add_argument("--steps", type=int, required=True)
    q.set_defaults(func=_cmd_oracle_iterate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call (not at import)
    and reused: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        result, code = args.func(args)
    except DocumentError as e:
        for v in e.violations:
            print(f"error: {v.kind} [{v.node}]: {v.message}", file=sys.stderr)
        return EXIT_INVALID
    except CapacityError as e:
        print(f"error: capacity: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    # Exact answers may have integers of any length; Python's cap on
    # int-to-str conversion (3.10.7+) stays on for parsing the input only.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        _emit(result, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early; keep the flush at exit from failing again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
