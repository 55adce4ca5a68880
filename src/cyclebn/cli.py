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

Exit codes: 1 invalid input, 2 capacity exceeded, 3 result unsupported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import chain as chainmod
from . import constraints, graph as graphmod, inference, oracle
from .families import UNIQUE, UNSUPPORTED, SemanticsFamily
from .model import (CapacityError, Cpt, Gbn, JointDistribution, Violation,
                    format_rational, parse_rational)

EXIT_INVALID = 1
EXIT_CAPACITY = 2
EXIT_UNSUPPORTED = 3


class DocumentError(Exception):
    """The document does not describe a valid network."""

    def __init__(self, violations: list[Violation]):
        super().__init__("; ".join(v.message for v in violations))
        self.violations = violations


def _bits(index: int, width: int) -> str:
    return format(index, f"0{width}b") if width else ""


def _bit_keys(variables) -> list[str]:
    n = len(tuple(variables))
    return [_bits(i, n) for i in range(1 << n)]


def _vector_from_keys(mapping, variables, what: str) -> tuple[Fraction, ...]:
    """Read a bitstring-keyed table into canonical index order."""
    n = len(variables)
    vec = [None] * (1 << n)
    for key, text in mapping.items():
        if not isinstance(key, str) or len(key) != n or set(key) - {"0", "1"}:
            raise ValueError(f"{what}: bad assignment key {key!r}")
        idx = int(key, 2) if n else 0
        if vec[idx] is not None:
            raise ValueError(f"{what}: duplicate key {key!r}")
        vec[idx] = parse_rational(text)
    missing = [_bits(i, n) for i, v in enumerate(vec) if v is None]
    if missing:
        raise ValueError(f"{what}: missing keys {missing}")
    return tuple(vec)


def _strings(value, what: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{what} must be a list of strings")
    return tuple(value)


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object")
    return value


def parse_document(text: str) -> Gbn:
    """Parse a JSON network document; raises DocumentError on problems."""
    problems: list[Violation] = []
    try:
        doc = _object(json.loads(text), "document")
        nodes = _strings(doc.get("variables", []), "variables")
        edges = doc.get("edges", [])
        if not isinstance(edges, list) or any(
                len(_strings(e, "each edge")) != 2 for e in edges):
            raise ValueError("each edge must be a [from, to] pair")
        edges = frozenset(map(tuple, edges))
        cpt_entries = _object(doc.get("cpts", {}), "cpts")
        iota_table = _object(doc.get("iota", {"": "1"}), "iota")
    except json.JSONDecodeError as e:
        raise DocumentError([Violation("ParseError", "", f"not valid JSON: {e}")])
    except ValueError as e:
        raise DocumentError([Violation("ParseError", "", str(e))])
    cpts = {}
    for name, entry in cpt_entries.items():
        what = f"cpt of {name}"
        try:
            entry = _object(entry, what)
            parents = tuple(sorted(_strings(entry.get("parents"), f"{what}: parents")))
            rows = _object(entry.get("rows"), f"{what}: rows")
            cpts[name] = Cpt(name, parents, _vector_from_keys(rows, parents, what))
        except ValueError as e:
            problems.append(Violation("ParseError", name, str(e)))
    targets = {v for (_, v) in edges}
    init = tuple(sorted(set(nodes) - targets))
    iota = None
    try:
        vec = _vector_from_keys(iota_table, init, "iota")
        total = sum(vec)
        if total != 1:
            problems.append(Violation(
                "NotNormalized", ",".join(init),
                f"iota sums to {format_rational(total)}, not 1"))
        elif any(p < 0 or p > 1 for p in vec):
            problems.append(Violation("OutOfRange", ",".join(init),
                                      "iota entry outside [0, 1]"))
        else:
            iota = JointDistribution(init, vec)
    except (TypeError, ValueError) as e:
        problems.append(Violation("ParseError", "iota", str(e)))
    if problems:
        raise DocumentError(problems)
    g = Gbn(nodes, edges, cpts, iota)
    violations = g.validate()
    if violations:
        raise DocumentError(violations)
    return g


def serialize_document(g: Gbn) -> str:
    """Inverse of :func:`parse_document` up to JSON formatting."""
    doc = {
        "variables": list(g.nodes),
        "edges": sorted([u, v] for (u, v) in g.edges),
        "cpts": {
            x: {"parents": list(cpt.parents),
                "rows": {key: format_rational(r)
                         for key, r in zip(_bit_keys(cpt.parents), cpt.rows)}}
            for x, cpt in sorted(g.cpts.items())
        },
        "iota": {key: format_rational(p)
                 for key, p in zip(_bit_keys(g.iota.variables), g.iota.probs)},
    }
    return json.dumps(doc, indent=2)


def _load(path: str) -> Gbn:
    with open(path, encoding="utf-8") as fh:
        return parse_document(fh.read())


def _vector_out(variables, probs) -> dict:
    return {"variables": list(variables),
            "assignment_order": _bit_keys(variables),
            "probs": [format_rational(p) for p in probs]}


def _parse_names(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _parse_gamma0(source: str, cut) -> JointDistribution:
    cut = tuple(sorted(cut))
    if source == "uniform":
        return JointDistribution.uniform(cut)
    if source.startswith("dirac:"):
        bits = source[len("dirac:"):]
        if len(bits) != len(cut) or set(bits) - {"0", "1"}:
            raise ValueError(
                f"dirac assignment needs {len(cut)} bits over {list(cut)}")
        probs = [Fraction(0)] * (1 << len(cut))
        probs[int(bits, 2) if cut else 0] = Fraction(1)
        return JointDistribution(cut, tuple(probs))
    with open(source, encoding="utf-8") as fh:
        table = _object(json.load(fh), "gamma0")
    return JointDistribution(cut, _vector_from_keys(table, cut, "gamma0"))


def _default_cutset(g: Gbn) -> tuple[str, ...]:
    return tuple(sorted(set(g.nodes) - g.initial_nodes))


def _emit(result: dict, fmt: str) -> None:
    if fmt == "machine":
        json.dump(result, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    _pretty(result, indent=0)


def _pretty(value, indent: int, label: str | None = None) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if label is not None:
            print(f"{pad}{label}:")
        for k, v in value.items():
            _pretty(v, indent + (label is not None), k)
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        if label is not None:
            print(f"{pad}{label}:")
        for v in value:
            _pretty(v, indent + 1)
    else:
        text = " ".join(map(str, value)) if isinstance(value, list) else value
        if label is None:
            print(f"{pad}{text}")
        else:
            print(f"{pad}{label}: {text}")


def _family_out(fam: SemanticsFamily) -> dict:
    out = {"kind": fam.kind, "status": fam.status}
    if fam.distributions:
        out["distributions"] = [_vector_out(d.variables, d.probs)
                                for d in fam.distributions]
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
            "cutsets": [list(c) for c in cuts]}, 0


def _chain_out(mc: chainmod.CutsetChain) -> dict:
    return {
        "cutset": list(mc.cutset),
        "assignment_order": _bit_keys(mc.cutset),
        "matrix": [[format_rational(p) for p in row] for row in mc.matrix],
        "bsccs": [sorted(_bits(s, len(mc.cutset)) for s in comp)
                  for comp in mc.bsccs],
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
        dg = inference.to_digraph(g)
        if not graphmod.is_acyclic(dg):
            out.update(status="empty", notes="cyclic graph")
            return out, 0
        mu = inference.chain_rule_dist(g)
        out.update(status=UNIQUE,
                   distributions=[_vector_out(mu.variables, mu.probs)])
        return out, 0
    if kind in ("cpt", "wcpt"):
        fam = constraints.solve_family(g, kind)
        out.update(_family_out(fam))
        return out, 0
    if kind == "cpti":
        if args.cutset:
            cutsets = [_parse_names(c) for c in args.cutset.split(";")]
        elif graphmod.is_acyclic(inference.to_digraph(g)):
            cutsets = [()]
        else:
            cutsets = graphmod.enumerate_cutsets(inference.to_digraph(g),
                                                 minimal_only=True)
            cutsets = [c for c in cutsets if not set(c) & g.initial_nodes]
        fam = constraints.cpt_i_via_cutsets(g, cutsets)
        out.update(_family_out(fam))
        return out, EXIT_UNSUPPORTED if fam.status == UNSUPPORTED else 0
    cut = _parse_names(args.cutset) if args.cutset else _default_cutset(g)
    gamma0 = _parse_gamma0(args.gamma0, cut)
    if kind == "mc":
        mc = chainmod.cutset_mc(g, cut)
        fam = chainmod.stationary_set(mc)
        # cutset_mc has checked the network and the cutset
        extended = tuple(chainmod._extend(g, mc.cutset, d.probs)
                         for d in fam.distributions)
        out.update(_family_out(SemanticsFamily(fam.kind, fam.status, extended)))
        out["cutset"] = list(cut)
        return out, 0
    if kind == "lim":
        status = chainmod.lim(g, cut, gamma0)
        out["cutset"] = list(cut)
        if not status.defined:
            out.update(status="undefined",
                       offending_periods=list(status.offending_periods))
            return out, 0
        d = status.distribution
        out.update(status=UNIQUE, distributions=[_vector_out(d.variables, d.probs)])
        return out, 0
    if kind == "limavg":
        d = chainmod.lim_avg(g, cut, gamma0)
        out.update(status=UNIQUE, cutset=list(cut),
                   distributions=[_vector_out(d.variables, d.probs)])
        return out, 0
    raise ValueError(f"unknown semantics kind: {kind}")


def _cmd_classify(args) -> tuple[dict, int]:
    g = _load(args.file)
    cut = _parse_names(args.cutset) if args.cutset else _default_cutset(g)
    mc = chainmod.cutset_mc(g, cut)
    aperiodic = all(p == 1 for p in mc.periods)
    return {"command": "classify", "cutset": list(cut),
            "cardinality": "1" if len(mc.bsccs) == 1 else "infinite",
            "smooth": chainmod.is_smooth(g),
            "num_bsccs": len(mc.bsccs),
            "periods": list(mc.periods),
            "lim_defined": "always" if aperiodic else "stationary-only"}, 0


def _cmd_oracle_iterate(args) -> tuple[dict, int]:
    g = _load(args.file)
    cut = _parse_names(args.cutset) if args.cutset else _default_cutset(g)
    gamma0 = _parse_gamma0(args.gamma0, cut)
    trace = oracle.iterate_next(g, cut, gamma0, args.steps)
    return {"command": "oracle-iterate", "cutset": list(cut),
            "assignment_order": _bit_keys(cut),
            "steps": [[format_rational(p) for p in vec] for vec in trace.steps],
            "cesaro": [[format_rational(p) for p in vec]
                       for vec in trace.cesaro]}, 0


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result, code = args.func(args)
    except DocumentError as e:
        for v in e.violations:
            print(f"error: {v.kind} [{v.node}]: {v.message}", file=sys.stderr)
        return EXIT_INVALID
    except CapacityError as e:
        print(f"error: capacity: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except chainmod.NotACutsetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    try:
        _emit(result, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early; keep the flush at exit from failing again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
