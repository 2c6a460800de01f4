"""Command-line front end.

Text output is line-oriented; --format json emits a stable document
{"schema_version", "command", "result"}.  Computed counts (dimensions,
multiplicities, orbit and group sizes) are serialized as decimal strings so
no consumer can lose precision; coordinate vectors, node labels and grading
levels stay plain integers.

Each verb's handler is a pure function of the namespace and of what run
resolves from it: the root system of the type positional (for automorphisms,
the Dynkin type alone), then each weight positional in order, so a bad type
is reported before a bad weight and the first bad weight before the second.
A --node is range-checked against the type, and the weights parsed, before
the root system is built, so a bad argument costs no root closure.
A handler returns the JSON payload and the text lines, table2 also its exit
status, and run emits them once.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

from . import deletion as del_mod
from . import induction as ind_mod
from . import rep_theory as rep
from . import tensor_ops as tens
from .errors import LieInductError
from .root_system import (
    DynkinType,
    RootSystem,
    build_root_system,
    coxeter_number,
    diagram_automorphisms,
    parse_dynkin,
)

if TYPE_CHECKING:
    import argparse

SCHEMA_VERSION = "1"

# Lines of text output per stdout write: a few write calls for the longest
# output, and no copy of the whole text.
_WRITE_LINES = 128

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def parse_weight(text: str, rank: int) -> tuple[int, ...]:
    """Weight syntax: w3, w0, 2w1, or [a,b,...]."""
    text = text.strip()
    m = re.fullmatch(r"(\d*)[wW](\d+)", text)
    if m:
        scale = int(m.group(1)) if m.group(1) else 1
        idx = int(m.group(2))
        if idx > rank:
            raise UsageError(f"w{idx} does not exist at rank {rank}")
        out = [0] * rank
        if idx:
            out[idx - 1] = scale
        return tuple(out)
    m = re.fullmatch(r"\[\s*((?:-?\d+\s*,\s*)*-?\d+)?\s*\]", text)
    if m:
        coords = [int(x) for x in m.group(1).split(",")] if m.group(1) else []
        if len(coords) != rank:
            raise UsageError(f"weight {text} has {len(coords)} coordinates, need {rank}")
        return tuple(coords)
    raise UsageError(f"cannot parse weight {text!r}; use w3, 2w1, w0 or [a,b,...]")


def parse_iota(text: str, rs: RootSystem, node: int):
    """Embedding syntax: residual:ambient pairs '1:3,2:4', or 'table2'.
    run has range-checked the node, so a bad one is a domain error before
    the summary table is consulted, as it is without an embedding."""
    if text == "table2":
        for row in del_mod.summary_rows():
            if row["ambient"] == rs.type and row["node"] == node:
                return row["iota"]
        raise UsageError(f"no summary-table row for {rs.type} at node {node}")
    pairs = {}
    for part in text.split(","):
        m = re.fullmatch(r"\s*(\d+)\s*:\s*(\d+)\s*", part)
        if not m:
            raise UsageError(f"bad embedding component {part!r}; use i:j pairs")
        label = int(m.group(1))
        if label in pairs:
            raise UsageError(f"residual label {label} is given twice")
        pairs[label] = int(m.group(2))
    return pairs


def weight_label(w: Sequence[int]) -> str:
    nz = [(i + 1, x) for i, x in enumerate(w) if x]
    if not nz:
        return "w0"
    if len(nz) == 1:
        i, x = nz[0]
        return f"w{i}" if x == 1 else f"{x}w{i}"
    return "[" + ",".join(str(x) for x in w) + "]"


def _emit(ns, payload: dict, text_lines: list[str]) -> None:
    if ns.format == "json":
        import json  # text output, the default, never needs it

        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": {"verb": ns.verb, "args": ns.echo},
            "result": payload,
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        # in batches, not in one write: a write that a closing pipe cuts
        # short returns without an error, and only the next write meets the
        # closed pipe
        for i in range(0, len(text_lines), _WRITE_LINES):
            sys.stdout.write("\n".join(text_lines[i:i + _WRITE_LINES]) + "\n")


# -- verb handlers: (ns, *resolved) -> (payload, lines) -----------------------


def _cmd_roots(ns, rs: RootSystem):
    pos = [list(r) for r in rs.positive_roots]
    payload = {
        "type": str(rs.type),
        "rank": rs.rank,
        "num_roots": str(rs.num_roots),
        "dimension": str(rs.dimension),
        "coxeter_number": str(coxeter_number(rs)),
        "positive_roots": pos,
    }
    lines = [f"{rs.type}: {rs.num_roots} roots, dim {rs.dimension}, h = {coxeter_number(rs)}"]
    lines += ["(" + ",".join(str(x) for x in r) + ")" for r in rs.positive_roots]
    return payload, lines


def _cmd_highest_root(ns, rs: RootSystem):
    height = sum(rs.highest_root)
    adjoint = rs.positive_weights[-1]
    payload = {
        "type": str(rs.type),
        "coordinates": list(rs.highest_root),
        "height": str(height),
        "adjoint_weight": list(adjoint),
    }
    lines = [
        f"{rs.type} highest root ({','.join(str(x) for x in rs.highest_root)})",
        f"height {height}",
        f"adjoint weight {weight_label(adjoint)}",
    ]
    return payload, lines


def _cmd_automorphisms(ns, t: DynkinType):
    autos = diagram_automorphisms(t)
    payload = {
        "type": str(t),
        "order": str(len(autos)),
        "permutations": [list(p) for p in autos],
    }
    lines = [f"Aut({t}) has order {len(autos)}"]
    lines += [" ".join(str(x) for x in p) for p in autos]
    return payload, lines


def _cmd_dim(ns, rs: RootSystem, w):
    d = rep.weyl_dim(rs, w)
    return {"type": str(rs.type), "weight": list(w), "dimension": str(d)}, [str(d)]


def _cmd_character(ns, rs: RootSystem, w):
    ch = rep.freudenthal_character(rs, w)
    dim = rep.weyl_dim(rs, w)
    rows = [
        (wt, m, rep.orbit_size(rs, wt))
        for wt, m in sorted(ch.entries.items(), key=lambda kv: (-sum(kv[0]), kv[0]))
    ]
    payload = {
        "type": str(rs.type),
        "weight": list(w),
        "dimension": str(dim),
        "dominant_weights": [
            {"weight": list(wt), "multiplicity": str(m), "orbit_size": str(size)}
            for wt, m, size in rows
        ],
    }
    lines = [f"V({weight_label(w)}; {rs.type}) dim {dim}"]
    for wt, m, size in rows:
        lines.append(f"[{','.join(str(x) for x in wt)}] mult {m} orbit {size}")
    return payload, lines


def _cmd_orbit(ns, rs: RootSystem, w):
    orb = sorted(rep.weyl_orbit(rs, w))
    payload = {
        "type": str(rs.type),
        "weight": list(w),
        "size": str(len(orb)),
        "orbit": [list(v) for v in orb],
    }
    lines = [f"orbit size {len(orb)}"] + [
        "[" + ",".join(str(x) for x in v) + "]" for v in orb
    ]
    return payload, lines


def _cmd_defining(ns, rs: RootSystem):
    mods = rep.defining_modules(rs)
    payload = {
        "type": str(rs.type),
        "modules": [
            {"weight": list(md.highest_weight), "dimension": str(md.dimension)}
            for md in mods
        ],
    }
    lines = [f"{rs.type}: {len(mods)} defining modules"]
    lines += [f"{weight_label(md.highest_weight)} dim {md.dimension}" for md in mods]
    return payload, lines


def _decomposition(name: str, dec: tens.DecompositionResult):
    payload = {
        "source_dimension": str(dec.source_dimension),
        "summands": [
            {
                "weight": list(md.highest_weight),
                "dimension": str(md.dimension),
                "multiplicity": str(m),
            }
            for md, m in dec.summands
        ],
    }
    lines = [f"{name} (dim {dec.source_dimension})"]
    for md, m in dec.summands:
        mult = "" if m == 1 else f" x{m}"
        lines.append(f"V({weight_label(md.highest_weight)}) dim {md.dimension}{mult}")
    return payload, lines


def _cmd_tensor(ns, rs: RootSystem, w1, w2):
    dec = tens.tensor_decompose(rs, w1, w2)
    return _decomposition(f"V({weight_label(w1)}) (x) V({weight_label(w2)})", dec)


def _cmd_square(ns, rs: RootSystem, w):
    """wedge2 and sym2: tensor_ops.wedge2_decompose or sym2_decompose."""
    dec = getattr(tens, f"{ns.verb}_decompose")(rs, w)
    return _decomposition(f"{ns.verb.capitalize()} V({weight_label(w)})", dec)


def _cmd_delete(ns, rs: RootSystem):
    iota = parse_iota(ns.iota, rs, ns.node) if ns.iota else None
    d = del_mod.delete_node(rs, ns.node, iota)
    # only the requested format is built: the JSON lists every root
    if ns.format == "json":
        payload = {
            "ambient": str(d.ambient),
            "node": d.node,
            "residual": [str(t) for t in d.residual],
            "iota": list(d.iota),
            "m_d": d.m_d,
            "levels": [
                {
                    "level": c.level,
                    "weight": list(c.highest_weight),
                    "dimension": str(c.dimension),
                    "roots": [list(r) for r in c.roots],
                }
                for c in d.levels
            ],
            "zero_level": {
                "roots": str(d.zero_level.root_count),
                "dimension": str(d.zero_level.residual_dimension),
                "center": str(d.zero_level.center_dimension),
            },
        }
        return payload, []
    res = " + ".join(str(t) for t in d.residual) if d.residual else "(empty)"
    lines = [f"{d.ambient} minus node {d.node} -> {res}, m_d = {d.m_d}"]
    lines.append("iota: " + ",".join(f"{i+1}:{a}" for i, a in enumerate(d.iota)))
    for c in d.chain():
        lines.append(
            f"level {c.level}: {weight_label(c.highest_weight)} dim {c.dimension}"
        )
    lines.append(
        f"level 0: residual dim {d.zero_level.residual_dimension} + center 1"
    )
    return {}, lines


def _cmd_equivalences(ns, rs: RootSystem):
    iota = parse_iota(ns.iota, rs, ns.node) if ns.iota else None
    ec = del_mod.deletion_equivalences(rs.type, ns.node, iota)
    payload = {
        "ambient": str(ec.ambient),
        "residual": str(ec.residual),
        "size": str(ec.size),
        "aut_ambient": str(ec.aut_ambient_order),
        "aut_residual": str(ec.aut_residual_order),
        "stabilizer": str(ec.stabilizer_order),
        "members": [
            {"node": node, "iota": list(emb)} for node, emb in ec.members
        ],
    }
    lines = [
        f"{ec.ambient} -> {ec.residual}: class of {ec.size} "
        f"(|Aut g| = {ec.aut_ambient_order}, |Aut g0| = {ec.aut_residual_order}, "
        f"stabilizer {ec.stabilizer_order})"
    ]
    for node, emb in ec.members:
        lines.append(f"node {node}, iota " + ",".join(f"{i+1}:{a}" for i, a in enumerate(emb)))
    return payload, lines


def _cmd_table2(ns):
    """The payload, the lines and the exit status: 1 on a mismatch."""
    rows = del_mod.verify_table2()
    ok = all(r.ok for r in rows)
    payload = {
        "ok": ok,
        "rows": [
            {
                "name": r.name,
                "ok": r.ok,
                "m_d": r.m_d,
                "expected": [list(w) for w in r.expected],
                "got": [list(w) for w in r.got],
                "detail": r.detail,
            }
            for r in rows
        ],
    }
    lines = [f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}" for r in rows]
    lines.append(f"{'OK' if ok else 'MISMATCH'}: {len(rows)} rows")
    return payload, lines, EXIT_OK if ok else EXIT_DOMAIN


def _depth(ns) -> int:
    if ns.depth < 1:
        raise UsageError(f"depth must be at least 1, got {ns.depth}")
    return ns.depth


class _Memo(dict):
    """key -> make(key), each value made on its first lookup and shared."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _cmd_induct(ns, rs: RootSystem, w):
    depth = _depth(ns)
    states = ind_mod.induction_search(rs, w, max_depth=depth)
    # only the requested format is built: a deep search holds many chains
    if ns.format == "json":
        levels = _Memo(list)  # one list per distinct weight, shared by every chain
        payload = {
            "base": str(rs.type),
            "b1": list(w),
            "max_depth": depth,
            "chains": [
                {
                    "levels": [levels[x] for x in s.weights],
                    "terminated": s.terminated,
                    "dimension": str(s.dbos_dimension),
                }
                for s in states
            ],
        }
        return payload, []
    lines = [f"{len(states)} chains from V({weight_label(w)}; {rs.type}) to depth {depth}"]
    labels = _Memo(weight_label)
    # states come in pre-order, so heads[n - 1] holds the labels of the
    # chain's prefix, the latest chain of length n - 1, each with a space
    heads = [""]
    for s in states:
        n = len(s.chain)
        seq = heads[n - 1] + labels[s.chain[-1].highest_weight]
        heads[n:] = [seq + " "]
        tag = "terminated" if s.terminated else "open"
        lines.append(f"{seq} | {tag} | dim {s.dbos_dimension}")
    return {}, lines


def _cmd_report(ns):
    depth = _depth(ns)
    rep_doc = ind_mod.exceptional_report(ns.target, max_depth=depth)
    payload = {
        "target": rep_doc.name,
        "max_depth": rep_doc.max_depth,
        "consistent": rep_doc.consistent,
        "verdict": rep_doc.verdict,
        "common_dimensions": [str(d) for d in rep_doc.common_dims],
        "base_dimensions": {
            base: [str(d) for d in dims] for base, dims in rep_doc.base_dims
        },
        "routes": [
            {
                "base": str(r.base),
                "diagram": r.target,
                "deleted_node": r.target_node,
                "iota": list(r.iota),
                "required_b1": list(r.required_weight),
                "row_matches": r.row_matches,
                "b1_defining": r.b1_defining,
                "b1_dimension": str(r.b1_dimension),
                "dimensions": [str(d) for d in r.terminated_dims],
                "open_chains": r.non_terminated,
            }
            for r in rep_doc.routes
        ],
        "analysis": _jsonable(rep_doc.analysis),
    }
    lines = [f"{rep_doc.name}: consistent = {rep_doc.consistent}"]
    for r in rep_doc.routes:
        status = "defining" if r.b1_defining else "not defining"
        dims = ", ".join(str(d) for d in r.terminated_dims) or "-"
        lines.append(
            f"base {r.base} via {r.target} (delete node {r.target_node}): "
            f"b1 = {weight_label(r.required_weight)} ({status}); dims {dims}"
            + (f"; {r.non_terminated} open" if r.non_terminated else "")
        )
    lines.append(f"verdict: {rep_doc.verdict}")
    return payload, lines


def _jsonable(obj):
    if isinstance(obj, DynkinType):  # before tuple: a DynkinType is one
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj)
    return obj


# Argument specs, (flags, keyword arguments) for add_argument, in help order.
_TYPE = (("type",), {"help": "Dynkin type, e.g. E8"})
_WEIGHT_HELP = "weight: w3, 2w1, w0 or [a,b,...]"
_WEIGHT = (("weight",), {"help": _WEIGHT_HELP})
_FORMAT = (("--format",), {"choices": ["text", "json"], "default": "text"})
_NODE = (("--node",), {"type": int, "required": True})
_DEPTH = (("--depth",), {"type": int, "default": ind_mod.DEFAULT_MAX_DEPTH,
                         "help": "maximum chain depth (default %(default)s)"})

_TARGETS = ind_mod.EXCEPTIONAL_TARGETS

# verb -> (handler, help, arguments)
_VERBS = {
    "roots": (_cmd_roots, "list the positive roots", [_TYPE, _FORMAT]),
    "highest-root": (_cmd_highest_root, "highest root, height and adjoint weight",
                     [_TYPE, _FORMAT]),
    "automorphisms": (_cmd_automorphisms, "diagram automorphism group", [_TYPE, _FORMAT]),
    "dim": (_cmd_dim, "dimension of an irreducible module", [_TYPE, _WEIGHT, _FORMAT]),
    "character": (_cmd_character, "dominant weights with multiplicities",
                  [_TYPE, _WEIGHT, _FORMAT]),
    "orbit": (_cmd_orbit, "Weyl orbit of a weight", [_TYPE, _WEIGHT, _FORMAT]),
    "defining": (_cmd_defining, "defining modules of the algebra", [_TYPE, _FORMAT]),
    "tensor": (_cmd_tensor, "decompose a tensor product", [
        _TYPE, (("weight1",), {"help": _WEIGHT_HELP}),
        (("weight2",), {"help": "second weight"}), _FORMAT,
    ]),
    "wedge2": (_cmd_square, "decompose an exterior square", [_TYPE, _WEIGHT, _FORMAT]),
    "sym2": (_cmd_square, "decompose a symmetric square", [_TYPE, _WEIGHT, _FORMAT]),
    "delete": (_cmd_delete, "grade by a node and identify the levels", [
        _TYPE, _FORMAT, _NODE,
        (("--iota",), {"help": "embedding '1:3,2:4,...' or 'table2' (default canonical)"}),
    ]),
    "equivalences": (_cmd_equivalences, "deletions equivalent under diagram automorphisms", [
        _TYPE, _FORMAT, _NODE, (("--iota",), {"help": "embedding of the seed deletion"}),
    ]),
    "table2": (_cmd_table2, "verify the full deletion summary table", [_FORMAT]),
    "induct": (_cmd_induct, "search graded chains from a first-level module", [
        _TYPE, _WEIGHT, _FORMAT, _DEPTH,
    ]),
    "report": (_cmd_report, f"obstruction report for {ind_mod.target_names()}", [
        (("target",), {"choices": [*_TARGETS, *map(str.lower, _TARGETS)]}),
        _DEPTH, _FORMAT,
    ]),
}


def _build_parser(verbs: Sequence[str] = tuple(_VERBS)) -> argparse.ArgumentParser:
    """The argument parser with a subparser for each of the given verbs."""
    import argparse  # only help and usage errors need it: see _parse

    p = argparse.ArgumentParser(
        prog="lie-induct",
        description="Exact root-system, deletion and Lie-induction calculations",
    )
    sub = p.add_subparsers(dest="verb", required=True)
    for verb in verbs:
        _, help_text, arguments = _VERBS[verb]
        sp = sub.add_parser(verb, help=help_text)
        for flags, kwargs in arguments:
            sp.add_argument(*flags, **kwargs)
    return p


def _parse(args: Sequence[str]) -> SimpleNamespace | None:
    """The namespace _build_parser() gives for a canonical command line, or
    None for any other.

    Canonical: a verb, then exactly its positionals and its long options in
    any order.  Each option is given once, spelled in full and followed by a
    value that does not start with '-'; every required option is present;
    every value converts with its spec's type and lies in its choices.  Help,
    '--format=json', abbreviations, '--', values such as '-1' and repeated
    or unknown arguments are not canonical: run hands them to argparse,
    which alone prints help and reports usage errors.
    """
    if not args or args[0] not in _VERBS:
        return None
    verb, *rest = args
    specs = _VERBS[verb][2]
    options = {flags[0] for flags, _ in specs if flags[0].startswith("--")}
    given = {}  # the text of each argument, by its first flag
    positionals = []
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        value = next(tokens, "-")
        if token not in options or token in given or value.startswith("-"):
            return None
        given[token] = value
    names = [flags[0] for flags, _ in specs if flags[0] not in options]
    if len(positionals) != len(names):
        return None
    given.update(zip(names, positionals))
    ns = SimpleNamespace(verb=verb)
    for flags, kwargs in specs:
        flag = flags[0]
        if flag in given:
            value = given[flag]
            if "type" in kwargs:
                try:
                    value = kwargs["type"](value)
                except ValueError:
                    return None
            if "choices" in kwargs and value not in kwargs["choices"]:
                return None
        elif kwargs.get("required"):
            return None
        else:
            value = kwargs.get("default")
        setattr(ns, flag[2:].replace("-", "_") if flag in options else flag, value)
    return ns


def run(argv: Sequence[str] | None = None) -> int:
    args = list(argv) if argv is not None else sys.argv[1:]
    ns = _parse(args)
    if ns is None:
        # What _parse defers goes to the invoked verb's subparser alone.
        # Anything else (no verb, --help, an unknown verb) and leftover
        # arguments go to the parser with every verb, whose usage line
        # lists them all.
        verbs = args[:1] if args and args[0] in _VERBS else tuple(_VERBS)
        try:
            ns, extras = _build_parser(verbs).parse_known_args(args)
            if extras:
                _build_parser().parse_args(args)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    ns.echo = args
    handler, _, specs = _VERBS[ns.verb]
    try:
        resolved = []
        if "type" in vars(ns):
            t = parse_dynkin(ns.type)
            if "node" in vars(ns):
                del_mod.check_node(t, ns.node)
            weights = [parse_weight(getattr(ns, flags[0]), t.rank)
                       for flags, _ in specs if flags[0].startswith("weight")]
            # the node and the weights are checked first, and automorphisms
            # reads the diagram alone: a root system costs up to 12 ms (A32)
            resolved = [t if handler is _cmd_automorphisms else build_root_system(t), *weights]
        payload, lines, *status = handler(ns, *resolved)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LieInductError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    _emit(ns, payload, lines)
    return status[0] if status else EXIT_OK


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (e.g. `| head`).  Point stdout at
        # devnull so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_DOMAIN)
    sys.exit(code)


if __name__ == "__main__":
    main()
