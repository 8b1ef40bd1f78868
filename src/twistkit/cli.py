"""Command-line front end.

Thirteen subcommands expose the toolkit: h2, h1, extend, classify, twist,
fibers, crossed, imprimitivity, stabilize, hirsch, bound, verdict, witness.
Each prints one canonical JSON document to stdout (sorted keys, compact
separators, trailing newline) and human-readable derivation notes to
stderr.  Exit codes: 0 success, 1 domain error (bad input, a failed check
or a resource cap; one "error:" line on stderr), 2 usage error, 3 internal
error (an unexpected exception, reported as one "internal error:" line
without a traceback).

Groups are addressed as builtin names with optional parameters (klein,
cyclic:12, dihedral:4) or as @path to a JSON document; cocycles as trivial,
paper-klein, or @path; subgroups as 'center', a comma list of element
indices, or gen:i,j.  Descriptors take shorthand (Z, Z^2, finite:5,
trivial, Zinv:2), inline JSON, or @path.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import accumulate

from . import bounds as bnd
from . import descriptors as dsc
from .cocycles import Cocycle2, builtin_cocycle, cocycle_from_json, trivial_cocycle
from .errors import TwistkitError
from .extensions import check_classify_cap, classify_extension, extension_report, sample_extension
from .groups import (
    FiniteGroup,
    Subgroup,
    builtin_order,
    center,
    generated_subgroup,
    group_from_json,
    resolve_group_string,
    subgroup_as_group,
)
from .homology import check_bar_cap, h1, h2
from .staralg import (
    block_profile,
    check_crossed_cap,
    check_twist_cap,
    crossed_product,
    scalar_system,
    system_from_normal,
    twisted_group_algebra,
    verify_imprimitivity,
    verify_stabilization,
)
from .witness import ORACLES, finite_subset_witness, verify_witness


def _dumps(doc) -> str:
    # numpy scalars print as the Python scalars their .item() gives
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=lambda x: x.item()) + "\n"


# json.loads still recurses in C, one level of the interpreter's recursion
# limit per nesting level, so a document is refused above this depth before
# it is parsed; the descriptor walks themselves do not recurse
_JSON_DEPTH_CAP = 490
_JSON_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')


def _parse_json(text: str):
    """json.loads behind a nesting-depth check made on the text itself, so a
    deep document is a domain error before any recursive work starts."""
    brackets = re.findall(r"[\[\]{}]", _JSON_STRING.sub("", text))
    depth = max(accumulate(1 if b in "[{" else -1 for b in brackets), default=0)
    if depth > _JSON_DEPTH_CAP:
        raise ValueError(f"JSON nested {depth} levels deep; the limit is {_JSON_DEPTH_CAP}")
    return json.loads(text)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return _parse_json(fh.read())


def load_group(spec: str) -> FiniteGroup:
    if spec.startswith("@"):
        return group_from_json(_read_json(spec[1:]))
    return resolve_group_string(spec)


def load_cocycle(spec: str, G: FiniteGroup) -> Cocycle2:
    if spec.startswith("@"):
        return cocycle_from_json(_read_json(spec[1:]), group=G)
    return builtin_cocycle(spec, G)


def load_subgroup(spec: str, G: FiniteGroup) -> Subgroup:
    if spec == "center":
        return center(G)
    if spec.startswith("gen:"):
        gens = [int(x) for x in spec[4:].split(",") if x]
        if not gens:
            raise ValueError("gen: needs at least one element index")
        return generated_subgroup(G, gens)
    members = {int(x) for x in spec.split(",") if x}
    return Subgroup(G, tuple(sorted(members | {0})))


def load_descriptor(spec: str) -> dsc.GroupDescriptor:
    if spec.startswith("@"):
        return dsc.descriptor_from_json(_read_json(spec[1:]))
    if spec.startswith("{"):
        return dsc.descriptor_from_json(_parse_json(spec))
    if spec == "Z":
        return dsc.FreeAbelian(1)
    if spec.startswith("Z^"):
        return dsc.FreeAbelian(int(spec[2:]))
    if spec == "trivial":
        return dsc.Finite(1)
    if spec.startswith("finite:"):
        return dsc.Finite(int(spec.split(":", 1)[1]))
    if spec.startswith("Zinv:"):
        return dsc.Zinv(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown descriptor shorthand {spec!r}")


# ---------------------------------------------------------------------------
# handlers: each returns (json document, stderr note lines)


def _cmd_h2(args):
    check_bar_cap(builtin_order(args.group) or 0)  # a builtin's order, before its table
    G = load_group(args.group)
    inv = h2(G)
    return {"h2": inv.to_json()}, [f"group {G.name} of order {G.order}: H2 = {inv}"]


def _cmd_h1(args):
    check_bar_cap(builtin_order(args.group) or 0)  # a builtin's order, before its table
    G = load_group(args.group)
    inv = h1(G)
    return {"h1": inv.to_json()}, [f"group {G.name} of order {G.order}: H1 = {inv}"]


def _cmd_extend(args):
    check_bar_cap(builtin_order(args.group) or 0)  # a builtin's order, before its table
    G = load_group(args.group)
    ext = sample_extension(G, seed=args.seed)
    doc = {
        "base": G.name,
        "h2": ext.h2.to_json(),
        "order": ext.total.order,
        "abelian": ext.total.is_abelian(),
        "offset": list(ext.offset),
    }
    notes = [
        f"extension of {G.name} (order {G.order}) by H2 of order {ext.h2.order()}",
        f"identity offset {ext.offset}, splitting seed {args.seed}",
    ]
    return doc, notes


def _cmd_classify(args):
    check_bar_cap(builtin_order(args.group) or 0)  # a builtin's order, before its table
    G = load_group(args.group)
    check_classify_cap(h2(G).order() * G.order)  # before the exact extension work
    ext = sample_extension(G, seed=args.seed)
    cls = classify_extension(ext)
    doc = {"class": cls.label, "order4_lifts": list(cls.order4_lifts)}
    return doc, [f"total group of order {ext.total.order} -> {cls.label}"]


def _cmd_twist(args):
    check_twist_cap(builtin_order(args.group) or 0)  # a builtin's order, before its table
    G = load_group(args.group)
    check_twist_cap(G.order)  # before the cocycle is built
    omega = load_cocycle(args.cocycle, G)
    A = twisted_group_algebra(G, omega)
    notes = [f"twisted group algebra over {G.name}, cocycle {args.cocycle}"]
    if args.blocks:
        prof = block_profile(A, seed=args.seed)
        return {"blocks": list(prof.blocks)}, notes
    return {"dim": A.dim}, notes


def _cmd_fibers(args):
    check_bar_cap(builtin_order(args.group) or 0)  # a builtin's order, before its table
    G = load_group(args.group)
    ext = sample_extension(G, seed=args.seed)
    rep = extension_report(ext, seed=args.seed)
    return rep, [f"{len(rep['fibers'])} character fibers over H2 of {G.name}"]


def _cmd_crossed(args):
    check_crossed_cap(builtin_order(args.group) or 0)  # a builtin's order, before its table
    G = load_group(args.group)
    check_crossed_cap(G.order)  # before any cocycle or system is built
    N = load_subgroup(args.normal, G)
    sigma = load_cocycle(args.cocycle, G) if args.cocycle else None
    sys_ = system_from_normal(G, N, sigma)
    big = crossed_product(sys_)
    prof = block_profile(big, seed=args.seed)
    doc = {"blocks": list(prof.blocks), "dim": big.dim}
    notes = [
        f"crossed product: fiber over subgroup of order {N.order}, "
        f"quotient of order {G.order // N.order}"
    ]
    return doc, notes


def _cmd_imprimitivity(args):
    check_crossed_cap(builtin_order(args.group) or 0)  # [G:H] |G| >= |G|, before any table
    G = load_group(args.group)
    S = load_subgroup(args.subgroup, G)
    check_crossed_cap(G.order // S.order * G.order)  # the induced crossed product
    Hgrp, _ = subgroup_as_group(S)
    omega = load_cocycle(args.cocycle, Hgrp) if args.cocycle else trivial_cocycle(Hgrp)
    sys_ = scalar_system(Hgrp, omega)
    rep = verify_imprimitivity(sys_.algebra, S, sys_, seed=args.seed)
    return rep, [f"induced from a subgroup of index {rep['index']}"]


def _cmd_stabilize(args):
    check_crossed_cap((builtin_order(args.group) or 0) ** 3)  # before any table
    G = load_group(args.group)
    check_crossed_cap(G.order**3)  # the crossed product of the stabilized system
    omega = load_cocycle(args.cocycle, G) if args.cocycle else trivial_cocycle(G)
    sys_ = scalar_system(G, omega)
    rep = verify_stabilization(sys_, seed=args.seed)
    return rep, [f"stabilized over {G.name}; deviation {rep['sigma_deviation']:.2e}"]


def _cmd_hirsch(args):
    d = load_descriptor(args.descriptor)
    h = dsc.hirsch_length(d)
    card = dsc.cardinality(d)
    doc = {
        "hirsch": "infinite" if h == dsc.INF else int(h),
        "cardinality": None if card is None else ("infinite" if card == dsc.INF else int(card)),
        "flags": dsc.flags(d).to_json(),
    }
    return doc, dsc.derivation_lines(d)


# every printed bound stays within dsc.PRINT_DIGITS decimal digits:
# f(92) has 4226 decimal digits; f(93) has more than 4300
_F_ARG_CAP = 92
# 3^9012 has 4300 digits (9012 log10 3 = 4299.8); 3^9013 has 4301
_NILPOTENT_K_CAP = 9012
# 2 * 9^4505 has 4300 digits (log10 2 + 4505 log10 9 = 4299.2); 2 * 9^4506 has 4301
_WREATH_K_CAP = 4505


def _check_argument(name: str, n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"{name} is printed for n <= {cap} only, got n = {n}")


def _check_printable(value: int) -> int:
    if abs(value) >= dsc.PRINT_BOUND:
        raise ValueError(f"the bound has more than {dsc.PRINT_DIGITS} decimal digits")
    return value


def _cmd_bound(args):
    chosen = [
        args.f is not None,
        args.twisted is not None,
        args.hw is not None,
        args.nilpotent is not None,
        args.wreath_finite_k is not None,
    ]
    if sum(chosen) != 1:
        raise ValueError("pick exactly one of --f, --twisted, --hw, --nilpotent, --wreath-finite-k")
    if args.f is not None:
        n = args.f
        _check_argument("f(n)", n, _F_ARG_CAP)
        val = bnd.f_bound(n)
        return val, [f"f({n}) by recursion; closed form agrees: {bnd.f_closed_form(n) == val}"]
    if args.twisted is not None:
        hg, hh2 = args.twisted
        _check_argument("f(n)", hg + hh2, _F_ARG_CAP)
        return bnd.twisted_bound(hg, hh2), [f"f({hg} + {hh2})"]
    if args.hw is not None:
        a, l, d = args.hw
        return _check_printable(bnd.hw_product_bound(a, l, d)), [f"{a} * {l} * ({d}+1) - 1"]
    if args.nilpotent is not None:
        k, dimx = args.nilpotent
        _check_argument("3^n", k, _NILPOTENT_K_CAP)
        pair = bnd.nilpotent_input_bounds(k, dimx)
        return [_check_printable(v) for v in pair], [f"(3^{k}, 3^{k} * ({dimx}+1))"]
    k = args.wreath_finite_k
    _check_argument("2 * 9^n", k, _WREATH_K_CAP)
    return bnd.wreath_bound_finite_K(k), [f"2 * 9^{k}"]


def _cmd_verdict(args):
    K = load_descriptor(args.base)
    H = load_descriptor(args.top)
    if args.which == "dimnuc":
        v = dsc.wreath_dimnuc_verdict(K, H)
    else:
        v = dsc.wreath_dr_verdict(K, H)
    notes = [
        f"base flags: {dsc.flags(K).to_json()}",
        f"top flags: {dsc.flags(H).to_json()}",
    ]
    return {"verdict": v}, notes


def _cmd_witness(args):
    oracle = ORACLES[args.group]
    w = finite_subset_witness(oracle, args.n)
    rep = verify_witness(oracle, w, args.radius)
    notes = [f"{w.case} construction, {rep['checked']} translates checked"]
    return rep, notes


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="twistkit", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, helptext):
        sp = sub.add_parser(name, help=helptext)
        sp.set_defaults(handler=handler)
        sp.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
        return sp

    sp = add("h2", _cmd_h2, "second homology of a finite group")
    sp.add_argument("--group", required=True)

    sp = add("h1", _cmd_h1, "first homology (abelianization invariants)")
    sp.add_argument("--group", required=True)

    sp = add("extend", _cmd_extend, "build the central extension for a splitting")
    sp.add_argument("--group", required=True)

    sp = add("classify", _cmd_classify, "isomorphism label of the extension group")
    sp.add_argument("--group", required=True)

    sp = add("twist", _cmd_twist, "twisted group algebra for a cocycle")
    sp.add_argument("--group", required=True)
    sp.add_argument("--cocycle", required=True)
    sp.add_argument("--blocks", action="store_true", help="print the block profile")

    sp = add("fibers", _cmd_fibers, "character fibers of the extension group algebra")
    sp.add_argument("--group", required=True)

    sp = add("crossed", _cmd_crossed, "crossed product over a normal subgroup")
    sp.add_argument("--group", required=True)
    sp.add_argument("--normal", required=True, help="center | i,j,... | gen:i,j")
    sp.add_argument("--cocycle")

    sp = add("imprimitivity", _cmd_imprimitivity, "induce from a subgroup and compare profiles")
    sp.add_argument("--group", required=True)
    sp.add_argument("--subgroup", required=True, help="center | i,j,... | gen:i,j")
    sp.add_argument("--cocycle", help="cocycle on the subgroup")

    sp = add("stabilize", _cmd_stabilize, "tensor against a matrix block to kill the twist")
    sp.add_argument("--group", required=True)
    sp.add_argument("--cocycle")

    sp = add("hirsch", _cmd_hirsch, "Hirsch length of a group descriptor")
    sp.add_argument("--descriptor", required=True)

    sp = add("bound", _cmd_bound, "numeric bound formulas")
    sp.add_argument("--f", type=int)
    sp.add_argument("--twisted", type=int, nargs=2, metavar=("HG", "HH2"))
    sp.add_argument("--hw", type=int, nargs=3, metavar=("ASDIM1", "LTC1", "DSTAB"))
    sp.add_argument("--nilpotent", type=int, nargs=2, metavar=("K", "DIMX"))
    sp.add_argument("--wreath-finite-k", type=int)

    sp = add("verdict", _cmd_verdict, "wreath-product finiteness verdicts")
    sp.add_argument("--base", required=True, help="descriptor for the fiber group")
    sp.add_argument("--top", required=True, help="descriptor for the acting group")
    sp.add_argument("--which", choices=("dimnuc", "dr"), default="dimnuc")

    sp = add("witness", _cmd_witness, "finite subset no nontrivial translation fixes")
    sp.add_argument("--group", required=True, choices=sorted(ORACLES))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--radius", type=int, default=20)

    return p


def run(argv=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 2 if code is None else int(code)
    try:
        doc, notes = args.handler(args)
        text = _dumps(doc)
    except (TwistkitError, ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # a bug, not bad input: one line, no traceback
        err.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3
    for line in notes:
        err.write(line + "\n")
    out.write(text)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
