"""Symbolic Hirsch-length and cardinality calculus over group descriptors.

Groups are described by a small AST rather than by elements: finite groups,
free abelian groups, axiomatized atoms (carrying their own invariants),
extensions, quotients, restricted wreath products, and finite direct sums.
Hirsch length is computed by structural induction with the additivity rule
h(G) = h(N) + h(G/N) and the wreath rule h(K wr H) = h(K)*|H| + h(H) under
the convention 0 * infinity = 0.  Every rule is a generator step over one
node that yields the children it needs, and one explicit-stack fold runs
the steps, so no walk recurses in Python and a descriptor nests as deep as
its parser admits whatever the caller's stack depth.

Structural flags (finitely generated, virtually nilpotent, virtually
polycyclic, elementary amenable) are tri-state: True, False, or None for
unknown.  Propagation is deliberately conservative; whenever no closure
rule applies, the flag stays None, and the wreath verdicts gate on the
hypotheses instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IndeterminateHirschError

INF = math.inf

# Python converts an int of at most 4300 decimal digits to a string (the
# default of sys.set_int_max_str_digits); every printed cardinality and
# bound stays within it
PRINT_DIGITS = 4300

_FLAG_KEYS = (
    "finitely_generated",
    "virt_nilpotent",
    "virt_polycyclic",
    "elementary_amenable",
)


@dataclass(frozen=True)
class Flags:
    """Tri-state structural properties; None means unknown."""

    finitely_generated: bool | None = None
    virt_nilpotent: bool | None = None
    virt_polycyclic: bool | None = None
    elementary_amenable: bool | None = None

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in _FLAG_KEYS}


ALL_TRUE = Flags(True, True, True, True)


class GroupDescriptor:
    """Base class for descriptor AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Finite(GroupDescriptor):
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("a finite group has order >= 1")


@dataclass(frozen=True)
class FreeAbelian(GroupDescriptor):
    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")


@dataclass(frozen=True)
class Atom(GroupDescriptor):
    """An axiomatized group: invariants are asserted, not derived."""

    label: str
    hirsch: float  # non-negative integer or INF
    card: float | None  # positive integer, INF, or None for unknown
    flags: Flags

    def __post_init__(self):
        if self.hirsch != INF and (self.hirsch < 0 or int(self.hirsch) != self.hirsch):
            raise ValueError("hirsch must be a non-negative integer or infinite")
        c = self.card
        if c is not None and c != INF and (c < 1 or int(c) != c):
            raise ValueError("card must be a positive integer, infinite, or None")


@dataclass(frozen=True)
class Extension(GroupDescriptor):
    """A group with normal subgroup `normal` and quotient `quotient`."""

    normal: GroupDescriptor
    quotient: GroupDescriptor


@dataclass(frozen=True)
class Quotient(GroupDescriptor):
    group: GroupDescriptor
    normal: GroupDescriptor


@dataclass(frozen=True)
class Wreath(GroupDescriptor):
    """Restricted wreath product: copies of base indexed by top, with top
    permuting the coordinates."""

    base: GroupDescriptor
    top: GroupDescriptor


@dataclass(frozen=True)
class DirectSum(GroupDescriptor):
    parts: tuple[GroupDescriptor, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


def Zinv(p: int) -> Atom:
    """The additive group of p-integral rationals: Hirsch length 1 (its
    quotient by the integers is locally finite), abelian but not finitely
    generated, hence not virtually polycyclic."""
    if p < 2:
        raise ValueError("p must be at least 2")
    return Atom(
        label=f"Z[1/{p}]",
        hirsch=1,
        card=INF,
        flags=Flags(
            finitely_generated=False,
            virt_nilpotent=True,
            virt_polycyclic=False,
            elementary_amenable=True,
        ),
    )


# ---------------------------------------------------------------------------
# the fold


def _fold(step, root):
    """Evaluate step(root) with an explicit stack in place of recursion.

    A step is a generator over one node: it yields (step, child) for each
    value it needs, receives that value (or has its exception thrown in, at
    the yield) and returns its own.  Values are kept for this call by node
    identity, so a subtree shared by several parents is evaluated once; an
    exception is raised afresh wherever its node is asked for again."""
    memo: dict = {}
    stack = [((step, id(root)), step(root))]
    value, error = None, None
    while stack:
        key, walk = stack[-1]
        try:
            want = walk.send(value) if error is None else walk.throw(error)
        except StopIteration as done:
            stack.pop()
            memo[key] = value = done.value
            error = None
            continue
        except Exception as exc:  # handed to the step that asked, as a recursive call would raise it
            stack.pop()
            value, error = None, exc
            continue
        key, error = (want[0], id(want[1])), None
        if key in memo:
            value = memo[key]
        else:
            stack.append((key, want[0](want[1])))
            value = None
    if error is not None:
        raise error
    return value


def _each(step, nodes):
    """The values of step over several nodes, in order, as a step asks for
    them: values = yield from _each(step, nodes)."""
    values = []
    for node in nodes:
        values.append((yield step, node))
    return values


# ---------------------------------------------------------------------------
# cardinality


def cardinality(d: GroupDescriptor) -> float | None:
    """Number of elements: a positive integer, INF, or None when the AST
    does not determine it."""
    return _fold(_card, d)


def _card(d):
    if isinstance(d, Finite):
        return d.order
    if isinstance(d, FreeAbelian):
        return 1 if d.rank == 0 else INF
    if isinstance(d, Atom):
        return d.card
    if isinstance(d, Extension):
        return _card_product((yield _card, d.normal), (yield _card, d.quotient))
    if isinstance(d, Quotient):
        cg, cn = (yield _card, d.group), (yield _card, d.normal)
        if cg == INF and cn != INF and cn is not None:
            return INF
        if cg is None or cn is None or cg == INF:
            return None
        if cn == INF or cn > cg or cg % cn:
            raise ValueError("normal subgroup order must divide the group order")
        return cg // cn
    if isinstance(d, Wreath):
        ck, ch = (yield _card, d.base), (yield _card, d.top)
        if ch == INF or ck == INF:
            return INF
        if ck == 1:
            return ch
        if ck is None or ch is None:
            return None
        # ck**ch has at least ch * log10(ck) digits: refuse before computing it
        if ch > PRINT_DIGITS / math.log10(ck):
            raise _too_many_digits()
        return _printable(ck**ch * ch)
    if isinstance(d, DirectSum):
        cards = yield from _each(_card, d.parts)
        if any(c == INF for c in cards):
            return INF
        if any(c is None for c in cards):
            return None
        total = 1
        for c in cards:
            total = _printable(total * int(c))
        return total
    raise TypeError(f"not a descriptor: {d!r}")


def _too_many_digits() -> ValueError:
    return ValueError(f"cardinality has more than {PRINT_DIGITS} decimal digits")


def _printable(n: int) -> int:
    # every finite cardinality is below 10**PRINT_DIGITS, so a product of
    # two of them is cheap to form and check
    if n >= 10**PRINT_DIGITS:
        raise _too_many_digits()
    return n


def _card_product(a: float | None, b: float | None) -> float | None:
    # cardinalities are >= 1, so infinity absorbs even an unknown factor
    if a == INF or b == INF:
        return INF
    if a is None or b is None:
        return None
    return _printable(a * b)


# ---------------------------------------------------------------------------
# Hirsch length


def hirsch_length(d: GroupDescriptor) -> float:
    """Hirsch length in non-negative integers extended by INF.

    Structural rules: finite groups have length 0, free abelian groups
    their rank, extensions and direct sums add, quotients subtract, and
    h(K wr H) = h(K)*|H| + h(H) with 0*INF = 0.  Raises
    IndeterminateHirschError when the rules cannot decide (an
    infinite-by-infinite quotient, or a wreath whose acting group has
    unknown cardinality and a base of positive length).
    """
    return _fold(_hirsch, d)


def _hirsch(d):
    if isinstance(d, Finite):
        return 0
    if isinstance(d, FreeAbelian):
        return d.rank
    if isinstance(d, Atom):
        return d.hirsch
    if isinstance(d, Extension):
        return (yield _hirsch, d.normal) + (yield _hirsch, d.quotient)
    if isinstance(d, Quotient):
        hg, hn = (yield _hirsch, d.group), (yield _hirsch, d.normal)
        if hg == INF and hn == INF:
            raise IndeterminateHirschError(
                "quotient of infinite Hirsch length by infinite Hirsch length"
            )
        if hn > hg:
            raise ValueError("normal subgroup cannot have larger Hirsch length")
        return hg - hn
    if isinstance(d, Wreath):
        hk = yield _hirsch, d.base
        if hk == 0:
            return (yield _hirsch, d.top)
        ch = yield _card, d.top
        if ch is None:
            raise IndeterminateHirschError(
                "wreath with base of positive Hirsch length over a group of unknown order"
            )
        if ch == INF:
            return INF
        return hk * ch + (yield _hirsch, d.top)
    if isinstance(d, DirectSum):
        return sum((yield from _each(_hirsch, d.parts)))
    raise TypeError(f"not a descriptor: {d!r}")


# ---------------------------------------------------------------------------
# flag propagation


def _all3(*vals: bool | None) -> bool | None:
    """True if all True, False if any False, else None."""
    if any(v is False for v in vals):
        return False
    if all(v is True for v in vals):
        return True
    return None


def _is_finite_card(c: float | None) -> bool:
    return c is not None and c != INF


def flags(d: GroupDescriptor) -> Flags:
    """Conservative tri-state propagation of the four structural flags."""
    return _fold(_flags, d)


def _flags(d):
    if isinstance(d, (Finite, FreeAbelian)):
        return ALL_TRUE
    if isinstance(d, Atom):
        return d.flags
    if isinstance(d, Extension):
        fn, fq = (yield _flags, d.normal), (yield _flags, d.quotient)
        fin_n = _is_finite_card((yield _card, d.normal))
        fin_q = _is_finite_card((yield _card, d.quotient))
        # finite generation passes to quotients, so a non-f.g. quotient
        # rules the extension out; a non-f.g. kernel does not
        if fq.finitely_generated is False:
            fg = False
        else:
            fg = True if (fn.finitely_generated and fq.finitely_generated) else None
        # virtual nilpotency survives finite kernels and finite quotients
        # but not general extensions
        if fn.virt_nilpotent is False or fq.virt_nilpotent is False:
            vn = False
        elif (fin_n and fq.virt_nilpotent) or (fn.virt_nilpotent and fin_q):
            vn = True
        else:
            vn = None
        return Flags(
            finitely_generated=fg,
            virt_nilpotent=vn,
            virt_polycyclic=_all3(fn.virt_polycyclic, fq.virt_polycyclic),
            elementary_amenable=_all3(fn.elementary_amenable, fq.elementary_amenable),
        )
    if isinstance(d, Quotient):
        fg_ = yield _flags, d.group
        # all four flags pass to quotients; nothing follows from False
        return Flags(*((True if getattr(fg_, k) is True else None) for k in _FLAG_KEYS))
    if isinstance(d, Wreath):
        fk, fh = (yield _flags, d.base), (yield _flags, d.top)
        ck, ch = (yield _card, d.base), (yield _card, d.top)
        if ck == 1:
            return fh
        base_nontrivial = ck is not None and ck >= 2
        top_infinite = ch == INF
        fin_h = _is_finite_card(ch)
        # base and top both embed, and top is also a quotient
        fg = _all3(fk.finitely_generated, fh.finitely_generated)
        if fh.finitely_generated is False:
            fg = False
        if fk.virt_nilpotent is False or fh.virt_nilpotent is False:
            vn = False
        elif fin_h and fk.virt_nilpotent is True:
            vn = True
        else:
            vn = None
        if fk.virt_polycyclic is False or fh.virt_polycyclic is False:
            vp = False
        elif base_nontrivial and top_infinite:
            # the base power is an infinite direct sum, never finitely
            # generated, but subgroups of virtually polycyclic groups are
            vp = False
        elif fin_h and fk.virt_polycyclic is True:
            vp = True
        else:
            vp = None
        return Flags(
            finitely_generated=fg,
            virt_nilpotent=vn,
            virt_polycyclic=vp,
            elementary_amenable=_all3(fk.elementary_amenable, fh.elementary_amenable),
        )
    if isinstance(d, DirectSum):
        fs = yield from _each(_flags, d.parts)
        return Flags(*(_all3(*(getattr(f, k) for f in fs)) for k in _FLAG_KEYS))
    raise TypeError(f"not a descriptor: {d!r}")


# ---------------------------------------------------------------------------
# wreath verdicts


def wreath_dimnuc_verdict(K: GroupDescriptor, H: GroupDescriptor) -> str:
    """Finiteness of the nuclear-dimension bound for a wreath product.

    Hypotheses: K virtually polycyclic, H finitely generated and virtually
    nilpotent.  Within them the answer is 'finite' exactly when K or H is a
    finite group, equivalently when the wreath product has finite Hirsch
    length.  Returns 'out_of_hypotheses' when a gate flag is False or
    unknown, or when the cardinalities needed for the dichotomy are
    unknown.
    """
    fk, fh = flags(K), flags(H)
    if fk.virt_polycyclic is not True:
        return "out_of_hypotheses"
    if fh.finitely_generated is not True or fh.virt_nilpotent is not True:
        return "out_of_hypotheses"
    ck, ch = cardinality(K), cardinality(H)
    if ck is None or ch is None:
        return "out_of_hypotheses"
    return "finite" if (ck != INF or ch != INF) else "infinite"


def wreath_dr_verdict(K: GroupDescriptor, H: GroupDescriptor) -> str:
    """Finiteness of the decomposition-rank bound for a wreath product.

    Hypotheses: both K and H finitely generated and virtually nilpotent.
    Within them the answer is 'finite' exactly when H is finite or K is
    trivial."""
    fk, fh = flags(K), flags(H)
    for f in (fk, fh):
        if f.finitely_generated is not True or f.virt_nilpotent is not True:
            return "out_of_hypotheses"
    ck, ch = cardinality(K), cardinality(H)
    if ck is None or ch is None:
        return "out_of_hypotheses"
    return "finite" if (ch != INF or ck == 1) else "infinite"


# ---------------------------------------------------------------------------
# named instances and serialization


def hall_descriptors() -> tuple[GroupDescriptor, GroupDescriptor]:
    """A center-by-metabelian pair (H, G): H is built from three copies of
    Z[1/2] extended by the integers, and G is H modulo a central copy of
    the integers.  Hirsch lengths 4 and 3."""
    H = Extension(
        Extension(DirectSum((Zinv(2), Zinv(2))), Zinv(2)),
        FreeAbelian(1),
    )
    G = Quotient(H, FreeAbelian(1))
    return H, G


def _card_to_json(c: float | None):
    if c is None:
        return None
    if c == INF:
        return "infinite"
    return int(c)


def descriptor_to_json(d: GroupDescriptor) -> dict:
    """The JSON document of a descriptor, as descriptor_from_json reads it."""
    return _fold(_to_json, d)


def _to_json(d):
    if isinstance(d, Finite):
        return {"kind": "finite", "order": d.order}
    if isinstance(d, FreeAbelian):
        return {"kind": "free_abelian", "rank": d.rank}
    if isinstance(d, Atom):
        return {
            "kind": "atom",
            "label": d.label,
            "hirsch": _card_to_json(d.hirsch),
            "card": _card_to_json(d.card),
            "flags": d.flags.to_json(),
        }
    if isinstance(d, Extension):
        return {
            "kind": "ext",
            "normal": (yield _to_json, d.normal),
            "quotient": (yield _to_json, d.quotient),
        }
    if isinstance(d, Quotient):
        return {
            "kind": "quotient",
            "group": (yield _to_json, d.group),
            "normal": (yield _to_json, d.normal),
        }
    if isinstance(d, Wreath):
        return {"kind": "wreath", "base": (yield _to_json, d.base), "top": (yield _to_json, d.top)}
    if isinstance(d, DirectSum):
        return {"kind": "direct_sum", "parts": (yield from _each(_to_json, d.parts))}
    raise TypeError(f"not a descriptor: {d!r}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _field(doc: dict, key: str):
    if key not in doc:
        raise ValueError(f"descriptor JSON of kind {doc['kind']!r} needs a {key!r} field")
    return doc[key]


def _int_field(doc: dict, key: str) -> int:
    v = _field(doc, key)
    if not _is_int(v):
        raise ValueError(f"descriptor field {key!r} must be an integer, got {v!r}")
    return v


def _card_field(doc: dict, key: str, required: bool = True) -> float | None:
    """Inverse of _card_to_json: an integer, "infinite" (INF) or null (None)."""
    v = _field(doc, key) if required else doc.get(key)
    if v is None or _is_int(v):
        return v
    if v == "infinite":
        return INF
    raise ValueError(f'descriptor field {key!r} must be an integer, "infinite" or null, got {v!r}')


def descriptor_from_json(doc: dict) -> GroupDescriptor:
    """Parse a descriptor document; raises ValueError naming the first
    missing or ill-typed field."""
    return _fold(_from_json, doc)


def _from_json(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("descriptor JSON needs a 'kind' field")
    kind = doc["kind"]
    if kind == "finite":
        return Finite(_int_field(doc, "order"))
    if kind == "free_abelian":
        return FreeAbelian(_int_field(doc, "rank"))
    if kind == "atom":
        fl = doc.get("flags", {})
        if not isinstance(fl, dict):
            raise ValueError(f"descriptor field 'flags' must be an object, got {fl!r}")
        for k in _FLAG_KEYS:
            if not isinstance(fl.get(k), (bool, type(None))):
                raise ValueError(f"flag {k!r} must be true, false or null, got {fl[k]!r}")
        hirsch = _card_field(doc, "hirsch")
        if hirsch is None:
            raise ValueError("atom needs a definite hirsch value")
        return Atom(
            label=str(doc.get("label", "atom")),
            hirsch=hirsch,
            card=_card_field(doc, "card", required=False),
            flags=Flags(**{k: fl.get(k) for k in _FLAG_KEYS}),
        )
    if kind == "ext":
        return Extension((yield _from_json, _field(doc, "normal")), (yield _from_json, _field(doc, "quotient")))
    if kind == "quotient":
        return Quotient((yield _from_json, _field(doc, "group")), (yield _from_json, _field(doc, "normal")))
    if kind == "wreath":
        return Wreath((yield _from_json, _field(doc, "base")), (yield _from_json, _field(doc, "top")))
    if kind == "direct_sum":
        parts = _field(doc, "parts")
        if not isinstance(parts, list):
            raise ValueError(f"descriptor field 'parts' must be a list, got {parts!r}")
        return DirectSum(tuple((yield from _each(_from_json, parts))))
    raise ValueError(f"unknown descriptor kind {kind!r}")


def derivation_lines(d: GroupDescriptor) -> list[str]:
    """Human-readable trace of the Hirsch computation, one line per node,
    each child's lines indented under its parent's."""
    out, todo = [], [(0, _fold(_lines, d))]
    while todo:
        depth, (line, children) = todo.pop()
        out.append("  " * depth + line)
        todo += [(depth + 1, child) for child in reversed(children)]
    return out


def _show(v) -> str:
    return "infinite" if v == INF else str(int(v))


def _lines(d):
    """A node's line and its children's (line, children) pairs."""
    try:
        h = _show((yield _hirsch, d))
    except IndeterminateHirschError:
        h = "indeterminate"
    if isinstance(d, Finite):
        return f"finite({d.order}): h = 0", []
    if isinstance(d, FreeAbelian):
        return f"free_abelian(rank {d.rank}): h = {d.rank}", []
    if isinstance(d, Atom):
        return f"atom {d.label}: h = {_show(d.hirsch)} (axiomatized)", []
    if isinstance(d, Extension):
        return f"extension: h = h(normal) + h(quotient) = {h}", [(yield _lines, d.normal), (yield _lines, d.quotient)]
    if isinstance(d, Quotient):
        return f"quotient: h = h(group) - h(normal) = {h}", [(yield _lines, d.group), (yield _lines, d.normal)]
    if isinstance(d, Wreath):
        ch = yield _card, d.top
        card = "unknown" if ch is None else _show(ch)
        line = f"wreath: h = h(base)*|top| + h(top) = {h}  (|top| = {card}, 0*inf = 0)"
        return line, [(yield _lines, d.base), (yield _lines, d.top)]
    if isinstance(d, DirectSum):
        return f"direct_sum: h = sum of parts = {h}", (yield from _each(_lines, d.parts))
    raise TypeError(f"not a descriptor: {d!r}")
