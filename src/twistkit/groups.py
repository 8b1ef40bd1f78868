"""Finite groups as Cayley tables.

Elements of a group of order m are the indices 0..m-1, with 0 always the
identity.  The whole structure is the multiplication table; builtins
(cyclic, klein, dihedral, quaternion, symmetric, products) fix a
documented element enumeration so results are reproducible, and every
table is built by array indexing.  Coordinate tuples follow one digit
convention (mixed_radix), subgroups have one closure (generated_subgroup)
and cosets one numbering (coset_index).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import prod

import numpy as np

from .errors import InvalidGroupError, ResourceCapError

# Largest group order any construction here builds: its Cayley table is
# the size squared in int64 entries (200 MB at this limit).
MAX_CONSTRUCTED_ORDER = 5000


class FiniteGroup:
    """An immutable finite group given by its Cayley table.

    table[i, j] is the index of g_i * g_j.  Index 0 is the identity.
    """

    def __init__(self, table, name: str | None = None):
        tbl = np.asarray(table, dtype=np.int64)
        if tbl.ndim != 2 or tbl.shape[0] != tbl.shape[1]:
            raise InvalidGroupError(f"table must be square, got shape {tbl.shape}")
        m = tbl.shape[0]
        if m == 0:
            raise InvalidGroupError("empty table")
        self.order = m
        self.table = tbl
        self.name = name
        self._validate()
        # inv[i] solves table[i, inv[i]] = 0; Latin square makes it unique
        self.inverse = np.argmin(tbl, axis=1).astype(np.int64)
        if np.any(tbl[np.arange(m), self.inverse] != 0):
            raise InvalidGroupError("some element has no inverse")
        self.table.setflags(write=False)
        self.inverse.setflags(write=False)

    def _validate(self):
        m = self.order
        tbl = self.table
        if tbl.min() < 0 or tbl.max() >= m:
            raise InvalidGroupError("table entries out of range")
        idx = np.arange(m)
        if not np.array_equal(tbl[0], idx):
            raise InvalidGroupError("index 0 is not a left identity")
        if not np.array_equal(tbl[:, 0], idx):
            raise InvalidGroupError("index 0 is not a right identity")
        if np.any(np.sort(tbl, axis=1) != idx) or np.any(np.sort(tbl, axis=0) != idx[:, None]):
            raise InvalidGroupError("table is not a Latin square")
        # Light's test: the a with (x a) y = x (a y) for all x, y are closed
        # under products, so checking it for generators whose left-normed
        # products reach every element proves associativity, in m^2 work
        # per generator
        gens: list[int] = []
        reached = _right_closure(tbl, gens)
        while not reached.all():
            gens.append(int(np.argmin(reached)))
            reached = _right_closure(tbl, gens)
        block = max(1, 2**22 // m)
        for a in gens:
            for x0 in range(0, m, block):
                rows = tbl[x0 : x0 + block]
                if not np.array_equal(tbl[rows[:, a]], rows[:, tbl[a]]):
                    raise InvalidGroupError("multiplication is not associative")

    def order_of(self, i: int) -> int:
        acc = int(self.table[0, i])
        n = 1
        while acc != 0:
            acc = int(self.table[acc, i])
            n += 1
        return n

    def is_abelian(self) -> bool:
        return np.array_equal(self.table, self.table.T)

    def __repr__(self):
        label = self.name or "group"
        return f"<{label} of order {self.order}>"

    def to_json(self) -> dict:
        out = {"order": self.order, "table": self.table.tolist()}
        if self.name:
            out["name"] = self.name
        return out


def group_from_json(data: dict) -> FiniteGroup:
    """Build and fully validate a group from {"name"?, "order", "table"}.

    The identity element need not be index 0 in the file; it is located
    and the table re-indexed so that it is.
    """
    if not isinstance(data, dict):
        raise InvalidGroupError("group document must be a JSON object")
    if "order" not in data or "table" not in data:
        raise InvalidGroupError('group document needs "order" and "table" fields')
    m = data["order"]
    tbl = data["table"]
    if not isinstance(m, int) or m <= 0:
        raise InvalidGroupError('"order" must be a positive integer')
    if (
        not isinstance(tbl, list)
        or len(tbl) != m
        or any(not isinstance(row, list) or len(row) != m for row in tbl)
        or any(not isinstance(v, int) for row in tbl for v in row)
    ):
        raise InvalidGroupError(f'"table" must be a {m}x{m} array of integers')
    if any(not 0 <= v < m for row in tbl for v in row):
        raise InvalidGroupError('"table" entries must index elements (0-based)')
    arr = np.array(tbl, dtype=np.int64)
    # locate the two-sided identity, then renumber it to 0
    idx = np.arange(m)
    ident = np.flatnonzero((arr == idx).all(axis=1) & (arr == idx[:, None]).all(axis=0))
    if len(ident) != 1:
        raise InvalidGroupError("table has no two-sided identity element")
    # kept[new] = old: the identity first, the others in file order
    kept = np.concatenate([ident, np.delete(idx, ident)])
    arr = np.argsort(kept)[arr[np.ix_(kept, kept)]]
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InvalidGroupError('"name" must be a string')
    return FiniteGroup(arr, name=name)


# ---------------------------------------------------------------------------
# builtin constructions


def mixed_radix(radices) -> tuple[np.ndarray, np.ndarray]:
    """The mixed-radix numbering of digit tuples, first digit most significant.

    Returns (digits, strides): digits[x] is the digit tuple of index x, and
    index = digits @ strides.  The empty tuple of radices numbers one index,
    0, whose digit tuple is empty.
    """
    radices = tuple(int(d) for d in radices)
    strides = np.array([prod(radices[i + 1 :]) for i in range(len(radices))], dtype=np.int64)
    digits = np.arange(prod(radices))[:, None] // strides % np.array(radices, dtype=np.int64)
    return digits, strides


def cyclic(n: int) -> FiniteGroup:
    """Z/n with element i = residue i."""
    if n < 1:
        raise ValueError(f"cyclic order must be >= 1, got {n}")
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, name=f"cyclic({n})")


def klein() -> FiniteGroup:
    """Z/2 x Z/2; index bits are the two exponents, so the table is XOR.

    Enumeration: e, a, b, ab at indices 0, 1, 2, 3 (index = i + 2j for
    a^i b^j).
    """
    idx = np.arange(4)
    return FiniteGroup(idx[:, None] ^ idx[None, :], name="klein")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^i and reflections r^i s.

    Element (i, j) = r^i s^j sits at index i + n*j; the product rule is
    (i1, j1)(i2, j2) = (i1 + (-1)^j1 i2 mod n, j1 xor j2).
    """
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")
    i, j = np.divmod(np.arange(2 * n), n)[::-1]
    tbl = (i[:, None] + (1 - 2 * j)[:, None] * i) % n + n * (j[:, None] ^ j)
    return FiniteGroup(tbl, name=f"dihedral({n})")


_QUNITS = {(1, 0, 0, 0): 0, (0, 1, 0, 0): 1, (0, 0, 1, 0): 2, (0, 0, 0, 1): 3}


def quaternion8() -> FiniteGroup:
    """Q8 = {1, i, j, k, -1, -i, -j, -k} at indices 0..7 (sign in bit 2)."""

    def unpack(a):
        base = [0, 0, 0, 0]
        base[a % 4] = -1 if a >= 4 else 1
        return tuple(base)

    def pack(q):
        for unit, pos in _QUNITS.items():
            if q == unit:
                return pos
            if q == tuple(-c for c in unit):
                return pos + 4
        raise AssertionError(q)

    def qmul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    elems = [unpack(a) for a in range(8)]
    tbl = [[pack(qmul(p, q)) for q in elems] for p in elems]
    return FiniteGroup(np.array(tbl), name="quaternion8")


def symmetric(n: int) -> FiniteGroup:
    """S_n (n <= 5), elements enumerated as permutation tuples in lex order.

    Composition convention: (p * q)(x) = p(q(x)).
    """
    if not 1 <= n <= 5:
        raise ValueError(f"symmetric group parameter must be in 1..5, got {n}")
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    # composed[i, j] = p_i o p_j; lex order is ascending order of the base-n codes
    composed = perms[np.arange(len(perms))[:, None, None], perms[None]]
    _, strides = mixed_radix((n,) * n)
    tbl = np.searchsorted(perms @ strides, composed @ strides)
    return FiniteGroup(tbl, name=f"symmetric({n})")


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    """A x B with pair (a, b) at index a*|B| + b."""
    return semidirect(A, B, np.tile(np.arange(A.order), (B.order, 1)))


def semidirect(A: FiniteGroup, B: FiniteGroup, action) -> FiniteGroup:
    """A semidirect product A x| B for an action of B on A by automorphisms.

    action[b] is the image permutation of A under b, i.e. an array with
    action[b][a] = b.a; it must consist of automorphisms and be itself a
    homomorphism from B.  Pair (a, b) sits at index a*|B| + b, and
    (a1, b1)(a2, b2) = (a1 * (b1.a2), b1 b2).
    """
    act = np.asarray(action, dtype=np.int64)
    na, nb = A.order, B.order
    if act.shape != (nb, na):
        raise ValueError(f"action must have shape ({nb}, {na}), got {act.shape}")
    # the first element of B failing a check is named; a bijection fixing the
    # identity is checked before the automorphism property
    ident = np.arange(na)
    not_bijection = (np.sort(act, axis=1) != ident).any(axis=1) | (act[:, 0] != 0)
    phi = np.where(not_bijection[:, None], ident, act)
    not_auto = (phi[:, A.table] != A.table[phi[:, :, None], phi[:, None, :]]).any(axis=(1, 2))
    if (not_bijection | not_auto).any():
        b = int(np.argmax(not_bijection | not_auto))
        what = "a bijection fixing identity" if not_bijection[b] else "an automorphism"
        raise ValueError(f"action of element {b} is not {what}")
    if not np.array_equal(act[B.table], act[np.arange(nb)[:, None, None], act[None]]):
        raise ValueError("action is not a homomorphism from the acting group")
    # (a1, b1)(a2, b2) = (a1 * (b1.a2), b1 b2), indexed [a1, b1, a2, b2]
    first = A.table[ident[:, None, None], act[None]]
    tbl = (first[..., None] * nb + B.table[:, None, :]).reshape(na * nb, na * nb)
    names = (A.name or "?", B.name or "?")
    label = f"{names[0]} x {names[1]}" if np.array_equal(
        act, np.tile(ident, (nb, 1))
    ) else f"{names[0]} x| {names[1]}"
    return FiniteGroup(tbl, name=label)


# name -> (constructor, arity, order implied by the parameters); None where
# the constructor bounds its own parameter before building anything
_BUILTINS = {
    "cyclic": (cyclic, 1, lambda n: n),
    "klein": (klein, 0, lambda: 4),
    "dihedral": (dihedral, 1, lambda n: 2 * n),
    "quaternion8": (quaternion8, 0, lambda: 8),
    "symmetric": (symmetric, 1, None),
}


def builtin(name: str, *params: int) -> FiniteGroup:
    """Construct a builtin group by name; see _BUILTINS for the arities.

    Raises ResourceCapError before any allocation when the parameters
    imply an order above MAX_CONSTRUCTED_ORDER.
    """
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin group {name!r}")
    fn, arity, order = _BUILTINS[name]
    if len(params) != arity:
        raise ValueError(f"builtin {name!r} takes {arity} parameter(s), got {len(params)}")
    m = order(*params) if order else 0
    if m > MAX_CONSTRUCTED_ORDER:
        raise ResourceCapError(f"{name} group of order {m} exceeds the limit {MAX_CONSTRUCTED_ORDER}")
    return fn(*params)


def _parse_spec(spec: str) -> tuple[str, tuple[int, ...]]:
    name, _, params = spec.partition(":")
    try:
        return name, tuple(int(p) for p in params.split(",")) if params else ()
    except ValueError:
        raise ValueError(f"malformed group parameters in {spec!r}") from None


def resolve_group_string(spec: str) -> FiniteGroup:
    """Parse 'klein', 'quaternion8', or parameterized forms like
    'cyclic:12', 'dihedral:4', 'symmetric:3'."""
    name, args = _parse_spec(spec)
    return builtin(name, *args)


def builtin_order(spec: str) -> int | None:
    """The order a builtin group string names, from its parameters alone, so
    before any table is built; None where _BUILTINS gives no order."""
    try:
        name, args = _parse_spec(spec)
    except ValueError:
        return None
    _, arity, order = _BUILTINS.get(name, (None, None, None))
    return order(*args) if order and len(args) == arity else None


# ---------------------------------------------------------------------------
# subgroups, quotients, structure


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its sorted member indices (always containing 0)."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        mem = tuple(sorted({int(i) for i in self.members}))
        object.__setattr__(self, "members", mem)
        G = self.parent
        if not mem or mem[0] != 0:
            raise InvalidGroupError("subgroup must contain the identity")
        if mem[-1] >= G.order:
            raise InvalidGroupError("subgroup member out of range")
        # members in order, each checked for its inverse and then its
        # products with every member in order; the first failure is named
        inside = self.indicator
        bad_inv = ~inside[G.inverse[list(mem)]]
        bad_mul = ~inside[G.table[np.ix_(mem, mem)]]
        bad = bad_inv | bad_mul.any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            if bad_inv[i]:
                raise InvalidGroupError(f"subgroup not closed under inverse at {mem[i]}")
            b = mem[int(np.argmax(bad_mul[i]))]
            raise InvalidGroupError(f"subgroup not closed under product at ({mem[i]}, {b})")

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // len(self.members)

    @property
    def indicator(self) -> np.ndarray:
        """Boolean membership mask over the parent's elements."""
        inside = np.zeros(self.parent.order, dtype=bool)
        inside[list(self.members)] = True
        return inside

    def __contains__(self, i: int) -> bool:
        return i in set(self.members)

    def is_normal(self) -> bool:
        G = self.parent
        conj = G.table[G.table[:, list(self.members)], G.inverse[:, None]]  # [g, x] = g x g^-1
        return bool(self.indicator[conj].all())


def _right_closure(tbl: np.ndarray, gens) -> np.ndarray:
    """Mask of the left-normed products of the generators (and identity)."""
    inside = np.zeros(len(tbl), dtype=bool)
    inside[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        reached = np.unique(tbl[np.ix_(frontier, gens)])
        frontier = reached[~inside[reached]]
        inside[frontier] = True
    return inside


def generated_subgroup(G: FiniteGroup, gens) -> Subgroup:
    """The subgroup generated by the given element indices."""
    gens = np.array(list(gens), dtype=object)  # an index out of range may not fit int64
    if ((gens < 0) | (gens >= G.order)).any():
        raise InvalidGroupError(f"generator index out of range 0..{G.order - 1}")
    # in a finite group the positive words in the generators are the subgroup
    inside = _right_closure(G.table, gens.astype(np.int64))
    return Subgroup(G, tuple(np.flatnonzero(inside).tolist()))


def element_orders(G: FiniteGroup) -> np.ndarray:
    """The order of every element, stepping all powers g^k together."""
    idx = np.arange(G.order)
    orders = np.zeros(G.order, dtype=np.int64)
    power, k = idx, 1
    while not orders.all():
        orders[(power == 0) & (orders == 0)] = k
        power, k = G.table[power, idx], k + 1
    return orders


def center(G: FiniteGroup) -> Subgroup:
    """Elements commuting with everything; always a normal subgroup."""
    tbl = G.table
    central = np.nonzero(np.all(tbl == tbl.T, axis=1))[0]
    return Subgroup(G, tuple(int(z) for z in central))


def subgroup_as_group(S: Subgroup) -> tuple[FiniteGroup, list[int]]:
    """Reify a subgroup as a standalone group.

    Returns (group, embedding) where embedding[new_index] = parent index;
    the identity keeps index 0 because members are sorted.
    """
    mem = list(S.members)
    pos = np.zeros(S.parent.order, dtype=np.int64)
    pos[mem] = np.arange(len(mem))
    return FiniteGroup(pos[S.parent.table[np.ix_(mem, mem)]], name="subgroup"), mem


@dataclass(frozen=True)
class Homomorphism:
    """A map of groups, stored as an array over domain indices."""

    domain: FiniteGroup
    codomain: FiniteGroup
    map: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.map, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "map", arr)
        if arr.shape != (self.domain.order,):
            raise InvalidGroupError("homomorphism map has wrong length")
        if arr.min() < 0 or arr.max() >= self.codomain.order:
            raise InvalidGroupError("homomorphism image out of range")
        if arr[0] != 0:
            raise InvalidGroupError("homomorphism must send identity to identity")
        dom, cod = self.domain.table, self.codomain.table
        if not np.array_equal(arr[dom], cod[arr[:, None], arr[None, :]]):
            raise InvalidGroupError("map is not multiplicative")

    def __call__(self, i: int) -> int:
        return int(self.map[i])

    def is_surjective(self) -> bool:
        return len(set(self.map.tolist())) == self.codomain.order


def coset_index(G: FiniteGroup, S: Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """Number the left cosets gS in ascending order of their minimal elements.

    Returns (number, reps): number[g] is the coset of g and reps[c] is the
    minimal element of coset c, its canonical representative (reps[0] = 0).
    """
    reps, number = np.unique(G.table[:, list(S.members)].min(axis=1), return_inverse=True)
    return number, reps


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, Homomorphism, np.ndarray]:
    """Quotient by a normal subgroup.

    Returns (Q, projection, lift) where lift[q] is the minimal-index coset
    representative, so lift[0] = 0.
    """
    if N.parent is not G:
        raise InvalidGroupError("subgroup belongs to a different parent group")
    if not N.is_normal():
        raise InvalidGroupError("subgroup is not normal")
    belong, lift = coset_index(G, N)
    Q = FiniteGroup(belong[G.table[np.ix_(lift, lift)]], name=f"{G.name or '?'}/N")
    proj = Homomorphism(G, Q, belong)
    lift.setflags(write=False)
    return Q, proj, lift


def element_order_profile(G: FiniteGroup) -> tuple[int, ...]:
    """Sorted multiset of element orders."""
    return tuple(sorted(element_orders(G).tolist()))


def canonical_table(G: FiniteGroup) -> np.ndarray:
    """The Cayley table least in byte order among the breadth-first relabelings
    along every shortest generating sequence; isomorphisms carry these onto
    each other, so the table is equal exactly for isomorphic groups.  It is
    searched once per group object and kept on it, read-only."""
    if not hasattr(G, "_canonical"):
        G._canonical = _least_relabeling(G)
    return G._canonical


def _least_relabeling(G: FiniteGroup) -> np.ndarray:
    m, tbl, rows = G.order, G.table, G.table.tolist()
    for length in range(1, m):
        best = None
        for seq in permutations(range(1, m), length):
            order = [0]
            for x in order:  # grows while it is read: a breadth-first walk from the identity
                if len(order) == m:
                    break
                order += [y for y in map(rows[x].__getitem__, seq) if y not in order]
            if len(order) < m:
                continue
            o = np.array(order)
            cand = np.argsort(o)[tbl[o[:, None], o]].tobytes()  # element o[k] becomes k
            if best is None or cand < best:
                best = cand
        if best is not None:
            return np.frombuffer(best, dtype=np.int64).reshape(m, m)
    return tbl  # the trivial group has only its own table


def is_isomorphic_small(G: FiniteGroup, H: FiniteGroup) -> bool:
    """Exact isomorphism test for groups of order <= 16: equal orders,
    element-order profiles and canonical tables."""
    if G.order != H.order:
        return False
    if G.order > 16:
        raise ResourceCapError(f"isomorphism search capped at order 16, got {G.order}")
    if element_order_profile(G) != element_order_profile(H):
        return False
    return np.array_equal(canonical_table(G), canonical_table(H))
