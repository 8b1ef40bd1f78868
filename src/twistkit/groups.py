"""Finite groups as Cayley tables.

Elements of a group of order m are the indices 0..m-1, with 0 always the
identity.  The whole structure is the multiplication table; builtins
(cyclic, klein, dihedral, quaternion, symmetric, products, wreath) fix a
documented element enumeration so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import InvalidGroupError, ResourceCapError

# Full m^3 associativity sweep is cheap up to a few hundred elements; past
# this the constructions themselves are the guarantee and the constructor
# only samples.
_FULL_ASSOC_LIMIT = 600

# Largest group order any construction here builds: its Cayley table is
# the size squared in int64 entries (200 MB at this limit).
MAX_CONSTRUCTED_ORDER = 5000


class FiniteGroup:
    """An immutable finite group given by its Cayley table.

    table[i, j] is the index of g_i * g_j.  Index 0 is the identity.
    """

    def __init__(self, table, name: str | None = None, validate: bool = True):
        tbl = np.asarray(table, dtype=np.int64)
        if tbl.ndim != 2 or tbl.shape[0] != tbl.shape[1]:
            raise InvalidGroupError(f"table must be square, got shape {tbl.shape}")
        m = tbl.shape[0]
        if m == 0:
            raise InvalidGroupError("empty table")
        self.order = m
        self.table = tbl
        self.name = name
        if validate:
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
        if m <= _FULL_ASSOC_LIMIT:
            block = max(1, 2**22 // (m * m))
            for i0 in range(0, m, block):
                i1 = min(m, i0 + block)
                # left[i,j,k] = (g_i g_j) g_k, right[i,j,k] = g_i (g_j g_k)
                if not np.array_equal(tbl[tbl[i0:i1]], tbl[i0:i1][:, tbl]):
                    raise InvalidGroupError("multiplication is not associative")
        else:
            rng = np.random.default_rng(0)
            for i, j, k in rng.integers(0, m, size=(4096, 3)):
                if tbl[tbl[i, j], k] != tbl[i, tbl[j, k]]:
                    raise InvalidGroupError("multiplication is not associative")

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

    def power(self, i: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(i), -k)
        acc = 0
        for _ in range(k):
            acc = int(self.table[acc, i])
        return acc

    def order_of(self, i: int) -> int:
        acc = int(self.table[0, i])
        n = 1
        while acc != 0:
            acc = int(self.table[acc, i])
            n += 1
        return n

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return int(self.table[self.table[g, x], self.inverse[g]])

    def is_abelian(self) -> bool:
        return np.array_equal(self.table, self.table.T)

    def elements(self) -> range:
        return range(self.order)

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
    ident = [e for e in range(m) if np.array_equal(arr[e], idx) and np.array_equal(arr[:, e], idx)]
    if len(ident) != 1:
        raise InvalidGroupError("table has no two-sided identity element")
    e = ident[0]
    if e != 0:
        perm = np.empty(m, dtype=np.int64)
        order_kept = [e] + [i for i in range(m) if i != e]
        for new, old in enumerate(order_kept):
            perm[old] = new
        new_arr = np.empty_like(arr)
        for i in range(m):
            for j in range(m):
                new_arr[perm[i], perm[j]] = perm[arr[i, j]]
        arr = new_arr
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InvalidGroupError('"name" must be a string')
    return FiniteGroup(arr, name=name)


# ---------------------------------------------------------------------------
# builtin constructions


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
    m = 2 * n
    tbl = np.empty((m, m), dtype=np.int64)
    for a in range(m):
        i1, j1 = a % n, a // n
        for b in range(m):
            i2, j2 = b % n, b // n
            i = (i1 + (i2 if j1 == 0 else -i2)) % n
            tbl[a, b] = i + n * (j1 ^ j2)
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
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    tbl = np.empty((m, m), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            tbl[i, j] = index[tuple(p[q[x]] for x in range(n))]
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
    if act.shape != (B.order, A.order):
        raise ValueError(f"action must have shape ({B.order}, {A.order}), got {act.shape}")
    for b in range(B.order):
        phi = act[b]
        if not np.array_equal(np.sort(phi), np.arange(A.order)) or phi[0] != 0:
            raise ValueError(f"action of element {b} is not a bijection fixing identity")
        if not np.array_equal(phi[A.table], A.table[phi[:, None], phi[None, :]]):
            raise ValueError(f"action of element {b} is not an automorphism")
    for b1 in range(B.order):
        for b2 in range(B.order):
            if not np.array_equal(act[B.table[b1, b2]], act[b1][act[b2]]):
                raise ValueError("action is not a homomorphism from the acting group")
    na, nb = A.order, B.order
    tbl = np.empty((na * nb, na * nb), dtype=np.int64)
    for a1 in range(na):
        for b1 in range(nb):
            lhs = a1 * nb + b1
            a2 = np.arange(na)
            twisted = A.table[a1, act[b1]]
            blocks = twisted[:, None] * nb + B.table[b1]
            tbl[lhs] = blocks.reshape(-1)
    names = (A.name or "?", B.name or "?")
    label = f"{names[0]} x {names[1]}" if np.array_equal(
        act, np.tile(np.arange(na), (nb, 1))
    ) else f"{names[0]} x| {names[1]}"
    return FiniteGroup(tbl, name=label)


def wreath(K: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Wreath product K wr H = K^H x| H, with H permuting coordinates.

    A tuple f: H -> K is encoded little-endian in base |K| over the |H|
    coordinates; (f, h) sits at index f_code * |H| + h_idx.  The action is
    (h.f)(x) = f(h^-1 x).
    """
    nk, nh = K.order, H.order
    total = nk**nh * nh
    if total > MAX_CONSTRUCTED_ORDER:
        raise ResourceCapError(
            f"wreath product order {total} exceeds the limit {MAX_CONSTRUCTED_ORDER}"
        )

    def decode(code):
        out = []
        for _ in range(nh):
            out.append(code % nk)
            code //= nk
        return out

    def encode(f):
        code = 0
        for t in reversed(range(nh)):
            code = code * nk + f[t]
        return code

    tuples = [decode(c) for c in range(nk**nh)]
    tbl = np.empty((total, total), dtype=np.int64)
    for c1, f1 in enumerate(tuples):
        for h1 in range(nh):
            lhs = c1 * nh + h1
            row = np.empty(total, dtype=np.int64)
            for c2, f2 in enumerate(tuples):
                # (f1, h1)(f2, h2) = (f1 . (h1.f2), h1 h2)
                shifted = [f2[H.table[H.inverse[h1], x]] for x in range(nh)]
                prod = [K.table[f1[x], shifted[x]] for x in range(nh)]
                base = encode(prod) * nh
                for h2 in range(nh):
                    row[c2 * nh + h2] = base + H.table[h1, h2]
            tbl[lhs] = row
    return FiniteGroup(tbl, name=f"{K.name or '?'} wr {H.name or '?'}")


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


def resolve_group_string(spec: str) -> FiniteGroup:
    """Parse 'klein', 'quaternion8', or parameterized forms like
    'cyclic:12', 'dihedral:4', 'symmetric:3'."""
    name, _, params = spec.partition(":")
    try:
        args = tuple(int(p) for p in params.split(",")) if params else ()
    except ValueError:
        raise ValueError(f"malformed group parameters in {spec!r}") from None
    return builtin(name, *args)


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
        inside = set(mem)
        for a in mem:
            if G.inv(a) not in inside:
                raise InvalidGroupError(f"subgroup not closed under inverse at {a}")
            for b in mem:
                if G.mul(a, b) not in inside:
                    raise InvalidGroupError(f"subgroup not closed under product at ({a}, {b})")

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in set(self.members)

    def is_normal(self) -> bool:
        G = self.parent
        inside = set(self.members)
        return all(G.conjugate(g, x) in inside for g in G.elements() for x in self.members)


def generated_subgroup(G: FiniteGroup, gens) -> Subgroup:
    """The subgroup generated by the given element indices."""
    seen = {0}
    frontier = [0]
    gens = [int(g) for g in gens]
    if any(not 0 <= g < G.order for g in gens):
        raise InvalidGroupError(f"generator index out of range 0..{G.order - 1}")
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (G.mul(x, g), G.mul(g, x)):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return Subgroup(G, tuple(sorted(seen)))


def center(G: FiniteGroup) -> Subgroup:
    """Elements commuting with everything; always a normal subgroup."""
    tbl = G.table
    central = np.nonzero(np.all(tbl == tbl.T, axis=1))[0]
    return Subgroup(G, tuple(int(z) for z in central))


def commutator_subgroup(G: FiniteGroup) -> Subgroup:
    """Subgroup generated by all commutators g h g^-1 h^-1."""
    comms = set()
    for g in G.elements():
        for h in G.elements():
            gh = G.mul(g, h)
            hg = G.mul(h, g)
            comms.add(G.mul(gh, G.inv(hg)))
    return generated_subgroup(G, comms)


def subgroup_as_group(S: Subgroup) -> tuple[FiniteGroup, list[int]]:
    """Reify a subgroup as a standalone group.

    Returns (group, embedding) where embedding[new_index] = parent index;
    the identity keeps index 0 because members are sorted.
    """
    mem = list(S.members)
    pos = {p: i for i, p in enumerate(mem)}
    n = len(mem)
    tbl = np.empty((n, n), dtype=np.int64)
    for i, a in enumerate(mem):
        for j, b in enumerate(mem):
            tbl[i, j] = pos[S.parent.mul(a, b)]
    return FiniteGroup(tbl, name="subgroup"), mem


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


def left_cosets(G: FiniteGroup, S: Subgroup) -> list[tuple[int, ...]]:
    """Left cosets gS, the identity coset first, the rest sorted by their
    minimal element (which serves as the canonical representative)."""
    seen = set()
    cosets = []
    for g in G.elements():
        if g in seen:
            continue
        coset = tuple(sorted(G.mul(g, s) for s in S.members))
        seen.update(coset)
        cosets.append(coset)
    cosets.sort(key=lambda c: c[0])
    return cosets


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, Homomorphism, np.ndarray]:
    """Quotient by a normal subgroup.

    Returns (Q, projection, lift) where lift[q] is the minimal-index coset
    representative, so lift[0] = 0.
    """
    if N.parent is not G:
        raise InvalidGroupError("subgroup belongs to a different parent group")
    if not N.is_normal():
        raise InvalidGroupError("subgroup is not normal")
    cosets = left_cosets(G, N)
    belong = np.empty(G.order, dtype=np.int64)
    for qi, coset in enumerate(cosets):
        for x in coset:
            belong[x] = qi
    k = len(cosets)
    lift = np.array([c[0] for c in cosets], dtype=np.int64)
    tbl = np.empty((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            tbl[i, j] = belong[G.mul(int(lift[i]), int(lift[j]))]
    Q = FiniteGroup(tbl, name=f"{G.name or '?'}/N")
    proj = Homomorphism(G, Q, belong)
    lift.setflags(write=False)
    return Q, proj, lift


def element_order_profile(G: FiniteGroup) -> tuple[int, ...]:
    """Sorted multiset of element orders."""
    return tuple(sorted(G.order_of(i) for i in G.elements()))


def is_isomorphic_small(G: FiniteGroup, H: FiniteGroup) -> bool:
    """Exact isomorphism test for groups of order <= 16.

    Backtracks over images of a generating sequence, pruned by element
    orders; a candidate assignment is closed into a full map by walking the
    Cayley graph, which checks multiplicativity everywhere.
    """
    if G.order != H.order:
        return False
    if G.order > 16:
        raise ResourceCapError(f"isomorphism search capped at order 16, got {G.order}")
    if element_order_profile(G) != element_order_profile(H):
        return False
    if G.is_abelian() != H.is_abelian():
        return False
    if center(G).order != center(H).order:
        return False

    # greedy generating sequence, largest order first to shrink the search
    gens: list[int] = []
    closure = {0}
    by_order = sorted(G.elements(), key=lambda i: -G.order_of(i))
    while len(closure) < G.order:
        nxt = next(i for i in by_order if i not in closure)
        gens.append(nxt)
        closure = set(generated_subgroup(G, gens).members)

    h_orders = [H.order_of(i) for i in H.elements()]

    def extend(assigned: dict[int, int], images: list[int]) -> bool:
        if len(images) == len(gens):
            return len(assigned) == G.order
        g = gens[len(images)]
        want = G.order_of(g)
        for h in H.elements():
            if h_orders[h] != want or h in assigned.values():
                continue
            trial = dict(assigned)
            trial[g] = h
            if _close_map(G, H, trial, gens[: len(images) + 1], images + [h]):
                if extend(trial, images + [h]):
                    return True
        return False

    def _close_map(G, H, partial, cur_gens, cur_imgs) -> bool:
        # saturate under right multiplication by the chosen generators,
        # rejecting any inconsistency or collision
        queue = list(partial.keys())
        values = set(partial.values())
        if len(values) != len(partial):
            return False
        while queue:
            x = queue.pop()
            fx = partial[x]
            for g, h in zip(cur_gens, cur_imgs):
                y = G.mul(x, g)
                fy = H.mul(fx, h)
                if y in partial:
                    if partial[y] != fy:
                        return False
                else:
                    if fy in values:
                        return False
                    partial[y] = fy
                    values.add(fy)
                    queue.append(y)
        return True

    return extend({0: 0}, [])
