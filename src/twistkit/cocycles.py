"""Rational angles: 2-cocycles, 1-cochains, characters of H2 and of central subgroups.

A value e^(2 pi i a) has a rational angle a in [0, 1).  This is the one
module that knows an angle is a rational: every angle object here holds
int64 numerators num over one q <= MAX_DENOMINATOR = 2**52, in lowest
terms with 0 <= num < q, so identities and class comparisons are exact
integer arithmetic mod q, and other modules pass (num, q).  Rationals
become numerators only in _numerators; Fraction appears otherwise only in
the .angles views and in JSON.  The flat C2 ordering (pair (i, j) at index
i*m + j) matches the bar-complex basis of the homology module, which makes
the pairing with representative 2-cycles meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import IdentityViolationError, InvalidGroupError
from .groups import FiniteGroup, Subgroup, center, klein, mixed_radix
from .groups import group_from_json, resolve_group_string

# with q <= 2**52 a sum of two numerators is below 2**53, so it converts to
# float64 exactly and a phase e^(2 pi i num/q) rounds exactly as the
# Fraction angle does; 3q also fits int64 for the identity check
MAX_DENOMINATOR = 2**52

# the identity check holds about this many int64 triples (8 MB) at a time
_TRIPLE_CHUNK = 1 << 20


def _numerators(angles, q: int | None = None, wrap: bool = True) -> tuple[np.ndarray, int]:
    """Angles as read-only int64 numerators over q in lowest terms, in the shape
    given, from integer numerators over q, or with q None from rationals
    (anything Fraction accepts) over their least common denominator, reduced
    mod 1 or with wrap=False refused outside [0, 1)."""
    shape = np.shape(angles)
    if q is None:
        fracs = [a if isinstance(a, Fraction) else Fraction(a) for a in np.asarray(angles, dtype=object).flat]
        q = lcm(*(f.denominator for f in fracs))
        angles = [f.numerator * (q // f.denominator) for f in fracs]
        if not wrap and not all(0 <= n < q for n in angles):
            raise ValueError("angles must lie in [0, 1)")
        angles = [n % q for n in angles]
    if q > MAX_DENOMINATOR:
        raise ValueError(
            f"the angles need a common denominator of {q.bit_length()} bits, "
            f"above MAX_DENOMINATOR = 2**52"
        )
    num = np.mod(np.asarray(angles, dtype=np.int64), q).reshape(shape)
    common = gcd(q, int(np.gcd.reduce(num, axis=None)))
    num //= common
    num.setflags(write=False)
    return num, q // common


@dataclass(frozen=True, eq=False, init=False)
class Cocycle2:
    """A validated T-valued 2-cocycle: omega(g_i, g_j) has angle
    num[i, j] / q.  Construction runs the exact identity check over all
    triples and raises IdentityViolationError with a witness otherwise.

    Cocycle2(group, table) takes an (m, m) table of rationals;
    Cocycle2(group, numerators, q) takes integer numerators over q."""

    group: FiniteGroup
    num: np.ndarray
    q: int

    def __init__(self, group: FiniteGroup, angles, q: int | None = None):
        m = group.order
        if np.shape(angles) != (m, m):
            raise ValueError(f"angle table must be {m}x{m}, got {np.shape(angles)}")
        num, q = _numerators(angles, q)
        vars(self).update(group=group, num=num, q=q)  # frozen: set once, here
        _check_identity(group, num, q)

    @property
    def angles(self) -> np.ndarray:
        """The reduced Fraction angles, a read-only (m, m) object array made on each access."""
        out = np.array([Fraction(n, self.q) for n in self.num.ravel().tolist()], dtype=object)
        out = out.reshape(self.num.shape)
        out.setflags(write=False)
        return out

    def is_trivial_table(self) -> bool:
        return not self.num.any()

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "angles": [[str(Fraction(n, self.q)) for n in row] for row in self.num.tolist()],
        }


def _check_identity(G: FiniteGroup, num: np.ndarray, q: int):
    """Every triple, a chunk of about _TRIPLE_CHUNK triples (whole g1 rows) at
    a time; the first failing triple in row-major order is the witness."""
    tbl, m = G.table, G.order
    rows = max(1, _TRIPLE_CHUNK // (m * m))
    for g0 in range(0, m, rows):
        g1 = slice(g0, g0 + rows)
        # omega(g1, g2 g3) + omega(g2, g3) - omega(g1 g2, g3) - omega(g1, g2), indexed (g1, g2, g3)
        excess = num[g1][:, tbl]
        excess += num
        excess -= num[tbl[g1]]
        excess -= num[g1, :, None]
        excess %= q
        if excess.any():
            a, g2, g3 = (int(x) for x in np.argwhere(excess)[0])
            raise IdentityViolationError(
                f"cocycle identity fails at triple ({g0 + a}, {g2}, {g3})", triple=(g0 + a, g2, g3)
            )


def check_cocycle(group: FiniteGroup, candidate) -> Cocycle2:
    """Validate a raw rational angle table into a Cocycle2."""
    return Cocycle2(group, candidate)


@dataclass(frozen=True, eq=False, init=False)
class Cochain1:
    """A 1-cochain: gamma(g_i) has angle num[i] / q.  Cochain1(group, angles) takes one
    rational per element, Cochain1(group, numerators, q) integer numerators over q."""

    group: FiniteGroup
    num: np.ndarray
    q: int

    def __init__(self, group: FiniteGroup, angles, q: int | None = None):
        num, q = _numerators(angles, q)
        if num.shape != (group.order,):
            raise ValueError("one angle per group element required")
        vars(self).update(group=group, num=num, q=q)

    @property
    def angles(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.q) for n in self.num.tolist())


def coboundary(gamma: Cochain1) -> Cocycle2:
    """(d gamma)(g, h) = gamma(g) + gamma(h) - gamma(gh), always a cocycle."""
    G, c = gamma.group, gamma.num
    return Cocycle2(G, c[:, None] + c[None, :] - c[G.table], gamma.q)


def multiply(a: Cocycle2, b: Cocycle2) -> Cocycle2:
    if a.group is not b.group and not np.array_equal(a.group.table, b.group.table):
        raise ValueError("cocycles live on different groups")
    q = lcm(a.q, b.q)  # above MAX_DENOMINATOR the sum may overflow, but Cocycle2 rejects q first
    return Cocycle2(a.group, a.num * (q // a.q) + b.num * (q // b.q), q)


def normalize(omega: Cocycle2) -> tuple[Cocycle2, Cochain1]:
    """A cohomologous representative with omega'(g, g^-1) = 0 for every g
    (in particular omega'(e, e) = 0), plus the adjusting 1-cochain.  An
    omega that already satisfies this is returned as it is.

    gamma(e) cancels omega(e, e); each inverse pair {g, g^-1} splits the
    required total correction -omega(g, g^-1) - omega(e, e) evenly, so the
    result lives over the denominator 2q.  The defining conditions are
    re-verified on the result.
    """
    G = omega.group
    m = G.order
    diagonal = (np.arange(m), G.inverse)
    if not omega.num[diagonal].any():
        return omega, Cochain1(G, np.zeros(m, dtype=np.int64), 1)
    num, q = omega.num, omega.q
    # the correction over q, read over 2q, is half of it
    gamma = (-num[diagonal] - num[0, 0]) % q
    gamma[0] = 2 * (-num[0, 0] % q)
    result = Cocycle2(G, 2 * num + gamma[:, None] + gamma[None, :] - gamma[G.table], 2 * q)
    bad = np.flatnonzero(result.num[diagonal])
    if bad.size:
        raise IdentityViolationError(f"normalization failed at element {bad[0]}")
    return result, Cochain1(G, gamma, 2 * q)


@dataclass(frozen=True, eq=False, init=False)
class Character:
    """A homomorphism H2 -> Q/Z: the generator of Z/d_i goes to angle num[i] / q, of order
    dividing d_i.  Character(factors, angles) takes rationals in [0, 1),
    Character(factors, numerators, q) integer numerators over q."""

    invariant_factors: tuple[int, ...]
    num: np.ndarray
    q: int

    def __init__(self, invariant_factors, angles, q: int | None = None):
        factors = tuple(int(d) for d in invariant_factors)
        num, q = _numerators(angles, q, wrap=False)
        if num.shape != (len(factors),):
            raise ValueError("one angle per invariant factor required")
        # d num = 0 mod q exactly when q / gcd(q, d) divides num
        bad = np.flatnonzero(num % (q // np.gcd(q, np.array(factors, dtype=np.int64))))
        if bad.size:
            raise ValueError(f"angle {num[bad[0]]}/{q} has order not dividing {factors[bad[0]]}")
        vars(self).update(invariant_factors=factors, num=num, q=q)

    @property
    def angles(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.q) for n in self.num.tolist())

    def __call__(self, coords) -> int:
        """The numerator over q of the value at the given H2 coordinates."""
        return int(np.asarray(coords, dtype=np.int64) @ self.num % self.q)

    @property
    def is_trivial(self) -> bool:
        return not self.num.any()


def characters_for_factors(factors) -> list[Character]:
    """All characters of the sum of the Z/d_i, in mixed-radix order of their
    numerators t_i over d_i (first factor most significant): trivial first."""
    factors = tuple(int(d) for d in factors)
    q, (digits, _) = lcm(*factors), mixed_radix(factors)
    return [Character(factors, t, q) for t in digits * (q // np.array(factors, dtype=np.int64))]


# ---------------------------------------------------------------------------
# characters of central subgroups


def central_character(G: FiniteGroup, N: Subgroup, num, q: int) -> tuple[np.ndarray, int]:
    """Check a character of a central subgroup N, given by its numerators
    over q on N.members, exactly: N is central in G, there is one numerator
    per member, and chi(ab) = chi(a) + chi(b) mod q on every pair.  Returns
    its numerators on all of G (0 off N) and q, in lowest terms."""
    if N.parent is not G:
        raise InvalidGroupError("subgroup belongs to a different group")
    members = np.array(N.members, dtype=np.int64)
    if not center(G).indicator[members].all():
        raise InvalidGroupError("subgroup is not central")
    num, q = _numerators(num, q)
    if num.shape != members.shape:
        raise InvalidGroupError("character must be defined exactly on the subgroup")
    chi = np.zeros(G.order, dtype=np.int64)
    chi[members] = num
    if np.any(chi[G.table[members[:, None], members]] != (num[:, None] + num) % q):
        raise InvalidGroupError("character is not multiplicative")
    return chi, q


# ---------------------------------------------------------------------------
# shipped cocycles and JSON


def trivial_cocycle(G: FiniteGroup) -> Cocycle2:
    return Cocycle2(G, np.zeros((G.order, G.order), dtype=np.int64), 1)


def klein_bicharacter() -> Cocycle2:
    """The shipped order-2 bicharacter on the Klein group: with elements
    a^i b^j at index i + 2j, the angle of omega(a^i b^j, a^k b^l) is jk/2.

    This is a valid 2-cocycle (bicharacters always are) whose class
    generates the order-2 second cohomology.  Note it is not the literal
    sign formula one might first write down: any table with
    omega(e, g) != omega(e, e) fails the cocycle identity at (e, e, g),
    so a "(-1)^(ij - kl)" style table is rejected by check_cocycle.
    """
    s = np.arange(4)
    return Cocycle2(klein(), np.outer((s >> 1) & 1, s & 1), 2)


def builtin_cocycle(name: str, G: FiniteGroup) -> Cocycle2:
    """Cocycles addressable by name: 'trivial' on any group, 'paper-klein'
    on the Klein group only (exact enumeration required)."""
    if name == "trivial":
        return trivial_cocycle(G)
    if name == "paper-klein":
        if not np.array_equal(G.table, klein().table):
            raise ValueError("cocycle 'paper-klein' requires the builtin klein group")
        return klein_bicharacter()
    raise ValueError(f"unknown cocycle {name!r}")


def cocycle_from_json(data: dict, group: FiniteGroup | None = None) -> Cocycle2:
    """Load {"group": ..., "angles": [["p/q", ...], ...]}.

    The group may be a full group document or omitted when passed in
    explicitly; angle strings are rationals like "1/2" or "0".
    """
    if not isinstance(data, dict) or "angles" not in data:
        raise ValueError('cocycle document needs an "angles" field')
    if group is None:
        if "group" not in data:
            raise ValueError('cocycle document needs a "group" field')
        spec = data["group"]
        group = resolve_group_string(spec) if isinstance(spec, str) else group_from_json(spec)
    raw = data["angles"]
    m = group.order
    if not isinstance(raw, list) or len(raw) != m or any(
        not isinstance(r, list) or len(r) != m for r in raw
    ):
        raise ValueError(f'"angles" must be a {m}x{m} array')
    table = np.empty((m, m), dtype=object)
    for i in range(m):
        for j in range(m):
            try:
                table[i, j] = Fraction(str(raw[i][j]))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"angles[{i}][{j}] is not a rational number: {exc}") from exc
    return check_cocycle(group, table)
