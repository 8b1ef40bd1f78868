"""Circle-valued 2-cocycles on finite groups with exact rational angles.

A value e^(2 pi i a) is stored as the reduced fraction a in [0, 1), so the
cocycle identity, coboundary tests, and class comparisons are decided
exactly.  The flat C2 ordering (pair (i, j) at index i*m + j) matches the
bar-complex basis in the homology module, which is what makes the pairing
with representative 2-cycles meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import IdentityViolationError, InvalidGroupError
from .groups import FiniteGroup, Subgroup, klein
from .homology import Character, SplittingData, H2Presentation, build_chain, h2_presentation

_INT_CHECK_LIMIT = 1 << 31


def _as_angle(value) -> Fraction:
    return Fraction(value) % 1


def _angle_table(group: FiniteGroup, raw) -> np.ndarray:
    m = group.order
    arr = np.asarray(raw, dtype=object)
    if arr.shape != (m, m):
        raise ValueError(f"angle table must be {m}x{m}, got {arr.shape}")
    out = np.empty((m, m), dtype=object)
    for i in range(m):
        for j in range(m):
            out[i, j] = _as_angle(arr[i, j])
    return out


@dataclass(frozen=True, eq=False)
class Cocycle2:
    """A validated T-valued 2-cocycle; angles[i, j] is the angle of
    omega(g_i, g_j).  Construction runs the exact identity check over all
    triples and raises IdentityViolationError with a witness otherwise."""

    group: FiniteGroup
    angles: np.ndarray

    def __post_init__(self):
        table = _angle_table(self.group, self.angles)
        table.setflags(write=False)
        object.__setattr__(self, "angles", table)
        _check_identity(self.group, table)

    def angle(self, i: int, j: int) -> Fraction:
        return self.angles[i, j]

    def flat(self) -> np.ndarray:
        """Angles over the flat pair basis, aligned with the bar complex."""
        return self.angles.reshape(-1)

    def is_trivial_table(self) -> bool:
        return not any(a for a in self.angles.flat)

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "angles": [[str(a) for a in row] for row in self.angles],
        }


def _check_identity(G: FiniteGroup, table: np.ndarray):
    m = G.order
    tbl = G.table
    denoms = lcm(*(a.denominator for a in table.flat)) if table.size else 1
    if denoms <= _INT_CHECK_LIMIT:
        A = np.empty((m, m), dtype=np.int64)
        for i in range(m):
            for j in range(m):
                a = table[i, j]
                A[i, j] = a.numerator * (denoms // a.denominator)
        lhs = A[:, tbl] + A[None, :, :]
        rhs = A[tbl, :] + A[:, :, None]
        bad = np.argwhere((lhs - rhs) % denoms != 0)
    else:
        bad = []
        for g1 in range(m):
            for g2 in range(m):
                for g3 in range(m):
                    l = table[g1, tbl[g2, g3]] + table[g2, g3]
                    r = table[tbl[g1, g2], g3] + table[g1, g2]
                    if (l - r) % 1 != 0:
                        bad.append((g1, g2, g3))
        bad = np.array(bad[:1])
    if len(bad):
        g1, g2, g3 = (int(x) for x in bad[0])
        raise IdentityViolationError(
            f"cocycle identity fails at triple ({g1}, {g2}, {g3})", triple=(g1, g2, g3)
        )


def check_cocycle(group: FiniteGroup, candidate) -> Cocycle2:
    """Validate a raw rational angle table into a Cocycle2."""
    return Cocycle2(group, _angle_table(group, candidate))


@dataclass(frozen=True)
class Cochain1:
    """A 1-cochain: one angle per group element."""

    group: FiniteGroup
    angles: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(_as_angle(a) for a in self.angles)
        if len(vals) != self.group.order:
            raise ValueError("one angle per group element required")
        object.__setattr__(self, "angles", vals)

    def __call__(self, i: int) -> Fraction:
        return self.angles[i]


def coboundary(gamma: Cochain1) -> Cocycle2:
    """(d gamma)(g, h) = gamma(g) + gamma(h) - gamma(gh), always a cocycle."""
    G = gamma.group
    m = G.order
    table = np.empty((m, m), dtype=object)
    for i in range(m):
        for j in range(m):
            table[i, j] = (gamma(i) + gamma(j) - gamma(G.mul(i, j))) % 1
    return Cocycle2(G, table)


def multiply(a: Cocycle2, b: Cocycle2) -> Cocycle2:
    if a.group is not b.group and not np.array_equal(a.group.table, b.group.table):
        raise ValueError("cocycles live on different groups")
    m = a.group.order
    table = np.empty((m, m), dtype=object)
    for i in range(m):
        for j in range(m):
            table[i, j] = (a.angles[i, j] + b.angles[i, j]) % 1
    return Cocycle2(a.group, table)


def conjugate(a: Cocycle2) -> Cocycle2:
    """Pointwise complex conjugate (angle negation)."""
    m = a.group.order
    table = np.empty((m, m), dtype=object)
    for i in range(m):
        for j in range(m):
            table[i, j] = (-a.angles[i, j]) % 1
    return Cocycle2(a.group, table)


def normalize(omega: Cocycle2) -> tuple[Cocycle2, Cochain1]:
    """A cohomologous representative with omega'(g, g^-1) = 0 for every g
    (in particular omega'(e, e) = 0), plus the adjusting 1-cochain.

    gamma(e) cancels omega(e, e); each inverse pair {g, g^-1} splits the
    required total correction -omega(g, g^-1) - omega(e, e) evenly.  The
    defining conditions are re-verified on the result.
    """
    G = omega.group
    m = G.order
    oee = omega.angles[0, 0]
    gamma = [Fraction(0)] * m
    gamma[0] = (-oee) % 1
    for g in range(1, m):
        need = (-omega.angles[g, G.inv(g)] - oee) % 1
        gamma[g] = need / 2
    cochain = Cochain1(G, tuple(gamma))
    result = multiply(omega, coboundary(cochain))
    for g in range(m):
        if result.angles[g, G.inv(g)] != 0:
            raise IdentityViolationError(f"normalization failed at element {g}")
    return result, cochain


def induced_character(omega: Cocycle2, split) -> Character:
    """The class of omega as a character of H2, via pairing with the
    representative 2-cycles.  Well-defined because a cocycle kills
    boundaries, and independent of the splitting."""
    pres: H2Presentation = split.h2 if isinstance(split, SplittingData) else split
    if not np.array_equal(pres.chain.group.table, omega.group.table):
        raise ValueError("cocycle and presentation live on different groups")
    flat = omega.flat()
    angles = []
    for i in range(len(pres.invariant_factors)):
        cyc = pres.cycles[:, i]
        total = sum((a * int(c) for a, c in zip(flat, cyc)), Fraction(0))
        angles.append(total % 1)
    return Character(pres.invariant_factors, tuple(angles))


def cohomologous(a: Cocycle2, b: Cocycle2, presentation: H2Presentation | None = None) -> bool:
    """True iff the two cocycles induce the same character of H2."""
    if not np.array_equal(a.group.table, b.group.table):
        raise ValueError("cocycles live on different groups")
    if presentation is None:
        presentation = h2_presentation(build_chain(a.group))
    return induced_character(a, presentation).angles == induced_character(b, presentation).angles


# ---------------------------------------------------------------------------
# characters of abelian subgroups and the central-extension cocycle


def subgroup_characters(S: Subgroup) -> list[dict[int, Fraction]]:
    """All homomorphisms from an abelian subgroup into Q/Z, each as a map
    from parent element index to angle.  The trivial character comes first."""
    G = S.parent
    mem = list(S.members)
    inside = set(mem)
    for a in mem:
        for b in mem:
            if G.mul(a, b) != G.mul(b, a):
                raise InvalidGroupError("subgroup is not abelian")
    # choose generators greedily, then extend angle assignments by closure
    gens: list[int] = []
    closure = {0}
    while len(closure) < len(mem):
        nxt = max((x for x in mem if x not in closure), key=lambda x: G.order_of(x))
        gens.append(nxt)
        new = set(closure)
        frontier = list(closure)
        while frontier:
            x = frontier.pop()
            y = G.mul(x, nxt)
            if y not in new:
                new.add(y)
                frontier.append(y)
        closure = new

    out: list[dict[int, Fraction]] = []

    def assign(idx: int, current: dict[int, Fraction]):
        if idx == len(gens):
            out.append(dict(current))
            return
        g = gens[idx]
        o = G.order_of(g)
        for t in range(o):
            trial = dict(current)
            ok = True
            frontier = list(trial.keys())
            trial_g = Fraction(t, o)
            # close under multiplication by g
            while frontier:
                x = frontier.pop()
                y = G.mul(x, g)
                val = (trial[x] + trial_g) % 1
                if y in trial:
                    if trial[y] != val:
                        ok = False
                        break
                else:
                    trial[y] = val
                    frontier.append(y)
            if ok:
                assign(idx + 1, trial)

    assign(0, {0: Fraction(0)})
    complete = [c for c in out if len(c) == len(mem)]
    complete.sort(key=lambda c: tuple(c[x] for x in mem))
    if len(complete) != len(mem):
        raise InvalidGroupError("character count mismatch on abelian subgroup")
    return complete


def sigma_chi(G: FiniteGroup, N: Subgroup, chi) -> Cocycle2:
    """The 2-cocycle on G/N measuring the failure of the canonical lift to
    be a homomorphism, evaluated through a character of the central N:

        sigma([s], [t]) = chi( c([s]) c([t]) c([s t])^-1 ).
    """
    from .groups import center, quotient  # local import to keep module load light

    if N.parent is not G:
        raise InvalidGroupError("subgroup belongs to a different group")
    central = set(center(G).members)
    if not set(N.members) <= central:
        raise InvalidGroupError("subgroup is not central")
    chi_map = {int(k): _as_angle(v) for k, v in dict(chi).items()}
    if set(chi_map) != set(N.members):
        raise InvalidGroupError("character must be defined exactly on the subgroup")
    if chi_map[0] != 0:
        raise InvalidGroupError("character must send the identity to angle 0")
    for a in N.members:
        for b in N.members:
            if (chi_map[a] + chi_map[b]) % 1 != chi_map[G.mul(a, b)]:
                raise InvalidGroupError("character is not multiplicative")
    Q, proj, lift = quotient(G, N)
    k = Q.order
    table = np.empty((k, k), dtype=object)
    for s in range(k):
        for t in range(k):
            st = Q.mul(s, t)
            g = G.mul(G.mul(int(lift[s]), int(lift[t])), G.inv(int(lift[st])))
            table[s, t] = chi_map[g]
    return Cocycle2(Q, table)


# ---------------------------------------------------------------------------
# shipped cocycles and JSON


def trivial_cocycle(G: FiniteGroup) -> Cocycle2:
    return Cocycle2(G, np.full((G.order, G.order), Fraction(0), dtype=object))


def klein_bicharacter() -> Cocycle2:
    """The shipped order-2 bicharacter on the Klein group: with elements
    a^i b^j at index i + 2j, the angle of omega(a^i b^j, a^k b^l) is jk/2.

    This is a valid 2-cocycle (bicharacters always are) whose class
    generates the order-2 second cohomology.  Note it is not the literal
    sign formula one might first write down: any table with
    omega(e, g) != omega(e, e) fails the cocycle identity at (e, e, g),
    so a "(-1)^(ij - kl)" style table is rejected by check_cocycle.
    """
    K = klein()
    table = np.empty((4, 4), dtype=object)
    for s in range(4):
        for t in range(4):
            j = (s >> 1) & 1
            kk = t & 1
            table[s, t] = Fraction(j * kk, 2)
    return Cocycle2(K, table)


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
    from .groups import group_from_json, resolve_group_string

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
