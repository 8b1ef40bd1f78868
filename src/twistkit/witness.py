"""Finite subsets of infinite groups that no nontrivial translation fixes.

Groups are given by normal-form oracles: hashable elements with exact
multiplication and inversion, a designated non-identity element g of known
order, and (when that order is finite) an enumerator of left-coset
representatives of the cyclic subgroup g generates.  The constructor
produces, by case on the order of g:

  * order infinite:  F = {g^j : j = 0, ..., n-1},  |F| = n
  * order m finite:  F = (union of n distinct cosets t_i <g>) minus {e},
                     |F| = n*m - 1

and the verifier checks hF != F for every non-identity h in a word ball,
which is the strongest falsifiable form of the defining property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OracleInconsistencyError

INF = math.inf


class ElementOracle:
    """Base class for normal-form group oracles.

    Subclasses set label, identity, generators (for word balls), the
    distinguished element, and its order, and implement mul/inv.  Elements
    must be hashable with semantic equality."""

    label: str = "?"
    identity = None
    generators: tuple = ()
    distinguished = None
    distinguished_order: float = INF

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def coset_reps(self, count: int) -> list:
        """First `count` left-coset representatives of the subgroup the
        distinguished element generates, the identity's coset first.  Only
        needed when the distinguished order is finite."""
        raise NotImplementedError

    def power(self, a, j: int):
        out = self.identity
        step = a if j >= 0 else self.inv(a)
        for _ in range(abs(j)):
            out = self.mul(out, step)
        return out


class IntegerOracle(ElementOracle):
    """The integers under addition."""

    label = "Z"
    identity = 0
    generators = (1,)
    distinguished = 1

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a


class LatticeOracle(ElementOracle):
    """The rank-two integer lattice under addition."""

    label = "Z2"
    identity = (0, 0)
    generators = ((1, 0), (0, 1))
    distinguished = (1, 0)

    def mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def inv(self, a):
        return (-a[0], -a[1])


class InfiniteDihedralOracle(ElementOracle):
    """Normal forms (n, r) with r in {0, 1}: translation part and flip bit,
    (n1, r1)(n2, r2) = (n1 + (-1)^r1 n2, r1 xor r2)."""

    label = "Dinf"
    identity = (0, 0)
    generators = ((1, 0), (0, 1))
    distinguished = (1, 0)

    def mul(self, a, b):
        sign = -1 if a[1] else 1
        return (a[0] + sign * b[0], a[1] ^ b[1])

    def inv(self, a):
        return a if a[1] else (-a[0], 0)


class IntegerWithFlipOracle(ElementOracle):
    """The direct product of the integers with a two-element group; the
    distinguished element is the flip, of order two."""

    label = "ZxZ2"
    identity = (0, 0)
    generators = ((1, 0), (0, 1))
    distinguished = (0, 1)
    distinguished_order = 2

    def mul(self, a, b):
        return (a[0] + b[0], (a[1] + b[1]) % 2)

    def inv(self, a):
        return (-a[0], a[1])

    def coset_reps(self, count: int) -> list:
        return [(i, 0) for i in range(count)]


ORACLES = {
    "Z": IntegerOracle(),
    "Z2": LatticeOracle(),
    "Dinf": InfiniteDihedralOracle(),
    "ZxZ2": IntegerWithFlipOracle(),
}


@dataclass(frozen=True)
class WitnessSet:
    """A finite set of distinct elements with |F| >= the requested n."""

    elements: tuple
    requested: int
    case: str

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("witness elements must be distinct")
        if len(self.elements) < self.requested:
            raise ValueError("witness set smaller than requested")


def word_ball(oracle: ElementOracle, radius: int) -> list:
    """All elements of word length <= radius in the generators and their
    inverses, in deterministic breadth-first order starting at the
    identity."""
    steps = list(oracle.generators) + [oracle.inv(g) for g in oracle.generators]
    seen = {oracle.identity}
    order = [oracle.identity]
    frontier = [oracle.identity]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for s in steps:
                y = oracle.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    order.append(y)
                    nxt.append(y)
        frontier = nxt
    return order


def check_oracle(oracle: ElementOracle):
    """Sampled group-axiom audit: identity and inverse laws on the word ball
    of radius 2, associativity on all triples of its first 12 elements, and
    the declared order of the distinguished element."""
    e = oracle.identity
    g = oracle.distinguished
    if g == e:
        raise OracleInconsistencyError("distinguished element equals the identity")
    ball = word_ball(oracle, 2)
    for a in ball:
        if oracle.mul(a, e) != a or oracle.mul(e, a) != a:
            raise OracleInconsistencyError(f"identity law fails at {a!r}")
        if oracle.mul(a, oracle.inv(a)) != e or oracle.mul(oracle.inv(a), a) != e:
            raise OracleInconsistencyError(f"inverse law fails at {a!r}")
    sample = ball[:12]
    for a in sample:
        for b in sample:
            ab = oracle.mul(a, b)
            for c in sample:
                if oracle.mul(ab, c) != oracle.mul(a, oracle.mul(b, c)):
                    raise OracleInconsistencyError(
                        f"associativity fails at ({a!r}, {b!r}, {c!r})"
                    )
    m = oracle.distinguished_order
    if m != INF:
        if m < 2 or int(m) != m:
            raise OracleInconsistencyError("finite order must be an integer >= 2")
        acc = e
        for j in range(1, int(m)):
            acc = oracle.mul(acc, g)
            if acc == e:
                raise OracleInconsistencyError(f"distinguished order less than declared ({j})")
        if oracle.mul(acc, g) != e:
            raise OracleInconsistencyError("distinguished order larger than declared")


def finite_subset_witness(oracle: ElementOracle, n: int) -> WitnessSet:
    """The case-split construction described in the module docstring."""
    if n < 1:
        raise ValueError("n must be positive")
    check_oracle(oracle)
    e = oracle.identity
    g = oracle.distinguished
    if oracle.distinguished_order == INF:
        elems = []
        acc = e
        for _ in range(n):
            elems.append(acc)
            acc = oracle.mul(acc, g)
        if len(set(elems)) != n:
            raise OracleInconsistencyError("powers collide despite declared infinite order")
        return WitnessSet(tuple(elems), n, "infinite-order")
    m = int(oracle.distinguished_order)
    reps = list(oracle.coset_reps(n))
    if len(reps) != n:
        raise OracleInconsistencyError("coset enumerator returned the wrong count")
    if reps[0] != e:
        raise OracleInconsistencyError("coset enumerator must start at the identity coset")
    powers = [oracle.power(g, j) for j in range(m)]
    elems = [oracle.mul(t, p) for t in reps for p in powers]
    elems = [x for x in elems if x != e]
    if len(set(elems)) != n * m - 1:
        raise OracleInconsistencyError("coset representatives are not in distinct cosets")
    return WitnessSet(tuple(elems), n, "finite-order")


def _jsonable(x):
    return list(x) if isinstance(x, tuple) else x


def verify_witness(oracle: ElementOracle, witness: WitnessSet, radius: int) -> dict:
    """Check hF != F for every non-identity h of word length <= radius.

    Returns a report with the number of translates checked and any
    violating h; `passed` is True when no translation fixes F.  A radius
    below 1 checks no translate, so it is rejected rather than passed."""
    if radius < 1:
        raise ValueError(f"radius must be at least 1, got {radius}")
    F = set(witness.elements)
    ball = word_ball(oracle, radius)
    violations = []
    checked = 0
    for h in ball:
        if h == oracle.identity:
            continue
        checked += 1
        if {oracle.mul(h, f) for f in F} == F:
            violations.append(_jsonable(h))
    return {
        "group": oracle.label,
        "case": witness.case,
        "set_size": len(witness.elements),
        "requested": witness.requested,
        "radius": radius,
        "checked": checked,
        "violations": violations,
        "passed": not violations,
    }
