"""Independent answers the benchmark checks outputs against.

Abelian invariants are classified by counting element orders and
conjugacy classes by walking orbits, with no normal form involved (the
same arguments as the test suite's oracles).
"""

from __future__ import annotations


def conjugacy_class_count(table) -> int:
    m = len(table)
    inv = [row.index(0) for row in table]
    seen: set[int] = set()
    count = 0
    for g in range(m):
        if g in seen:
            continue
        count += 1
        seen.update(table[table[h][g]][inv[h]] for h in range(m))
    return count


def _commutator_closure(table) -> set[int]:
    m = len(table)
    inv = [row.index(0) for row in table]
    comms = {table[table[a][b]][table[inv[a]][inv[b]]] for a in range(m) for b in range(m)}
    closure = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for c in comms:
            y = table[x][c]
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return closure


def abelianization_orders(table) -> list[int]:
    """Element orders of G/[G,G], one entry per coset."""
    m = len(table)
    K = _commutator_closure(table)
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for g in range(m):
        if g in coset_of:
            continue
        for k in K:
            coset_of[table[g][k]] = len(reps)
        reps.append(g)
    orders = []
    for g in reps:
        k, x = 1, g
        while coset_of[x] != coset_of[0]:
            x = table[x][g]
            k += 1
        orders.append(k)
    return orders


def invariants_by_counting(orders: list[int]) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group from its element orders.

    For each prime p, #{x : x^(p^e) = 1} = p^(r_e), and the jumps of r
    give the multiplicity of each cyclic p-power factor.
    """
    n = len(orders)
    prime_powers: list[int] = []
    rest, p = n, 2
    while rest > 1:
        if rest % p:
            p += 1
            continue
        while rest % p == 0:
            rest //= p
        ranks = [0]
        e = 1
        while True:
            n_e = sum(1 for o in orders if p**e % o == 0)
            r = 0
            while p**r < n_e:
                r += 1
            ranks.append(r)
            if len(ranks) >= 3 and ranks[-1] == ranks[-2]:
                break
            e += 1
        jumps = [ranks[i] - ranks[i - 1] for i in range(1, len(ranks))]
        for e, d in enumerate(jumps, start=1):
            nxt = jumps[e] if e < len(jumps) else 0
            prime_powers.extend([p**e] * (d - nxt))
        p += 1
    # invariant factors: combine the largest power of each prime, then the next
    by_prime: dict[int, list[int]] = {}
    for q in prime_powers:
        base = next(b for b in range(2, q + 1) if q % b == 0)
        by_prime.setdefault(base, []).append(q)
    for qs in by_prime.values():
        qs.sort(reverse=True)
    factors = []
    while any(by_prime.values()):
        f = 1
        for qs in by_prime.values():
            if qs:
                f *= qs.pop(0)
        factors.append(f)
    return tuple(sorted(factors))
