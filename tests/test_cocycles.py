"""Exact rational 2-cocycles: identity checking, coboundaries, classes."""

import io
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from instances import small_groups
from reference import cohomologous, induced_character, sigma_chi, subgroup_characters

from twistkit import cocycles
from twistkit.cli import run
from twistkit.cocycles import (
    MAX_DENOMINATOR,
    Cochain1,
    Cocycle2,
    builtin_cocycle,
    check_cocycle,
    coboundary,
    cocycle_from_json,
    klein_bicharacter,
    multiply,
    normalize,
    trivial_cocycle,
)
from twistkit.errors import IdentityViolationError, InvalidGroupError
from twistkit.groups import (
    Subgroup,
    center,
    cyclic,
    dihedral,
    direct_product,
    generated_subgroup,
    klein,
    quaternion8,
    quotient,
    symmetric,
)
from twistkit.homology import build_chain, h2_presentation, make_splitting
from twistkit.staralg import _phase, scalar_system, twisted_group_algebra

F = Fraction


def random_cochain(G, rng, denom=8):
    return Cochain1(G, tuple(F(int(rng.integers(0, denom)), denom) for _ in range(G.order)))


@pytest.fixture(scope="module")
def klein_pres():
    return h2_presentation(build_chain(klein()))


class TestIdentityCheck:
    def test_zero_table_valid_everywhere(self):
        for G in [cyclic(1), cyclic(2), klein(), symmetric(3)]:
            om = trivial_cocycle(G)
            assert om.is_trivial_table()

    def test_klein_bicharacter_is_a_cocycle(self):
        om = klein_bicharacter()
        # omega(a^i b^j, a^k b^l) = jk/2 with index i + 2j
        assert om.angles[0, 1] == 0 and om.angles[1, 0] == 0
        assert om.angles[2, 1] == F(1, 2)  # b against a
        assert om.angles[1, 2] == 0  # a against b
        assert om.angles[3, 3] == F(1, 2)  # ab against ab: not normalized

    def test_identity_slot_constraint(self):
        # any table with omega(e, g) != omega(e, e) fails at (e, e, g)
        K = klein()
        bad = np.full((4, 4), F(0), dtype=object)
        bad[0, 3] = F(1, 2)
        with pytest.raises(IdentityViolationError) as ei:
            check_cocycle(K, bad)
        assert ei.value.triple is not None
        g1, g2, g3 = ei.value.triple
        assert g1 == 0 and g2 == 0

    def test_sign_formula_table_rejected(self):
        # the tempting alternating table (ij - kl)/2 violates the identity
        K = klein()
        bad = np.empty((4, 4), dtype=object)
        for s in range(4):
            for t in range(4):
                i, j = s & 1, (s >> 1) & 1
                k, l = t & 1, (t >> 1) & 1
                bad[s, t] = F((i * j - k * l) % 2, 2)
        with pytest.raises(IdentityViolationError):
            check_cocycle(K, bad)

    def test_violation_reports_concrete_triple(self):
        C2 = cyclic(2)
        bad = np.array([[F(0), F(0)], [F(1, 3), F(0)]], dtype=object)
        with pytest.raises(IdentityViolationError) as ei:
            check_cocycle(C2, bad)
        t = ei.value.triple
        # re-check the reported triple by hand
        tbl = C2.table
        g1, g2, g3 = t
        lhs = bad[g1, tbl[g2, g3]] + bad[g2, g3]
        rhs = bad[tbl[g1, g2], g3] + bad[g1, g2]
        assert (lhs - rhs) % 1 != 0

    def test_huge_denominator_falls_back_to_exact_loop(self):
        # lcm beyond the int64 fast path still validates correctly
        C2 = cyclic(2)
        big = (1 << 40) + 1
        gamma = Cochain1(C2, (F(0), F(1, big)))
        om = coboundary(gamma)  # valid; constructor check ran the slow path
        assert om.angles[1, 1] == F(2, big)
        bad = np.array(om.angles, dtype=object)
        bad[0, 1] += F(1, 7)  # breaks omega(e, g) = omega(e, e)
        with pytest.raises(IdentityViolationError) as ei:
            check_cocycle(C2, bad)
        assert ei.value.triple == (0, 0, 1)

    def test_shape_and_range_validation(self):
        K = klein()
        with pytest.raises(ValueError):
            check_cocycle(K, np.zeros((3, 4)))
        # integer shifts reduce into [0, 1) without changing the cocycle
        shifted = np.array(klein_bicharacter().angles, dtype=object)
        shifted[2, 1] += 1
        shifted[3, 1] -= 2
        om = check_cocycle(K, shifted)
        assert om.angles[2, 1] == F(1, 2) and om.angles[3, 1] == F(1, 2)

    def test_angles_readonly(self):
        om = trivial_cocycle(cyclic(3))
        with pytest.raises(ValueError):
            om.angles[0, 0] = F(1, 2)


def _first_failing_triple(G, num, q):
    # the unchunked reference scan over all m^3 triples in row-major order
    t = G.table
    excess = (num[:, t] + num[None, :, :] - num[t, :] - num[:, :, None]) % q
    return tuple(int(x) for x in np.argwhere(excess)[0])


class TestIdentityCheckChunks:
    def test_order_200_check_stays_small(self):
        # one unchunked (200, 200, 200) int64 temporary alone is 64 MB
        G = dihedral(100)
        tracemalloc.start()
        try:
            om = trivial_cocycle(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert om.is_trivial_table()
        assert peak < 32 * 2**20, f"identity check peaked at {peak / 2**20:.1f} MB"

    def test_every_single_corruption_reported_at_the_reference_triple(self, monkeypatch):
        # one g1 row per chunk, so the scan runs 12 chunks and a witness past
        # the first chunk must carry its chunk's offset
        G = dihedral(6)
        m = G.order
        monkeypatch.setattr(cocycles, "_TRIPLE_CHUNK", m * m)
        chunks = set()
        for i in range(m):
            for j in range(m):
                num = np.zeros((m, m), dtype=np.int64)
                num[i, j] = 1
                want = _first_failing_triple(G, num, 3)
                with pytest.raises(IdentityViolationError) as ei:
                    Cocycle2(G, num, 3)
                assert ei.value.triple == want, (i, j)
                chunks.add(want[0])
        assert chunks == {0, 1}


def _c3_coboundary_table(denom, normalized=True):
    # gamma = (0, 1/denom, -1/denom) has gamma(g^-1) = -gamma(g), so d gamma
    # is normalized, and its angles 3/denom have denominator denom for a
    # power of two; gamma = (0, 1/denom, 0) gives (d gamma)(1, 2) = 1/denom
    C3 = cyclic(3)
    gamma = (F(0), F(1, denom), F(-1 if normalized else 0, denom))
    table = [[(gamma[i] + gamma[j] - gamma[C3.table[i, j]]) % 1 for j in range(3)] for i in range(3)]
    return C3, table


class TestDenominatorLimit:
    def test_limit_is_two_to_the_52(self):
        assert MAX_DENOMINATOR == 2**52

    def test_limit_accepted_and_exceeded(self):
        C3, table = _c3_coboundary_table(2**52)
        om = check_cocycle(C3, table)
        assert om.q == 2**52 and om.angles[1, 1] == F(3, 2**52)
        C3, table = _c3_coboundary_table(2**53)
        with pytest.raises(ValueError, match=r"2\*\*52"):
            check_cocycle(C3, table)

    def test_normalize_doubling_past_the_limit_rejected(self):
        C3, table = _c3_coboundary_table(2**52, normalized=False)
        om = check_cocycle(C3, table)
        assert om.q == 2**52 and om.angles[1, 2] == F(1, 2**52)  # omega(g, g^-1) != 0: normalizing halves angles
        with pytest.raises(ValueError, match=r"2\*\*52"):
            normalize(om)

    @pytest.mark.parametrize("denom, code", [(2**52, 0), (2**53, 1)])
    def test_cli_cocycle_file(self, tmp_path, denom, code):
        _, table = _c3_coboundary_table(denom)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"angles": [[str(a) for a in row] for row in table]}))
        out, err = io.StringIO(), io.StringIO()
        assert run(["twist", "--group", "cyclic:3", "--cocycle", f"@{path}"], stdout=out, stderr=err) == code
        if code:
            assert out.getvalue() == "" and err.getvalue().startswith("error:") and "2**52" in err.getvalue()
        else:
            assert json.loads(out.getvalue()) == {"dim": 3}


class TestNumeratorTable:
    def test_lowest_terms(self):
        om = klein_bicharacter()
        assert om.q == 2 and om.num.dtype == np.int64
        assert not om.num.flags.writeable
        triv = multiply(om, Cocycle2(klein(), -om.num, om.q))
        assert triv.is_trivial_table() and triv.q == 1
        scaled = Cocycle2(klein(), 6 * om.num + 12, 12)  # 6/12 reduces to 1/2
        assert scaled.q == 2 and np.array_equal(scaled.num, om.num)

    def test_angles_derived_from_numerators(self):
        rng = np.random.default_rng(3)
        om = multiply(klein_bicharacter(), coboundary(random_cochain(klein(), rng, denom=12)))
        assert all(om.angles[i, j] == F(int(om.num[i, j]), om.q) for i in range(4) for j in range(4))
        assert om.to_json()["angles"] == [[str(a) for a in row] for row in om.angles]

    @pytest.mark.parametrize("G", [klein(), quaternion8(), symmetric(3)], ids=lambda G: G.name)
    def test_phases_bit_identical_to_fraction_floats(self, G):
        rng = np.random.default_rng(17)
        base = klein_bicharacter() if G.order == 4 else trivial_cocycle(G)
        m = G.order
        for _ in range(3):
            om = multiply(base, coboundary(random_cochain(G, rng, denom=int(rng.integers(2, 13)))))
            ref = np.array(
                [[np.exp(2j * np.pi * float(a)) for a in row] for row in normalize(om)[0].angles]
            )
            basis = twisted_group_algebra(G, om).basis
            want = np.zeros((m, m, m), dtype=np.complex128)
            for g in range(m):
                for h in range(m):
                    want[g, G.table[g, h], h] = ref[g, h]
            assert basis.tobytes() == want.tobytes()
            sys = scalar_system(G, om)
            assert _phase(sys.omega[:, :, 0] / sys.q).tobytes() == ref.tobytes()


class TestCoboundariesAndProducts:
    def test_zero_cochain_gives_trivial(self):
        g0 = coboundary(Cochain1(klein(), (0, 0, 0, 0)))
        assert g0.is_trivial_table()

    def test_coboundary_formula(self):
        C4 = cyclic(4)
        gamma = Cochain1(C4, (F(0), F(1, 4), F(1, 2), F(3, 4)))
        om, a = coboundary(gamma), gamma.angles
        for i in range(4):
            for j in range(4):
                assert om.angles[i, j] == (a[i] + a[j] - a[C4.table[i, j]]) % 1

    def test_random_coboundaries_always_valid(self):
        rng = np.random.default_rng(11)
        for G in [klein(), cyclic(6), dihedral(4)]:
            for _ in range(5):
                coboundary(random_cochain(G, rng))  # raises if invalid

    def test_multiply(self):
        om = klein_bicharacter()
        sq = multiply(om, om)
        assert sq.is_trivial_table()  # order 2 on the nose
        with pytest.raises(ValueError):
            multiply(om, trivial_cocycle(cyclic(4)))

    def test_cochain_validation(self):
        with pytest.raises(ValueError):
            Cochain1(klein(), (0, 0))


class TestNormalize:
    def test_already_normalized_unchanged(self):
        K = klein()
        om, gamma = normalize(trivial_cocycle(K))
        assert om.is_trivial_table()
        assert all(a == 0 for a in gamma.angles)

    def test_bicharacter_requires_adjustment(self):
        # omega(ab, ab) = 1/2 so the inverse-pair condition fails before
        # normalization; after it, every omega'(g, g^-1) vanishes
        om = klein_bicharacter()
        nom, gamma = normalize(om)
        K = om.group
        for g in range(4):
            assert nom.angles[g, K.inverse[g]] == 0
        assert gamma.angles == (F(0), F(0), F(0), F(1, 4))
        renom, gamma2 = normalize(nom)
        assert all(a == 0 for a in gamma2.angles)

    def test_normalize_preserves_class(self, klein_pres):
        om = klein_bicharacter()
        nom, _ = normalize(om)
        assert cohomologous(om, nom, klein_pres)

    def test_normalize_with_nonzero_identity_angle(self):
        # omega(e, e) != 0 is legal for a cocycle; normalization clears it
        C3 = cyclic(3)
        gamma = Cochain1(C3, (F(1, 3), F(0), F(2, 3)))
        om = coboundary(gamma)
        assert om.angles[0, 0] != 0
        nom, _ = normalize(om)
        assert nom.angles[0, 0] == 0
        for g in range(3):
            assert nom.angles[g, C3.inverse[g]] == 0

    def test_normalize_random_cocycles(self):
        rng = np.random.default_rng(5)
        for G in [klein(), cyclic(5), quaternion8()]:
            base = klein_bicharacter() if G.order == 4 else trivial_cocycle(G)
            for _ in range(4):
                om = multiply(base, coboundary(random_cochain(G, rng)))
                nom, _ = normalize(om)
                for g in range(G.order):
                    assert nom.angles[g, G.inverse[g]] == 0


class TestClasses:
    def test_trivial_maps_to_trivial_character(self, klein_pres):
        chi = induced_character(trivial_cocycle(klein()), klein_pres)
        assert chi.angles == (F(0),)
        assert chi.invariant_factors == (2,)

    def test_bicharacter_generates_h2(self, klein_pres):
        chi = induced_character(klein_bicharacter(), klein_pres)
        assert chi.angles == (F(1, 2),)

    def test_accepts_splitting_or_presentation(self, klein_pres):
        split = make_splitting(build_chain(klein()), presentation=klein_pres)
        om = klein_bicharacter()
        assert induced_character(om, split).angles == induced_character(om, klein_pres).angles

    def test_character_invariant_under_coboundary(self, klein_pres):
        rng = np.random.default_rng(7)
        om = klein_bicharacter()
        base = induced_character(om, klein_pres).angles
        for _ in range(20):
            shifted = multiply(om, coboundary(random_cochain(klein(), rng)))
            assert induced_character(shifted, klein_pres).angles == base

    def test_cohomologous_pairs(self, klein_pres):
        om = klein_bicharacter()
        t = trivial_cocycle(klein())
        rng = np.random.default_rng(2)
        db = coboundary(random_cochain(klein(), rng))
        assert cohomologous(db, t, klein_pres)
        assert not cohomologous(om, t, klein_pres)
        assert cohomologous(om, Cocycle2(klein(), -om.num, om.q), klein_pres)  # class has order 2
        assert cohomologous(om, multiply(om, db), klein_pres)

    def test_cohomologous_builds_presentation_when_missing(self):
        assert cohomologous(trivial_cocycle(cyclic(3)), trivial_cocycle(cyclic(3)))

    def test_group_mismatch_rejected(self, klein_pres):
        with pytest.raises(ValueError):
            induced_character(trivial_cocycle(cyclic(4)), klein_pres)


def _central_subgroups():
    # every subgroup of the center of every small group, the center included;
    # these centers have rank at most 2, so two generators reach each subgroup
    out = []
    for G in small_groups():
        Z = center(G).members
        out += [(G, m) for m in sorted({generated_subgroup(G, [a, b]).members for a in Z for b in Z})]
    return out


class TestSubgroupCharacters:
    def test_counts_match_subgroup_order(self):
        C4 = cyclic(4)
        assert len(subgroup_characters(Subgroup(C4, (0, 2)))[1]) == 2
        assert len(subgroup_characters(Subgroup(C4, (0, 1, 2, 3)))[1]) == 4
        Q8 = quaternion8()
        assert len(subgroup_characters(center(Q8))[1]) == 2

    def test_trivial_character_first_and_all_multiplicative(self):
        C6 = cyclic(6)
        _, chars, q = subgroup_characters(Subgroup(C6, tuple(range(6))))
        assert all(v == 0 for v in chars[0])
        for chi in chars:
            for a in range(6):
                for b in range(6):
                    assert (chi[a] + chi[b]) % q == chi[C6.table[a, b]]

    def test_distinct_characters(self):
        K = klein()
        _, chars, _ = subgroup_characters(Subgroup(K, (0, 1, 2, 3)))
        assert len({tuple(c) for c in chars}) == 4

    def test_nonabelian_rejected(self):
        S3 = symmetric(3)
        full = Subgroup(S3, tuple(range(6)))
        with pytest.raises(InvalidGroupError):
            subgroup_characters(full)

    @pytest.mark.parametrize(
        "G, members",
        [
            (cyclic(1), (0,)),
            (cyclic(12), tuple(range(12))),
            (cyclic(12), (0, 3, 6, 9)),
            (klein(), (0, 1, 2, 3)),
            (direct_product(cyclic(2), cyclic(6)), tuple(range(12))),
            (direct_product(cyclic(4), cyclic(4)), tuple(range(16))),
            (direct_product(klein(), cyclic(2)), tuple(range(8))),
            (dihedral(4), (0, 2)),
            (dihedral(4), (0, 2, 4, 6)),
            (quaternion8(), (0, 1, 4, 5)),
        ]
        + _central_subgroups(),
    )
    def test_matches_backtracking_reference(self, G, members):
        # every character extends its values on greedy generators by closure
        order = G.order_of
        gens, closure = [], {0}
        while len(closure) < len(members):
            gens.append(max((x for x in members if x not in closure), key=order))
            closure = set(generated_subgroup(G, gens).members)
        found = []

        def assign(i, current):
            if i == len(gens):
                found.append(current)
                return
            g, o = gens[i], order(gens[i])
            for t in range(o):
                trial, frontier, ok = dict(current), list(current), True
                while frontier:
                    x = frontier.pop()
                    y, val = G.table[x, g], (trial[x] + Fraction(t, o)) % 1
                    if y not in trial:
                        trial[y] = val
                        frontier.append(y)
                    elif trial[y] != val:
                        ok = False
                        break
                if ok:
                    assign(i + 1, trial)

        assign(0, {0: Fraction(0)})
        ref = sorted((c for c in found if len(c) == len(members)), key=lambda c: [c[x] for x in members])
        mem, chars, q = subgroup_characters(Subgroup(G, members))
        assert [{x: F(n, q) for x, n in zip(mem.tolist(), row)} for row in chars.tolist()] == ref


class TestSigmaChi:
    def test_trivial_character_gives_trivial_cocycle(self):
        C4 = cyclic(4)
        N = Subgroup(C4, (0, 2))
        _, chars, q = subgroup_characters(N)
        sig = sigma_chi(C4, N, chars[0], q)
        assert sig.is_trivial_table()

    def test_c4_mod_c2_hand_value(self):
        # lifts of C4/{0,2} are 0 and 1; 1*1 = 2 lands in N, chi(2) = 1/2
        C4 = cyclic(4)
        N = Subgroup(C4, (0, 2))
        _, chars, q = subgroup_characters(N)
        sig = sigma_chi(C4, N, chars[1], q)
        assert sig.group.order == 2
        assert sig.angles[1, 1] == F(1, 2)
        assert sig.angles[0, 0] == 0 and sig.angles[0, 1] == 0

    def test_q8_center_realizes_both_classes(self):
        Q8 = quaternion8()
        Zq = center(Q8)
        pres = None
        seen = set()
        _, chars, q = subgroup_characters(Zq)
        for chi in chars:
            sig = sigma_chi(Q8, Zq, chi, q)
            assert sig.group.order == 4 and sig.group.is_abelian()
            if pres is None:
                pres = h2_presentation(build_chain(sig.group))
            seen.add(induced_character(sig, pres).angles)
        assert len(seen) == 2  # the extension class detects nontriviality

    def test_d4_center_also_realizes_both_classes(self):
        D4 = dihedral(4)
        Z = center(D4)
        assert len(Z.members) == 2
        pres = None
        seen = set()
        _, chars, q = subgroup_characters(Z)
        for chi in chars:
            sig = sigma_chi(D4, Z, chi, q)
            if pres is None:
                pres = h2_presentation(build_chain(sig.group))
            seen.add(induced_character(sig, pres).angles)
        assert len(seen) == 2

    def test_matches_lifted_products(self):
        # reference: chi of c(s) c(t) c(st)^-1, entry by entry
        for G in (quaternion8(), dihedral(4)):
            N = center(G)
            Q, _, lift = quotient(G, N)
            members, chars, q = subgroup_characters(N)
            for row in chars:
                sig = sigma_chi(G, N, row, q)
                chi = dict(zip(members.tolist(), row.tolist()))
                for s in range(Q.order):
                    for t in range(Q.order):
                        g = G.table[G.table[int(lift[s]), int(lift[t])], G.inverse[int(lift[Q.table[s, t]])]]
                        assert sig.angles[s, t] == F(chi[g], q)

    def test_noncentral_subgroup_rejected(self):
        S3 = symmetric(3)
        A3 = Subgroup(S3, (0, 3, 4))  # normal but not central
        with pytest.raises(InvalidGroupError):
            sigma_chi(S3, A3, [0, 1, 2], 3)

    def test_bad_character_rejected(self):
        C4 = cyclic(4)
        N = Subgroup(C4, (0, 2))
        with pytest.raises(InvalidGroupError):
            sigma_chi(C4, N, [0, 1], 3)  # not multiplicative
        with pytest.raises(InvalidGroupError):
            sigma_chi(C4, N, [1, 0], 2)  # identity not fixed
        with pytest.raises(InvalidGroupError):
            sigma_chi(C4, N, [0], 1)  # wrong domain


class TestShippedAndJson:
    def test_builtin_dispatch(self):
        K = klein()
        assert builtin_cocycle("trivial", cyclic(5)).is_trivial_table()
        om = builtin_cocycle("paper-klein", K)
        assert om.angles[2, 1] == F(1, 2)
        with pytest.raises(ValueError):
            builtin_cocycle("paper-klein", cyclic(4))
        with pytest.raises(ValueError):
            builtin_cocycle("nope", K)

    def test_json_round_trip(self):
        om = klein_bicharacter()
        doc = om.to_json()
        back = cocycle_from_json(doc)
        assert np.array_equal(back.group.table, om.group.table)
        assert all(back.angles[i, j] == om.angles[i, j] for i in range(4) for j in range(4))

    def test_json_with_builtin_group_name(self):
        doc = {"group": "cyclic:3", "angles": [["0"] * 3] * 3}
        om = cocycle_from_json(doc)
        assert om.group.order == 3 and om.is_trivial_table()

    def test_json_with_explicit_group(self):
        om = cocycle_from_json({"angles": [["0", "0"], ["0", "1/2"]]}, group=cyclic(2))
        assert om.angles[1, 1] == F(1, 2)

    def test_json_validation_errors(self):
        with pytest.raises(ValueError):
            cocycle_from_json({"angles": [["0"]]})  # missing group
        with pytest.raises(ValueError):
            cocycle_from_json({"group": "klein"})  # missing angles
        with pytest.raises(ValueError):
            cocycle_from_json({"group": "klein", "angles": [["0"] * 4] * 3})
        with pytest.raises(ValueError):
            cocycle_from_json({"group": "cyclic:2", "angles": [["0", "x"], ["0", "0"]]})
        for rows in ([5, 6], ["00", "00"], {"a": 1}):  # rows that are not lists
            with pytest.raises(ValueError, match="angles"):
                cocycle_from_json({"group": "cyclic:2", "angles": rows})
        with pytest.raises(IdentityViolationError):
            cocycle_from_json({"group": "cyclic:2", "angles": [["0", "1/3"], ["0", "0"]]})

    def test_json_angles_parsed_once(self, monkeypatch):
        # each of the m^2 angle strings becomes one Fraction, and a bad one is named by its index
        G, made = dihedral(4), []
        doc = coboundary(Cochain1(G, [F(i % 4, 8) for i in range(8)])).to_json()

        class Counting(Fraction):
            def __new__(cls, *args, **kwargs):
                made.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(cocycles, "Fraction", Counting)
        om = cocycle_from_json(doc, group=G)
        assert om.q == 4 and len(made) <= G.order**2
        with pytest.raises(ValueError, match=r"angles\[1\]\[0\] is not a rational number"):
            cocycle_from_json({"angles": [["0", "0"], ["1/0", "0"]]}, group=cyclic(2))
