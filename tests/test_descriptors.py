"""Symbolic Hirsch length, cardinality, flags, and wreath verdicts."""

import json

import pytest
from hypothesis import given, strategies as st

from twistkit.descriptors import (
    INF,
    Atom,
    DirectSum,
    Extension,
    Finite,
    Flags,
    FreeAbelian,
    Quotient,
    Wreath,
    Zinv,
    cardinality,
    derivation_lines,
    descriptor_from_json,
    descriptor_to_json,
    flags,
    hall_descriptors,
    hirsch_length,
    wreath_dimnuc_verdict,
    wreath_dr_verdict,
)
from twistkit.errors import IndeterminateHirschError

Z = FreeAbelian(1)


def unknown_atom(**kw):
    defaults = dict(label="mystery", hirsch=2, card=None, flags=Flags())
    defaults.update(kw)
    return Atom(**defaults)


class TestHirsch:
    def test_leaves(self):
        assert hirsch_length(Finite(7)) == 0
        assert hirsch_length(FreeAbelian(0)) == 0
        assert hirsch_length(FreeAbelian(5)) == 5
        assert hirsch_length(Zinv(3)) == 1

    def test_hall_pair(self):
        H, G = hall_descriptors()
        assert hirsch_length(H) == 4
        assert hirsch_length(G) == 3

    def test_wreath_finite_base_drops_out(self):
        # 0 * anything = 0, even for an infinite acting group
        assert hirsch_length(Wreath(Finite(5), Z)) == 1
        assert hirsch_length(Wreath(Finite(2), Wreath(Z, Z))) == INF
        assert hirsch_length(Wreath(Finite(3), unknown_atom())) == 2

    def test_wreath_infinite(self):
        assert hirsch_length(Wreath(Z, Z)) == INF
        assert hirsch_length(Wreath(FreeAbelian(2), Finite(3))) == 6
        assert hirsch_length(Wreath(Zinv(2), Finite(4))) == 4

    def test_wreath_unknown_order_indeterminate(self):
        with pytest.raises(IndeterminateHirschError):
            hirsch_length(Wreath(Z, unknown_atom()))

    def test_quotient(self):
        assert hirsch_length(Quotient(FreeAbelian(5), FreeAbelian(2))) == 3
        assert hirsch_length(Quotient(Wreath(Z, Z), FreeAbelian(2))) == INF
        with pytest.raises(IndeterminateHirschError):
            hirsch_length(Quotient(Wreath(Z, Z), Wreath(Z, Z)))
        with pytest.raises(ValueError):
            hirsch_length(Quotient(FreeAbelian(1), FreeAbelian(2)))

    def test_direct_sum(self):
        assert hirsch_length(DirectSum((Z, Zinv(2), Finite(8)))) == 2

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=6), st.randoms())
    def test_extension_rebracketing(self, ranks, rng):
        leaves = [FreeAbelian(r) for r in ranks]
        want = sum(ranks)

        def fold(items):
            items = list(items)
            while len(items) > 1:
                i = rng.randrange(len(items) - 1)
                items[i : i + 2] = [Extension(items[i], items[i + 1])]
            return items[0]

        for _ in range(3):
            assert hirsch_length(fold(leaves)) == want


class TestCardinality:
    def test_leaves(self):
        assert cardinality(Finite(6)) == 6
        assert cardinality(FreeAbelian(0)) == 1
        assert cardinality(FreeAbelian(2)) == INF
        assert cardinality(Zinv(2)) == INF
        assert cardinality(unknown_atom()) is None

    def test_extension_and_sum(self):
        assert cardinality(Extension(Finite(4), Finite(3))) == 12
        assert cardinality(Extension(Finite(4), Z)) == INF
        assert cardinality(Extension(unknown_atom(), Z)) == INF
        assert cardinality(Extension(unknown_atom(), Finite(2))) is None
        assert cardinality(DirectSum((Finite(2), Finite(5)))) == 10
        assert cardinality(DirectSum((unknown_atom(), Z))) == INF

    def test_quotient(self):
        assert cardinality(Quotient(Finite(12), Finite(4))) == 3
        assert cardinality(Quotient(Z, Finite(1))) == INF
        assert cardinality(Quotient(Z, Z)) is None
        with pytest.raises(ValueError):
            cardinality(Quotient(Finite(10), Finite(4)))

    def test_wreath(self):
        assert cardinality(Wreath(Finite(2), Finite(3))) == 24
        assert cardinality(Wreath(Finite(1), Z)) == INF
        assert cardinality(Wreath(Finite(1), Finite(7))) == 7
        assert cardinality(Wreath(Finite(2), Z)) == INF
        assert cardinality(Wreath(unknown_atom(), Z)) == INF

    def test_cardinality_digit_cap(self):
        # 10**4299 has 4300 digits and is printable; one more factor of 10 is not
        assert cardinality(Wreath(Finite(10), Finite(4299 - 4))) == 10**4295 * 4295
        assert cardinality(DirectSum((Finite(10**2000), Finite(10**2299)))) == 10**4299
        for d in (
            Wreath(Finite(10), Finite(4300)),
            Wreath(Finite(2), Finite(10**50)),
            DirectSum((Finite(10**2000), Finite(10**2300))),
            Extension(Finite(10**2000), Finite(10**2300)),
        ):
            with pytest.raises(ValueError, match="4300"):
                cardinality(d)


class TestFlags:
    def test_leaves(self):
        assert flags(Finite(3)) == Flags(True, True, True, True)
        assert flags(Z) == Flags(True, True, True, True)
        zi = flags(Zinv(5))
        assert zi.finitely_generated is False
        assert zi.virt_nilpotent is True
        assert zi.virt_polycyclic is False
        assert zi.elementary_amenable is True

    def test_extension(self):
        f = flags(Extension(Z, Z))
        assert f.finitely_generated is True
        assert f.virt_polycyclic is True
        assert f.elementary_amenable is True
        # general extensions do not preserve virtual nilpotency
        assert f.virt_nilpotent is None
        # but finite kernels and finite quotients do
        assert flags(Extension(Finite(5), FreeAbelian(2))).virt_nilpotent is True
        assert flags(Extension(FreeAbelian(2), Finite(5))).virt_nilpotent is True
        # a non-f.g. quotient rules out finite generation
        bad_q = Extension(Z, Zinv(2))
        assert flags(bad_q).finitely_generated is False
        # a non-f.g. kernel leaves it open
        assert flags(Extension(Zinv(2), Z)).finitely_generated is None
        # False propagates into vp through either slot
        assert flags(Extension(Zinv(2), Z)).virt_polycyclic is False

    def test_quotient_only_true_passes(self):
        assert flags(Quotient(Z, Finite(1))) == Flags(True, True, True, True)
        q = flags(Quotient(Zinv(2), Finite(1)))
        assert q.finitely_generated is None
        assert q.virt_nilpotent is True

    def test_wreath(self):
        lamplighter = flags(Wreath(Finite(2), Z))
        assert lamplighter.finitely_generated is True
        assert lamplighter.virt_polycyclic is False
        assert lamplighter.elementary_amenable is True
        assert flags(Wreath(Z, Finite(2))).virt_polycyclic is True
        assert flags(Wreath(Z, Finite(2))).virt_nilpotent is True
        # trivial base collapses to the top group
        assert flags(Wreath(Finite(1), Zinv(2))) == flags(Zinv(2))
        bad = Atom("F2-like", hirsch=0, card=INF, flags=Flags(True, False, False, False))
        assert flags(Wreath(bad, Z)).elementary_amenable is False

    def test_direct_sum(self):
        f = flags(DirectSum((Z, Zinv(2))))
        assert f.finitely_generated is False
        assert f.virt_nilpotent is True
        assert f.virt_polycyclic is False


class TestVerdicts:
    def test_dimnuc_examples(self):
        assert wreath_dimnuc_verdict(Z, Z) == "infinite"
        assert wreath_dimnuc_verdict(Finite(2), FreeAbelian(3)) == "finite"
        assert wreath_dimnuc_verdict(Zinv(2), Z) == "out_of_hypotheses"
        assert wreath_dimnuc_verdict(Z, unknown_atom()) == "out_of_hypotheses"

    def test_truth_table_matches_hirsch_finiteness(self):
        pairs = [
            (Finite(2), Finite(3)),
            (Finite(2), Z),
            (Z, Finite(2)),
            (Z, Z),
            (Finite(1), FreeAbelian(2)),
            (FreeAbelian(2), Finite(1)),
            (Z, FreeAbelian(2)),
            (FreeAbelian(3), Z),
        ]
        assert len(pairs) == 8
        for K, H in pairs:
            verdict = wreath_dimnuc_verdict(K, H)
            assert verdict in ("finite", "infinite")
            should_be_finite = hirsch_length(Wreath(K, H)) != INF
            assert (verdict == "finite") == should_be_finite

    def test_dr_examples(self):
        assert wreath_dr_verdict(Finite(2), Z) == "infinite"
        assert wreath_dr_verdict(FreeAbelian(4), Finite(6)) == "finite"
        assert wreath_dr_verdict(Finite(1), FreeAbelian(5)) == "finite"
        assert wreath_dr_verdict(Zinv(2), Z) == "out_of_hypotheses"


class TestSerialization:
    def test_round_trip(self):
        d = Wreath(
            Extension(DirectSum((Zinv(2), Finite(4))), Z),
            Quotient(FreeAbelian(3), FreeAbelian(1)),
        )
        doc = descriptor_to_json(d)
        again = descriptor_from_json(json.loads(json.dumps(doc)))
        assert again == d

    def test_atom_round_trip_preserves_unknowns(self):
        a = unknown_atom()
        b = descriptor_from_json(descriptor_to_json(a))
        assert b == a
        assert cardinality(b) is None

    def test_bad_documents(self):
        with pytest.raises(ValueError):
            descriptor_from_json({"kind": "nope"})
        with pytest.raises(ValueError):
            descriptor_from_json({"no_kind": 1})
        with pytest.raises(ValueError):
            descriptor_from_json({"kind": "atom", "label": "x", "hirsch": None})

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"kind": "finite"}, "order"),
            ({"kind": "finite", "order": [5]}, "order"),
            ({"kind": "finite", "order": "5"}, "order"),
            ({"kind": "free_abelian", "rank": None}, "rank"),
            ({"kind": "atom"}, "hirsch"),
            ({"kind": "atom", "hirsch": {"a": 1}}, "hirsch"),
            ({"kind": "atom", "hirsch": float("inf")}, "hirsch"),
            ({"kind": "atom", "hirsch": 1, "card": [2]}, "card"),
            ({"kind": "atom", "hirsch": 1, "flags": 3}, "flags"),
            ({"kind": "atom", "hirsch": 1, "flags": {"virt_nilpotent": 1}}, "virt_nilpotent"),
            ({"kind": "ext", "normal": {"kind": "finite", "order": 2}}, "quotient"),
            ({"kind": "quotient", "normal": {"kind": "finite", "order": 2}}, "group"),
            ({"kind": "wreath", "top": {"kind": "finite", "order": 2}}, "base"),
            ({"kind": "direct_sum"}, "parts"),
            ({"kind": "direct_sum", "parts": 5}, "parts"),
        ],
    )
    def test_bad_fields_name_the_field(self, doc, field):
        with pytest.raises(ValueError, match=field):
            descriptor_from_json(doc)

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            Finite(0)
        with pytest.raises(ValueError):
            FreeAbelian(-1)
        with pytest.raises(ValueError):
            Atom("x", hirsch=-1, card=None, flags=Flags())
        with pytest.raises(ValueError):
            Atom("x", hirsch=1, card=0, flags=Flags())

    def test_derivation_lines(self):
        H, G = hall_descriptors()
        lines = derivation_lines(G)
        assert lines[0].startswith("quotient: h =")
        assert any("Z[1/2]" in ln for ln in lines)
        w = derivation_lines(Wreath(Finite(2), Z))
        assert "wreath" in w[0] and "infinite" in w[0]

    def test_derivation_lines_below_an_indeterminate_node(self):
        # the wreath is infinite whatever its top's Hirsch length, which the
        # rules cannot decide; the walk goes on below the undecided nodes
        W = Wreath(Z, Z)
        inf = "wreath: h = h(base)*|top| + h(top) = infinite  (|top| = infinite, 0*inf = 0)"
        assert derivation_lines(Wreath(Z, Extension(Z, Quotient(W, W)))) == [
            inf,
            "  free_abelian(rank 1): h = 1",
            "  extension: h = h(normal) + h(quotient) = indeterminate",
            "    free_abelian(rank 1): h = 1",
            "    quotient: h = h(group) - h(normal) = indeterminate",
            "      " + inf,
            "        free_abelian(rank 1): h = 1",
            "        free_abelian(rank 1): h = 1",
            "      " + inf,
            "        free_abelian(rank 1): h = 1",
            "        free_abelian(rank 1): h = 1",
        ]


class TestEvaluationOncePerNode:
    @staticmethod
    def chain(levels):
        d = Finite(2)
        for _ in range(levels):
            d = Extension(d, Finite(2))
        return d

    def test_flags_and_derivation_call_each_subtree_a_bounded_number_of_times(self, monkeypatch):
        # flags asks every level for the cardinality of its normal subgroup, and
        # derivation_lines every level for its Hirsch length; evaluated afresh each
        # time, a 200-level chain costs 40 200 and 40 601 steps of those rules
        import twistkit.descriptors as dsc

        calls = {"_card": 0, "_hirsch": 0}
        for name in calls:
            def counted(d, inner=getattr(dsc, name), name=name):
                calls[name] += 1
                return inner(d)

            monkeypatch.setattr(dsc, name, counted)
        d = self.chain(200)
        assert flags(d) == Flags(True, True, True, True)
        assert len(derivation_lines(d)) == 401
        assert 0 < calls["_card"] < 2000 and 0 < calls["_hirsch"] < 2000, calls

    def test_errors_are_raised_on_every_call(self):
        d = Extension(Quotient(Finite(3), Finite(2)), Finite(2))
        for _ in range(2):
            with pytest.raises(ValueError, match="must divide"):
                cardinality(d)
        assert hirsch_length(d) == 0 and cardinality(Finite(3)) == 3
