"""Finite-subset witnesses over normal-form oracles."""

import pytest

from twistkit.errors import OracleInconsistencyError
from twistkit.witness import (
    INF,
    ORACLES,
    ElementOracle,
    IntegerOracle,
    IntegerWithFlipOracle,
    WitnessSet,
    check_oracle,
    finite_subset_witness,
    verify_witness,
    word_ball,
)


class TestOracles:
    def test_all_shipped_oracles_pass_audit(self):
        for oracle in ORACLES.values():
            check_oracle(oracle)

    def test_word_ball_integers(self):
        ball = word_ball(ORACLES["Z"], 3)
        assert sorted(ball) == list(range(-3, 4))
        assert ball[0] == 0

    def test_word_ball_deterministic(self):
        a = word_ball(ORACLES["Dinf"], 6)
        b = word_ball(ORACLES["Dinf"], 6)
        assert a == b

    def test_infinite_dihedral_relations(self):
        d = ORACLES["Dinf"]
        t, r = (1, 0), (0, 1)
        assert d.mul(r, r) == d.identity
        # r t r = t^-1
        assert d.mul(d.mul(r, t), r) == d.inv(t)

    def test_broken_inverse_detected(self):
        class Broken(IntegerOracle):
            def inv(self, a):
                return a  # wrong except at 0

        with pytest.raises(OracleInconsistencyError):
            check_oracle(Broken())

    def test_wrong_declared_order_detected(self):
        class TooSmall(IntegerWithFlipOracle):
            distinguished_order = 4  # the flip has order 2

        with pytest.raises(OracleInconsistencyError):
            check_oracle(TooSmall())

        class ClaimsInfinite(IntegerWithFlipOracle):
            distinguished_order = INF

        with pytest.raises(OracleInconsistencyError):
            finite_subset_witness(ClaimsInfinite(), 5)

    def test_identity_distinguished_rejected(self):
        class Degenerate(IntegerOracle):
            distinguished = 0

        with pytest.raises(OracleInconsistencyError):
            check_oracle(Degenerate())


class TestConstruction:
    def test_integers_are_an_interval(self):
        w = finite_subset_witness(ORACLES["Z"], 5)
        assert w.elements == (0, 1, 2, 3, 4)
        assert w.case == "infinite-order"

    def test_finite_order_size_formula(self):
        # n cosets of a subgroup of order 2, minus the identity
        for n in (1, 3, 10):
            w = finite_subset_witness(ORACLES["ZxZ2"], n)
            assert len(w.elements) == 2 * n - 1
            assert w.case == "finite-order"
            assert (0, 0) not in w.elements

    def test_dihedral_uses_translation_powers(self):
        w = finite_subset_witness(ORACLES["Dinf"], 10)
        assert w.elements == tuple((j, 0) for j in range(10))

    def test_size_meets_request_up_to_50(self):
        for oracle in ORACLES.values():
            for n in (1, 7, 50):
                assert len(finite_subset_witness(oracle, n).elements) >= n

    def test_bad_requests(self):
        with pytest.raises(ValueError):
            finite_subset_witness(ORACLES["Z"], 0)

    def test_witness_set_validation(self):
        with pytest.raises(ValueError):
            WitnessSet((1, 1, 2), 2, "x")
        with pytest.raises(ValueError):
            WitnessSet((1, 2), 5, "x")

    def test_duplicate_coset_reps_detected(self):
        class DupReps(IntegerWithFlipOracle):
            def coset_reps(self, count):
                # (0,0) and (0,1) represent the same coset of <flip>
                return [(0, 0), (0, 1)] + [(i, 0) for i in range(1, count - 1)]

        with pytest.raises(OracleInconsistencyError):
            finite_subset_witness(DupReps(), 3)


class TestVerification:
    def test_integer_interval_shifts(self):
        w = finite_subset_witness(ORACLES["Z"], 5)
        rep = verify_witness(ORACLES["Z"], w, 20)
        assert rep["checked"] == 40
        assert rep["passed"] is True
        assert rep["violations"] == []

    def test_all_oracles_pass_at_radius_12(self):
        for name, oracle in ORACLES.items():
            w = finite_subset_witness(oracle, 6)
            rep = verify_witness(oracle, w, 12)
            assert rep["passed"] is True, name
            assert rep["checked"] >= 24

    def test_adversarial_subgroup_fails(self):
        oracle = ORACLES["ZxZ2"]
        full_subgroup = WitnessSet(((0, 0), (0, 1)), 1, "adversarial")
        rep = verify_witness(oracle, full_subgroup, 6)
        assert rep["passed"] is False
        assert [0, 1] in rep["violations"]

    @pytest.mark.parametrize("radius", [0, -3])
    def test_radius_below_one_rejected(self, radius):
        # a ball of radius < 1 holds no translate, which must not read as a pass
        w = finite_subset_witness(ORACLES["Z"], 5)
        with pytest.raises(ValueError, match="radius"):
            verify_witness(ORACLES["Z"], w, radius)

    def test_report_is_jsonable(self):
        import json

        w = finite_subset_witness(ORACLES["Z2"], 4)
        rep = verify_witness(ORACLES["Z2"], w, 6)
        assert json.loads(json.dumps(rep)) == rep
