"""Acceptance gate: one test per shipped guarantee, run with pytest -v
for a one-line verdict each.  Expected values are frozen here and in
oracles.py; nothing below consults the library to learn what "correct"
means.
"""

import io
import time
from fractions import Fraction

import numpy as np

from instances import imprimitivity_instance, random_coboundary, stabilization_instance
from oracles import EXPECTED_F, hopf_h2

from twistkit import intlin
from twistkit.bounds import (
    f_bound,
    f_closed_form,
    hw_product_bound,
    nilpotent_input_bounds,
    twisted_bound,
    wreath_bound_finite_K,
)
from twistkit.cli import run
from twistkit.cocycles import characters_for_factors, klein_bicharacter, multiply, trivial_cocycle
from twistkit.descriptors import (
    INF,
    Finite,
    FreeAbelian,
    Wreath,
    hall_descriptors,
    hirsch_length,
    wreath_dimnuc_verdict,
)
from twistkit.extensions import (
    classify_extension,
    cocycle_of_character,
    count_extension_classes,
    fiber_of_extension,
    sample_extension,
)
from twistkit.groups import (
    Subgroup,
    center,
    cyclic,
    dihedral,
    generated_subgroup,
    klein,
    quaternion8,
    symmetric,
)
from twistkit.homology import (
    build_chain,
    h2,
    h2_presentation,
    make_splitting,
)
from twistkit.staralg import (
    block_profile,
    crossed_product,
    system_from_normal,
    twisted_group_algebra,
    verify_imprimitivity,
    verify_stabilization,
)
from twistkit.witness import ORACLES, WitnessSet, finite_subset_witness, verify_witness

TRIVIAL = intlin.AbelianInvariants()


def builtin_corpus(max_order=12):
    gs = [cyclic(n) for n in range(1, 13)]
    gs += [dihedral(n) for n in range(1, 7)]
    gs += [klein(), quaternion8(), symmetric(3)]
    return [G for G in gs if G.order <= max_order]


def test_criterion_01_second_homology_values():
    start = time.monotonic()
    assert h2(klein()) == intlin.AbelianInvariants((2,))
    for n in range(1, 13):
        G = cyclic(n)
        assert h2(G) == TRIVIAL
        assert h2(G) == hopf_h2(G)
    for G, expected in [
        (dihedral(4), intlin.AbelianInvariants((2,))),
        (quaternion8(), TRIVIAL),
        (symmetric(3), TRIVIAL),
    ]:
        assert h2(G) == expected
        assert h2(G) == hopf_h2(G)
    assert time.monotonic() - start < 60.0


def test_criterion_02_chain_complex_soundness():
    for G in builtin_corpus():
        chain = build_chain(G)
        assert not np.any(intlin.exact_matmul(chain.d2, chain.d3))
        pres = h2_presentation(chain)
        d = np.array(pres.invariant_factors, dtype=object).reshape(-1, 1)
        for seed in range(20):
            sp = make_splitting(chain, seed=seed, presentation=pres)
            assert np.array_equal(intlin.exact_matmul(chain.d2, sp.sigma), sp.b1_basis)
            if pres.invariant_factors:
                bc = intlin.exact_matmul(sp.pibar_matrix, chain.d3)
                assert not np.any(np.mod(np.asarray(bc, dtype=object), d))


def test_criterion_03_klein_extensions_end_to_end():
    start = time.monotonic()
    K = klein()
    labels = set()
    for seed in range(20):
        ext = sample_extension(K, seed=seed)
        E = ext.total
        assert E.order == 8
        assert not E.is_abelian()
        image = {int(x) for x in ext.embed.map}
        assert image <= set(center(E).members)
        assert image == {e for e in range(E.order) if ext.project.map[e] == 0}
        label = classify_extension(ext).label
        assert label in {"Q8", "D4(a)", "D4(b)", "D4(ab)"}
        labels.add(label)
        for chi in characters_for_factors(ext.h2.torsion):
            fiber = block_profile(fiber_of_extension(ext, chi)).blocks
            expected = (1, 1, 1, 1) if chi.is_trivial else (2,)
            assert fiber == expected
            direct = twisted_group_algebra(K, cocycle_of_character(ext.split, chi))
            assert fiber == block_profile(direct).blocks
    assert len(labels) >= 2
    assert time.monotonic() - start < 60.0


def test_criterion_04_extension_class_counts():
    strong, weak = count_extension_classes(klein())
    assert strong == intlin.AbelianInvariants((2, 2))
    assert weak == TRIVIAL
    multisets = set()
    for seed in [None, 0, 3, 7, 11, 19]:
        ext = sample_extension(klein(), seed=seed)
        profiles = sorted(
            block_profile(fiber_of_extension(ext, chi)).blocks
            for chi in characters_for_factors(ext.h2.torsion)
        )
        multisets.add(tuple(profiles))
    assert len(multisets) == 1


def test_criterion_05_coboundary_invariance_and_trace():
    for i, G in enumerate(builtin_corpus(max_order=8)):
        base = klein_bicharacter() if G.name == "klein" else trivial_cocycle(G)
        reference = block_profile(twisted_group_algebra(G, base)).blocks
        rng = np.random.default_rng(500 + i)
        for _ in range(20):
            shifted = multiply(base, random_coboundary(G, rng))
            A = twisted_group_algebra(G, shifted)
            assert block_profile(A).blocks == reference
            assert A.trace_vector[0] == 1
            if G.order > 1:
                assert np.abs(A.trace_vector[1:]).max() <= 1e-10


def test_criterion_06_decomposition_numerics():
    D4, Q8, S3 = dihedral(4), quaternion8(), symmetric(3)
    a3 = generated_subgroup(S3, [next(x for x in range(6) if S3.order_of(x) == 3)])
    for G, N in [(D4, center(D4)), (Q8, center(Q8)), (S3, a3)]:
        reassembled = block_profile(crossed_product(system_from_normal(G, N))).blocks
        plain = block_profile(twisted_group_algebra(G, trivial_cocycle(G))).blocks
        assert reassembled == plain
    for seed in range(25):
        B, H, sys = imprimitivity_instance(seed)
        assert verify_imprimitivity(B, H, sys, seed=seed)["matches"]
    for seed in range(25):
        report = verify_stabilization(stabilization_instance(seed), seed=seed)
        assert report["matches"]
        assert report["sigma_deviation"] <= 1e-8


def test_criterion_07_bound_calculus():
    for n, value in EXPECTED_F.items():
        assert f_bound(n) == value
    assert (f_bound(0), f_bound(1), f_bound(2)) == (0, 1, 485)
    for n in range(65):
        assert f_bound(n) == f_closed_form(n)
    assert nilpotent_input_bounds(1, 2) == (3, 9)
    assert hw_product_bound(3, 9, 0) == 26
    assert hw_product_bound(1, 2, 26) == (1 + 1) * (26 + 1) - 1 == 53
    assert wreath_bound_finite_K(1) == 18
    for a in range(5):
        for b in range(5):
            assert twisted_bound(a, b) == f_bound(a + b)


def test_criterion_08_hirsch_calculus():
    H, G = hall_descriptors()
    assert hirsch_length(H) == 4
    assert hirsch_length(G) == 3
    Z = FreeAbelian(1)
    table = [
        (Finite(2), Z),
        (Finite(2), Finite(3)),
        (Z, Z),
        (FreeAbelian(2), Finite(5)),
        (Finite(1), FreeAbelian(3)),
        (Z, Finite(1)),
        (FreeAbelian(3), FreeAbelian(2)),
        (Finite(4), Finite(4)),
    ]
    assert len(table) == 8
    for base, top in table:
        verdict = wreath_dimnuc_verdict(base, top)
        assert verdict in {"finite", "infinite"}
        assert (verdict == "finite") == (hirsch_length(Wreath(base, top)) != INF)
    assert wreath_dimnuc_verdict(Z, Z) == "infinite"
    assert wreath_dimnuc_verdict(Finite(6), FreeAbelian(3)) == "finite"


def test_criterion_09_finite_subset_witnesses():
    for oracle in ORACLES.values():
        for n in range(1, 51):
            assert len(finite_subset_witness(oracle, n).elements) >= n
    total_checked = 0
    for oracle in ORACLES.values():
        report = verify_witness(oracle, finite_subset_witness(oracle, 12), radius=20)
        assert report["passed"]
        total_checked += report["checked"]
    assert total_checked >= 500
    flip = ORACLES["ZxZ2"]
    adversarial = WitnessSet(((0, 0), (0, 1)), 1, "adversarial")
    report = verify_witness(flip, adversarial, radius=6)
    assert not report["passed"]
    assert report["violations"]


CLI_SCRIPT = [
    ["h2", "--group", "klein"],
    ["h1", "--group", "cyclic:12"],
    ["extend", "--group", "klein"],
    ["classify", "--group", "klein"],
    ["twist", "--group", "klein", "--cocycle", "paper-klein", "--blocks"],
    ["fibers", "--group", "klein"],
    ["crossed", "--group", "dihedral:4", "--normal", "center"],
    ["imprimitivity", "--group", "dihedral:3", "--subgroup", "gen:1"],
    ["stabilize", "--group", "klein", "--cocycle", "paper-klein"],
    ["hirsch", "--descriptor", "Z^3"],
    ["bound", "--f", "2"],
    ["verdict", "--base", "Z", "--top", "Z"],
    ["witness", "--group", "Dinf", "--n", "8", "--radius", "10"],
]


def test_criterion_10_cli_determinism():
    def transcript():
        chunks = []
        for argv in CLI_SCRIPT:
            out, err = io.StringIO(), io.StringIO()
            assert run(argv + ["--seed", "7"], stdout=out, stderr=err) == 0, argv
            chunks.append(out.getvalue())
        return "".join(chunks).encode()

    first = transcript()
    second = transcript()
    assert first == second
    assert len(first) > 0
