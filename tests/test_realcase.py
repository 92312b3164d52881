import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germnf.exactnum import DomainError, GaussianRational as GR
from germnf.germ import Family, Germ, compose_germ, conjugate, invert_germ
from germnf.normalform import (
    block_transforms,
    complexify_real_family,
    poincare_dulac_normalize,
    realify_normal_form,
)
from germnf.resonance import EigenData
from germnf.series import TruncatedSeries as TS

from helpers import (
    PYTHAGOREAN_UNITS,
    all_exponents,
    germs,
    linear_diag_germ,
    nonzero_gaussians,
    random_real_block_family,
    rho_equivariance_offense,
    rho_equivariant_nf,
    rho_image,
)


def rotation_germ(degree=4):
    return Germ.from_linear_matrix([[GR(0), GR(-1)], [GR(1), GR(0)]], degree)


class TestComplexify:
    def test_pure_rotation(self):
        cfam, _, sigma = complexify_real_family(Family([rotation_germ()]))
        assert cfam.germs[0] == linear_diag_germ([GR(0, 1), GR(0, -1)], 4)
        assert sigma == (1, 0)

    def test_scaling_rotation(self):
        g = Germ.from_linear_matrix([[GR(1), GR(-1)], [GR(1), GR(1)]], 4)
        cfam, _, _ = complexify_real_family(Family([g]))
        assert cfam.germs[0] == linear_diag_germ([GR(1, 1), GR(1, -1)], 4)

    def test_block_with_tail(self):
        mat = [
            [GR(0), GR(-1), GR(0)],
            [GR(1), GR(0), GR(0)],
            [GR(0), GR(0), GR(2)],
        ]
        cfam, _, sigma = complexify_real_family(Family([Germ.from_linear_matrix(mat, 3)]))
        assert cfam.germs[0] == linear_diag_germ([GR(0, 1), GR(0, -1), GR(2)], 3)
        assert sigma == (1, 0, 2)

    def test_malformed_block(self):
        mat = [[GR(1), GR(-2)], [GR(1), GR(1)]]
        with pytest.raises(DomainError):
            complexify_real_family(Family([Germ.from_linear_matrix(mat, 3)]))

    def test_complex_input_rejected(self):
        g = linear_diag_germ([GR(0, 1), GR(0, -1)], 3)
        with pytest.raises(DomainError):
            complexify_real_family(Family([g]))


class TestBlockTransforms:
    @pytest.mark.parametrize("sigma", [(1, 0), (1, 0, 2), (0, 2, 1), (1, 0, 3, 2)])
    def test_closed_form_inverse(self, sigma):
        p_germ, p_inv = block_transforms(sigma, 3)
        identity = Germ.identity(len(sigma), 3)
        assert compose_germ(p_germ, p_inv) == identity == compose_germ(p_inv, p_germ)
        assert invert_germ(p_germ) == p_inv

    def test_complexify_uses_the_block_transform(self):
        fam = Family([rotation_germ()])
        cfam, p, sigma = complexify_real_family(fam)
        assert block_transforms(sigma, 4) == p


class TestRealify:
    def test_linear_diagonal(self):
        fam = Family([linear_diag_germ([GR(0, 1), GR(0, -1)], 3)])
        identity = Germ.identity(2, 3)
        back, psi = realify_normal_form(fam, identity, block_transforms((1, 0), 3))
        assert back.germs[0] == rotation_germ(3)
        assert psi == identity

    def test_round_trip_through_complexification(self):
        fam = Family([rotation_germ()])
        cfam, p, _ = complexify_real_family(fam)
        assert realify_normal_form(cfam, Germ.identity(2, 4), p) == (fam, Germ.identity(2, 4))

    def test_violation_reported(self):
        """x^2 y in component 1 has no conjugate partner x y^2 in component
        2, so the realified germ keeps an imaginary part."""
        bad = Germ([
            TS.monomial((1, 0), GR(0, 1), 3) + TS.monomial((2, 1), 1, 3),
            TS.monomial((0, 1), GR(0, -1), 3),
        ])
        assert rho_equivariance_offense([bad], (1, 0)) == (1, 1, (2, 1))
        p, identity = block_transforms((1, 0), 3), Germ.identity(2, 3)
        with pytest.raises(AssertionError, match=r"^realified germ 1 component \d kept an imaginary part"):
            realify_normal_form(Family([bad]), identity, p)
        with pytest.raises(AssertionError, match=r"^realified conjugator component \d kept an imaginary part"):
            realify_normal_form(Family([linear_diag_germ([GR(0, 1), GR(0, -1)], 3)]), bad, p)


class TestRealnessShowsRhoEquivariance:
    """P^{-1} o conj o P = rho, so P o g o P^{-1} is real exactly when g is
    rho-equivariant: `realify_normal_form` raises, for a germ of the family
    or for psi, exactly when `rho_equivariance_offense` finds a witness."""

    # (pairing sigma, eigenvalue row whose sigma-paired entries are conjugate)
    LAYOUTS = [
        ((1, 0), (PYTHAGOREAN_UNITS[0], PYTHAGOREAN_UNITS[0].conjugate())),
        ((1, 0, 2), (PYTHAGOREAN_UNITS[1], PYTHAGOREAN_UNITS[1].conjugate(), GR(2))),
        ((0, 2, 1), (GR(Fraction(1, 3)), PYTHAGOREAN_UNITS[2], PYTHAGOREAN_UNITS[2].conjugate())),
    ]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(LAYOUTS), st.integers(2, 4), st.sampled_from(["nf", "symmetrized", "any"]),
           st.booleans(), st.data())
    def test_real_exactly_when_rho_equivariant(self, layout, degree, source, perturb, data):
        sigma, row = layout
        n = len(sigma)
        if source == "nf":
            seed = data.draw(st.integers(0, 1000))
            g = rho_equivariant_nf(EigenData((row,)), sigma, degree, random.Random(seed)).germs[0]
        else:
            g = data.draw(germs(n, degree))
            if source == "symmetrized":  # (g + rho o g o rho) / 2
                g = Germ([(a + b).scale(GR(Fraction(1, 2))) for a, b in zip(g.components, rho_image(g, sigma).components)])
        if perturb:
            m = data.draw(st.integers(0, n - 1))
            exp = data.draw(st.sampled_from(list(all_exponents(n, degree, min_degree=2))))
            comps = list(g.components)
            comps[m] = comps[m] + TS.monomial(exp, data.draw(nonzero_gaussians), degree)
            g = Germ(comps)
        equivariant = rho_equivariance_offense([g], sigma) is None
        if source != "any" and not perturb:
            assert equivariant
        p, identity = block_transforms(sigma, degree), Germ.identity(n, degree)
        real = compose_germ(p[0], compose_germ(g, p[1]))
        assert all(comp.is_real() for comp in real.components) == equivariant
        for fam, psi in [(Family([g]), identity), (Family([identity]), g)]:
            if equivariant:
                back, conjugator = realify_normal_form(fam, psi, p)
                assert real in (back.germs[0], conjugator)
            else:
                with pytest.raises(AssertionError, match="kept an imaginary part"):
                    realify_normal_form(fam, psi, p)


class TestRhoEquivariantNormalization:
    def test_pipeline_preserves_structure(self):
        rng = random.Random(5)
        fam, sigma = random_real_block_family(rng, blocks=1, tail=[2], p=1, degree=4)
        cfam, p, sig = complexify_real_family(fam)
        assert sig == sigma
        res = poincare_dulac_normalize(cfam, EigenData.from_family(cfam))
        # Phi' and psi commute with rho, which `realify_normal_form` shows by realness
        assert rho_equivariance_offense([*res.normalized.germs, res.psi], sig) is None
        out, conjugator = realify_normal_form(res.normalized, res.psi, p)
        assert conjugator == compose_germ(compose_germ(p[0], res.psi), invert_germ(p[0]))
        assert all(c.im == 0 for comp in conjugator.components for _, c in comp.items())
        for original, final in zip(fam.germs, out.germs):
            assert conjugate(original, conjugator) == final

    def test_two_blocks(self):
        rng = random.Random(7)
        fam, sigma = random_real_block_family(rng, blocks=2, tail=[], p=1, degree=4)
        cfam, p, sig = complexify_real_family(fam)
        res = poincare_dulac_normalize(cfam, EigenData.from_family(cfam))
        out, conjugator = realify_normal_form(res.normalized, res.psi, p)
        assert conjugator == compose_germ(compose_germ(p[0], res.psi), invert_germ(p[0]))
        assert all(c.im == 0 for comp in conjugator.components for _, c in comp.items())
        for original, final in zip(fam.germs, out.germs):
            assert conjugate(original, conjugator) == final

    def test_p2_family(self):
        rng = random.Random(11)
        fam, sigma = random_real_block_family(rng, blocks=1, tail=[3], p=2, degree=4)
        cfam, p, sig = complexify_real_family(fam)
        res = poincare_dulac_normalize(cfam, EigenData.from_family(cfam))
        out, conjugator = realify_normal_form(res.normalized, res.psi, p)
        assert conjugator == compose_germ(compose_germ(p[0], res.psi), invert_germ(p[0]))
        for original, final in zip(fam.germs, out.germs):
            assert conjugate(original, conjugator) == final


class TestRhoEquivariantGenerator:
    def test_generator_obeys_pairing_and_relations(self):
        rng = random.Random(13)
        u = GR(Fraction(3, 5), Fraction(4, 5))
        eigen = EigenData(((u, u.conjugate(), GR(2)),))
        sigma = (1, 0, 2)
        fam = rho_equivariant_nf(eigen, sigma, 5, rng)
        assert rho_equivariance_offense(fam.germs, sigma) is None
        from germnf.normalform import extract_integrable_certificate

        cert = extract_integrable_certificate(fam, eigen)
        assert cert.ok
