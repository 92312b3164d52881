import random
from fractions import Fraction

import pytest

from germnf.exactnum import DomainError, GaussianRational as GR
from germnf.germ import Family, Germ, compose_germ, conjugate, invert_germ
from germnf.normalform import (
    block_transforms,
    complexify_real_family,
    poincare_dulac_normalize,
    realify_normal_form,
    rho_equivariance_offense,
)
from germnf.resonance import EigenData
from germnf.series import TruncatedSeries as TS

from helpers import linear_diag_germ, random_real_block_family, rho_equivariant_nf


def rotation_germ(degree=4):
    return Germ.from_linear_matrix([[GR(0), GR(-1)], [GR(1), GR(0)]], degree)


class TestComplexify:
    def test_pure_rotation(self):
        cfam, p_germ, sigma = complexify_real_family(Family([rotation_germ()]))
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
        cfam, p_germ, sigma = complexify_real_family(fam)
        assert block_transforms(sigma, 4)[0] == p_germ


class TestRealify:
    def test_linear_diagonal(self):
        fam = Family([linear_diag_germ([GR(0, 1), GR(0, -1)], 3)])
        back = realify_normal_form(fam, (1, 0))
        assert back.germs[0] == rotation_germ(3)

    def test_round_trip_through_complexification(self):
        fam = Family([rotation_germ()])
        cfam, _, sigma = complexify_real_family(fam)
        assert realify_normal_form(cfam, sigma) == fam

    def test_violation_reported(self):
        bad = Family(
            [Germ([
                TS.monomial((1, 0), GR(0, 1), 3) + TS.monomial((2, 1), 1, 3),
                TS.monomial((0, 1), GR(0, -1), 3),
            ])],
            check_commuting=False,
        )
        with pytest.raises(DomainError) as err:
            realify_normal_form(bad, (1, 0))
        assert "(1, 1, (2, 1))" in str(err.value)


class TestRhoEquivariantNormalization:
    def test_pipeline_preserves_structure(self):
        rng = random.Random(5)
        fam, sigma = random_real_block_family(rng, blocks=1, tail=[2], p=1, degree=4)
        cfam, p_germ, sig = complexify_real_family(fam)
        assert sig == sigma
        res = poincare_dulac_normalize(cfam, EigenData.from_family(cfam), rho_pairing=sig)
        assert rho_equivariance_offense(res.normalized, sig) is None
        # psi commutes with rho: checked inside normalize, re-check here
        for m in range(cfam.n):
            partner = res.psi.components[sig[m]]
            for exp, c in res.psi.components[m].items():
                mirrored = tuple(exp[sig[j]] for j in range(cfam.n))
                assert partner.coeff(mirrored) == c.conjugate()
        out = realify_normal_form(res.normalized, sig)
        conjugator = compose_germ(compose_germ(p_germ, res.psi), invert_germ(p_germ))
        assert all(c.im == 0 for comp in conjugator.components for _, c in comp.items())
        for original, final in zip(fam.germs, out.germs):
            assert conjugate(original, conjugator) == final

    def test_two_blocks(self):
        rng = random.Random(7)
        fam, sigma = random_real_block_family(rng, blocks=2, tail=[], p=1, degree=4)
        cfam, p_germ, sig = complexify_real_family(fam)
        res = poincare_dulac_normalize(cfam, EigenData.from_family(cfam), rho_pairing=sig)
        out = realify_normal_form(res.normalized, sig)
        conjugator = compose_germ(compose_germ(p_germ, res.psi), invert_germ(p_germ))
        assert all(c.im == 0 for comp in conjugator.components for _, c in comp.items())
        for original, final in zip(fam.germs, out.germs):
            assert conjugate(original, conjugator) == final

    def test_p2_family(self):
        rng = random.Random(11)
        fam, sigma = random_real_block_family(rng, blocks=1, tail=[3], p=2, degree=4)
        cfam, p_germ, sig = complexify_real_family(fam)
        res = poincare_dulac_normalize(cfam, EigenData.from_family(cfam), rho_pairing=sig)
        out = realify_normal_form(res.normalized, sig)
        conjugator = compose_germ(compose_germ(p_germ, res.psi), invert_germ(p_germ))
        for original, final in zip(fam.germs, out.germs):
            assert conjugate(original, conjugator) == final


class TestRhoEquivariantGenerator:
    def test_generator_obeys_pairing_and_relations(self):
        rng = random.Random(13)
        u = GR(Fraction(3, 5), Fraction(4, 5))
        eigen = EigenData(((u, u.conjugate(), GR(2)),))
        sigma = (1, 0, 2)
        fam = rho_equivariant_nf(eigen, sigma, 5, rng)
        assert rho_equivariance_offense(fam, sigma) is None
        from germnf.normalform import extract_integrable_certificate

        cert = extract_integrable_certificate(fam, eigen)
        assert cert.ok
