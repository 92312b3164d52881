import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germnf.exactnum import DomainError, GaussianRational as GR
from germnf.germ import (
    Family,
    Germ,
    commutativity_defect,
    compose_germ,
    conjugate,
    invert_germ,
    require_commuting,
)
from germnf.normalform import (
    _monomial_columns,
    division_check,
    extract_integrable_certificate,
    first_integrals,
    generate_integrable_nf,
    poincare_dulac_normalize,
    verify_pd_nf,
)
from germnf.resonance import EigenData, enumerate_omega, is_resonant_exponent, relation_lattice
from germnf.series import TruncatedSeries as TS, UsageError, compose_all, grlex_key

from helpers import (
    all_exponents,
    conjugate_by_inverse,
    echelonized_span,
    example_13_family,
    example_34_family,
    homogeneous_part,
    linear_diag_germ,
    mu_product,
    nonzero_gaussians,
    pushforward_leading,
    random_tangent_identity,
)


def _simple_fixture(degree=4):
    # (2x + y^2, 3y)
    return Family(
        [Germ([TS.monomial((1, 0), 2, degree) + TS.monomial((0, 2), 1, degree),
               TS.monomial((0, 1), 3, degree)])]
    )


class TestNormalize:
    def test_single_resonance_gap(self):
        fam = _simple_fixture()
        res = poincare_dulac_normalize(fam, EigenData.from_family(fam))
        assert res.normalized.germs[0] == linear_diag_germ([GR(2), GR(3)], 4)
        expected_psi = Germ(
            [TS.variable(0, 2, 4) + TS.monomial((0, 2), Fraction(1, 7), 4), TS.variable(1, 2, 4)]
        )
        assert res.psi == expected_psi
        assert len(res.eliminations) == 1
        rec = res.eliminations[0]
        assert rec.divisor == GR(7) and rec.coefficient == GR(1)

    def test_example_34_already_normal(self):
        fam = example_34_family(4)
        res = poincare_dulac_normalize(fam, EigenData.from_family(fam))
        assert res.normalized == fam
        assert res.psi == Germ.identity(2, 4)
        assert res.eliminations == ()

    def test_identity_family(self):
        fam = Family([Germ.identity(2, 4)])
        res = poincare_dulac_normalize(fam, EigenData.from_family(fam))
        assert res.normalized == fam and res.psi == Germ.identity(2, 4)

    def test_psi_conjugates_input_to_output(self):
        rng = random.Random(8)
        eigen = EigenData.from_rows([["-2", "1/2"]])
        lat = relation_lattice(eigen)
        nf = generate_integrable_nf(eigen, lat, 5, seed=5)
        psi = random_tangent_identity(rng, 2, 5)
        fam = require_commuting(Family([conjugate(g, psi) for g in nf.germs]))
        res = poincare_dulac_normalize(fam, EigenData.from_family(fam))
        assert res.eliminations
        assert verify_pd_nf(res.normalized, EigenData.from_family(fam)) is None
        # conjugate_by_inverse forms psi^{-1}, which the normalizer never
        # does (it solves each step): an independent oracle
        for g, out in zip(fam.germs, res.normalized.germs):
            assert conjugate_by_inverse(g, res.psi) == out

    def test_nondiagonal_rejected(self):
        rot = Germ.from_linear_matrix([[GR(0), GR(-1)], [GR(1), GR(0)]], 3)
        with pytest.raises(UsageError):
            poincare_dulac_normalize(Family([rot]), EigenData.from_rows([["i", "-i"]]))

    def test_elimination_log_remultiplies(self):
        rng = random.Random(9)
        eigen = EigenData.from_rows([["2", "1/4"]])
        lat = relation_lattice(eigen)
        nf = generate_integrable_nf(eigen, lat, 5, seed=11)
        psi = random_tangent_identity(rng, 2, 5)
        fam = require_commuting(Family([conjugate(g, psi) for g in nf.germs]))
        res = poincare_dulac_normalize(fam, EigenData.from_family(fam))
        assert res.eliminations
        for rec in res.eliminations:
            # the divisor is the pivot germ's exact resonance gap mu^gamma - mu_m
            i, m = rec.germ_index - 1, rec.component - 1
            assert not rec.divisor.is_zero() and not rec.coefficient.is_zero()
            assert rec.divisor == mu_product(eigen, i, rec.exponents) - eigen.mu[i][m]


def _right_to_left_psi(res, n: int, degree: int) -> Germ:
    """psi accumulated as s_l o psi for l descending, each step s_l rebuilt
    from the elimination records of degree l and composed by substituting
    every monomial (`compose_all`): an oracle for the normalizer's
    left-to-right build through the Taylor kernel."""
    psi = Germ.identity(n, degree)
    for ell in sorted({rec.degree for rec in res.eliminations}, reverse=True):
        comps = list(Germ.identity(n, degree).components)
        for rec in (rec for rec in res.eliminations if rec.degree == ell):
            h = rec.coefficient / rec.divisor
            comps[rec.component - 1] = comps[rec.component - 1] + TS.monomial(rec.exponents, h, degree)
        psi = Germ(compose_all(comps, psi.components))
    return psi


class TestStepChain:
    """The normalizer checks each step conjugation where it is made and
    composes no Phi_i o psi; the chain of checked steps must still give
    Phi_i o psi == psi o Phi_i' for the psi it reports."""

    EIGEN_ROWS = [[["-2", "1/2"]], [["2", "1/4"]], [["2", "3"]], [["2", "4"], ["-3", "9"]], [["2", "3", "1/6"]]]

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.sampled_from(EIGEN_ROWS), st.integers(3, 5), st.integers(1, 50), st.integers(0, 10**6))
    def test_psi_conjugates_by_composition(self, rows, degree, nf_seed, psi_seed):
        eigen = EigenData.from_rows(rows)
        nf = generate_integrable_nf(eigen, eigen.lattice, degree, seed=nf_seed)
        psi0 = random_tangent_identity(random.Random(psi_seed), eigen.n, degree, extra_terms=3)
        fam = require_commuting(Family([conjugate(g, psi0) for g in nf.germs]))
        res = poincare_dulac_normalize(fam, eigen)
        for phi, out in zip(fam.germs, res.normalized.germs):
            assert compose_germ(phi, res.psi) == compose_germ(res.psi, out)
        assert res.psi == _right_to_left_psi(res, eigen.n, degree)


class TestVerifyPdNf:
    def test_cases(self):
        for fam, offender in [
            (example_34_family(4), None),
            (_simple_fixture(), (1, 1, (0, 2))),
            (Family([linear_diag_germ([GR(5), GR(7)], 3)]), None),
        ]:
            assert verify_pd_nf(fam, EigenData.from_family(fam)) == offender

    def test_eigen_must_be_the_family_diagonal(self):
        fam = _simple_fixture()
        other = EigenData.from_rows([["2", "5"]])
        for check in (verify_pd_nf, extract_integrable_certificate, poincare_dulac_normalize):
            with pytest.raises(UsageError, match="eigen data must be the family's linear diagonal"):
                check(fam, other)


class TestFirstIntegrals:
    def test_example_13(self):
        basis = first_integrals(example_13_family(4), 4)
        assert basis == [TS.monomial((2, 2), 1, 4)]

    def test_rotation(self):
        fam = Family([linear_diag_germ([GR(0, 1), GR(0, -1)], 2)])
        assert first_integrals(fam, 2) == [TS.monomial((1, 1), 1, 2)]

    def test_empty(self):
        fam = Family([linear_diag_germ([GR(2), GR(3)], 5)])
        assert first_integrals(fam, 5) == []

    def test_nonlinear_family(self):
        # x^2 y^2 remains an integral of the generated nonlinear normal form
        eigen = EigenData.from_rows([["-2", "1/2"]])
        lat = relation_lattice(eigen)
        nf = generate_integrable_nf(eigen, lat, 5, seed=3)
        basis = first_integrals(nf, 4)
        assert basis == [TS.monomial((2, 2), 1, 4)]

    def test_multi_term_integral_is_invariant(self):
        # a conjugated normal form whose integral x^2 y^2 picks up a second
        # term: the kernel vector is not a unit vector, so the sign and
        # placement of field_kernel's pivot entries reach the output
        eigen = EigenData.from_rows([["-2", "1/2"]])
        nf = generate_integrable_nf(eigen, relation_lattice(eigen), 5, seed=5)
        psi = random_tangent_identity(random.Random(8), 2, 5)
        fam = require_commuting(Family([conjugate(g, psi) for g in nf.germs]))
        basis = first_integrals(fam)
        assert any(len(f.items()) >= 2 for f in basis)
        for f in basis:
            for g in fam.germs:
                assert f.compose(list(g.components)) == f

    def test_transport_under_normalization(self):
        rng = random.Random(12)
        eigen = EigenData.from_rows([["-2", "1/2"]])
        lat = relation_lattice(eigen)
        nf = generate_integrable_nf(eigen, lat, 4, seed=21)
        psi = random_tangent_identity(rng, 2, 4)
        fam = require_commuting(Family([conjugate(g, psi) for g in nf.germs]))
        res = poincare_dulac_normalize(fam, EigenData.from_family(fam))
        original_basis = first_integrals(fam, 4)
        transported = [f.compose(list(res.psi.components)) for f in original_basis]
        assert echelonized_span(transported) == echelonized_span(first_integrals(res.normalized, 4))

    # the first Omega point gamma has |gamma| = 2 and gamma_1 >= 1, so the
    # control's factor exp(x^gamma / 3) on x_1 shows at degree 2|gamma| <= D
    ORACLE_ROWS = [
        [["2", "1/2"]], [["i", "-i"]], [["-1", "-1"]], [["2", "1/2", "3"]], [["2", "1/2", "1/2"]],
        [["3", "1/3", "2"], ["1/2", "2", "5"]], [["2", "1/2"], ["-3", "-1/3"]],
    ]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(ORACLE_ROWS), st.integers(4, 5), st.integers(1, 50), st.integers(0, 10**6))
    def test_conjugated_integrable_family_oracle(self, rows, degree, nf_seed, psi_seed):
        """An integrable normal form conjugated by a tangent-to-identity map:
        its first integrals are the x^gamma o psi^{-1}, gamma in Omega, for
        the normalizing psi, so their number is |Omega| up to D; each one is
        invariant.  Multiplying Phi_1's first component by exp(x^gamma / 3)
        loses an integral and breaks the invariance of the old basis."""
        eigen = EigenData.from_rows(rows)
        nf = generate_integrable_nf(eigen, eigen.lattice, degree, seed=nf_seed)
        psi0 = random_tangent_identity(random.Random(psi_seed), eigen.n, degree, extra_terms=3)
        fam = require_commuting(Family([conjugate(g, psi0) for g in nf.germs]))
        omega = enumerate_omega(eigen, degree)
        basis = first_integrals(fam, degree)
        assert len(basis) == len(omega)
        psi_inv = list(invert_germ(poincare_dulac_normalize(fam, eigen).psi).components)
        expected = [TS.monomial(gamma, 1, degree).compose(psi_inv) for gamma in omega]
        assert echelonized_span(basis) == echelonized_span(expected)
        for f in basis:
            for g in fam.germs:
                assert f.compose(list(g.components)) == f
        first = list(fam.germs[0].components)
        first[0] = first[0] * TS.monomial(omega[0], Fraction(1, 3), degree).exp0()
        perturbed = Family([Germ(first), *fam.germs[1:]])
        assert len(first_integrals(perturbed, degree)) < len(basis)
        assert any(f.compose(first) != f for f in basis)

    def test_support_checks(self):
        # the first integrals of a normal form are supported on Omega
        eigen = EigenData.from_rows([["-2", "1/2"]])
        nf = generate_integrable_nf(eigen, relation_lattice(eigen), 6, seed=7)
        basis = first_integrals(nf, 6)
        assert basis and all(eigen.satisfies_relation(exp) for f in basis for exp in f.support())
        assert not eigen.satisfies_relation((1, 0))

    def test_columns_match_the_sorted_construction(self):
        """The columns, built degree by degree, are every exponent with
        1 <= |gamma| <= d sorted by `grlex_key`."""
        for n in range(1, 5):
            for d in range(7):
                assert _monomial_columns(n, d) == sorted(all_exponents(n, d, 1), key=grlex_key), (n, d)


class TestDivisionAndCertificates:
    def test_example_34_division_fails(self):
        report = division_check(example_34_family(4))
        assert not report.ok
        assert report.offenders[0] == (1, 2, (2, 0))

    def test_divisible_form_passes(self):
        eigen = EigenData.from_rows([["-2", "1/2"]])
        lat = relation_lattice(eigen)
        nf = generate_integrable_nf(eigen, lat, 5, seed=2)
        assert division_check(nf).ok

    def test_certificate_on_linear_family(self):
        eigen = EigenData.from_rows([["2", "3"]])
        fam = Family([linear_diag_germ([GR(2), GR(3)], 4)])
        cert = extract_integrable_certificate(fam, eigen)
        assert cert.ok
        assert all(s.is_zero() for row in cert.phi for s in row)

    def test_certificate_round_trip(self):
        eigen = EigenData.from_rows([["2", "1/2", "-1"]])
        lat = relation_lattice(eigen)
        nf = generate_integrable_nf(eigen, lat, 5, seed=31)
        cert = extract_integrable_certificate(nf, eigen)
        assert cert.ok

    def test_certificate_multiplies_no_constant_one(self, monkeypatch):
        """Each side of a lattice relation starts at its first factor and a
        power at its base, so no product has the constant 1 as an operand."""
        eigen = EigenData.from_rows([["4", "1/2", "2"], ["9", "1/3", "3"]])
        fam = generate_integrable_nf(eigen, relation_lattice(eigen), 5, seed=13)
        one, original, products = TS.constant(1, fam.n, fam.degree), TS.__mul__, []

        def counted(a, b):
            products.append(one in (a, b))
            return original(a, b)

        monkeypatch.setattr(TS, "__mul__", counted)
        cert = extract_integrable_certificate(fam, eigen)
        assert cert.ok and any(e < 0 for gamma in cert.omega_generators for e in gamma)
        assert len(products) >= 4 and not any(products)

    def test_support_rule_is_the_omega_rule(self):
        """k is in Omega (mu_i^k = 1 for every i) exactly when k + e_m is
        resonant for component m, the rule the certificate reads off the gap
        table; both outcomes occur on these rows."""
        rng = random.Random(41)
        pool = ["2", "1/2", "4", "-1", "i", "-i", "3", "1/3", "2+i"]
        seen = set()
        for _ in range(300):
            n, p = rng.randint(1, 4), rng.randint(1, 2)
            eigen = EigenData.from_rows([[rng.choice(pool) for _ in range(n)] for _ in range(min(p, n))])
            k = tuple(rng.randint(0, 4) for _ in range(n))
            m = rng.randrange(n)
            shifted = tuple(e + (j == m) for j, e in enumerate(k))
            omega = eigen.satisfies_relation(k)
            assert is_resonant_exponent(eigen, m + 1, shifted) is omega, (eigen, k, m)
            seen.add(omega)
        assert seen == {True, False}

    def test_example_34_certificate_errors(self):
        eigen = EigenData.from_family(example_34_family(4))
        with pytest.raises(DomainError):
            extract_integrable_certificate(example_34_family(4), eigen)


def _add_term(fam: Family, i: int, m: int, exp, coeff) -> Family:
    """fam with coeff * x^exp added to component m of germ i."""
    germs = list(fam.germs)
    comps = list(germs[i].components)
    comps[m] = comps[m] + TS.monomial(exp, coeff, fam.degree)
    germs[i] = Germ(comps)
    return Family(germs)


class TestCertificateProvesCommutation:
    """The lemma that lets `normalize` and `verify` skip the brute-force
    commutation check: a family in PD-NF that passes the division check and
    has an ok integrable certificate commutes up to D."""

    # p = 2, n <= 3, each with an Omega point of degree 2; the i/-i rows have
    # a full-rank lattice, so their generated family is linear
    ROWS = [
        [["2", "1/2"], ["-3", "-1/3"]], [["2", "1/2"], ["3", "1/3"]], [["i", "-i"], ["-1", "-1"]],
        [["3", "1/3", "2"], ["1/2", "2", "5"]], [["4", "1/2", "2"], ["9", "1/3", "3"]],
        [["2", "1/2", "1"], ["3", "1/3", "-1"]],
    ]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from(ROWS), st.integers(3, 5), st.integers(0, 50), st.sampled_from(["none", "omega", "off"]),
           st.data())
    def test_ok_certificate_implies_commutation(self, rows, degree, seed, kind, data):
        eigen = EigenData.from_rows(rows)
        fam = generate_integrable_nf(eigen, eigen.lattice, degree, seed=seed)
        if kind != "none":
            i, m = data.draw(st.integers(0, 1)), data.draw(st.integers(0, eigen.n - 1))
            if kind == "omega":  # x_m x^beta, beta in Omega: resonant for component m
                beta = data.draw(st.sampled_from(enumerate_omega(eigen, degree - 1)))
                exp = tuple(b + (k == m) for k, b in enumerate(beta))
            else:
                exp = data.draw(st.sampled_from(list(all_exponents(eigen.n, degree, min_degree=2))))
            fam = _add_term(fam, i, m, exp, data.draw(nonzero_gaussians))
        gates = verify_pd_nf(fam, eigen) is None and division_check(fam).ok
        if gates and extract_integrable_certificate(fam, eigen).ok:
            assert commutativity_defect(*fam.germs) is None
        if kind == "none":
            assert gates and extract_integrable_certificate(fam, eigen).ok

    def test_control_broken_commutation_fails_the_certificate(self):
        """A resonant term on Omega keeps PD-NF and division but breaks
        commutation at degree 5; the certificate must then fail."""
        eigen = EigenData.from_rows([["2", "1/2"], ["-3", "-1/3"]])
        fam = generate_integrable_nf(eigen, eigen.lattice, 5, seed=3)
        assert commutativity_defect(*fam.germs) is None
        assert extract_integrable_certificate(fam, eigen).ok
        broken = _add_term(fam, 0, 0, (2, 1), GR(1))
        assert verify_pd_nf(broken, eigen) is None and division_check(broken).ok
        assert commutativity_defect(*broken.germs) is not None
        assert not extract_integrable_certificate(broken, eigen).ok


class TestGenerate:
    def test_zero_seed_linear(self):
        eigen = EigenData.from_rows([["-2", "1/2"]])
        lat = relation_lattice(eigen)
        fam = generate_integrable_nf(eigen, lat, 5, seed=0)
        assert fam.germs[0] == linear_diag_germ([GR(-2), GR(Fraction(1, 2))], 5)

    def test_kernel_structure(self):
        # kernel of (2,2) is spanned by (1,-1): w = (t G, -t G)
        eigen = EigenData.from_rows([["-2", "1/2"]])
        lat = relation_lattice(eigen)
        fam = generate_integrable_nf(eigen, lat, 6, seed=9)
        g = fam.germs[0]
        c1 = g.components[0].coeff((3, 2))  # -2 x * t x^2 y^2
        c2 = g.components[1].coeff((2, 3))
        assert c1 / GR(-2) == -(c2 / GR(Fraction(1, 2)))

    def test_p2_round_trip(self):
        eigen = EigenData.from_rows([["2", "1/2"], ["3", "1/3"]])
        lat = relation_lattice(eigen)
        fam = generate_integrable_nf(eigen, lat, 5, seed=13)
        assert extract_integrable_certificate(fam, eigen).ok


class TestPushforward:
    """Composition against the closed formula for the leading part of
    x^l o f (the oracle `helpers.pushforward_leading`)."""

    def test_formula_vs_composition(self):
        # f = (2x(1+xy), y/2): component quadratic parts drive the identity
        f = Germ([
            TS.monomial((1, 0), 2, 6) + TS.monomial((2, 1), 2, 6),
            TS.monomial((0, 1), Fraction(1, 2), 6),
        ])
        got = pushforward_leading((1, 1), f)
        direct = homogeneous_part(TS.monomial((1, 1), 1, 6).compose(list(f.components)), 3)
        assert got == direct

    def test_linear_germ_zero(self):
        f = linear_diag_germ([GR(2), GR(Fraction(1, 2))], 6)
        assert pushforward_leading((1, 1), f).is_zero()

    def test_division_failure_rejected(self):
        with pytest.raises(DomainError):
            pushforward_leading((1, 1), example_34_family(4).germs[0])

    def test_random_division_passing_germs(self):
        rng = random.Random(55)
        for _ in range(25):
            n = rng.randint(2, 3)
            d = rng.randint(3, 6)
            comps = []
            for m in range(n):
                comp = TS.variable(m, n, d).scale(GR(rng.randint(1, 4)))
                # add terms divisible by x_m, quadratic and higher
                for _ in range(2):
                    exp = [0] * n
                    exp[m] = 1
                    exp[rng.randrange(n)] += 1
                    if rng.random() < 0.5:
                        exp[rng.randrange(n)] += 1
                    comp = comp + TS.monomial(tuple(exp), GR(rng.randint(-3, 3)), d)
                comps.append(comp)
            f = Germ(comps)
            exps = [e for e in range(n)]
            ell = tuple(rng.randint(0, 1) for _ in range(n))
            if sum(ell) == 0 or sum(ell) + 1 > d:
                continue
            got = pushforward_leading(ell, f)
            direct = homogeneous_part(TS.monomial(ell, 1, d).compose(list(f.components)), sum(ell) + 1)
            assert got == direct

    def test_omega_monomial_on_generated_nf(self):
        eigen = EigenData.from_rows([["-2", "1/2"]])
        lat = relation_lattice(eigen)
        nf = generate_integrable_nf(eigen, lat, 6, seed=17)
        got = pushforward_leading((2, 2), nf.germs[0])
        direct = homogeneous_part(TS.monomial((2, 2), 1, 6).compose(list(nf.germs[0].components)), 5)
        assert got == direct


class TestProp32Property:
    def test_invariance_on_normalized_families(self):
        rng = random.Random(61)
        eigen = EigenData.from_rows([["-2", "1/2"]])
        lat = relation_lattice(eigen)
        for seed in (1, 2, 3):
            nf = generate_integrable_nf(eigen, lat, 6, seed=seed)
            psi = random_tangent_identity(rng, 2, 6)
            fam = require_commuting(Family([conjugate(g, psi) for g in nf.germs]))
            res = poincare_dulac_normalize(fam, EigenData.from_family(fam))
            for pt in enumerate_omega(eigen, 3):
                G = TS.monomial(pt, 1, 6)
                for g in res.normalized.germs:
                    assert G.compose(list(g.components)) == G
