import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from germnf.exactnum import GaussianRational as GR, factor_gaussian, log_modulus
from germnf.linalg import row_hnf
from germnf.resonance import (
    EigenData,
    enumerate_omega,
    is_resonant_exponent,
    relation_lattice,
    resonant_set,
    vect_omega_rank,
)
from germnf.series import UsageError

from helpers import (
    FactoringEigenData,
    brute_force_omega,
    brute_force_resonant,
    decider_outcomes,
    lattice_contains,
    mu_product,
    random_gaussian,
)


E13 = EigenData.from_rows([["-2", "1/2"]])
E23 = EigenData.from_rows([["2", "3"]])
EI = EigenData.from_rows([["i", "-i"]])
E34 = EigenData.from_rows([["2", "4"], ["-3", "9"]])


class TestRelationLattice:
    def test_fixtures(self):
        assert relation_lattice(E13).basis == ((2, 2),)
        assert relation_lattice(E23).basis == ()
        assert relation_lattice(EI).basis == ((1, 1), (0, 4))
        assert relation_lattice(E34).basis == ((2, -1),)

    def test_basis_reverifies(self):
        rng = random.Random(51)
        for _ in range(30):
            p = rng.randint(1, 2)
            n = rng.randint(p, 3)
            eigen = EigenData(
                tuple(tuple(random_gaussian(rng, 6, nonzero=True) for _ in range(n)) for _ in range(p))
            )
            lat = relation_lattice(eigen)
            assert lat.verify(eigen)

    def test_contains(self):
        lat = relation_lattice(E13)
        assert lattice_contains(lat, (2, 2)) and lattice_contains(lat, (-4, -4))
        assert not lattice_contains(lat, (1, 1))

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(UsageError):
            EigenData.from_rows([["0", "1"]])

    def test_more_germs_than_dimension_rejected(self):
        with pytest.raises(UsageError, match="more germs than the ambient dimension"):
            EigenData.from_rows([["2"], ["3"]])


class TestOmega:
    def test_fixtures(self):
        assert enumerate_omega(E13, 4) == ((2, 2),)
        assert enumerate_omega(EI, 4) == ((1, 1), (4, 0), (2, 2), (0, 4))
        assert enumerate_omega(E23, 6) == ()

    def test_brute_force_agreement_random(self):
        rng = random.Random(77)
        for _ in range(50):
            p = rng.randint(1, 2)
            n = rng.randint(p, 3)
            eigen = EigenData(
                tuple(tuple(random_gaussian(rng, 8, nonzero=True) for _ in range(n)) for _ in range(p))
            )
            bound = rng.randint(1, 6)
            assert list(enumerate_omega(eigen, bound)) == brute_force_omega(eigen, bound)

    def test_bad_bound(self):
        with pytest.raises(UsageError):
            enumerate_omega(E13, 0)


class TestResonantSet:
    def test_fixtures(self):
        assert resonant_set(E34, 2, 3).points == ((2, 0),)
        assert resonant_set(E23, 1, 6).points == ()
        assert resonant_set(E13, 1, 5).points == ((3, 2),)

    def test_equals_shifted_lattice_and_brute_force(self):
        rng = random.Random(78)
        for _ in range(30):
            p = rng.randint(1, 2)
            n = rng.randint(p, 3)
            eigen = EigenData(
                tuple(tuple(random_gaussian(rng, 8, nonzero=True) for _ in range(n)) for _ in range(p))
            )
            bound = rng.randint(2, 6)
            lat = eigen.lattice
            assert lat == relation_lattice(eigen)
            for m in range(1, n + 1):
                got = list(resonant_set(eigen, m, bound).points)
                assert got == brute_force_resonant(eigen, m, bound)
                # shifted-lattice characterization
                for pt in got:
                    shifted = list(pt)
                    shifted[m - 1] -= 1
                    assert lattice_contains(lat, shifted)

    def test_is_resonant_exponent(self):
        assert is_resonant_exponent(E34, 2, (2, 0))
        assert not is_resonant_exponent(E34, 1, (2, 0))


_MU_POOL = ["i", "-i", "-1", "2", "1/2", "-2", "3", "1/3", "4", "1/4", "1+i", "1/2-1/2*i", "3/5+4/5*i", "-3/7"]


@st.composite
def _eigen_and_exponents(draw):
    p = draw(st.integers(1, 2))
    n = draw(st.integers(p, 4))
    rows = [[draw(st.sampled_from(_MU_POOL)) for _ in range(n)] for _ in range(p)]
    exponents = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * n), min_size=1, max_size=12))
    return EigenData.from_rows(rows), exponents


class TestPowerTable:
    """power, satisfies_relation and is_resonant_exponent against direct
    products (helpers.mu_product), which never read the table."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_eigen_and_exponents())
    def test_agrees_with_direct_products(self, case):
        eigen, exponents = case
        for k in exponents:
            plus, minus = tuple(max(e, 0) for e in k), tuple(max(-e, 0) for e in k)
            direct_plus = [mu_product(eigen, i, plus) for i in range(eigen.p)]
            direct_minus = [mu_product(eigen, i, minus) for i in range(eigen.p)]
            assert eigen.power(plus) == tuple(direct_plus)
            assert eigen.satisfies_relation(k) == all(
                z.is_one() for z in (mu_product(eigen, i, k) for i in range(eigen.p))
            )
            for m in range(1, eigen.n + 1):
                column = [row[m - 1] for row in eigen.mu]
                assert is_resonant_exponent(eigen, m, plus) == (direct_plus == column)
                assert is_resonant_exponent(eigen, m, minus) == (direct_minus == column)

    def test_long_relation_adds_few_entries(self):
        # 2^1000 * (2^-1000)^1 = 1: verifying the row (1000, 1) builds
        # (1000, 0) by one power and (1000, 1) by one product, not 1000 steps
        eigen = EigenData.from_rows([["2", "1/" + str(2**1000)]])
        assert eigen.lattice.basis == ((1000, 1),)
        assert eigen.satisfies_relation((1000, 1)) and not eigen.satisfies_relation((999, 1))
        assert len(eigen._memo["powers"]) < 10


class TestRank:
    def test_fixtures(self):
        assert vect_omega_rank(E13, 4) == (1, 1)
        assert vect_omega_rank(EI, 4) == (2, 2)
        assert vect_omega_rank(E23, 6) == (0, 0)

    def test_enumerated_bounded_by_lattice(self):
        rng = random.Random(79)
        for _ in range(25):
            p = rng.randint(1, 2)
            n = rng.randint(p, 3)
            eigen = EigenData(
                tuple(tuple(random_gaussian(rng, 8, nonzero=True) for _ in range(n)) for _ in range(p))
            )
            enum_rank, lat_rank = vect_omega_rank(eigen, 6)
            assert enum_rank <= lat_rank == relation_lattice(eigen).rank

    def test_rank_saturates_at_2D_under_hypotheses(self):
        # non-degenerate fixtures whose classification satisfies the
        # normal-form hypotheses: rank_enumerated reaches q = n - p at
        # bound 2 * D for D = 6
        from germnf.classify import normal_form_hypothesis

        for rows, in [
            ([["-2", "1/2"]],),
            ([["2", "1/4"]],),
            ([["2", "1/2", "-1"]],),
            ([["2", "1/2", "3"], ["5", "1/5", "7"]],),
            ([["2", "4", "1/2"]],),
        ]:
            eigen = EigenData.from_rows(rows)
            assert normal_form_hypothesis(eigen).yes
            q = eigen.n - eigen.p
            assert vect_omega_rank(eigen, 12)[0] == q

    def test_span_basis(self):
        assert row_hnf(enumerate_omega(EI, 4)) == [[1, 1], [0, 4]]


# Gaussian primes the structured entries share: 1 + i (ramified), the
# conjugate pair 2 + i and 1 + 2i (associate of 2 - i), the inert 3 and 7,
# and 3 + 2i
_SHARED_PRIMES = [GR(1, 1), GR(2, 1), GR(1, 2), GR(3), GR(7), GR(3, 2)]
_UNITS = [GR(1), GR(-1), GR(0, 1), GR(0, -1)]


@st.composite
def _eigen_entry(draw):
    """A unit times powers (prime powers included) of shared Gaussian
    primes, or a random Gaussian rational whose numerator norm and
    denominator square are at most 2^40."""
    if draw(st.booleans()):
        z = draw(st.sampled_from(_UNITS))
        for _ in range(draw(st.integers(0, 3))):
            z = z * draw(st.sampled_from(_SHARED_PRIMES)) ** draw(st.integers(-3, 3))
        return z
    bound = 1 << 19
    a, b, d = draw(st.integers(-bound, bound)), draw(st.integers(-bound, bound)), draw(st.integers(1, 1 << 20))
    return GR(Fraction(a, d), Fraction(b, d)) if a or b else GR(1)


@st.composite
def _eigen_matrices(draw, max_n: int = 4):
    """p x n matrices of _eigen_entry values, some entries the product of
    two earlier ones (possibly inverted), so that relations occur."""
    p = draw(st.integers(1, 2))
    n = draw(st.integers(max(p, 2), max_n))
    flat = []
    for _ in range(p * n):
        if len(flat) >= 2 and draw(st.integers(0, 3)) == 0:
            u, v = draw(st.sampled_from(flat)), draw(st.sampled_from(flat))
            flat.append(u * v ** draw(st.sampled_from([1, -1])))
        else:
            flat.append(draw(_eigen_entry()))
    return tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(p))


def _prime_exponents(factorization) -> tuple[int, dict]:
    """(unit exponent, {Gaussian prime: exponent}) of a factorization over
    any base, each base element refactored by the oracle."""
    unit, primes = factorization.unit_exp, {}
    for q, e in factorization.factors:
        inner = factor_gaussian(q)
        unit += e * inner.unit_exp
        for prime, k in inner.factors:
            primes[prime] = primes.get(prime, 0) + e * k
    return unit % 4, {prime: e for prime, e in primes.items() if e}


class TestCoprimeBase:
    """The coprime bases against the factoring oracle (helpers.FactoringEigenData)."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_eigen_matrices())
    def test_lattice_and_log_modulus_signs_match_the_oracle(self, mu):
        eigen, oracle = EigenData(mu), FactoringEigenData(mu)
        assert eigen.lattice.basis == oracle.lattice.basis
        for i in range(eigen.p):
            for m in range(eigen.n):
                assert eigen.log_modulus(i, m).sign() == oracle.log_modulus(i, m).sign()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_eigen_matrices(max_n=3))
    def test_analyze_verdicts_and_methods_match_the_oracle(self, mu):
        assert decider_outcomes(EigenData(mu)) == decider_outcomes(FactoringEigenData(mu))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_eigen_matrices())
    def test_base_invariants(self, mu):
        """Both bases hold pairwise-coprime non-units, and each eigenvalue is
        a unit times a product of base powers, checked prime by prime
        against the oracle's factorizations."""
        eigen = EigenData(mu)
        gaussian, integer = eigen.gaussian_base, eigen.integer_base
        assert all(q.norm() > 1 and q.re > 0 and q.im >= 0 for q in gaussian)
        prime_sets = [set(dict(factor_gaussian(q).factors)) for q in gaussian]
        for s, t in itertools.combinations(prime_sets, 2):
            assert not s & t
        assert all(q > 1 and not sympy.perfect_power(q) for q in integer)
        assert all(math.gcd(q, r) == 1 for q, r in itertools.combinations(integer, 2))
        for i in range(eigen.p):
            for m in range(eigen.n):
                z = eigen.mu[i][m]
                oracle = factor_gaussian(z)
                assert _prime_exponents(eigen.factorization(i, m)) == (oracle.unit_exp, dict(oracle.factors))
                by_prime = {}
                for q, c in eigen.log_modulus(i, m).coords:
                    for prime, k in sympy.factorint(q).items():
                        by_prime[prime] = by_prime.get(prime, 0) + c * k
                assert {prime: c for prime, c in by_prime.items() if c} == dict(log_modulus(z).coords)

    def test_examples(self):
        # 6 = 2 * 3 always together: one base element, printed as 6; 4 and
        # 1 + i give the prime 2, not 4
        assert EigenData.from_rows([["6", "1/36"]]).integer_base == (6,)
        assert EigenData.from_rows([["6", "1/36"]]).log_modulus(0, 0).as_dict() == {6: 1}
        assert EigenData.from_rows([["4", "1+i"]]).integer_base == (2,)
        assert EigenData.from_rows([["4", "1+i"]]).log_modulus(0, 1).as_dict() == {2: Fraction(1, 2)}
        assert EigenData.from_rows([["6", "2"]]).integer_base == (2, 3)
        e = EigenData.from_rows([["2+i", "2-i", "5"]])
        assert e.gaussian_base == (GR(1, 2), GR(2, 1))
        assert e.lattice.basis == ((1, 1, -1),)

    def test_incomplete_base_is_refused(self):
        from germnf.exactnum import base_factorization, base_log_modulus

        with pytest.raises(AssertionError):
            base_factorization(GR(6), (GR(2),))
        with pytest.raises(AssertionError):
            base_log_modulus(GR(6), (2,))
