import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germnf.exactnum import GaussianRational as GR
from germnf.resonance import (
    EigenData,
    enumerate_omega,
    is_resonant_exponent,
    omega_span_basis,
    relation_lattice,
    resonant_set,
    vect_omega_rank,
)
from germnf.series import UsageError

from helpers import brute_force_omega, brute_force_resonant, lattice_contains, mu_product, random_gaussian


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
        assert enumerate_omega(E13, 4).points == ((2, 2),)
        assert enumerate_omega(EI, 4).points == ((1, 1), (4, 0), (2, 2), (0, 4))
        assert enumerate_omega(E23, 6).points == ()

    def test_brute_force_agreement_random(self):
        rng = random.Random(77)
        for _ in range(50):
            p = rng.randint(1, 2)
            n = rng.randint(p, 3)
            eigen = EigenData(
                tuple(tuple(random_gaussian(rng, 8, nonzero=True) for _ in range(n)) for _ in range(p))
            )
            bound = rng.randint(1, 6)
            assert list(enumerate_omega(eigen, bound).points) == brute_force_omega(eigen, bound)

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
        assert omega_span_basis(EI, 4) == [[1, 1], [0, 4]]
