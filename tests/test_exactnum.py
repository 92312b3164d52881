import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from germnf.exactnum import (
    DomainError,
    GaussianRational as GR,
    IndeterminateError,
    LogModulusVector,
    TurnSum,
    certified_round_to_integer,
    factor_gaussian,
    factor_int,
    log_modulus,
    principal_arg_turns,
)

from helpers import random_gaussian


class TestGaussianRational:
    def test_parse_print_round_trip_examples(self):
        for text in ["-2", "1/2", "0+1*i", "-2/3-5/7*i", "4", "3/4+1/2*i", "-1*i"]:
            z = GR.parse(text)
            assert GR.parse(str(z)) == z

    def test_parse_variants(self):
        assert GR.parse("i") == GR(0, 1)
        assert GR.parse("-i") == GR(0, -1)
        assert GR.parse("2+i") == GR(2, 1)
        assert GR.parse("1/2") == GR(Fraction(1, 2))
        with pytest.raises(ValueError):
            GR.parse("two")
        with pytest.raises(ValueError):
            GR.parse("")

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(300):
            z = random_gaussian(rng, 50)
            assert GR.parse(str(z)) == z

    def test_field_axioms_samples(self):
        rng = random.Random(5)
        for _ in range(100):
            a = random_gaussian(rng, 10)
            b = random_gaussian(rng, 10)
            c = random_gaussian(rng, 10)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
        for _ in range(60):
            a = random_gaussian(rng, 10, nonzero=True)
            assert a * a.inverse() == GR(1)
            assert a ** 3 * a ** -3 == GR(1)

    def test_norm_multiplicative(self):
        rng = random.Random(6)
        for _ in range(50):
            a, b = random_gaussian(rng, 10), random_gaussian(rng, 10)
            assert (a * b).norm() == a.norm() * b.norm()


class TestFactorization:
    def test_minus_two(self):
        f = factor_gaussian(GR(-2))
        assert f.value() == GR(-2)
        assert f.factors == ((GR(1, 1), 2),)
        assert f.unit_exp == 1  # re-multiplication fixes the unit exactly

    def test_one(self):
        f = factor_gaussian(GR(1))
        assert f.unit_exp == 0 and f.factors == ()

    def test_one_half(self):
        f = factor_gaussian(GR(Fraction(1, 2)))
        assert f.factors == ((GR(1, 1), -2),)
        assert f.value() == GR(Fraction(1, 2))

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            factor_gaussian(GR(0))

    def test_canonical_primes_first_quadrant(self):
        f = factor_gaussian(GR(Fraction(7, 10), Fraction(-3, 13)))
        for prime, _ in f.factors:
            assert prime.re > 0 and prime.im >= 0

    def test_remultiplication_identity_bulk(self):
        # spec invariant: 1000 random nonzero values with num/den <= 10^4
        rng = random.Random(101)
        for _ in range(1000):
            z = GR(
                Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4)),
                Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4)),
            )
            if z.is_zero():
                continue
            assert factor_gaussian(z).value() == z


# psi_12, the least strong pseudoprime to every prime base 2..37
PSI_12 = 399165290221 * 798330580441


class TestFactorInt:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(2001, 10**9).map(sympy.nextprime), min_size=1, max_size=4),
        st.integers(1, 10**4),
    )
    def test_matches_sympy_on_primes_past_trial_division(self, primes, small):
        n = small * math.prod(primes)
        assert factor_int(n) == sympy.factorint(n)

    def test_strong_pseudoprime_psi12_is_not_called_prime(self):
        assert PSI_12 == 318665857834031151167461
        with pytest.raises(IndeterminateError):
            factor_int(PSI_12)
        with pytest.raises(IndeterminateError):
            factor_int(12 * PSI_12)

    def test_primes_below_psi12_are_proven(self):
        p = sympy.prevprime(PSI_12)
        assert factor_int(p) == {p: 1}
        assert factor_int(2 * p * p) == {2: 1, p: 2}


class TestLogModulus:
    def test_examples(self):
        assert log_modulus(GR(-2)).as_dict() == {2: Fraction(1)}
        assert log_modulus(GR(0, 1)).as_dict() == {}
        assert log_modulus(GR(1, 1)).as_dict() == {2: Fraction(1, 2)}

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            log_modulus(GR(0))

    def test_additivity_exact(self):
        rng = random.Random(7)
        for _ in range(100):
            a = random_gaussian(rng, 12, nonzero=True)
            b = random_gaussian(rng, 12, nonzero=True)
            assert (log_modulus(a) + log_modulus(b)).as_dict() == log_modulus(a * b).as_dict()

    def test_squared_exp_is_norm(self):
        rng = random.Random(8)
        for _ in range(60):
            z = random_gaussian(rng, 12, nonzero=True)
            assert log_modulus(z).squared_exp() == z.norm()

    def test_sign(self):
        assert log_modulus(GR(2)).sign() == 1
        assert log_modulus(GR(Fraction(1, 2))).sign() == -1
        assert log_modulus(GR(0, 1)).sign() == 0
        assert (log_modulus(GR(2)) + log_modulus(GR(Fraction(1, 3)))).sign() == -1

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.dictionaries(
            st.sampled_from([2, 3, 4, 5, 6, 7, 999983, 1000003]),
            st.integers(-40, 40).map(lambda k: Fraction(k, 2)),
            max_size=6,
        ),
        st.sampled_from([None, 64]),
    )
    def test_sign_matches_exact_products(self, coords, max_bits):
        # oracle: sum c_p ln p has the sign of prod p^(2 c_p) - 1; the
        # composite keys 4 and 6 make some nonzero vectors sum to zero
        num = den = 1
        for p, c in coords.items():
            e = int(2 * c)
            if e > 0:
                num *= p**e
            else:
                den *= p**-e
        vec = LogModulusVector.from_dict(coords)
        assert vec.sign(max_bits) == (num > den) - (num < den)

    def test_sign_of_vanishing_combinations(self):
        assert LogModulusVector(()).sign() == 0
        assert LogModulusVector.from_dict({6: Fraction(1), 2: Fraction(-1), 3: Fraction(-1)}).sign() == 0
        assert LogModulusVector.from_dict({4: Fraction(1, 2), 2: Fraction(-1)}).sign(64) == 0


class TestCertifiedRounding:
    def test_example_minus_two_half(self):
        # (2 Arg(-2) + 2 Arg(1/2)) / 2pi = 1
        ts = principal_arg_turns(GR(-2)).scale(2) + principal_arg_turns(GR(Fraction(1, 2))).scale(2)
        assert certified_round_to_integer(ts) == 1

    def test_example_i_minus_i(self):
        ts = principal_arg_turns(GR(0, 1)) + principal_arg_turns(GR(0, -1))
        assert certified_round_to_integer(ts) == 0

    def test_example_four_i(self):
        assert certified_round_to_integer(principal_arg_turns(GR(0, 1)).scale(4)) == 1

    def test_atan_terms(self):
        # Arg(3+4i) + Arg(3-4i) = 0; 8 * Arg(1+i) / 2pi = 1
        ts = principal_arg_turns(GR(3, 4)) + principal_arg_turns(GR(3, -4))
        assert certified_round_to_integer(ts) == 0
        assert certified_round_to_integer(principal_arg_turns(GR(1, 1)).scale(8)) == 1

    def test_deterministic_across_precisions(self):
        ts = principal_arg_turns(GR(2, 1)).scale(4) + principal_arg_turns(GR(2, -1)).scale(4)
        assert certified_round_to_integer(ts, max_bits=64) == certified_round_to_integer(ts, max_bits=1024) == 0

    def test_non_integer_rational_rejected(self):
        with pytest.raises(DomainError):
            certified_round_to_integer(TurnSum(Fraction(1, 2), ()))

    def test_budget_exhaustion_signals(self):
        ts = principal_arg_turns(GR(3, 4))  # genuinely non-integer value
        with pytest.raises(IndeterminateError):
            certified_round_to_integer(ts, max_bits=32)

    def test_principal_range_conventions(self):
        # Arg principal in (-pi, pi]: Arg(-2) = pi, Arg(-1-i) = -3pi/4
        assert principal_arg_turns(GR(-2)).rational == Fraction(1, 2)
        ts = principal_arg_turns(GR(-1, -1))
        assert ts.rational == Fraction(-3, 8) and ts.atan_terms == ()
        assert principal_arg_turns(GR(0, -3)).rational == Fraction(-1, 4)
        # quadrant signs carried by the atan coefficient
        up = principal_arg_turns(GR(2, 1))
        down = principal_arg_turns(GR(2, -1))
        assert up.atan_terms == ((Fraction(1), Fraction(1, 2)),)
        assert down.atan_terms == ((Fraction(-1), Fraction(1, 2)),)
