import contextlib
import math
import operator
import random
import sys
import time
from fractions import Fraction

import mpmath
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
    from_parts,
    log_modulus,
    parse_parts,
    principal_arg_turns,
)

from germnf.resonance import EigenData

from helpers import FractionPair, agrees, fraction_parse, random_gaussian


@contextlib.contextmanager
def precision_bits(bits):
    """The one precision budget, GERMNF_PRECISION_BITS, set to `bits` (unset
    for None) inside the block.  Hypothesis tests cannot take the
    function-scoped monkeypatch fixture, so this sets it in the test body."""
    with pytest.MonkeyPatch.context() as mp:
        if bits is None:
            mp.delenv("GERMNF_PRECISION_BITS", raising=False)
        else:
            mp.setenv("GERMNF_PRECISION_BITS", str(bits))
        yield


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
            assert a * (GR(1) / a) == GR(1)
            assert a ** 3 * a ** -3 == GR(1)

    def test_norm_multiplicative(self):
        rng = random.Random(6)
        for _ in range(50):
            a, b = random_gaussian(rng, 10), random_gaussian(rng, 10)
            assert (a * b).norm() == a.norm() * b.norm()


# Parts small enough to cancel often, and large enough to need big integers.
_PART = st.one_of(
    st.fractions(-6, 6, max_denominator=6),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)),
)
_GAUSS = st.builds(GR, _PART, _PART)
_OPERAND = st.one_of(_GAUSS, st.integers(-(10**25), 10**25), st.integers(-3, 3), _PART)
_ORACLE = settings(max_examples=150, deadline=None, derandomize=True)
_SPACE = st.sampled_from(["", " ", "  ", "\t"])
_SIGN = st.sampled_from(["", "+", "-"])
_DIGITS = st.text("0123456789", min_size=1, max_size=40)
_RATIONAL = st.builds(lambda num, den: num if den is None else f"{num}/{den}", _DIGITS, st.none() | _DIGITS)
# strings of the input grammar: an optional signed real part, then an
# optional imaginary part ('i', '-i' or 'c/q * i' with spaces around '*')
_GRAMMAR = st.builds(
    lambda lead, re, im, trail: lead + re + im + trail,
    _SPACE,
    st.just("") | st.builds(str.__add__, _SIGN, _RATIONAL),
    st.just("") | st.builds(lambda sp, sign, coeff, s1, s2: f"{sp}{sign}{coeff}{s1}*{s2}i" if coeff else f"{sp}{sign}i",
                            _SPACE, _SIGN, st.just("") | _RATIONAL, _SPACE, _SPACE),
    _SPACE,
)
_JUNK = st.text("0123456789+-*/i .e\u0663", max_size=14) | st.text(max_size=8)
_MODULUS = sys.hash_info.modulus


class TestGaussianRationalOracle:
    """The integer triple against the pair-of-Fractions oracle; `agrees`
    also checks the canonical form of every result."""

    @_ORACLE
    @given(st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]),
           _GAUSS, _OPERAND, st.booleans())
    def test_binary_operators(self, op, z, other, swap):
        x, y = (other, z) if swap else (z, other)
        try:
            expected = op(FractionPair.of(x), FractionPair.of(y))
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                op(x, y)
            return
        assert agrees(op(x, y), expected)

    @_ORACLE
    @given(_GAUSS, st.integers(-6, 9))
    def test_powers(self, z, e):
        if z.is_zero() and e < 0:
            with pytest.raises(ZeroDivisionError):
                z ** e
        else:
            assert agrees(z ** e, FractionPair.of(z) ** e)

    @_ORACLE
    @given(_GAUSS)
    def test_unary_operations(self, z):
        o = FractionPair.of(z)
        assert agrees(-z, -o)
        assert agrees(z.conjugate(), o.conjugate())
        assert z.norm() == o.norm() and isinstance(z.norm(), Fraction)
        assert z.is_zero() == (not z) == (o.re == o.im == 0)
        assert z.is_one() == ((o.re, o.im) == (1, 0))

    @_ORACLE
    @given(_PART, _PART)
    def test_constructor(self, re, im):
        assert agrees(GR(re, im), FractionPair(re, im))
        assert agrees(GR(str(re), str(im)), FractionPair(re, im))
        if re.denominator == 1:
            assert agrees(GR(int(re)), FractionPair(re))

    @_ORACLE
    @given(_GAUSS, _OPERAND)
    def test_equality_and_hash(self, z, other):
        o, p = FractionPair.of(z), FractionPair.of(other)
        same = (o.re, o.im) == (p.re, p.im)
        assert (z == other) == same and (other == z) == same and (z != other) != same
        assert (z == o.re) == (o.im == 0)
        assert (z == o.re.numerator) == (o.im == 0 and o.re.denominator == 1)
        if z == other:
            assert hash(z) == hash(other)
        if o.im == 0:  # a real value hashes as the equal Fraction, and int
            assert hash(z) == hash(o.re)
        assert isinstance(z.re, Fraction) and (z.re, z.im) == (o.re, o.im)

    def test_hash_when_the_denominator_meets_the_hash_modulus(self):
        for re, im in [(Fraction(1, _MODULUS), 0), (Fraction(3, 2 * _MODULUS), Fraction(-5, _MODULUS**2)),
                       (Fraction(-1, _MODULUS + 1), 1), (Fraction(2, 3), Fraction(-1, _MODULUS + 1)),
                       (Fraction(-3, 2 * _MODULUS), 0), (Fraction(5, _MODULUS + 1), 0)]:
            z = GR(re, im)
            assert hash(z) == hash(GR(str(re), str(im)))
            if im == 0:
                assert hash(z) == hash(re)

    def test_equal_numbers_find_each_other_in_sets_and_dicts(self):
        assert GR(2) in {2} and 2 in {GR(2)} and GR(-1) in {-1}
        assert {GR(Fraction(1, 2)): 0}[Fraction(1, 2)] == 0
        assert {Fraction(-7, 3): 0}[GR(Fraction(-7, 3))] == 0
        assert GR(2, 1) not in {2}

    @_ORACLE
    @given(_GAUSS)
    def test_str_and_parse(self, z):
        assert str(z) == str(FractionPair.of(z))
        assert agrees(GR.parse(str(z)), FractionPair.of(z))
        assert repr(z) == f"GaussianRational({z.re!r}, {z.im!r})"

    def test_division_by_zero(self):
        z = GR(Fraction(1, 2), 3)
        for zero in (0, Fraction(0), GR(0)):
            with pytest.raises(ZeroDivisionError):
                z / zero
        with pytest.raises(ZeroDivisionError):
            1 / GR(0)
        with pytest.raises(ZeroDivisionError):
            GR(0) ** -1

    def test_zero_denominator_is_a_parse_error(self):
        for text in ("1/0", "3/0*i", "1+2/0*i", "0/0", "-5/0 * i"):
            with pytest.raises(ValueError, match="zero denominator"):
                GR.parse(text)

    @_ORACLE
    @given(st.one_of(_GRAMMAR, _JUNK))
    def test_parser_against_fraction_oracle(self, text):
        """The integer parser and the Fraction-based one read the same value
        or both refuse (the oracle divides by a zero denominator)."""
        try:
            expected = fraction_parse(text)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="zero denominator"):
                parse_parts(text)
            return
        except ValueError:
            with pytest.raises(ValueError, match="cannot parse"):
                parse_parts(text)
            return
        a, b, d = parse_parts(text)
        assert d > 0 and agrees(from_parts(a, b, d), FractionPair.of(expected))
        assert GR.parse(text) == expected

    def test_immutable_and_typed(self):
        z = GR(1, 2)
        for name in ("re", "im", "_a", "_b", "_d"):
            with pytest.raises(AttributeError):
                setattr(z, name, 0)
        with pytest.raises(TypeError):
            z + 0.5
        assert z.__eq__("1+2*i") is NotImplemented


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


    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.tuples(
            st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(1, 10**6)
        ).filter(lambda t: t[0] or t[1])
    )
    def test_factor_gaussian_and_log_modulus_match_sympy(self, parts):
        """An outside oracle for both: every prime's norm is a prime p, or
        p^2 for p ≡ 3 (mod 4) (`sympy.isprime`); the factors give z back;
        and log_modulus has coordinates v_p(a^2 + b^2) / 2 - v_p(d) for
        z = (a + b*i)/d in lowest terms (`sympy.factorint`)."""
        z = from_parts(*parts)
        a, b, d = z._a, z._b, z._d
        f = factor_gaussian(z)
        for prime, e in f.factors:
            norm = int(prime.norm())
            root = math.isqrt(norm)
            assert e and (sympy.isprime(norm) or (root * root == norm and root % 4 == 3 and sympy.isprime(root)))
        assert f.value() == z
        expected = {p: Fraction(e, 2) for p, e in sympy.factorint(a * a + b * b).items()}
        for p, e in sympy.factorint(d).items():
            expected[p] = expected.get(p, 0) - e
        assert log_modulus(z).as_dict() == {p: c for p, c in expected.items() if c}


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
    def test_sign_matches_exact_products(self, coords, bits):
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
        with precision_bits(bits):
            assert vec.sign() == (num > den) - (num < den)

    def test_sign_of_vanishing_combinations(self):
        assert LogModulusVector(()).sign() == 0
        assert LogModulusVector.from_dict({6: Fraction(1), 2: Fraction(-1), 3: Fraction(-1)}).sign() == 0
        with precision_bits(64):
            assert LogModulusVector.from_dict({4: Fraction(1, 2), 2: Fraction(-1)}).sign() == 0


    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.integers(2, 60), st.integers(2, 60), st.integers(-6, 6).map(lambda k: Fraction(k, 2))),
            min_size=1,
            max_size=4,
        ),
        st.dictionaries(st.sampled_from([2, 3, 5, 7, 11]), st.integers(-6, 6).map(lambda k: Fraction(k, 2)),
                        max_size=2),
    )
    def test_sign_matches_oracle_on_composite_forms(self, relations, extra):
        """c (ln ab - ln a - ln b) vanishes exactly, so a sum of such
        relations is zero however its composite keys are written, and
        `extra` moves it off zero.  The oracle is mpmath at more digits than
        prod p^(2|c_p|) has, below which a nonzero form cannot lie."""
        coords: dict[int, Fraction] = dict(extra)
        for a, b, c in relations:
            for key, sign in ((a * b, 1), (a, -1), (b, -1)):
                coords[key] = coords.get(key, Fraction(0)) + sign * c
        vec = LogModulusVector.from_dict(coords)
        digits = int(sum(2 * abs(c) * math.log10(q) for q, c in vec.coords)) + 30
        with mpmath.workdps(digits):
            value = mpmath.fsum(mpmath.log(q) * c.numerator / c.denominator for q, c in vec.coords)
            expected = 0 if abs(value) < mpmath.mpf(10) ** (20 - digits) else int(mpmath.sign(value))
        with precision_bits(64):
            low = vec.sign()
        with precision_bits(None):
            assert vec.sign() == low == expected

    def test_sign_at_height_4000_bits(self):
        """Log moduli of eigenvalues of about 2^4000 and rational rescalings
        of them: the exact comparison multiplies integers of about 8000 bits
        and takes well under a second for all of them."""
        gauss = GR(1, 2) ** 3444  # modulus 5^1722, about 2^3998.6
        mus = [GR(Fraction(2**4000, 3**2523)), GR(Fraction(3**2523, 2**4000)), gauss / GR(2) ** 3999,
               gauss / GR(3) ** 2523, GR(2) ** 4000 * GR(Fraction(1, 3)) ** 2524]
        forms = [log_modulus(mu) for mu in mus]
        forms += [form.scale(Fraction(1, 7)) for form in forms] + [forms[0].scale(Fraction(-5, 3))]
        start = time.process_time()
        signs = [form.sign() for form in forms]
        assert time.process_time() - start < 1.0
        with mpmath.workdps(50):
            expected = [int(mpmath.sign(mpmath.fsum(mpmath.log(q) * c.numerator / c.denominator
                                                    for q, c in form.coords))) for form in forms]
        assert signs == expected and set(signs) == {1, -1}


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
        with precision_bits(64):
            low = certified_round_to_integer(ts)
        with precision_bits(1024):
            high = certified_round_to_integer(ts)
        assert low == high == 0

    def test_non_integer_rational_rejected(self):
        with pytest.raises(DomainError):
            certified_round_to_integer(TurnSum(Fraction(1, 2), ()))

    def test_budget_exhaustion_signals(self):
        # Arg(2+i) + Arg(3+i) = pi/4, so ts is exactly a quarter turn, and no
        # enclosure within the default cap lies within 1/4 of an integer
        ts = (principal_arg_turns(GR(2, 1)) + principal_arg_turns(GR(3, 1))).scale(2)
        with pytest.raises(IndeterminateError):
            certified_round_to_integer(ts)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any), min_size=2, max_size=3),
           st.lists(st.integers(-2, 2), min_size=2, max_size=3),
           st.sampled_from([GR(1), GR(0, 1), GR(-1), GR(0, -1), GR(Fraction(3, 5), Fraction(4, 5))]),
           st.integers(1, 2))
    def test_relation_turns_match_oracle(self, bases, powers, unit, p):
        """For every relation vector k of an eigen row that multiplies
        random Gaussian integers, sum_m k_m Arg(mu_m) / 2pi is an integer,
        and certified rounding finds mpmath's value of it."""
        gs = [GR(a, b) for a, b in bases]
        row = gs + [unit] + [math.prod((g ** e for g, e in zip(gs, powers)), start=unit)]
        rows = [row, [z.conjugate() * GR(0, 1) for z in row]][:p]
        eigen = EigenData(tuple(tuple(r) for r in rows))
        with mpmath.workdps(60):
            for k in eigen.lattice.basis:
                for r in rows:
                    ts = sum((principal_arg_turns(z).scale(e) for z, e in zip(r, k) if e), TurnSum(Fraction(0), ()))
                    exact = sum(e * mpmath.arg(mpmath.mpc(z.re.numerator / mpmath.mpf(z.re.denominator),
                                                          z.im.numerator / mpmath.mpf(z.im.denominator)))
                                for z, e in zip(r, k)) / (2 * mpmath.pi)
                    expected = int(mpmath.nint(exact))
                    assert abs(exact - expected) < mpmath.mpf(10) ** -40
                    assert certified_round_to_integer(ts) == expected

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
