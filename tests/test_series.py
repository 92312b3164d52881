import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.rings import ring

from germnf.exactnum import DomainError, GaussianRational as GR, as_parts
from germnf.series import (
    FIELD,
    TruncatedSeries as TS,
    UsageError,
    compose_all,
    compose_shifted,
    fixed_point_rows,
    grlex_key,
    grlex_sorted,
    identity_shift,
    pack,
    unpack,
)

from helpers import (
    all_exponents,
    from_term_list,
    gaussians,
    gr_from_sympy,
    gr_to_sympy,
    homogeneous_part,
    jets,
    log1p,
    random_series,
)


def var(j, n, d):
    return TS.variable(j, n, d)


class TestRingOperations:
    def test_difference_of_squares(self):
        x, y = var(0, 2, 2), var(1, 2, 2)
        assert (x + y) * (x - y) == x * x - y * y

    def test_truncation_discards(self):
        x, y = var(0, 2, 3), var(1, 2, 3)
        assert ((x * x) * (y * y)).is_zero()

    def test_geometric_series(self):
        x = var(0, 2, 3)
        one = TS.constant(1, 2, 3)
        assert (one + x) * (one - x + x * x - x * x * x) == one

    def test_ring_axioms_random(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 3)
            d = rng.randint(1, 6)
            f, g, h = (random_series(rng, n, d, 3, zero_constant=False) for _ in range(3))
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f * g == g * f

    def test_mismatch_rejected(self):
        with pytest.raises(UsageError):
            var(0, 2, 3) + var(0, 2, 4)
        with pytest.raises(UsageError):
            var(0, 2, 3) * var(0, 3, 3)

    def test_pow(self):
        x = var(0, 1, 6)
        assert x ** 0 == TS.constant(1, 1, 6)
        assert x ** 5 == TS.monomial((5,), 1, 6)


class TestComposition:
    def test_spec_examples(self):
        f = TS.monomial((1, 1), 1, 4)
        g = [var(0, 2, 4).scale(-2), var(1, 2, 4).scale(Fraction(1, 2))]
        assert f.compose(g) == f.scale(-1)
        big = TS.monomial((2, 2), 1, 4)
        assert big.compose(g) == big  # x^2 y^2 invariant under (-2x, y/2)

    def test_identity(self):
        rng = random.Random(3)
        for _ in range(10):
            f = random_series(rng, 2, 4, 4, zero_constant=False)
            ident = [var(0, 2, 4), var(1, 2, 4)]
            assert f.compose(ident) == f

    def test_associativity(self):
        rng = random.Random(23)
        for _ in range(12):
            n, d = 2, rng.randint(2, 5)
            f = random_series(rng, n, d, 3, zero_constant=False)
            g = [random_series(rng, n, d, 2) for _ in range(n)]
            h = [random_series(rng, n, d, 2) for _ in range(n)]
            lhs = f.compose(g).compose(h)
            rhs = f.compose([gj.compose(h) for gj in g])
            assert lhs == rhs

    def test_constant_term_rejected(self):
        f = var(0, 1, 3)
        with pytest.raises(DomainError):
            f.compose([TS.constant(1, 1, 3)])

    def test_truncation_coherence(self):
        rng = random.Random(31)
        for _ in range(15):
            f = random_series(rng, 2, 6, 4, zero_constant=False)
            g = random_series(rng, 2, 6, 4, zero_constant=False)
            assert (f * g).truncate(4) == f.truncate(4) * g.truncate(4)
            comps = [random_series(rng, 2, 6, 2) for _ in range(2)]
            lower = [c.truncate(4) for c in comps]
            assert f.compose(comps).truncate(4) == f.truncate(4).compose(lower)


def _to_sympy(series: TS, xs):
    expr = sympy.Integer(0)
    for exp, c in series.items():
        expr += gr_to_sympy(c) * sympy.Mul(*(x**e for x, e in zip(xs, exp)))
    return expr


def _from_sympy(expr, xs, degree: int) -> TS:
    """Expand, then drop the terms above the truncation degree."""
    terms = {}
    for monom, coeff in sympy.Poly(sympy.expand(expr), *xs).terms():
        if sum(monom) <= degree:
            terms[monom] = gr_from_sympy(coeff)
    return TS(len(xs), degree, terms)


class TestComposeAll:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_sympy_expand_and_truncate(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        d = data.draw(st.integers(1, 5), label="D")
        targets = data.draw(st.lists(jets(n, d, min_degree=0), min_size=1, max_size=3))
        comps = [data.draw(jets(n, d)) for _ in range(n)]
        xs = sympy.symbols(f"x0:{n}")
        images = {x: _to_sympy(g, xs) for x, g in zip(xs, comps)}
        got = compose_all(targets, comps)
        assert got == [_from_sympy(_to_sympy(t, xs).xreplace(images), xs, d) for t in targets]
        assert got == [t.compose(comps) for t in targets]

    def test_mismatch_rejected(self):
        with pytest.raises(UsageError):
            compose_all([var(0, 2, 3)], [var(0, 2, 3)])
        with pytest.raises(UsageError):
            compose_all([var(0, 2, 3)], [var(0, 2, 4), var(1, 2, 4)])
        # image keys are packed in the components' own n variables, so the
        # components must be a map of their own space
        comps = [var(0, 3, 4) + var(1, 3, 4) * var(2, 3, 4), var(2, 3, 4)]
        with pytest.raises(UsageError, match="a map in 3 variables needs 3 component series"):
            compose_all([TS(2, 4, {(1, 0): 1, (0, 2): GR(2, 1)})], comps)
        with pytest.raises(UsageError, match="a map in 3 variables needs 3 component series"):
            fixed_point_rows(comps, [(1, 0)])

    def test_fixed_point_rows_read_the_images(self):
        """Row delta, column gamma: coefficient of x^delta in x^gamma o g,
        less 1 on the diagonal, as its canonical triple, zero entries left
        out, rows in graded-lex order; the same numbers as the jets
        x^gamma o g - x^gamma."""
        rng = random.Random(4)
        columns = sorted(all_exponents(2, 4, min_degree=1), key=grlex_key)
        swap = [var(1, 2, 4), var(0, 2, 4)]  # x o swap = y has no x term: a lone -1 on the diagonal
        for comps in ([random_series(rng, 2, 4) + var(j, 2, 4) for j in range(2)], swap):
            expected: dict = {}
            for j, gamma in enumerate(columns):
                mono = TS.monomial(gamma, 1, 4)
                for delta, c in (mono.compose(comps) - mono).items():
                    expected.setdefault(delta, {})[j] = as_parts(c)
            rows = fixed_point_rows(comps, columns)
            assert rows == [expected[delta] for delta in sorted(expected, key=grlex_key)]
            assert all(a or b for row in rows for a, b, _ in row.values())
        assert fixed_point_rows([var(0, 2, 4), var(1, 2, 4)], columns) == []


def _sympy_substitute(target: TS, inner: list[TS]) -> TS:
    """target(inner) in sympy's sparse polynomial ring over Q(i), each
    product truncated above the degree; expanding first and truncating at
    the end takes minutes at n = 4, D = 7."""
    n, d = target.n, target.degree
    R, *_ = ring([f"x{j}" for j in range(n)], sympy.QQ_I)

    def lift(series: TS):
        return R({e: sympy.QQ_I.from_sympy(gr_to_sympy(c)) for e, c in series.items()})

    images, total = [lift(g) for g in inner], R.zero
    for exp, c in target.items():
        term = lift(TS.constant(c, n, d))
        for image, e in zip(images, exp):
            for _ in range(e):
                term = R({m: a for m, a in (term * image).items() if sum(m) <= d})
        total += term
    return TS(n, d, {m: gr_from_sympy(sympy.QQ_I.to_sympy(a)) for m, a in total.items()})


class TestComposeShifted:
    """t(x + h) by the Taylor kernel against substitution of every monomial
    (`compose_all` with the components x_j + h_j) and against sympy."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_substitution_and_sympy(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        d = data.draw(st.integers(2, 7), label="D")
        low = data.draw(st.integers(2, d), label="low")
        shift = [
            data.draw(jets(n, d, min_degree=low)) if data.draw(st.booleans()) else TS.zero(n, d)
            for _ in range(n)
        ]
        targets = []
        for _ in range(data.draw(st.integers(1, 3))):
            affine = {(0,) * n: data.draw(gaussians)}
            affine.update({tuple(int(k == j) for k in range(n)): data.draw(gaussians) for j in range(n)})
            targets.append(TS(n, d, affine) + data.draw(jets(n, d, min_degree=2, max_terms=4)))
        got = compose_shifted(targets, shift)
        inner = [var(j, n, d) + h for j, h in enumerate(shift)]
        assert got == compose_all(targets, inner)
        assert got == [_sympy_substitute(t, inner) for t in targets]

    def test_identity_shift_reads_the_linear_part(self):
        x, y = var(0, 2, 4), var(1, 2, 4)
        h = [x * y.scale(GR(Fraction(1, 2), 1)), y * y * y]
        assert identity_shift([x + h[0], y + h[1]]) == h
        assert identity_shift([x, y]) == [TS.zero(2, 4), TS.zero(2, 4)]
        assert identity_shift([x.scale(2) + h[0], y]) is None
        assert identity_shift([x + y + h[0], y]) is None
        assert identity_shift([y, x]) is None

    def test_shift_needs_degree_two(self):
        x, y = var(0, 2, 3), var(1, 2, 3)
        with pytest.raises(DomainError):
            compose_shifted([x * y], [y, TS.zero(2, 3)])
        with pytest.raises(DomainError):
            compose_shifted([x * y], [TS.constant(1, 2, 3), TS.zero(2, 3)])
        with pytest.raises(UsageError):
            compose_shifted([var(0, 2, 4)], [x * y, TS.zero(2, 3)])
        assert compose_shifted([x * y + x], [TS.zero(2, 3)] * 2) == [x * y + x]


class TestTranscendentalJets:
    def test_log1p_examples(self):
        # the oracle helpers.log1p, which the round trips pair with exp0
        assert log1p(TS.zero(1, 4)).is_zero()
        x = var(0, 1, 3)
        expect = x - (x * x).scale(Fraction(1, 2)) + (x * x * x).scale(Fraction(1, 3))
        assert log1p(x) == expect

    def test_exp0_examples(self):
        assert TS.zero(1, 4).exp0() == TS.constant(1, 1, 4)
        x = var(0, 1, 2)
        assert x.exp0() == TS.constant(1, 1, 2) + x + (x * x).scale(Fraction(1, 2))

    def test_round_trips(self):
        rng = random.Random(41)
        one = None
        for _ in range(20):
            n = rng.randint(1, 3)
            d = rng.randint(1, 6)
            u = random_series(rng, n, d, 3)
            one = TS.constant(1, n, d)
            assert log1p(u).exp0() - one == u
            w = random_series(rng, n, d, 3)
            assert log1p(w.exp0() - one) == w

    def test_constant_term_guard(self):
        with pytest.raises(DomainError):
            log1p(TS.constant(1, 1, 3))
        with pytest.raises(DomainError):
            TS.constant(1, 1, 3).exp0()


class TestJets:
    def test_homogeneous_part(self):
        # homogeneous parts as differences of part_up_to (helpers oracle)
        f = TS.constant(1, 2, 3) + var(0, 2, 3) + TS.monomial((1, 1), 1, 3)
        assert homogeneous_part(f, 0) == TS.constant(1, 2, 3)
        assert homogeneous_part(f, 2) == TS.monomial((1, 1), 1, 3)
        assert homogeneous_part(f, 3).is_zero()
        with pytest.raises(UsageError):
            f.truncate(4)

    def test_divide_by_variable(self):
        f = TS.monomial((2, 1), 3, 4)
        assert f.divide_by_variable(0) == TS.monomial((1, 1), 3, 4)
        with pytest.raises(DomainError):
            TS.monomial((0, 2), 1, 4).divide_by_variable(0)


class TestSerialization:
    def test_term_list_round_trip_and_order(self):
        f = TS.monomial((0, 2), GR(1, 1), 4) + TS.monomial((1, 0), 2, 4) + TS.monomial((2, 0), -1, 4)
        terms = f.to_term_list()
        exps = [tuple(t["exponents"]) for t in terms]
        assert exps == sorted(exps, key=grlex_key)
        assert from_term_list(terms, 2, 4) == f

    def test_duplicate_rejected(self):
        with pytest.raises(UsageError):
            from_term_list(
                [
                    {"exponents": [1, 0], "coeff": "1"},
                    {"exponents": [1, 0], "coeff": "2"},
                ],
                2,
                4,
            )


# ---------------------------------------------------------------------------
# the integer-native storage against a dict-of-GaussianRational reference
# ---------------------------------------------------------------------------

# coefficients with many distinct denominators, so operands rarely share one
wide = st.builds(
    GR,
    st.fractions(-6, 6, max_denominator=12),
    st.fractions(-6, 6, max_denominator=12),
)


def ref(s: TS) -> dict:
    """The reference form of a jet: {exponent: nonzero GaussianRational}."""
    return dict(s.items())


def ref_clean(terms: dict, degree: int) -> dict:
    return {e: c for e, c in terms.items() if c and sum(e) <= degree}


def ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, GR(0)) + c * sign
    return {e: c for e, c in out.items() if c}


def ref_mul(a: dict, b: dict, degree: int) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, GR(0)) + ca * cb
    return ref_clean(out, degree)


def ref_compose(target: dict, comps: list[dict], n: int, degree: int) -> dict:
    out = {}
    for exp, c in target.items():
        term = {(0,) * n: c}
        for k, e in enumerate(exp):
            for _ in range(e):
                term = ref_mul(term, comps[k], degree)
        out = ref_add(out, term)
    return out


def assert_canonical(s: TS):
    """Lowest terms: a positive denominator sharing no factor with all the
    numerators, no zero numerator, and 1 over the zero jet."""
    assert s._den > 0
    assert all(a or b for a, b in s._terms.values())
    assert math.gcd(s._den, *(x for ab in s._terms.values() for x in ab)) == 1


def assert_matches(s: TS, expected: dict):
    assert_canonical(s)
    assert ref(s) == expected
    rebuilt = TS(s.n, s.degree, expected)
    assert s == rebuilt and hash(s) == hash(rebuilt)


class TestIntegerStorage:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_ring_operations_match_reference(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        d = data.draw(st.integers(1, 5), label="D")
        f = data.draw(jets(n, d, min_degree=0, max_terms=4, coeffs=wide), label="f")
        g = data.draw(jets(n, d, min_degree=0, max_terms=4, coeffs=wide), label="g")
        c = data.draw(wide, label="c")
        assert_matches(f + g, ref_add(ref(f), ref(g)))
        assert_matches(f - g, ref_add(ref(f), ref(g), -1))
        assert_matches(-f, {e: -v for e, v in ref(f).items()})
        assert_matches(f * g, ref_mul(ref(f), ref(g), d))
        assert_matches(f.scale(c), ref_clean({e: v * c for e, v in ref(f).items()}, d))
        low = data.draw(st.integers(0, d), label="low")
        truncated = f.truncate(low)
        assert truncated.degree == low
        assert_matches(truncated, ref_clean(ref(f), low))
        assert_matches(f.part_up_to(low), ref_clean(ref(f), low))
        shift = tuple(data.draw(st.integers(0, 2), label="shift") for _ in range(n))
        shifted = {tuple(x + y for x, y in zip(e, shift)): v * c for e, v in ref(f).items()}
        assert_matches(f * TS.monomial(shift, c, d), ref_clean(shifted, d))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_sums_that_cancel(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        d = data.draw(st.integers(1, 5), label="D")
        f = data.draw(jets(n, d, min_degree=0, max_terms=4, coeffs=wide), label="f")
        g = data.draw(jets(n, d, min_degree=0, max_terms=4, coeffs=wide), label="g")
        zero = TS.zero(n, d)
        for cancelled in (f - f, f + (-f), f.scale(0), (f + g) - g - f, f * zero):
            assert cancelled == zero and hash(cancelled) == hash(zero)
            assert cancelled._den == 1 and cancelled.is_zero()
        # partial cancellation lowers the denominator back to the survivors'
        assert_matches((f + g) - g, ref(f))
        assert_matches(f + g.scale(GR(1, 1)) - g.scale(GR(0, 1)), ref_add(ref(f), ref(g)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_divide_by_variable_matches_reference(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        d = data.draw(st.integers(1, 5), label="D")
        k = data.draw(st.integers(0, n - 1), label="k")
        f = data.draw(jets(n, d, min_degree=0, max_terms=4, coeffs=wide), label="f")
        terms = ref(f)
        if all(e[k] >= 1 for e in terms):
            lowered = {e[:k] + (e[k] - 1,) + e[k + 1:]: v for e, v in terms.items()}
            assert_matches(f.divide_by_variable(k), lowered)
        else:
            with pytest.raises(DomainError):
                f.divide_by_variable(k)
        multiple = f * TS.variable(k, n, d)
        assert_matches(multiple.divide_by_variable(k), ref_clean(terms, d - 1))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.data())
    def test_compose_all_matches_reference(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        d = data.draw(st.integers(1, 5), label="D")
        targets = data.draw(st.lists(jets(n, d, min_degree=0, coeffs=wide), min_size=1, max_size=3))
        comps = [data.draw(jets(n, d, coeffs=wide)) for _ in range(n)]
        got = compose_all(targets, comps)
        for target, image in zip(targets, got):
            assert_matches(image, ref_compose(ref(target), [ref(g) for g in comps], n, d))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_equal_values_have_equal_storage(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        d = data.draw(st.integers(1, 5), label="D")
        f = data.draw(jets(n, d, min_degree=0, max_terms=4, coeffs=wide), label="f")
        g = data.draw(jets(n, d, min_degree=0, max_terms=4, coeffs=wide), label="g")
        h = data.draw(jets(n, d, min_degree=0, max_terms=4, coeffs=wide), label="h")
        routes = [
            (f + g) * h,
            f * h + g * h,
            h * (g + f),
            TS(n, d, ref_mul(ref_add(ref(f), ref(g)), ref(h), d)),
            from_term_list(((f + g) * h).to_term_list(), n, d),
        ]
        for other in routes[1:]:
            assert other == routes[0] and hash(other) == hash(routes[0])
            assert other._den == routes[0]._den and other._terms == routes[0]._terms

    def test_boundary_conversion(self):
        f = TS(2, 3, {(1, 0): GR(Fraction(1, 6), Fraction(-1, 4)), (0, 2): Fraction(2, 3), (1, 1): 0})
        assert f.support() == [(1, 0), (0, 2)]
        assert f.coeff((1, 0)) == GR(Fraction(1, 6), Fraction(-1, 4))
        assert f.coeff((0, 2)) == GR(Fraction(2, 3)) and f.coeff((1, 1)) == GR(0)
        assert (f._den, {unpack(k, 2): ab for k, ab in f._terms.items()}) == (12, {(1, 0): (2, -3), (0, 2): (8, 0)})
        assert len(f._terms) == 2
        assert str(f) == "(1/6-1/4*i)*x + 2/3*y^2"
        assert not f.is_real() and f.scale(GR(0, 1)).scale(GR(0, -1)) == f
        assert TS(2, 3, {(1, 0): 2}).is_real()


# ---------------------------------------------------------------------------
# packed monomial keys against the tuple-keyed reference
# ---------------------------------------------------------------------------


@st.composite
def exponents(draw, n: int, low: int, high: int):
    """An exponent tuple in n variables of total degree in low..high."""
    total = draw(st.integers(low, high))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def tuple_terms(n: int, low: int, high: int, max_terms: int = 4):
    """{exponent tuple: coefficient} with total degrees in low..high."""
    return st.dictionaries(exponents(n, low, high), wide, max_size=max_terms)


class TestPackedKeys:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_packed_storage_matches_tuple_reference(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        d = data.draw(st.integers(0, 12), label="D")
        terms = data.draw(tuple_terms(n, 0, d + 1), label="terms")  # degree d + 1 is dropped
        expected = ref_clean(terms, d)
        f = TS(n, d, terms)
        assert_matches(f, expected)
        assert f.support() == sorted(expected, key=grlex_key)
        assert [e for e, _ in f.items()] == f.support()
        assert all(f.coeff(e) == c for e, c in expected.items())
        assert from_term_list(f.to_term_list(), n, d) == f
        assert f.order() == min(map(sum, expected), default=d + 1)
        for k in range(d + 1):
            assert sorted(unpack(key, n) for key in f.keys_of_degree(k)) == sorted(e for e in expected if sum(e) == k)
        low = data.draw(st.integers(0, d), label="low")
        assert_matches(f.part_up_to(low), ref_clean(expected, low))
        assert_matches(f.truncate(low), ref_clean(expected, low))
        g = TS(n, d, data.draw(tuple_terms(n, 0, d), label="g"))
        assert_matches(f * g, ref_mul(expected, ref(g), d))
        k = data.draw(st.integers(0, n - 1), label="k")
        multiple = f * TS.variable(k, n, d)
        assert_matches(multiple.divide_by_variable(k), ref_clean(expected, d - 1))
        if any(e[k] == 0 for e in expected):
            with pytest.raises(DomainError):
                f.divide_by_variable(k)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_grlex_sorted_keys_follow_grlex_key(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        exps = data.draw(st.lists(exponents(n, 0, 9), max_size=30), label="exps")
        assert [unpack(key, n) for key in grlex_sorted(map(pack, exps), n)] == sorted(exps, key=grlex_key)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_compose_shifted_matches_reference(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        d = data.draw(st.integers(2, 12), label="D")
        low = data.draw(st.integers(2, d), label="low")
        h = [TS(n, d, data.draw(tuple_terms(n, low, d, 2), label=f"h{j}")) for j in range(n)]
        target = TS(n, d, data.draw(tuple_terms(n, 0, min(d, 6), 3), label="target"))
        inner = [TS.variable(j, n, d) + hj for j, hj in enumerate(h)]
        (got,) = compose_shifted([target], h)
        assert_matches(got, ref_compose(ref(target), [ref(g) for g in inner], n, d))

    def test_field_boundary(self):
        top = 2**FIELD - 1
        x = TS.variable(0, 1, top)
        f = TS(1, top, {(top,): GR(1, 1)})
        assert f.support() == [(top,)] and f.order() == top
        assert f.coeff((top,)) == GR(1, 1) and f.to_term_list() == [{"exponents": [top], "coeff": "1+1*i"}]
        assert (f * x).is_zero() and f.divide_by_variable(0) == TS.monomial((top - 1,), GR(1, 1), top)
        assert TS.monomial((top - 1,), 1, top) * x == TS.monomial((top,), 1, top)
        corner = TS(2, top, {(top, 0): 1, (0, top): 2})
        assert corner.support() == [(top, 0), (0, top)]
        for refused in (lambda: TS(1, top + 1), lambda: TS.variable(0, 2, 2**FIELD), lambda: TS(1, 2**FIELD, {(1,): 1})):
            with pytest.raises(UsageError):
                refused()

    def test_coeff_refuses_malformed_exponents(self):
        f = TS(2, 3, {(1, 0): 2})
        for bad in ((1, 0, 0), (1,), (), (-1, 2), (2, -1)):
            with pytest.raises(UsageError):
                f.coeff(bad)
        assert f.coeff((1, 0)) == GR(2) and f.coeff((0, 4)) == GR(0)
        with pytest.raises(UsageError):
            f.divide_by_variable(2)

    @pytest.mark.parametrize("entry", [1.5, 1.0, 0.9, True, False, "1"])
    def test_exponent_entries_must_be_ints(self, entry):
        """A float, bool or str exponent entry is refused, not coerced: int()
        would store 1.5 as 1, and read 0.9 or True as a valid index."""
        f = TS(2, 3, {(1, 0): 2, (0, 0): 5})
        with pytest.raises(UsageError):
            TS(2, 3, {(entry, 0): 1})
        with pytest.raises(UsageError):
            f.coeff((entry, 0))
        assert f.coeff([1, 0]) == GR(2)  # a list of ints is still an exponent
