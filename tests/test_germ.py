import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from germnf.cli import run
from germnf.exactnum import GaussianRational as GR
from germnf.germ import (
    CommutationError,
    Family,
    Germ,
    commutativity_defect,
    compose_germ,
    conjugate,
    conjugate_by_shift,
    family_from_json,
    family_to_json,
    invert_germ,
    jet_through,
    require_commuting,
    solve_germ,
)
from germnf.series import TruncatedSeries as TS, UsageError, compose_all, identity_shift

from helpers import (
    all_exponents,
    conjugate_by_inverse,
    example_34_family,
    family_by_oracle,
    gaussians,
    germs,
    homogeneous_part,
    inverse_by_defect_correction,
    jets,
    linear_diag_germ,
    nonzero_gaussians,
    random_series,
    random_tangent_identity,
)

SMALL_SHAPES = st.tuples(st.integers(1, 3), st.integers(1, 5))  # (n, D)
ROOT = Path(__file__).resolve().parents[1]
# coefficient strings: printed scalars and other spellings of the grammar
COEFF_TEXT = gaussians.map(str) | st.sampled_from(["i", "-i", " 2/4 ", "-3/6+4/8 * i", "0", "0/7", "+5"])


@st.composite
def family_inputs(draw):
    """Schema-1 family input, p <= 2, n <= 3, D <= 4, commuting or not:
    invertible linear parts (a diagonal, or a row permutation of an upper
    triangular matrix with nonzero diagonal) and up to 8 terms of degree 2
    to D + 2, some of them repeated."""
    n, degree = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    p = draw(st.integers(1, min(2, n)))
    pool = list(all_exponents(n, degree + 2, 2))
    maps = []
    for _ in range(p):
        pivots = [draw(nonzero_gaussians.map(str)) for _ in range(n)]
        if draw(st.booleans()):
            entry = {"linear_diag": pivots}
        else:
            upper = [[pivots[j] if j == k else draw(COEFF_TEXT) if k > j else "0" for k in range(n)] for j in range(n)]
            entry = {"linear_matrix": draw(st.permutations(upper))}
        terms = draw(st.lists(st.fixed_dictionaries({
            "component": st.integers(1, n), "exponents": st.sampled_from(pool).map(list), "coeff": COEFF_TEXT,
        }), max_size=8))
        entry["terms"] = terms + draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else []
        maps.append(entry)
    return {"schema": 1, "n": n, "p": p, "degree": degree, "maps": maps}


def diag(values, degree):
    return linear_diag_germ([GR(v) if not isinstance(v, GR) else v for v in values], degree)


class TestCompose:
    def test_identity(self):
        f = Germ([TS.monomial((1, 0), 2, 3) + TS.monomial((0, 2), 1, 3), TS.monomial((0, 1), 3, 3)])
        assert compose_germ(f, Germ.identity(2, 3)) == f
        assert compose_germ(Germ.identity(2, 3), f) == f

    def test_example_34_product(self):
        fam = example_34_family(3)
        expected = Germ(
            [TS.monomial((1, 0), -6, 3), TS.monomial((0, 1), 36, 3) + TS.monomial((2, 0), 9, 3)]
        )
        assert compose_germ(fam.germs[0], fam.germs[1]) == expected
        assert compose_germ(fam.germs[1], fam.germs[0]) == expected

    def test_inverse_composes_to_identity(self):
        f = Germ([TS.variable(0, 1, 4) + TS.monomial((2,), 1, 4)])
        g = invert_germ(f)
        assert compose_germ(f, g) == Germ.identity(1, 4)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.data())
    def test_associative(self, data):
        n, d = data.draw(SMALL_SHAPES, label="(n, D)")
        f, g, h = (data.draw(germs(n, d)) for _ in range(3))
        assert compose_germ(compose_germ(f, g), h) == compose_germ(f, compose_germ(g, h))


    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.data())
    def test_both_algorithms_match_substitution(self, data):
        """compose_germ takes the Taylor kernel exactly when the inner linear
        part is the identity, and substitutes every monomial otherwise; both
        agree with compose_all."""
        n, d = data.draw(st.tuples(st.integers(1, 3), st.integers(2, 5)), label="(n, D)")
        f, g = data.draw(germs(n, d)), data.draw(germs(n, d))
        tangent = Germ([TS.variable(j, n, d) + h for j, h in enumerate(g.nonlinear_part())])
        for inner in (g, tangent):
            identity_linear = inner.linear_matrix() == Germ.identity(n, d).linear_matrix()
            assert (identity_shift(inner.components) is not None) == identity_linear
            assert compose_germ(f, inner) == Germ(compose_all(f.components, inner.components))


class TestInvert:
    def test_linear(self):
        assert invert_germ(diag([2], 3)) == diag([Fraction(1, 2)], 3)
        assert invert_germ(diag([2, GR(0, 1)], 3)) == diag([Fraction(1, 2), GR(0, -1)], 3)

    def test_hand_expansion(self):
        f = Germ([TS.variable(0, 1, 3) + TS.monomial((2,), 1, 3)])
        expected = Germ(
            [TS.variable(0, 1, 3) - TS.monomial((2,), 1, 3) + TS.monomial((3,), 2, 3)]
        )
        assert invert_germ(f) == expected

    def test_two_sided_random(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(1, 3)
            d = rng.randint(2, 6)
            comps = []
            for j in range(n):
                comp = TS.variable(j, n, d).scale(GR(rng.randint(1, 3)))
                comp = comp + homogeneous_part(random_series(rng, n, d, 2), 2) if d >= 2 else comp
                comps.append(comp)
            f = Germ(comps)
            g = invert_germ(f)
            ident = Germ.identity(n, d)
            assert compose_germ(f, g) == ident
            assert compose_germ(g, f) == ident

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.data())
    def test_two_sided_property(self, data):
        n, d = data.draw(SMALL_SHAPES, label="(n, D)")
        f = data.draw(germs(n, d))
        g = invert_germ(f)
        ident = Germ.identity(n, d)
        assert compose_germ(f, g) == ident
        assert compose_germ(g, f) == ident

    def test_singular_rejected(self, tmp_path):
        """A singular linear part is rejected where it enters, as family
        input (exit 1); a singular germ built in code fails to invert."""
        for entry in ({"linear_matrix": [["1", "2"], ["2", "4"]]}, {"linear_diag": ["3", "0"]}):
            data = {"schema": 1, "n": 2, "degree": 3, "maps": [entry]}
            with pytest.raises(UsageError, match="singular"):
                family_from_json(data)
            path = tmp_path / "singular.json"
            path.write_text(json.dumps(data))
            assert run(["normalize", str(path)]) == 1
        with pytest.raises(ValueError, match="singular"):
            invert_germ(Germ([TS.monomial((2,), 1, 3)]))


class TestSolve:
    """solve_germ(f, [g]) is [Y] with f o Y = g, found without f^{-1}."""

    @staticmethod
    def _record_rounds(monkeypatch):
        """For each composition solve_germ runs, the highest degree of a term
        in the jet Y it substitutes."""
        import germnf.germ as germ

        rounds, compose = [], germ.compose_all

        def recorded(targets, comps):
            rounds.append(max((sum(e) for c in comps for e in c.support()), default=0))
            return compose(targets, comps)

        monkeypatch.setattr(germ, "compose_all", recorded)
        return rounds

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_solves_random_germs(self, data):
        """Non-diagonal linear parts on the left, any jets on the right."""
        n, d = data.draw(SMALL_SHAPES, label="(n, D)")
        f = data.draw(germs(n, d), label="f")
        g = Germ([data.draw(jets(n, d, max_terms=4), label=f"g{m}") for m in range(n)])
        assert compose_germ(f, solve_germ(f, [g])[0]) == g

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.data())
    def test_linear_f_takes_one_round(self, data):
        n, d = data.draw(SMALL_SHAPES, label="(n, D)")
        f = data.draw(germs(n, d), label="f")
        linear = Germ.from_linear_matrix(f.linear_matrix(), d)
        g = data.draw(germs(n, d), label="g")
        with pytest.MonkeyPatch.context() as mp:
            rounds = self._record_rounds(mp)
            (y,) = solve_germ(linear, [g])
        assert rounds == []
        assert compose_germ(linear, y) == g

    def test_near_identity_steps_every_degree(self, monkeypatch):
        """id + h_l for l = 2..D: the first round is exact through degree
        l - 1 and each composing round gains l - 1 more, so the solve stops
        after ceil(D / (l - 1)) - 1 compositions, and the Y substituted in
        composition k holds no term above the degree k (l - 1) it is exact
        through."""
        rng = random.Random(61)
        rounds = self._record_rounds(monkeypatch)
        for n, d in [(1, 6), (2, 6), (3, 5)]:
            for ell in range(2, d + 1):
                step = Germ(
                    [
                        TS.variable(j, n, d) + homogeneous_part(random_series(rng, n, d, 4), ell)
                        for j in range(n)
                    ]
                )
                if step == Germ.identity(n, d):
                    continue
                g = Germ([TS.variable(j, n, d).scale(GR(j + 2)) + random_series(rng, n, d, 3) for j in range(n)])
                rounds.clear()
                (y,) = solve_germ(step, [g])
                assert len(rounds) == -(-d // (ell - 1)) - 1, (n, d, ell)
                assert all(top <= k * (ell - 1) for k, top in enumerate(rounds, 1)), (n, d, ell, rounds)
                assert compose_germ(step, y) == g
                assert y == compose_germ(inverse_by_defect_correction(step), g)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.data())
    def test_conjugate_and_invert_match_the_inverse_oracle(self, data):
        n, d = data.draw(SMALL_SHAPES, label="(n, D)")
        f = data.draw(germs(n, d), label="f")
        psi = data.draw(germs(n, d), label="psi")
        assert conjugate(f, psi) == conjugate_by_inverse(f, psi)
        assert invert_germ(psi) == inverse_by_defect_correction(psi)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_nonlinear_part_reads_y_through_d_minus_r_plus_1(self, data):
        """N o Y == N o Y_{<= D - r + 1} for N of order r: the bound each
        solve round and the normalizer's psi build feed a composition."""
        n, d = data.draw(st.tuples(st.integers(1, 3), st.integers(2, 6)), label="(n, D)")
        r = data.draw(st.integers(2, d), label="r")
        nonlinear = [data.draw(jets(n, d, min_degree=r), label=f"N{m}") for m in range(n)]
        y = data.draw(germs(n, d), label="Y").components
        assert compose_all(nonlinear, y) == compose_all(nonlinear, jet_through(y, d - r + 1))

    def test_mismatch_rejected(self):
        with pytest.raises(UsageError):
            solve_germ(Germ.identity(2, 3), [Germ.identity(2, 4)])


class TestConjugate:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.data())
    def test_step_by_shift_matches_the_general_path(self, data):
        """For a near-identity step s = id + h, conjugating by its shift h
        alone gives what `conjugate` and `compose_germ` give for the germ s."""
        n, d = data.draw(st.tuples(st.integers(1, 3), st.integers(2, 5)), label="(n, D)")
        rng = data.draw(st.randoms(use_true_random=False), label="rng")
        step = random_tangent_identity(rng, n, d, extra_terms=data.draw(st.integers(0, 4), label="terms"))
        h = identity_shift(step.components)
        family = [data.draw(germs(n, d), label=f"g{i}") for i in range(data.draw(st.integers(1, 2), label="p"))]
        psi = data.draw(germs(n, d), label="psi")
        assert conjugate_by_shift(family, psi, h) == ([conjugate(g, step) for g in family], compose_germ(psi, step))

    def test_step_by_shift_rejects_a_mismatch(self):
        f = example_34_family(4).germs[0]
        with pytest.raises(UsageError):
            conjugate_by_shift([f], f, [TS.zero(3, 4)] * 3)
        with pytest.raises(UsageError):
            conjugate_by_shift([f], Germ.identity(2, 5), [TS.zero(2, 4)] * 2)

    def test_by_identity(self):
        f = example_34_family(4).germs[0]
        assert conjugate(f, Germ.identity(2, 4)) == f

    def test_homological_step(self):
        # psi^{-1} o (2x,3y) o psi with psi = (x - y^2/7, y) creates +y^2
        psi = Germ([TS.variable(0, 2, 3) - TS.monomial((0, 2), Fraction(1, 7), 3), TS.variable(1, 2, 3)])
        got = conjugate(diag([2, 3], 3), psi)
        expected = Germ([TS.monomial((1, 0), 2, 3) + TS.monomial((0, 2), 1, 3), TS.monomial((0, 1), 3, 3)])
        assert got == expected

    def test_round_trip(self):
        rng = random.Random(29)
        for _ in range(10):
            f = Germ(
                [
                    TS.variable(j, 2, 5).scale(GR(rng.randint(1, 4)))
                    + homogeneous_part(random_series(rng, 2, 5, 2), rng.randint(2, 4))
                    for j in range(2)
                ]
            )
            psi = random_tangent_identity(rng, 2, 5)
            assert conjugate(conjugate(f, psi), invert_germ(psi)) == f

    def test_preserves_commutativity(self):
        rng = random.Random(37)
        fam = example_34_family(4)
        for _ in range(5):
            psi = random_tangent_identity(rng, 2, 4)
            a = conjugate(fam.germs[0], psi)
            b = conjugate(fam.germs[1], psi)
            assert commutativity_defect(a, b) is None

    def test_preserves_first_integrals(self):
        rng = random.Random(43)
        f = diag([-2, Fraction(1, 2)], 4)
        integral = TS.monomial((2, 2), 1, 4)
        assert integral.compose(list(f.components)) == integral
        for _ in range(5):
            psi = random_tangent_identity(rng, 2, 4)
            transported = integral.compose(list(psi.components))
            conjugated = conjugate(f, psi)
            assert transported.compose(list(conjugated.components)) == transported


class TestCommutativityDefect:
    def test_example_34_commutes(self):
        fam = example_34_family(4)
        assert commutativity_defect(fam.germs[0], fam.germs[1]) is None

    def test_self_commutes(self):
        f = example_34_family(4).germs[0]
        assert commutativity_defect(f, f) is None

    def test_witness(self):
        f = Germ([TS.monomial((1, 0), 2, 3), TS.variable(1, 2, 3) + TS.monomial((2, 0), 1, 3)])
        g = diag([3, 1], 3)
        defect = commutativity_defect(f, g)
        # (f o g - g o f) component 2: 9x^2 - x^2
        assert defect == (2, 2, (2, 0), GR(8))

    def test_family_ctor_rejects(self):
        f = Germ([TS.monomial((1, 0), 2, 3), TS.variable(1, 2, 3) + TS.monomial((2, 0), 1, 3)])
        g = diag([3, 1], 3)
        with pytest.raises(CommutationError) as err:
            require_commuting(Family([f, g]))
        assert err.value.witness[0] == 2

    def test_require_commuting_raises_the_first_pair_witness(self):
        """The first pair in (i, j) order that does not commute, with its
        `commutativity_defect` witness, in the message the CLI prints."""
        f = Germ([TS.monomial((1, 0), 2, 3), TS.variable(1, 2, 3) + TS.monomial((2, 0), 1, 3)])
        with pytest.raises(CommutationError) as err:
            require_commuting(Family([f, diag([3, 1], 3)]))
        assert err.value.witness == (2, 2, (2, 0), GR(8))
        assert str(err.value) == (
            "germs 1 and 2 do not commute: defect at degree 2, component 2, monomial (2, 0), coefficient 8")
        f1, f2 = diag([2, 3, 5], 3), diag([7, 11, 13], 3)
        f3 = Germ([TS.variable(0, 3, 3), TS.variable(1, 3, 3) + TS.monomial((2, 0, 0), 1, 3), TS.variable(2, 3, 3)])
        with pytest.raises(CommutationError) as err:
            require_commuting(Family([f1, f2, f3]))
        assert err.value.witness == commutativity_defect(f1, f3) == (2, 2, (2, 0, 0), GR(-1))
        assert str(err.value).startswith("germs 1 and 3 do not commute: ")
        fam = Family([f1, f2])
        assert require_commuting(fam) is fam


class TestJson:
    def test_round_trip(self):
        fam = example_34_family(4)
        data = family_to_json(fam)
        assert data["schema"] == 1
        assert family_from_json(data) == fam

    def test_matrix_linear_part(self):
        rot = Germ.from_linear_matrix([[GR(0), GR(-1)], [GR(1), GR(0)]], 3)
        fam = Family([rot])
        data = family_to_json(fam)
        assert "linear_matrix" in data["maps"][0]
        assert family_from_json(data) == fam

    def test_schema_violations(self):
        fam = example_34_family(4)
        data = family_to_json(fam)
        bad = dict(data)
        bad.pop("schema")
        with pytest.raises(UsageError):
            family_from_json(bad)
        bad = dict(data, extra_field=1)
        with pytest.raises(UsageError):
            family_from_json(bad)
        bad = dict(data, degree=1)
        with pytest.raises(UsageError):
            family_from_json(bad)

    def test_linear_terms_rejected_in_term_list(self):
        data = {
            "schema": 1,
            "n": 1,
            "degree": 3,
            "maps": [{"linear_diag": ["2"], "terms": [{"component": 1, "exponents": [1], "coeff": "1"}]}],
        }
        with pytest.raises(UsageError):
            family_from_json(data)

    def test_repeated_terms_add_up(self):
        """A (component, exponents) pair given twice is the sum of its
        coefficients, and terms that cancel leave no term."""
        terms = [
            {"component": 1, "exponents": [2, 0], "coeff": "1/2"},
            {"component": 2, "exponents": [1, 1], "coeff": "i"},
            {"component": 1, "exponents": [2, 0], "coeff": "1/3-i"},
            {"component": 2, "exponents": [1, 1], "coeff": "-i"},
            {"component": 2, "exponents": [0, 3], "coeff": "2"},
        ]
        data = {"schema": 1, "n": 2, "degree": 3, "maps": [{"linear_diag": ["2", "3"], "terms": terms}]}
        (f,) = family_from_json(data).germs
        assert f.components[0] == TS(2, 3, {(1, 0): 2, (2, 0): GR.parse("5/6-i")})
        assert f.components[1] == TS(2, 3, {(0, 1): 3, (0, 3): 2})

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(family_inputs())
    def test_one_pass_reader_against_constructor_oracle(self, data):
        """The reader's packed keys and summed triples give the family that
        TruncatedSeries(n, D, {exponents: scalar}) builds from the
        Fraction-parsed scalars, repeated terms and terms above D included."""
        assert family_from_json(data) == family_by_oracle(data)

    def test_reader_builds_scalars_only_for_the_linear_entries(self, monkeypatch):
        """No Fraction, no parsed scalar and no scalar per term: the reader
        builds a GaussianRational only for the nonzero linear entries that
        the invertibility check reads."""
        import germnf.germ as germ

        data = json.loads((ROOT / "perfbench/corpus/integrals/inf_p2_n4-0.json").read_text())
        built, scalars, original = [], [], germ.from_parts
        monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda cls, *a, **k: built.append(a)))
        monkeypatch.setattr(GR, "__init__", lambda self, *a: built.append(a))
        monkeypatch.setattr(germ, "from_parts", lambda *t: scalars.append(t) or original(*t))
        fam = family_from_json(data)
        assert built == []
        assert len(scalars) == sum(len(g.linear_rows()) for g in fam.germs) == fam.p * fam.n

    def test_term_with_negative_exponent_rejected(self):
        terms = [{"component": 1, "exponents": [3, -1], "coeff": "1"}]
        data = {"schema": 1, "n": 2, "degree": 3, "maps": [{"linear_diag": ["2", "3"], "terms": terms}]}
        with pytest.raises(UsageError, match="negative exponent"):
            family_from_json(data)
