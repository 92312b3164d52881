import itertools
import json
import math
import os
import random
import tempfile
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from germnf.classify import (
    BranchChoice,
    PoincareTypeCertificate,
    VerdictValue,
    find_infinitesimal_generators,
    generators_independent,
    is_hyperbolic,
    is_nondegenerate,
    is_projectively_hyperbolic,
    is_weakly_hyperbolic,
    k_vector,
    normal_form_hypothesis,
    poincare_type_single,
    poly_eval_intervals,
    weak_resonance,
    _torsion_order,
)
from germnf.cli import run
from germnf.exactnum import GaussianRational as GR
from germnf.exactnum import LogModulusVector, precision_ladder
from germnf.linalg import kernel_basis, rational_feasible, solve_integer
from germnf.resonance import EigenData, enumerate_omega, omega_cone, relation_lattice
from germnf.series import UsageError

from helpers import (
    RANK_2_P4_MU,
    example_13_family,
    hull_contains_origin_mp,
    i_minus_i_family,
    linear_diag_germ,
    log_moduli_mp,
    minor_is_zero_mp,
)

E13 = EigenData.from_rows([["-2", "1/2"]])
E23 = EigenData.from_rows([["2", "3"]])
EI = EigenData.from_rows([["i", "-i"]])
E34 = EigenData.from_rows([["2", "4"], ["-3", "9"]])


class TestNondegenerate:
    def test_example_13(self):
        verdict = is_nondegenerate(EigenData.from_family(example_13_family(4)))
        assert verdict.yes
        assert verdict.witness["independent_exponents"] == [[2, 2]]

    def test_independent_primes(self):
        from germnf.germ import Family, Germ

        fam = Family([linear_diag_germ([GR(2), GR(3)], 4)])
        assert is_nondegenerate(EigenData.from_family(fam)).no

    def test_i_minus_i(self):
        verdict = is_nondegenerate(EigenData.from_family(i_minus_i_family(4)))
        assert verdict.yes
        assert verdict.witness["independent_exponents"] == [[1, 1]]


class TestProjectivelyHyperbolic:
    def test_example_13(self):
        assert is_projectively_hyperbolic(E13).yes

    def test_example_34_symbolic_zero(self):
        verdict = is_projectively_hyperbolic(E34)
        assert verdict.no
        assert verdict.witness == {"all_minors_symbolically_zero": True}

    def test_unit_moduli(self):
        assert is_projectively_hyperbolic(EI).no

    def test_certified_independent_pair(self):
        eigen = EigenData.from_rows([["2", "1/2", "3"], ["5", "1/5", "7"]])
        verdict = is_projectively_hyperbolic(eigen)
        assert verdict.yes and verdict.method == "symbolic+interval"

    def test_invariance_under_permutation_and_norm_preserving_swap(self):
        base = is_projectively_hyperbolic(E13).value
        permuted = EigenData.from_rows([["1/2", "-2"]])
        assert is_projectively_hyperbolic(permuted).value == base
        # replace -2 by 2i: same norm, same verdict
        swapped = EigenData((
            (GR(0, 2), GR(Fraction(1, 2))),
        ))
        assert is_projectively_hyperbolic(swapped).value == base
        base34 = is_projectively_hyperbolic(E34).value
        perm34 = EigenData.from_rows([["4", "2"], ["9", "-3"]])
        assert is_projectively_hyperbolic(perm34).value == base34


class TestWeakResonance:
    def test_example_13_all_branches(self):
        # K(2,2) = 1 + 2 b11 + 2 b12 is odd for every integer branch
        for b1 in range(-3, 4):
            for b2 in range(-3, 4):
                verdict = weak_resonance(E13, BranchChoice(((b1, b2),)))
                assert verdict.yes
                assert verdict.witness["K"] == [1 + 2 * b1 + 2 * b2]

    def test_i_minus_i(self):
        verdict = weak_resonance(EI)
        assert verdict.yes
        assert verdict.witness["k"] == [0, 4] and verdict.witness["K"] == [-1]

    def test_trivial_lattice(self):
        assert weak_resonance(E23).no

    def test_branch_covariance(self):
        # K_b(k) = K_0(k) + sum_m k_m b_im, assertable directly
        rng = random.Random(4)
        lat = relation_lattice(EI)
        for _ in range(10):
            b = BranchChoice(((rng.randint(-3, 3), rng.randint(-3, 3)),))
            for k in lat.basis:
                base = k_vector(EI, k)
                shifted = k_vector(EI, k, b)
                expected = tuple(
                    base[i] + sum(k[m] * b.b[i][m] for m in range(2)) for i in range(1)
                )
                assert shifted == expected

    def test_example_34_nonresonant_branch_exists(self):
        # b = [[0,0],[0,1]] kills K on the basis (2,-1)
        branch = BranchChoice(((0, 0), (0, 1)))
        assert weak_resonance(E34, branch).no
        # but the generators at that branch are linearly dependent
        decided, info = generators_independent(E34, branch)
        assert decided is False


class TestInfinitesimalGenerators:
    def test_example_13_infeasible(self):
        verdict = find_infinitesimal_generators(E13)
        assert verdict.no and verdict.method == "exact" and not verdict.bounds_used
        assert verdict.witness["reason"] == "no integer solution"

    def test_i_minus_i_infeasible(self):
        assert find_infinitesimal_generators(EI).no

    def test_weakly_nonresonant_case(self):
        eigen = EigenData.from_rows([["1/2", "2"]])
        verdict = find_infinitesimal_generators(eigen)
        assert verdict.yes and verdict.method == "exact"
        assert verdict.witness == {"branch": [[0, 0]]} and not verdict.bounds_used

    def test_empty_omega_vacuous(self):
        verdict = find_infinitesimal_generators(E23)
        assert verdict.yes and verdict.method == "exact" and not verdict.bounds_used
        assert verdict.witness == {"branch": [[0, 0]], "vacuous": True}

    @pytest.mark.parametrize("rows, basis, branch", [
        ([[GR(Fraction(3, 5), Fraction(4, 5)) ** -400, GR(Fraction(3, 5), Fraction(4, 5))]], ((1, 400),), [-59, 0]),
        ([["1048576", "1/2", "1/2"]], ((1, 0, 20), (0, 1, -1)), [0, 0, 0]),
    ], ids=["rows0-basis0", "rows1-basis1"])
    def test_omega_beyond_the_bound_is_decided(self, rows, basis, branch):
        """Omega's first points have degree 401 and 21, past the default
        bound 8, and the walk there finds none; the cone spans all of L (by
        the sign of the rank-1 lattice, by one LP at rank 2), and the branch
        rows are solved on it."""
        eigen = EigenData.from_rows([[str(z) for z in row] for row in rows])
        assert eigen.lattice.basis == basis
        assert enumerate_omega(eigen, 8) == ()
        assert omega_cone(eigen).basis == basis
        assert find_infinitesimal_generators(eigen).to_json() == {
            "verdict": "yes", "method": "exact", "witness": {"branch": [branch]}}

    @pytest.mark.parametrize("row, empty", [
        (["2", "3"], True),  # rank 0
        (["2", "1/2"], False),  # rank 1, basis (1, 1)
        (["2", "2"], True),  # rank 1, basis (1, -1)
        (["2", "2", "2"], True),  # rank 2: k_1 + k_2 + k_3 = 0
        (["2", "1/4", "2"], False),  # rank 2, (1, 1, 1) in L
        (["1048576", "1/2", "1/2"], False),  # rank 2, first Omega point of degree 21
    ], ids=["row0-True", "row1-False", "row2-True", "row3-True", "row4-False", "row5-False"])
    def test_omega_is_empty_exactly(self, row, empty):
        assert (omega_cone(EigenData.from_rows([row])).point is None) is empty

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(2, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=3)))
    def test_omega_emptiness_oracle(self, exponents):
        """mu_k = 2^a_k 3^b_k 5^c_k, so L = {k : M k = 0} for the exponent
        matrix M and L^perp is the row space of M.  Tucker: coordinate j is
        left at 0 by the cone {x >= 0 : M x = 0} exactly when some w = y M
        is >= 0 with w_j > 0, and the cone is zero exactly when some y M > 0.
        A small such y puts j in the cone's zero set, or proves Omega empty;
        a small Omega point positive at j keeps j out of it, and proves
        Omega not empty."""
        n = len(exponents[0])
        primes = (2, 3, 5)
        row = [str(math.prod(Fraction(q) ** e[k] for q, e in zip(primes, exponents))) for k in range(n)]
        eigen = EigenData.from_rows([row])
        cone = omega_cone(eigen)
        walked = enumerate_omega(eigen, 10)
        assert not walked or cone.point is not None
        assert not any(pt[j] for pt in walked for j in cone.zero)
        for y in itertools.product(range(-3, 4), repeat=len(exponents)):
            w = [sum(c * e[k] for c, e in zip(y, exponents)) for k in range(n)]
            if min(w) >= 0:
                assert all(j in cone.zero for j in range(n) if w[j] > 0)
            if min(w) > 0:
                assert cone.point is None


_ORACLE_ENTRIES = tuple(GR.parse(z) for z in (
    "1", "-1", "i", "-i", "3/5+4/5*i", "3/5-4/5*i", "5/13+12/13*i", "-3/5+4/5*i", "2", "1/2", "4", "-2", "2+i"))


def _mpc(z: GR):
    return mpmath.mpc(mpmath.mpf(z.re.numerator) / z.re.denominator, mpmath.mpf(z.im.numerator) / z.im.denominator)


def _numeric_lambda(eigen: EigenData, b) -> list[list]:
    """lambda_im = ln|mu_im| + i (Arg mu_im + 2 pi b_im) in mpmath."""
    return [[mpmath.log(mpmath.mpf(z.norm().numerator) / z.norm().denominator) / 2
             + 1j * (mpmath.arg(_mpc(z)) + 2 * mpmath.pi * b[i][m])
             for m, z in enumerate(row)] for i, row in enumerate(eigen.mu)]


def _numeric_full_rank(eigen: EigenData, b) -> bool:
    """Has lambda(b) a p x p minor above 1e-30 (by the Leibniz sum)?"""
    def det(rows):
        return mpmath.fsum(
            (-1) ** sum(x > y for x, y in itertools.combinations(perm, 2)) * mpmath.fprod(
                row[c] for row, c in zip(rows, perm)) for perm in itertools.permutations(range(len(rows))))

    with mpmath.workdps(60):
        lam = _numeric_lambda(eigen, b)
        return any(abs(det([[row[c] for c in cols] for row in lam])) > mpmath.mpf(10) ** -30
                   for cols in itertools.combinations(range(eigen.n), eigen.p))


def _oracle_generator_route(eigen: EigenData) -> VerdictValue:
    """The generator route's verdict in mpmath, with no symbolic algebra:
    see test_generator_route_agrees_with_an_independent_search."""
    basis = [list(k) for k in eigen.lattice.basis]
    particular = []
    with mpmath.workdps(60):
        for row in eigen.mu:
            args = [mpmath.arg(_mpc(z)) / (2 * mpmath.pi) for z in row]
            turns = [mpmath.fsum(e * a for e, a in zip(k, args)) for k in basis]
            assert all(abs(t - mpmath.nint(t)) < mpmath.mpf(10) ** -40 for t in turns)
            b0 = solve_integer(basis, [-int(mpmath.nint(t)) for t in turns], ncols=eigen.n)
            if b0 is None:
                return VerdictValue.NO
            particular.append(b0)
    kernel = kernel_basis(basis, ncols=eigen.n)
    if len(kernel) < eigen.p:
        return VerdictValue.NO
    for flat in itertools.product((0, 1), repeat=eigen.p * eigen.p):
        t = [flat[i * eigen.p:(i + 1) * eigen.p] for i in range(eigen.p)]
        b = [[b0[m] + sum(t[i][j] * kernel[j][m] for j in range(eigen.p)) for m in range(eigen.n)]
             for i, b0 in enumerate(particular)]
        if _numeric_full_rank(eigen, b):
            return VerdictValue.YES
    raise AssertionError("no independent family on {0,1}^(p x p), against the multilinear argument")


class TestNormalFormHypothesis:
    def test_routes(self):
        assert normal_form_hypothesis(E13).witness["route"] == "projectively_hyperbolic"
        assert normal_form_hypothesis(E34).witness == {"lattice_rank": 1, "n": 2, "p": 2}
        # no integer branch row at all, whatever the box: an exact NO
        assert normal_form_hypothesis(EI).witness["weak_nonresonance"]["reason"] == "no integer solution"
        assert normal_form_hypothesis(EI).no
        elliptic = EigenData(((GR(Fraction(3, 5), Fraction(4, 5)), GR(Fraction(3, 5), Fraction(-4, 5))),))
        verdict = normal_form_hypothesis(elliptic)
        assert verdict.yes
        assert verdict.witness["route"] == "weakly_nonresonant_generators"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(eigen=st.integers(1, 3).flatmap(lambda p: st.integers(p, 4).flatmap(lambda n: st.lists(
        st.tuples(*[st.sampled_from(_ORACLE_ENTRIES)] * n), min_size=p, max_size=p))).map(
        lambda rows: EigenData(tuple(rows))))
    def test_generator_route_agrees_with_an_independent_search(self, eigen):
        """Decided here with mpmath: when the family is not projectively
        hyperbolic, a row with no integer branch or k = n - rank L < p gives
        NO; else lambda(b) for b_i = b0_i + sum_j T_ij n_j, T in {0,1}^(p x p)
        on p kernel vectors n_j, is searched for a nonzero p x p minor.  The
        search is complete: det(C0_S + 2 pi i T) is multilinear in T with
        the nonzero term (2 pi i)^p det T, and a nonzero multilinear
        polynomial has a non-root on {0,1}^N."""
        verdict = normal_form_hypothesis(eigen)
        if is_projectively_hyperbolic(eigen).yes:
            assert verdict.yes and verdict.witness["route"] == "projectively_hyperbolic"
            return
        expected = _oracle_generator_route(eigen)
        assert verdict.value is expected, (eigen.mu, verdict)
        if verdict.yes:
            branch = BranchChoice(tuple(map(tuple, verdict.witness["branch"])))
            assert weak_resonance(eigen, branch).no and _numeric_full_rank(eigen, branch.b)


class TestHyperbolicity:
    def test_single_diffeo(self):
        eigen = EigenData.from_rows([["2", "1/2"]])
        assert is_hyperbolic(eigen).yes
        assert is_weakly_hyperbolic(eigen).yes

    def test_example_34(self):
        assert is_hyperbolic(E34).no
        assert is_weakly_hyperbolic(E34).yes

    def test_zero_covector(self):
        eigen = EigenData.from_rows([["2", "1/2", "1"]])
        verdict = is_weakly_hyperbolic(eigen)
        assert verdict.no
        assert verdict.witness["subset"] == [3]

    def test_mixed_signs_contain_origin(self):
        # covectors ln2 and -ln2 with p=1 never mix; a p=2 case whose hull
        # crosses the origin: c1 = (ln2, ln2), c2 = (-ln2, -ln2)
        eigen = EigenData.from_rows([["2", "1/2"], ["2", "1/2"]])
        verdict = is_weakly_hyperbolic(eigen)
        assert verdict.no

    def test_p1_all_nonunit(self):
        eigen = EigenData.from_rows([["-2", "3/7"]])
        assert is_weakly_hyperbolic(eigen).yes

    def test_origin_in_hull_only_at_irrational_weights(self):
        # c1 = (ln 2, 2 ln 2), c2 = (-ln 3, -2 ln 3): the hull point has
        # lambda_1 = ln 3 / ln 6, so no rational LP finds it
        eigen = EigenData.from_rows([["2", "1/3"], ["4", "1/9"]])
        assert is_hyperbolic(eigen).no
        verdict = is_weakly_hyperbolic(eigen)
        assert verdict.no and verdict.method == "exact"
        assert verdict.witness["subset"] == [1, 2] and "hull_coefficients" not in verdict.witness
        # the kernel vector is (-2 ln 3, -2 ln 2), both entries negative
        assert verdict.witness["kernel_vector"] == [[["-2", [3]]], [["-2", [2]]]]
        assert verdict.witness["kernel_signs"] == [-1, -1]

    def test_collinear_same_side_p2(self):
        # c1 = (ln 2, 2 ln 2), c2 = (ln 3, 2 ln 3): proportional, same side
        eigen = EigenData.from_rows([["2", "3"], ["4", "9"]])
        assert is_hyperbolic(eigen).no
        assert is_weakly_hyperbolic(eigen).yes

    def test_zero_covector_p2(self):
        eigen = EigenData.from_rows([["2", "1", "3"], ["5", "-1", "1/7"]])
        verdict = is_weakly_hyperbolic(eigen)
        assert verdict.no
        assert verdict.witness == {"subset": [1, 2], "hull_coefficients": ["0", "1"]}

    def test_collinear_same_side_p3_stays_yes(self):
        # c_k = k (ln 2, ln 3, ln 5): rank 1 = p - 2, every coordinate a
        # rational multiple of one log form, so the LP decides exactly
        eigen = EigenData.from_rows([["2", "4", "8"], ["3", "9", "27"], ["5", "25", "125"]])
        assert is_hyperbolic(eigen).no
        assert is_weakly_hyperbolic(eigen).yes

    def test_collinear_p3_both_sides(self):
        # c_k = (ln 2, -ln 3, ln 5)_k times u = (1, -1, 2): rank 1, no
        # coordinate a rational multiple of one log form, t = (+, -, +).
        # The circuit {1, 2} has the kernel vector (2 ln 3, 2 ln 2), read
        # off the third coordinate: 2 ln 3 c_1 + 2 ln 2 c_2 = 0
        eigen = EigenData.from_rows([["2", "1/3", "5"], ["1/2", "3", "1/5"], ["4", "1/9", "25"]])
        verdict = is_weakly_hyperbolic(eigen)
        assert verdict.no and verdict.method == "exact"
        assert verdict.witness == {"subset": [1, 2, 3], "circuit": [1, 2],
                                   "kernel_vector": [[["2", [3]]], [["2", [2]]]], "kernel_signs": [1, 1]}

    def test_circuit_read_off_a_later_row_choice(self):
        # c_1 = ln 2 u, c_2 = -ln 3 u with u = (1, 1, 0): the first row
        # choice of the circuit {1, 2}, the third coordinate, gives the zero
        # vector, the next one (-ln 3, -ln 2)
        eigen = EigenData.from_rows([["2", "1/3", "5"], ["2", "1/3", "7"], ["1", "1", "11"]])
        verdict = is_weakly_hyperbolic(eigen)
        assert verdict.no and verdict.method == "exact"
        assert verdict.witness == {"subset": [1, 2, 3], "circuit": [1, 2],
                                   "kernel_vector": [[["-1", [3]]], [["-1", [2]]]], "kernel_signs": [-1, -1]}

    def test_rank_2_of_p4(self):
        # the hull holds the origin only at irrational weights, which the LP
        # cannot find
        eigen = EigenData.from_rows(RANK_2_P4_MU)
        start = time.process_time()
        verdict = is_weakly_hyperbolic(eigen)
        assert time.process_time() - start < 1.0
        assert verdict.no and verdict.method == "symbolic+interval"
        assert verdict.witness["subset"] == [1, 2, 3, 4] and verdict.witness["circuit"] == [1, 2, 3]
        assert verdict.witness["kernel_signs"] == [1, 1, 1]
        assert hull_contains_origin_mp(log_moduli_mp(eigen), (0, 1, 2))
        assert _check_against_oracle(eigen)[1] is VerdictValue.NO

    def test_collinear_p3_same_side_not_reducible(self):
        # c1 = c3 = ln 4 u, c2 = ln 20 u with u = (1, -1, -1)
        eigen = EigenData.from_rows([["4", "20", "4"], ["1/4", "1/20", "1/4"], ["1/4", "1/20", "1/4"]])
        assert is_weakly_hyperbolic(eigen).yes

    def test_rank_p_minus_1_p3_mixed_signs(self):
        # c3 = c1 - c2 with c1, c2 independent: the kernel (1, -1, -1) is not
        # sign-definite, so the origin is not in the hull
        eigen = EigenData.from_rows([["2", "3", "2/3"], ["5", "1/7", "35"], ["1", "2", "1/2"]])
        assert is_hyperbolic(eigen).no
        assert is_weakly_hyperbolic(eigen).yes


class TestMethodLabels:
    """A definite verdict says `exact` unless a fact it rests on was certified
    by the interval ladder: a p x p minor for p >= 2, or a cofactor sign
    that is not the sign of a log form."""

    def test_p1_minors_are_log_forms(self):
        eigen = EigenData.from_rows([["2", "1/2", "3"]])
        for verdict in (is_projectively_hyperbolic(eigen), is_hyperbolic(eigen), is_weakly_hyperbolic(eigen)):
            assert verdict.yes and verdict.method == "exact"

    def test_p2_certified_minor(self):
        eigen = EigenData.from_rows([["2", "3"], ["5", "7"]])
        for verdict in (is_projectively_hyperbolic(eigen), is_hyperbolic(eigen), is_weakly_hyperbolic(eigen)):
            assert verdict.yes and verdict.method == "symbolic+interval"

    def test_p2_collinear_route_is_exact(self):
        # the one minor is symbolically zero; the covectors' signs decide
        eigen = EigenData.from_rows([["2", "3"], ["4", "9"]])
        verdict = is_weakly_hyperbolic(eigen)
        assert verdict.yes and verdict.method == "exact"

    def test_p3_cofactor_signs_by_intervals(self):
        # the cofactors are 2 x 2 minors, whose signs only intervals certify
        eigen = EigenData.from_rows([["2", "3", "2/3"], ["5", "1/7", "35"], ["1", "2", "1/2"]])
        verdict = is_weakly_hyperbolic(eigen)
        assert verdict.yes and verdict.method == "symbolic+interval"

    def test_generators_route(self):
        elliptic = EigenData(((GR(Fraction(3, 5), Fraction(4, 5)), GR(Fraction(3, 5), Fraction(-4, 5))),))
        verdict = normal_form_hypothesis(elliptic)
        assert verdict.witness["route"] == "weakly_nonresonant_generators"
        assert verdict.method == "symbolic+interval"


_SYMBOLS = st.one_of(
    st.sampled_from([2, 3, 5, 6, 7, 10007, 2**61 - 1]).map(lambda q: ("log", q)),
    st.just(("pi",)),
    st.integers(2, 97).flatmap(lambda d: st.integers(1, d - 1).map(lambda a: Fraction(a, d)))
    .map(lambda t: ("atan", t.numerator, t.denominator)),
)
_RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=30)


def _symbol_mp(sym):
    if sym[0] == "log":
        return mpmath.log(sym[1])
    if sym[0] == "pi":
        return +mpmath.pi
    return mpmath.atan(mpmath.mpf(sym[1]) / sym[2])


def _endpoint(x) -> Fraction:
    sign, man, exp, _ = x
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


class TestIntervalOracle:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        st.dictionaries(
            st.lists(_SYMBOLS, max_size=3).map(lambda syms: tuple(sorted(syms))),
            st.tuples(_RATIONALS, _RATIONALS).filter(any).map(lambda c: GR(*c)),
            min_size=1,
            max_size=5,
        )
    )
    def test_enclosures_contain_the_value(self, poly):
        """At every rung of the ladder (64 to 1024 bits) both enclosures
        contain mpmath's 400-digit value, which is closer to the true value
        than one unit in the last place at 1024 bits."""
        with mpmath.workdps(400):
            re = im = mpmath.mpf(0)
            for mono, c in poly.items():
                term = mpmath.fprod(_symbol_mp(sym) for sym in mono)
                re += term * mpmath.mpf(c.re.numerator) / c.re.denominator
                im += term * mpmath.mpf(c.im.numerator) / c.im.denominator
            oracle = [_endpoint(v._mpf_) for v in (re, im)]
        slack = Fraction(1, 10**380)
        for prec in precision_ladder():
            for (lo, hi), value in zip(poly_eval_intervals(poly, prec), oracle):
                assert _endpoint(lo) - slack <= value <= _endpoint(hi) + slack, (prec, poly)


@st.composite
def small_prime_eigen(draw, ps):
    """p x n eigenvalues, p drawn from `ps`, whose covectors lie in the span of
    1..p+1 integer directions d: c_k = sum_d s_kd ln(q_kd) d with q_kd in
    {2, 3}.  Every rank occurs, and collinear covectors over different
    primes give hull points with irrational weights.  Entries are times i
    at random, which leaves the moduli as they are."""
    p = draw(st.sampled_from(ps))
    n = draw(st.integers(min_value=p, max_value=p + 1))
    directions = draw(st.lists(st.lists(st.integers(-1, 1), min_size=p, max_size=p),
                               min_size=1, max_size=p + 1))
    exponents = [[{2: 0, 3: 0} for _ in range(n)] for _ in range(p)]
    for k in range(n):
        for d in directions:
            q, scale = draw(st.sampled_from([2, 3])), draw(st.integers(-1, 2))
            for i in range(p):
                exponents[i][k][q] += scale * d[i]
    rows = []
    for i in range(p):
        row = []
        for k in range(n):
            value = GR(Fraction(2) ** exponents[i][k][2] * Fraction(3) ** exponents[i][k][3])
            row.append(value * GR(0, 1) if draw(st.booleans()) else value)
        rows.append(tuple(row))
    return EigenData(tuple(rows))


def _check_against_oracle(eigen: EigenData):
    """Assert every definite verdict of the three hyperbolicity deciders
    against the mpmath oracle; return (p, weak verdict, witness keys)."""
    proj, hyp, weak = is_projectively_hyperbolic(eigen), is_hyperbolic(eigen), is_weakly_hyperbolic(eigen)
    undecided = VerdictValue.INDETERMINATE
    logs = log_moduli_mp(eigen)
    subsets = list(itertools.combinations(range(eigen.n), eigen.p))
    zero = [minor_is_zero_mp(logs, s) for s in subsets]
    if proj.value is not undecided:
        assert proj.yes == (not all(zero))
    if hyp.value is not undecided:
        assert hyp.yes == (not any(zero))
    if weak.value is not undecided:
        assert weak.yes == (not any(hull_contains_origin_mp(logs, s) for s in subsets))
    assert not (hyp.yes and weak.no)
    # the circuit rule decides every subset, whatever its rank
    assert undecided not in (proj.value, hyp.value, weak.value)
    if weak.no and "kernel_vector" in weak.witness:
        # the kernel vector has the signs it states and balances its circuit
        circuit = weak.witness.get("circuit", weak.witness["subset"])
        with mpmath.workdps(100):
            vector = [sum(Fraction(c) * mpmath.fprod(mpmath.log(q) for q in primes) for c, primes in entry)
                      for entry in weak.witness["kernel_vector"]]
            assert [int(mpmath.sign(v)) for v in vector] == weak.witness["kernel_signs"]
            for row in logs:
                assert abs(mpmath.fsum(v * row[k - 1] for v, k in zip(vector, circuit))) < mpmath.mpf(10) ** -50
    if weak.no and "hull_coefficients" in weak.witness:
        # a rational hull point balances every covector coordinate exactly
        lam = [Fraction(x) for x in weak.witness["hull_coefficients"]]
        assert sum(lam) == 1 and min(lam) >= 0
        for i in range(eigen.p):
            total = LogModulusVector(())
            for weight, k in zip(lam, weak.witness["subset"]):
                total = total + eigen.log_modulus(i, k - 1).scale(weight)
            assert total.is_zero()
    return eigen.p, weak.value, tuple(sorted((weak.witness or {}).keys()))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(eigen=small_prime_eigen([2, 3]))
def _oracle_property(seen: set, eigen: EigenData):
    seen.add(_check_against_oracle(eigen))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(eigen=small_prime_eigen([4]))
def _oracle_property_p4(seen: set, eigen: EigenData):
    seen.add(_check_against_oracle(eigen))


class TestHullOracle:
    """The three hyperbolicity deciders against an mpmath oracle at 100
    digits: minors by determinant, hulls by brute force over supports."""

    def test_definite_verdicts_agree_with_oracle(self):
        seen: set = set()
        _oracle_property(seen)
        _oracle_property_p4(seen)
        # the draws reach every hull witness and a definite yes for each p
        for p in (2, 3, 4):
            assert (p, VerdictValue.NO, ("kernel_signs", "kernel_vector", "subset")) in seen
            assert (p, VerdictValue.NO, ("hull_coefficients", "subset")) in seen
            assert (p, VerdictValue.YES, ("subsets_checked",)) in seen
        for p in (3, 4):
            assert (p, VerdictValue.NO, ("circuit", "kernel_signs", "kernel_vector", "subset")) in seen


class TestPoincareType:
    def test_example_13(self):
        verdict = poincare_type_single(E13)
        assert verdict.yes
        cert = verdict.witness
        assert cert.k == (1, -1)
        assert cert.betas == ((2, 1, 2, 2),)
        assert cert.verify(E13)

    def test_three_slot(self):
        eigen = EigenData.from_rows([["2", "1/2", "-1"]])
        verdict = poincare_type_single(eigen)
        cert = verdict.witness
        assert verdict.yes
        assert cert.alphas == ((3, 2),)
        assert cert.betas == ((2, 1, 1, 1),)
        assert cert.verify(eigen)

    def test_unit_circle_hypothesis_fails(self):
        assert poincare_type_single(EI).no

    def test_unit_modulus_slot_of_order_4(self):
        eigen = EigenData.from_rows([["2", "1/2", "i"]])
        verdict = poincare_type_single(eigen)
        assert verdict.yes and verdict.witness.alphas == ((3, 4),) and not verdict.bounds_used
        assert verdict.witness.verify(eigen)

    def test_torsion_orders_are_exact(self):
        # the roots of unity in Q(i) are +-1 and +-i
        assert [_torsion_order(z) for z in (GR(1), GR(-1), GR(0, 1), GR(0, -1))] == [1, 2, 4, 4]
        assert _torsion_order(GR(Fraction(3, 5), Fraction(4, 5))) is None
        assert _torsion_order(GR(2)) is None

    def test_missing_torsion_order_is_an_internal_error(self, monkeypatch):
        # unreachable on real input: every torsion order the certificate
        # needs exists, so its absence is a failed self-check
        import germnf.classify as classify

        monkeypatch.setattr(classify, "_torsion_order", lambda z: None)
        eigen = EigenData.from_rows([["2", "1/2", "-1"]])
        with pytest.raises(AssertionError, match="slot 3 is not a root of unity"):
            poincare_type_single(eigen)
        with pytest.raises(AssertionError, match=r"pair \(2,1\) has no exact cancelling power"):
            poincare_type_single(E13)

    def test_needs_enough_integrals(self):
        verdict = poincare_type_single(E23)
        assert verdict.no and verdict.method == "exact" and not verdict.bounds_used
        assert verdict.witness == {"lattice_rank": 0, "needed": 1}


_UNITS = (GR(1), GR(-1), GR(0, 1), GR(0, -1))
_ELLIPTIC = GR(1, 2) / GR(1, -2)  # modulus 1, not a root of unity


@st.composite
def cone_eigen(draw):
    """p x n eigenvalues, p <= 3 and n <= 5.  Each germ's entries are units
    times powers of one or two generators from 2, 3, 5, 6 and the
    unit-modulus (1 + 2i)/(1 - 2i), so relation lattices of every rank up
    to n occur, and Omega can be empty, start past degree 8 or start low.
    Exponents go up to 12 at p = 1, which also gives branch rows with large
    particular solutions, and up to 3 above: the lattice's entries grow
    with p, and its exact re-check raises the eigenvalues to them."""
    p = draw(st.integers(1, 3))
    n = draw(st.integers(max(p, 2), 5))
    top = 12 if p == 1 else 3
    rows = []
    for _ in range(p):
        gens = draw(st.lists(st.sampled_from([GR(2), GR(3), GR(5), GR(6), _ELLIPTIC]), min_size=1, max_size=2))
        rows.append(tuple(
            draw(st.sampled_from(_UNITS)) * math.prod((g ** draw(st.integers(-top, top)) for g in gens), start=GR(1))
            for _ in range(n)))
    return EigenData(tuple(rows))


def _in_span(rows, point) -> bool:
    """Is `point` an integer combination of `rows`?"""
    columns = [[row[c] for row in rows] for c in range(len(point))]
    return solve_integer(columns, list(point), ncols=len(rows)) is not None


def _analyze_verdicts(eigen: EigenData, bound: int) -> dict | None:
    """The verdict entries of `analyze` on the linear family with these
    eigenvalues (so `nondegenerate` is among them) at --bound-omega
    `bound`, or None when its Omega walk passes the node cap (exit 1)."""
    family = {"schema": 1, "n": eigen.n, "p": eigen.p, "degree": 4,
              "maps": [{"linear_diag": [str(z) for z in row], "terms": []} for row in eigen.mu]}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "family.json"), os.path.join(tmp, "out.json")
        with open(path, "w") as fh:
            json.dump(family, fh)
        if run(["analyze", path, "--bound-omega", str(bound), "--output", out]) == 1:
            return None
        with open(out) as fh:
            payload = json.load(fh)["payload"]
    return {name: entry for name, entry in payload.items() if isinstance(entry, dict) and "verdict" in entry}


class TestOmegaConeOracle:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(eigen=cone_eigen())
    def test_cone_agrees_with_its_dual_and_the_walk(self, eigen):
        """For every coordinate j exactly one of the LP x in L (x) Q, x >= 0,
        x_j = 1 and its dual B w = 0, w >= 0, w_j = 1 is feasible, the dual
        exactly on the cone's zero set Z.  M lies in L (by exact products on
        its basis) and vanishes on Z, the point v lies in M and is >= 0 and
        positive off Z, so an Omega point, the separator is >= 0, orthogonal
        to L and positive on Z, and every Omega point that the walk to
        degree 24 finds lies in M and vanishes on Z."""
        n, basis = eigen.n, [list(k) for k in eigen.lattice.basis]
        cone = omega_cone(eigen)
        perp = kernel_basis(basis, ncols=n)
        for j in range(n):
            unit = [int(m == j) for m in range(n)]
            primal = rational_feasible(perp + [unit], [0] * len(perp) + [1]) is not None
            dual = rational_feasible(basis + [unit], [0] * len(basis) + [1]) is not None
            assert primal is not dual and dual is (j in cone.zero), (eigen.mu, j)
        assert all(eigen.satisfies_relation(m) and not any(m[j] for j in cone.zero) for m in cone.basis)
        w = cone.separator
        assert min(w) >= 0 and all(w[j] > 0 for j in cone.zero)
        assert all(sum(a * b for a, b in zip(k, w)) == 0 for k in basis)
        v = cone.point
        if v is None:
            assert not cone.basis and len(cone.zero) == n
        else:
            assert min(v) >= 0 and all(v[j] > 0 for j in range(n) if j not in cone.zero)
            assert _in_span(cone.basis, v)
        try:
            walked = enumerate_omega(eigen, 24)
        except UsageError:  # the walk passed its node cap
            walked = enumerate_omega(eigen, 8)
        for pt in walked:
            assert _in_span(cone.basis, pt) and not any(pt[j] for j in cone.zero), (eigen.mu, pt)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(eigen=cone_eigen())
    def test_analyze_verdicts_do_not_read_the_bound(self, eigen):
        """Every `analyze` verdict, witness and all, is the same at
        --bound-omega 8 and 24, when the walk to 24 stays under its cap."""
        large = _analyze_verdicts(eigen, 24)
        assert large is None or _analyze_verdicts(eigen, 8) == large, eigen.mu
