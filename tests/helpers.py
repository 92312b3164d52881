"""Shared oracles and fixture builders for the test suite.

Oracles here are deliberately independent of the library paths they check:
Omega and resonant sets by brute-force scans of N^n with direct exact
products (`mu_product`, never the EigenData power table), compositions by
direct substitution, and so on.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction

import mpmath
import sympy
from hypothesis import strategies as st

from germnf.exactnum import (
    DomainError,
    GaussianRational as GR,
    IndeterminateError,
    as_parts,
    factor_gaussian,
    log_modulus,
)
from germnf.germ import Family, Germ, compose_germ, conjugate, require_commuting
from germnf.linalg import field_inverse, field_kernel, field_rref, solve_integer
from germnf.normalform import division_check
from germnf.resonance import EigenData, enumerate_omega
from germnf.series import TruncatedSeries, UsageError, grlex_key


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def all_exponents(n: int, max_degree: int, min_degree: int = 0):
    for exp in itertools.product(range(max_degree + 1), repeat=n):
        if min_degree <= sum(exp) <= max_degree:
            yield exp


def mu_product(eigen: EigenData, i: int, k) -> GR:
    """prod_m mu[i][m]^{k_m} by direct powers (negative entries through
    inverses), independent of the EigenData power table."""
    acc = GR(1)
    for m, e in enumerate(k):
        if e:
            acc = acc * eigen.mu[i][m] ** int(e)
    return acc


def lattice_contains(lattice, k) -> bool:
    """k lies in the Z-span of the lattice basis, by an integer solve that
    never looks at the eigenvalues."""
    if not lattice.basis:
        return not any(k)
    columns = [[row[c] for row in lattice.basis] for c in range(lattice.n)]
    return solve_integer(columns, list(k)) is not None


def brute_force_omega(eigen: EigenData, bound: int) -> list[tuple[int, ...]]:
    out = []
    for exp in all_exponents(eigen.n, bound, min_degree=1):
        if all(mu_product(eigen, i, exp).is_one() for i in range(eigen.p)):
            out.append(exp)
    return sorted(out, key=lambda e: (sum(e), tuple(-x for x in e)))


class FactoringEigenData(EigenData):
    """EigenData that factors every eigenvalue over Gaussian and rational
    primes (factor_gaussian and log_modulus, which factor every norm and
    denominator) in place of the coprime bases: the oracle for them.  The
    relation lattice, each log-modulus sign and each decider's verdict and
    method must come out the same."""

    __slots__ = ()

    def factorization(self, i: int, m: int):
        z = self.mu[i][m]
        return self.once(("factors", z), lambda: factor_gaussian(z))

    def log_modulus(self, i: int, m: int):
        z = self.mu[i][m]
        return self.once(("log_modulus", z), lambda: log_modulus(z))


def decider_outcomes(eigen: EigenData) -> dict:
    """(verdict, method) of each decider `analyze` runs, the generator
    verdict in full (its witness is the branch), and for p = 1 the
    Poincare-type verdict; an IndeterminateError stands as its own outcome."""
    from germnf import classify

    deciders = {
        "projectively_hyperbolic": classify.is_projectively_hyperbolic,
        "weakly_resonant": classify.weak_resonance,
        "hyperbolic": classify.is_hyperbolic,
        "weakly_hyperbolic": classify.is_weakly_hyperbolic,
        "normal_form_hypothesis": classify.normal_form_hypothesis,
    }
    out = {}
    for name, decide in deciders.items():
        try:
            verdict = decide(eigen)
            out[name] = (verdict.value, verdict.method)
        except IndeterminateError:
            out[name] = "IndeterminateError"
    out["generators"] = classify.find_infinitesimal_generators(eigen).to_json()
    if eigen.p == 1:
        verdict = classify.poincare_type_single(eigen)
        out["poincare_type"] = (verdict.value, verdict.method)
    return out


def log_moduli_mp(eigen: EigenData, dps: int = 100):
    """ln|mu_im| as mpmath numbers at `dps` digits, row i, column m."""
    with mpmath.workdps(dps):
        return [[mpmath.log(mpmath.mpf(z.norm().numerator) / z.norm().denominator) / 2 for z in row]
                for row in eigen.mu]


def _det_mp(rows):
    """Leibniz determinant (mpmath's LU gives up on some singular input)."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def minor_is_zero_mp(logs, columns, dps: int = 100) -> bool:
    """The log-modulus minor on `columns` vanishes, to within 10^(-dps/2)."""
    with mpmath.workdps(dps):
        det = _det_mp([[row[c] for c in columns] for row in logs])
        return abs(det) < mpmath.mpf(10) ** (-dps // 2)


def hull_contains_origin_mp(logs, columns, dps: int = 100) -> bool:
    """Brute force over supports: 0 is in the convex hull of the covectors
    c_k = (logs[0][k], ..., logs[p-1][k]), k in columns, iff some support S
    of affinely independent points gives a strictly positive solution of
    sum_{k in S} lambda_k c_k = 0, sum lambda_k = 1 (Caratheodory).  The
    normal equations are solved by Cramer's rule on plain mpf lists."""
    tol = mpmath.mpf(10) ** (-dps // 2)
    with mpmath.workdps(dps):
        for size in range(1, len(columns) + 1):
            for support in itertools.combinations(columns, size):
                a = [[row[k] for k in support] for row in logs] + [[1] * size]
                e = [0] * len(logs) + [1]
                gram = [[mpmath.fsum(r[i] * r[j] for r in a) for j in range(size)] for i in range(size)]
                det = _det_mp(gram)
                if abs(det) < tol:
                    continue  # affinely dependent support
                rhs = [mpmath.fsum(r[i] * x for r, x in zip(a, e)) for i in range(size)]
                lam = [_det_mp([row[:j] + [b] + row[j + 1:] for row, b in zip(gram, rhs)]) / det
                       for j in range(size)]
                residual = mpmath.sqrt(mpmath.fsum((mpmath.fdot(r, lam) - x) ** 2 for r, x in zip(a, e)))
                if residual < tol and all(x > tol for x in lam):
                    return True
    return False


def brute_force_resonant(eigen: EigenData, m: int, bound: int) -> list[tuple[int, ...]]:
    out = []
    for exp in all_exponents(eigen.n, bound, min_degree=2):
        if all(mu_product(eigen, i, exp) == eigen.mu[i][m - 1] for i in range(eigen.p)):
            out.append(exp)
    return sorted(out, key=lambda e: (sum(e), tuple(-x for x in e)))


# ---------------------------------------------------------------------------
# jet oracles: closed formulas and canonical forms the library does not need
# ---------------------------------------------------------------------------


def homogeneous_part(f: TruncatedSeries, d: int) -> TruncatedSeries:
    """The terms of total degree exactly d."""
    return f.part_up_to(d) - f.part_up_to(d - 1) if d else f.part_up_to(0)


def log1p(u: TruncatedSeries) -> TruncatedSeries:
    """log(1 + u) for a jet u with u(0) = 0, by its power series: the
    inverse of TruncatedSeries.exp0."""
    if not u.constant_term().is_zero():
        raise DomainError("log1p requires zero constant term")
    result = TruncatedSeries.zero(u.n, u.degree)
    power = TruncatedSeries.constant(1, u.n, u.degree)
    for t in range(1, u.degree + 1):
        power = power * u
        result = result + power.scale(Fraction((-1) ** (t + 1), t))
    return result


def from_term_list(terms: list[dict], n: int, degree: int) -> TruncatedSeries:
    """Inverse of TruncatedSeries.to_term_list; a repeated exponent is an error."""
    data = {}
    for entry in terms:
        exp = tuple(entry["exponents"])
        if exp in data:
            raise UsageError(f"duplicate exponent {exp} in term list")
        data[exp] = GR.parse(entry["coeff"])
    return TruncatedSeries(n, degree, data)


_RAT = r"[+-]?\d+(?:/\d+)?"
_FRACTION_GAUSS_RE = re.compile(
    rf"^\s*(?:(?P<re>{_RAT})(?=\s*(?:[+-]|$)))?\s*"
    rf"(?:(?P<im>[+-]?(?:\d+(?:/\d+)?\s*\*\s*)?)i)?\s*$",
    re.ASCII,  # Fraction reads Unicode digits too, so the grammar refuses them here
)


def fraction_parse(text: str) -> GR:
    """The input grammar read through named regex groups and Fractions:
    the oracle for `exactnum.parse_parts`.  A zero denominator raises
    ZeroDivisionError here."""
    m = _FRACTION_GAUSS_RE.match(text)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"cannot parse Gaussian rational: {text!r}")
    im_raw = m.group("im")
    im_raw = "0" if im_raw is None else im_raw.replace("*", "").replace(" ", "")
    return GR(Fraction(m.group("re") or 0), Fraction({"": 1, "+": 1, "-": -1}.get(im_raw, im_raw)))


def family_by_oracle(data: dict) -> Family:
    """A well-formed schema-1 family built through the public constructors:
    each component is TruncatedSeries(n, D, {exponents: scalar}) with the
    scalars from `fraction_parse`, repeated terms added as scalars and terms
    above D left to the constructor to drop.  Commutativity is not checked."""
    n, degree = data["n"], data["degree"]
    germs = []
    for entry in data["maps"]:
        if "linear_diag" in entry:
            matrix = [[fraction_parse(s) if j == k else GR(0) for k in range(n)] for j, s in enumerate(entry["linear_diag"])]
        else:
            matrix = [[fraction_parse(s) for s in row] for row in entry["linear_matrix"]]
        comps = [{_unit(k, n): a for k, a in enumerate(row)} for row in matrix]
        for term in entry.get("terms", []):
            comp, exp = comps[term["component"] - 1], tuple(term["exponents"])
            comp[exp] = comp.get(exp, GR(0)) + fraction_parse(term["coeff"])
        germs.append(Germ([TruncatedSeries(n, degree, comp) for comp in comps]))
    return Family(germs)


def echelonized_span(series_list: list[TruncatedSeries]) -> list[TruncatedSeries]:
    """Canonical reduced echelon basis of the span; equality of spans is
    equality of these lists."""
    if not series_list:
        return []
    n, d = series_list[0].n, series_list[0].degree
    columns = sorted({exp for s in series_list for exp in s.support()}, key=grlex_key)
    index = {exp: j for j, exp in enumerate(columns)}
    echelon, _ = field_rref([{index[exp]: c for exp, c in s.items()} for s in series_list])
    return [TruncatedSeries(n, d, {columns[j]: c for j, c in vec.items()}) for vec in echelon]


def pushforward_leading(exponents: tuple[int, ...], f: Germ) -> TruncatedSeries:
    """Homogeneous part of degree |l| + 1 of x^l o f by the closed formula
    (prod mu^l) * x^l * sum_m l_m phi_m^(2) / (mu_m x_m), for a germ with
    diagonal linear part mu whose components phi_m are divisible by x_m: an
    oracle for composition."""
    report = division_check(Family([f]))
    if not report.ok:
        raise DomainError(f"division fails: {report.offenders[0]}")
    diag = f.linear_diag()
    acc = TruncatedSeries.zero(f.n, f.degree)
    scale = GR(1)
    for m, e in enumerate(exponents):
        if e:
            quad = homogeneous_part(f.components[m], 2)
            acc = acc + quad.divide_by_variable(m).scale(GR(e) / diag[m])
            scale = scale * diag[m] ** e
    return acc * TruncatedSeries.monomial(tuple(exponents), scale, f.degree)


def inverse_by_defect_correction(f: Germ) -> Germ:
    """Two-sided inverse of f at full degree in every round: from X = 0,
    add L^{-1}(id - f o X), L the linear part of f, until f o X == id
    (at most D + 1 rounds).  It forms the inverse, which solve_germ never
    does, so it checks invert_germ and conjugate independently."""
    lin_inv = field_inverse(f.linear_rows(), GR(1))
    identity = [TruncatedSeries.variable(j, f.n, f.degree) for j in range(f.n)]
    x = [TruncatedSeries.zero(f.n, f.degree)] * f.n
    for _ in range(f.degree + 1):
        defect = [a - b for a, b in zip(identity, compose_germ(f, Germ(x)).components)]
        if all(d.is_zero() for d in defect):
            return Germ(x)
        x = [sum((defect[j].scale(a) for j, a in row.items()), xm) for xm, row in zip(x, lin_inv)]
    raise AssertionError("inverse oracle did not converge")


def conjugate_by_inverse(f: Germ, psi: Germ) -> Germ:
    """psi^{-1} o f o psi with psi^{-1} formed explicitly."""
    return compose_germ(inverse_by_defect_correction(psi), compose_germ(f, psi))


# ---------------------------------------------------------------------------
# Q(i) scalar oracle
# ---------------------------------------------------------------------------


class FractionPair:
    """Oracle for GaussianRational: re + im*i held as two Fractions, with
    every operation written out on the parts."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(value) -> "FractionPair":
        """The oracle value of a GaussianRational, int or Fraction."""
        if isinstance(value, GR):
            return FractionPair(value.re, value.im)
        return FractionPair(value)

    def __add__(self, other):
        return FractionPair(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionPair(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return FractionPair(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("oracle division by zero")
        return FractionPair((self.re * other.re + self.im * other.im) / n,
                            (self.im * other.re - self.re * other.im) / n)

    def __pow__(self, e: int):
        if e < 0:
            return (FractionPair(1) / self) ** -e
        out = FractionPair(1)
        for _ in range(e):
            out = out * self
        return out

    def __neg__(self):
        return FractionPair(-self.re, -self.im)

    def conjugate(self):
        return FractionPair(self.re, -self.im)

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"{self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i"


def agrees(z: GR, oracle: FractionPair) -> bool:
    """z has the oracle's value and is stored in canonical form: (a + b*i)/d
    with d > 0, gcd(a, b, d) = 1 and zero as 0/1."""
    a, b, d = as_parts(z)
    canonical = d > 0 and math.gcd(a, b, d) == 1 and (a or b or d == 1)
    return bool(canonical) and (z.re, z.im) == (oracle.re, oracle.im)


# ---------------------------------------------------------------------------
# random values
# ---------------------------------------------------------------------------


def random_fraction(rng: random.Random, height: int = 8, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if value or not nonzero:
            return value


def random_gaussian(rng: random.Random, height: int = 8, nonzero: bool = False) -> GR:
    while True:
        z = GR(random_fraction(rng, height), random_fraction(rng, height))
        if not z.is_zero() or not nonzero:
            return z


def random_series(rng: random.Random, n: int, degree: int, terms: int = 4,
                  zero_constant: bool = True) -> TruncatedSeries:
    pool = list(all_exponents(n, degree, min_degree=1 if zero_constant else 0))
    data = {}
    for _ in range(terms):
        exp = pool[rng.randrange(len(pool))]
        data[exp] = random_gaussian(rng, 4)
    return TruncatedSeries(n, degree, data)


def random_tangent_identity(rng: random.Random, n: int, degree: int,
                            extra_terms: int = 2, real: bool = False) -> Germ:
    pool = list(all_exponents(n, degree, min_degree=2))
    comps = [TruncatedSeries.variable(j, n, degree) for j in range(n)]
    for _ in range(extra_terms):
        j = rng.randrange(n)
        exp = pool[rng.randrange(len(pool))]
        coeff = (
            GR(random_fraction(rng, 4, nonzero=True))
            if real
            else random_gaussian(rng, 4, nonzero=True)
        )
        comps[j] = comps[j] + TruncatedSeries.monomial(exp, coeff, degree)
    return Germ(comps)


# hypothesis strategies: small shapes (n <= 3, D <= 5) keep tier-1 fast --------

gaussians = st.builds(
    GR,
    st.fractions(-3, 3, max_denominator=3),
    st.fractions(-3, 3, max_denominator=3),
)
nonzero_gaussians = gaussians.filter(lambda z: not z.is_zero())


def gr_to_sympy(c: GR):
    """The sympy number equal to a Gaussian rational."""
    return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
        c.im.numerator, c.im.denominator
    )


def gr_from_sympy(expr) -> GR:
    """The Gaussian rational equal to a sympy expression over Q(i)."""
    re, im = sympy.expand_complex(expr).as_real_imag()
    return GR(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def _unit(j: int, n: int) -> tuple[int, ...]:
    return tuple(1 if k == j else 0 for k in range(n))


def linear_diag_germ(diag, degree: int) -> Germ:
    """The linear germ x -> (mu_1 x_1, ..., mu_n x_n)."""
    return Germ([TruncatedSeries.monomial(_unit(j, len(diag)), mu, degree) for j, mu in enumerate(diag)])


@st.composite
def jets(draw, n: int, degree: int, min_degree: int = 1, max_terms: int = 3, coeffs=gaussians):
    """A jet of at most max_terms terms, each of total degree >= min_degree,
    with coefficients drawn from `coeffs`."""
    pool = list(all_exponents(n, degree, min_degree))
    exps = draw(st.lists(st.sampled_from(pool), max_size=max_terms, unique=True)) if pool else []
    return TruncatedSeries(n, degree, {exp: draw(coeffs) for exp in exps})


@st.composite
def germs(draw, n: int, degree: int):
    """A germ whose linear part is a row permutation of an upper triangular
    matrix with nonzero diagonal, so invertible but not always diagonal."""
    perm = draw(st.permutations(range(n)))
    comps = []
    for m in range(n):
        row = {_unit(j, n): draw(gaussians) for j in range(perm[m] + 1, n)}
        row[_unit(perm[m], n)] = draw(nonzero_gaussians)
        comps.append(TruncatedSeries(n, degree, row) + draw(jets(n, degree, 2)))
    return Germ(comps)


# ---------------------------------------------------------------------------
# rho-equivariant integrable normal forms (for the real-case suite)
# ---------------------------------------------------------------------------


def rho_equivariant_nf(eigen: EigenData, sigma: tuple[int, ...], degree: int,
                       rng: random.Random) -> Family:
    """Random family mu_im x_m exp(w_im) with the w's satisfying both the
    lattice kernel conditions (commutativity + product relations) and the
    conjugation pairing w_{sigma(k)}(G o sigma) = conj(w_k(G))."""
    n = eigen.n
    lat = eigen.lattice
    omega_pts = list(enumerate_omega(eigen, max(degree - 1, 1))) if degree >= 2 else []
    if not omega_pts:
        return Family([linear_diag_germ(row, degree) for row in eigen.mu])
    # real unknowns re[k, G], im[k, G]
    slots = [(k, pt) for k in range(n) for pt in omega_pts]
    pos = {slot: 2 * j for j, slot in enumerate(slots)}
    width = 2 * len(slots)
    rows = []
    for gamma in lat.basis:
        for pt in omega_pts:
            for part in (0, 1):
                rows.append({pos[(k, pt)] + part: Fraction(gamma[k]) for k in range(n) if gamma[k]})
    for k in range(n):
        for pt in omega_pts:
            mirrored = tuple(pt[sigma[j]] for j in range(n))
            row_re = {pos[(sigma[k], mirrored)]: Fraction(1)}
            row_re[pos[(k, pt)]] = row_re.get(pos[(k, pt)], Fraction(0)) - 1
            rows.append(row_re)
            row_im = {pos[(sigma[k], mirrored)] + 1: Fraction(1)}
            row_im[pos[(k, pt)] + 1] = row_im.get(pos[(k, pt)] + 1, Fraction(0)) + 1
            rows.append(row_im)
    basis = field_kernel(rows, width, Fraction(1))
    germs = []
    for i in range(eigen.p):
        vec = [Fraction(0)] * width
        for kernel_vec in basis:
            t = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            for j, v in kernel_vec.items():
                vec[j] += t * v
        w = [TruncatedSeries.zero(n, degree) for _ in range(n)]
        for k in range(n):
            for pt in omega_pts:
                c = GR(vec[pos[(k, pt)]], vec[pos[(k, pt)] + 1])
                if not c.is_zero():
                    w[k] = w[k] + TruncatedSeries.monomial(pt, c, degree)
        comps = []
        for m in range(n):
            x_m = TruncatedSeries.variable(m, n, degree)
            comps.append(x_m.scale(eigen.mu[i][m]) * w[m].exp0())
        germs.append(Germ(comps))
    return require_commuting(Family(germs))


def rho_image(g: Germ, sigma: tuple[int, ...]) -> Germ:
    """rho o g o rho, rho = conj o sigma: component m is the conjugate of
    component sigma(m), each exponent gamma moved to gamma o sigma."""
    n = g.n
    return Germ([
        TruncatedSeries(n, g.degree, {tuple(exp[sigma[j]] for j in range(n)): c.conjugate()
                                      for exp, c in g.components[sigma[m]].items()})
        for m in range(n)
    ])


def rho_equivariance_offense(germs, sigma: tuple[int, ...]):
    """First witness (germ_1based, component_1based, exponents) of g != rho o
    g o rho among the germs, the first term of the difference, or None."""
    for i, g in enumerate(germs):
        for m, (comp, image) in enumerate(zip(g.components, rho_image(g, sigma).components)):
            difference = comp - image
            if not difference.is_zero():
                return (i + 1, m + 1, difference.support()[0])
    return None


PYTHAGOREAN_UNITS = [
    GR(Fraction(3, 5), Fraction(4, 5)),
    GR(Fraction(5, 13), Fraction(12, 13)),
    GR(0, 1),
]


def random_real_block_family(rng: random.Random, blocks: int, tail: list, p: int,
                             degree: int):
    """(real input family, its sigma) built by conjugating a realified
    rho-equivariant normal form with a random real tangent-to-identity germ."""
    from germnf.normalform import block_transforms, realify_normal_form

    rows = []
    for _ in range(p):
        row = []
        for _ in range(blocks):
            u = PYTHAGOREAN_UNITS[rng.randrange(len(PYTHAGOREAN_UNITS))]
            row.extend([u, u.conjugate()])
        row.extend(GR(t) for t in tail)
        rows.append(tuple(row))
    eigen = EigenData(tuple(rows))
    n = eigen.n
    sigma = list(range(n))
    for b in range(blocks):
        sigma[2 * b], sigma[2 * b + 1] = 2 * b + 1, 2 * b
    sigma = tuple(sigma)
    nf = rho_equivariant_nf(eigen, sigma, degree, rng)
    real_nf, _ = realify_normal_form(nf, Germ.identity(n, degree), block_transforms(sigma, degree))
    psi = random_tangent_identity(rng, n, degree, extra_terms=2, real=True)
    input_family = require_commuting(Family([conjugate(g, psi) for g in real_nf.germs]))
    return input_family, sigma


# standard paper fixtures ----------------------------------------------------

# p = 4 eigenvalues with rows a, b, a b, a / b: the one 4-subset of
# covectors has rank 2, and only its circuit {1, 2, 3} decides its hull
RANK_2_P4_MU = [["2", "1", "1/5", "2"], ["1", "3", "1/7", "3"], ["2", "3", "1/35", "6"], ["2", "1/3", "7/5", "2/3"]]


def example_13_family(degree: int = 4) -> Family:
    return Family([linear_diag_germ([GR(-2), GR(Fraction(1, 2))], degree)])


def example_34_family(degree: int = 4) -> Family:
    phi1 = Germ([
        TruncatedSeries.monomial((1, 0), 2, degree),
        TruncatedSeries.monomial((0, 1), 4, degree)
        + TruncatedSeries.monomial((2, 0), 1, degree),
    ])
    phi2 = linear_diag_germ([GR(-3), GR(9)], degree)
    return require_commuting(Family([phi1, phi2]))


def i_minus_i_family(degree: int = 4) -> Family:
    return Family([linear_diag_germ([GR(0, 1), GR(0, -1)], degree)])
