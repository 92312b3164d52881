"""Simultaneous Poincare-Dulac normalization and integrability certificates.

The normalizer eliminates non-resonant monomials degree by degree with
exact homological coefficients h = c / (mu^gamma - mu_m), conjugating the
whole family and asserting that each term vanished from every germ (the
exact-arithmetic form of the simultaneity argument for commuting
families; a surviving term means the input did not commute and the run
fails loudly).

Eliminations are batched per degree: within one degree the homological
corrections do not interact, so one conjugation per degree realizes the
same result as one conjugation per monomial.  The resonance gaps
mu_i^gamma - mu_im that decide which terms are eliminated (by
`resonance.is_resonant_exponent`) and supply the divisors live in the
EigenData's one gap table, so each is computed once per command.  No germ
is inverted and no linear part either: each step s_l = id + h_l is built
as its shift h_l alone, and `germ.conjugate_by_shift` forms g o s_l for
every germ and psi o s_l in one Taylor sum, then solves s_l o Y = g o s_l
by the checked rounds with L = I.  The chain of checked steps gives
Phi o psi = psi o Phi' unformed (see `poincare_dulac_normalize`).

The normalizer, the PD-NF check and the certificate take the command's
EigenData and refuse one that is not the family's linear diagonal.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from operator import mul
from typing import NamedTuple

from .exactnum import DomainError, GaussianRational, I_UNIT, ONE, ZERO
from .germ import Family, Germ, compose_germ, conjugate_by_shift, family_to_json, germ_to_json
from .linalg import field_kernel, field_rref, kernel_basis
from .resonance import EigenData, RelationLattice, enumerate_omega, is_resonant_exponent
from .series import MultiIndex, TruncatedSeries, UsageError, check_jet_size, fixed_point_rows, grlex_sorted, unpack


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


class EliminationRecord(NamedTuple):
    degree: int
    component: int  # 1-based
    exponents: MultiIndex
    coefficient: GaussianRational
    divisor: GaussianRational
    germ_index: int  # 1-based: the i* whose resonance gap was used

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "component": self.component,
            "exponents": list(self.exponents),
            "coefficient": str(self.coefficient),
            "divisor": str(self.divisor),
            "germ": self.germ_index,
        }


class NormalizationResult(NamedTuple):
    normalized: Family
    psi: Germ
    eliminations: tuple[EliminationRecord, ...]

    def to_json(self) -> dict:
        return {
            "normalized": family_to_json(self.normalized),
            "psi": germ_to_json(self.psi),
            "eliminations": [rec.to_json() for rec in self.eliminations],
        }


def _check_eigen(fam: Family, eigen: EigenData) -> None:
    if eigen.mu != tuple(fam.linear_diags()):
        raise UsageError("eigen data must be the family's linear diagonal")


def _scan_nonresonant(work: list[Germ], eigen: EigenData, ell: int) -> list[tuple[int, MultiIndex]]:
    """The non-resonant (component, exponent) pairs of degree ell present in
    some germ, by component and then graded-lex (sorted as packed keys);
    each monomial is unpacked once, however many germs hold it."""
    found: list[tuple[int, MultiIndex]] = []
    n = work[0].n
    for m in range(n):
        keys = set().union(*(g.components[m].keys_of_degree(ell) for g in work))
        exps = [unpack(key, n) for key in grlex_sorted(keys, n)]
        found.extend((m, exp) for exp in exps if not is_resonant_exponent(eigen, m + 1, exp))
    return found


def poincare_dulac_normalize(fam: Family, eigen: EigenData) -> NormalizationResult:
    """Conjugate a commuting family with diagonal linear parts, whose
    eigenvalues are `eigen`, into Poincare-Dulac normal form up to the
    truncation degree.

    Each degree's non-resonant terms are removed by one conjugation by the
    step s_l = id + h_l, built as its shift h_l (the c / divisor terms) and
    never as a germ: `conjugate_by_shift` forms g o s_l for all germs g and
    psi o s_l in one Taylor sum and solves s_l o Y = g o s_l by the checked
    rounds with L = I, inverting no linear part; after it no non-resonant
    term of that degree may survive in any germ.
    Order of elimination records: degree ascending, then component, then
    graded-lex monomial; the germ index used for each divisor is the
    smallest one whose resonance gap is nonzero.  No real structure enters:
    `realcase` shows rho-equivariance by realness at its two ends.
    psi = s_2 o ... o s_D is built left to right, psi <- psi o s_l right
    after each step.  By associativity of truncated composition the checked
    steps give Phi_i o psi = psi o Phi_i'.  Phi' commutes iff Phi does; the
    caller checks one of them (`cli._commutation_once`), so input that does
    not commute may raise AssertionError here or give Phi' that does not.
    """
    _check_eigen(fam, eigen)
    n, degree = fam.n, fam.degree
    work = list(fam.germs)
    psi = Germ.identity(n, degree)
    log: list[EliminationRecord] = []

    for ell in range(2, degree + 1):
        candidates = _scan_nonresonant(work, eigen, ell)
        if not candidates:
            continue
        terms = [{} for _ in range(n)]  # the step's shift h_l, by component
        for m, exp in candidates:
            # the first germ with a nonzero resonance gap supplies the divisor
            for i_star, divisor in enumerate(eigen.gaps(m, exp)):
                if divisor:
                    break
            else:
                raise AssertionError("non-resonant monomial with zero divisors everywhere")
            c = work[i_star].components[m].coeff(exp)
            if c.is_zero():  # the scan found it in some germ: commuting input has it in all
                raise AssertionError(
                    f"inconsistent degree-{ell} term {exp}: zero in the pivot germ "
                    "but present elsewhere (input cannot commute)"
                )
            terms[m][exp] = c / divisor
            log.append(EliminationRecord(ell, m + 1, exp, c, divisor, i_star + 1))
        work, psi = conjugate_by_shift(work, psi, [TruncatedSeries(n, degree, t) for t in terms])
        remaining = _scan_nonresonant(work, eigen, ell)
        if remaining:
            raise AssertionError(
                f"non-resonant terms survived degree {ell}: {remaining[:3]} "
                "(commutativity assumption violated)"
            )

    return NormalizationResult(Family(work), psi, tuple(log))


def verify_pd_nf(fam: Family, eigen: EigenData):
    """None when every nonlinear monomial of component m of every germ is
    resonant for component m; otherwise the first offender as
    (germ_1based, component_1based, exponents)."""
    _check_eigen(fam, eigen)
    for i, g in enumerate(fam.germs):
        for m in range(fam.n):
            for exp in g.components[m].support():
                if sum(exp) >= 2 and not is_resonant_exponent(eigen, m + 1, exp):
                    return (i + 1, m + 1, exp)
    return None


# ---------------------------------------------------------------------------
# First integrals
# ---------------------------------------------------------------------------


def _monomial_columns(n: int, degree: int) -> list[MultiIndex]:
    """The exponents with 1 <= |gamma| <= degree in graded-lex order: degree
    by degree, the non-decreasing index sequences of that length in lex
    order, which lists the larger power of x_1 first, then of x_2, ..."""
    return [
        tuple(map(seq.count, range(n)))
        for d in range(1, degree + 1)
        for seq in combinations_with_replacement(range(n), d)
    ]


def first_integrals(fam: Family, degree: int | None = None) -> list[TruncatedSeries]:
    """Echelonized basis (graded-lex pivots, no constant term) of polynomial
    first integrals F = sum c_gamma x^gamma with F o Phi_i = F for all i, up
    to the degree: the kernel of the germs' stacked `fixed_point_rows`, whose
    row x^delta holds in column gamma the coefficient of x^delta in
    x^gamma o Phi_i, less 1 when delta = gamma."""
    d = degree if degree is not None else fam.degree
    if d > fam.degree:
        raise UsageError("first-integral degree exceeds the family's jet degree")
    columns = _monomial_columns(fam.n, d)
    rows = [row for g in fam.germs for row in fixed_point_rows([c.truncate(d) for c in g.components], columns)]
    kernel = field_kernel(rows, len(columns), ONE)
    echelon, _ = field_rref(kernel)
    return [TruncatedSeries(fam.n, d, {columns[j]: c for j, c in vec.items()}) for vec in echelon]


# ---------------------------------------------------------------------------
# Division, integrable certificates, fixtures
# ---------------------------------------------------------------------------


class DivisionReport(NamedTuple):
    """Per-(germ, component) divisibility of phi_im by x_m."""

    offenders: tuple[tuple[int, int, MultiIndex], ...]  # (germ_1b, comp_1b, exp)

    @property
    def ok(self) -> bool:
        return not self.offenders

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "offenders": [
                {"germ": i, "component": m, "exponents": list(exp)}
                for i, m, exp in self.offenders
            ],
        }


def division_check(fam: Family) -> DivisionReport:
    offenders = []
    for i, g in enumerate(fam.germs):
        for m in range(fam.n):
            for exp in g.components[m].support():
                if exp[m] < 1:
                    offenders.append((i + 1, m + 1, exp))
                    break
    return DivisionReport(tuple(offenders))


class IntegrableNFCertificate(NamedTuple):
    """phi matrix with exact support and product-relation residuals.

    ok only when normalized_im = mu_im x_m (1 + phi_im) exactly, every
    phi_im is supported on Omega exponents (k is in Omega exactly when
    k + e_m is resonant for component m, as mu_im != 0), and each lattice
    basis relation prod (1 + phi_ik)^{gamma_k} = 1 holds over the verified
    range (checked in cleared-denominator form).

    The verified range is degree D - 1: a degree-D jet of the family pins
    phi down only to degree D - 1 (its degree-D terms sit at degree D + 1
    inside the components), so a degree-D product check would report
    truncation loss as spurious violations.  The bound is recorded."""

    phi: tuple[tuple[TruncatedSeries, ...], ...]
    omega_generators: tuple[tuple[int, ...], ...]
    support_offenders: tuple[tuple[int, int, MultiIndex], ...]
    residuals: tuple[dict, ...]
    verified_to_degree: int

    @property
    def ok(self) -> bool:
        return not self.support_offenders and all(r["zero"] for r in self.residuals)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "verified_to_degree": self.verified_to_degree,
            "omega_generators": [list(g) for g in self.omega_generators],
            "support_offenders": [
                {"germ": i, "component": m, "exponents": list(exp)}
                for i, m, exp in self.support_offenders
            ],
            "residuals": list(self.residuals),
            "phi": [
                [s.to_term_list() for s in row]
                for row in self.phi
            ],
        }


def extract_integrable_certificate(fam: Family, eigen: EigenData) -> IntegrableNFCertificate:
    """Divide out mu_im x_m from each component and verify the integrable
    normal-form relations against the relation lattice of `eigen`.  Callers
    run `division_check` first; a term that is not divisible still raises
    DomainError from `divide_by_variable`."""
    _check_eigen(fam, eigen)
    lattice = eigen.lattice
    n, degree = fam.n, fam.degree
    one = TruncatedSeries.constant(1, n, degree)
    phi_rows, quotient_rows = [], []
    support_offenders = []
    for i, g in enumerate(fam.germs):
        quotients = [g.components[m].divide_by_variable(m).scale(ONE / eigen.mu[i][m]) for m in range(n)]
        row = tuple(quotient - one for quotient in quotients)
        for m, phi in enumerate(row):
            if not phi.constant_term().is_zero():
                raise AssertionError("phi has a constant term after division")
            for exp in phi.support():
                if not is_resonant_exponent(eigen, m + 1, tuple(e + (j == m) for j, e in enumerate(exp))):
                    support_offenders.append((i + 1, m + 1, exp))
                    break
        phi_rows.append(row)
        quotient_rows.append(quotients)
    verified_to = degree - 1
    residuals = []
    for i, quotients in enumerate(quotient_rows):
        for gamma in lattice.basis:  # each side a product of powers of 1 + phi_ik, none by 1
            sides = ([q ** abs(e) for q, e in zip(quotients, gamma) if e * sign > 0] for sign in (1, -1))
            lhs, rhs = (reduce(mul, side) if side else one for side in sides)
            diff = (lhs - rhs).part_up_to(verified_to)
            entry = {"germ": i + 1, "gamma": list(gamma), "zero": diff.is_zero()}
            if not diff.is_zero():
                exp, coeff = diff.items()[0]
                entry["offending"] = {"exponents": list(exp), "coeff": str(coeff)}
            residuals.append(entry)
    return IntegrableNFCertificate(
        tuple(phi_rows),
        tuple(lattice.basis),
        tuple(support_offenders),
        tuple(residuals),
        verified_to,
    )


def generate_integrable_nf(
    eigen: EigenData,
    lattice: RelationLattice,
    degree: int,
    seed: int,
) -> Family:
    """Deterministic fixture generator realizing the integrable normal-form
    class: components mu_im x_m exp(w_im) with the w coefficient vectors in
    the kernel of the lattice basis, so the product relations hold exactly
    and the family commutes up to D (`cli._commutation_once`; unchecked).
    `lattice` is the relation lattice of `eigen`; its Omega gives the terms.

    seed = 0 means zero degrees of freedom: the linear family."""
    n = eigen.n
    check_jet_size(n, degree)
    omega = enumerate_omega(eigen, degree - 1)
    kernel = kernel_basis([list(r) for r in lattice.basis], ncols=n)
    germs = []
    rng = random.Random(seed)
    for i in range(eigen.p):
        w = [TruncatedSeries.zero(n, degree) for _ in range(n)]
        if seed != 0 and kernel:
            for pt in omega:
                vec = [Fraction(0)] * n
                for basis_vec in kernel:
                    t = Fraction(rng.randint(-16, 16), rng.randint(1, 16))
                    for k in range(n):
                        vec[k] += t * basis_vec[k]
                for k in range(n):
                    if vec[k]:
                        w[k] = w[k] + TruncatedSeries.monomial(pt, vec[k], degree)
        comps = []
        for m in range(n):
            x_m = TruncatedSeries.variable(m, n, degree)
            comps.append(x_m.scale(eigen.mu[i][m]) * w[m].exp0())
        germs.append(Germ(comps))
    return Family(germs)


# ---------------------------------------------------------------------------
# Real case: complexification and realification
# ---------------------------------------------------------------------------


def _first_imaginary(germs: list[Germ]):
    """(germ_1based, component_1based, exponents, coefficient) of the first
    coefficient with a nonzero imaginary part, or None."""
    for i, g in enumerate(germs):
        for m, comp in enumerate(g.components):
            if not comp.is_real():
                exp, c = next((exp, c) for exp, c in comp.items() if c.im)
                return i + 1, m + 1, exp, c
    return None


def detect_block_structure(fam: Family) -> tuple[int, ...]:
    """The pairing sigma of the real block layout, validated across all
    germs: sigma swaps the two slots of each rotation-scaling 2x2 block on
    adjacent coordinates and fixes each real tail slot."""
    mats = [g.linear_matrix() for g in fam.germs]
    n = fam.n
    sigma = list(range(n))
    for t in range(n - 1):  # slot t is free unless the block before took it
        if sigma[t] == t and any(not mat[t][t + 1].is_zero() or not mat[t + 1][t].is_zero() for mat in mats):
            for i, mat in enumerate(mats):
                if mat[t][t] != mat[t + 1][t + 1] or mat[t][t + 1] != -mat[t + 1][t]:
                    raise DomainError(
                        f"germ {i + 1} rows {t + 1},{t + 2} are not a rotation-scaling block"
                    )
            sigma[t], sigma[t + 1] = t + 1, t
    # entries outside the detected blocks must vanish
    for i, mat in enumerate(mats):
        for a in range(n):
            for b in range(n):
                if b not in (a, sigma[a]) and not mat[a][b].is_zero():
                    raise DomainError(
                        f"germ {i + 1} has a linear entry at ({a + 1},{b + 1}) outside the block structure"
                    )
    return tuple(sigma)


def block_transforms(sigma: tuple[int, ...], degree: int) -> tuple[Germ, Germ]:
    """The linear block transformation P of the pairing sigma and its
    inverse, both in closed form: for each block a < b = sigma(a), P has
    rows (1/2, 1/2) and (-i/2, i/2) and P^{-1} rows (1, i) and (1, -i) on
    columns (a, b); tail slots are fixed.  P P^{-1} = I is checked exactly,
    once, on the linear matrices, so nothing here inverts a germ."""
    half, ihalf = GaussianRational(Fraction(1, 2)), GaussianRational(0, Fraction(1, 2))
    n = len(sigma)
    mat = [[ZERO] * n for _ in range(n)]
    inv = [[ZERO] * n for _ in range(n)]
    for a, b in enumerate(sigma):
        if a == b:
            mat[a][a] = inv[a][a] = ONE
        elif a < b:
            mat[a][a], mat[a][b], mat[b][a], mat[b][b] = half, half, -ihalf, ihalf
            inv[a][a], inv[a][b], inv[b][a], inv[b][b] = ONE, I_UNIT, ONE, -I_UNIT
    for r in range(n):
        row = [sum((x * inv[k][c] for k, x in enumerate(mat[r]) if x), ZERO) for c in range(n)]
        if row != [ONE if c == r else ZERO for c in range(n)]:
            raise AssertionError("block transformation inverse failed verification")
    return Germ.from_linear_matrix(mat, degree), Germ.from_linear_matrix(inv, degree)


def complexify_real_family(fam: Family):
    """Conjugate a real block family by the block transformation P into a
    family with diagonal linear parts; returns (complex family, (P, P^{-1})
    in checked closed form, pairing sigma swapping each block's two slots).
    A real input makes the complex family rho-equivariant; nothing scans it."""
    imaginary = _first_imaginary(fam.germs)
    if imaginary is not None:
        i, m, exp, c = imaginary
        raise DomainError(f"germ {i} component {m} term {exp} has imaginary coefficient {c}")
    sigma = detect_block_structure(fam)
    if sigma == tuple(range(fam.n)):
        raise DomainError("no rotation-scaling blocks found; family is already diagonal")
    p_germ, p_inv = block_transforms(sigma, fam.degree)
    complex_fam = Family([compose_germ(p_inv, compose_germ(g, p_germ)) for g in fam.germs])
    if not complex_fam.is_diagonal_linear():
        raise AssertionError("complexified family is not diagonal")
    return complex_fam, (p_germ, p_inv), sigma


def realify_normal_form(fam: Family, psi: Germ, p: tuple[Germ, Germ]) -> tuple[Family, Germ]:
    """P o g o P^{-1} for the germs g of a complex family and for psi, p =
    (P, P^{-1}) of `complexify_real_family`.  P^{-1} o conj o P is rho, so
    each is real exactly when g is rho-equivariant: realness is checked."""
    p_germ, p_inv = p
    real = [compose_germ(p_germ, compose_germ(g, p_inv)) for g in (*fam.germs, psi)]
    imaginary = _first_imaginary(real)
    if imaginary is not None:
        i, m, exp, _ = imaginary
        germ = f"germ {i}" if i <= fam.p else "conjugator"
        raise AssertionError(f"realified {germ} component {m} kept an imaginary part at {exp}")
    return Family(real[:-1]), real[-1]
