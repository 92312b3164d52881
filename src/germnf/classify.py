"""Deciders, with certificates, for the hypotheses of the theory.

Every decision is sound: YES/NO verdicts carry exactly re-checkable
witnesses, and anything that would require deciding vanishing of a
transcendental expression gets a third verdict, INDETERMINATE, instead of
a guess.  Concretely:

* sign questions about rational linear forms in {ln p} are decided exactly
  (unique factorization makes those forms vanish only trivially; intervals
  certify the sign, an exact comparison backs them up);
* products of logarithms and arctangents are handled symbolically (a
  symbolic zero is a true zero) with directed-rounded interval arithmetic
  certifying the nonzero direction;
* the remaining gap (a symbolically nonzero expression whose value cannot
  be separated from zero) is reported as INDETERMINATE.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Any

from .exactnum import (
    GaussianRational,
    IndeterminateError,
    Interval,
    LogModulusVector,
    TurnSum,
    certified_round_to_integer,
    log_modulus,
    precision_cap,
    precision_ladder,
)
from .linalg import (
    integer_rank,
    kernel_basis,
    lattice_points,
    rational_feasible,
    solve_integer,
)
from .resonance import (
    EigenContext,
    EigenData,
    OmegaEnumeration,
    enumerate_omega,
    omega_span_basis,
)
from .series import UsageError


class VerdictValue(Enum):
    YES = "yes"
    NO = "no"
    INDETERMINATE = "indeterminate"


@dataclass
class Verdict:
    value: VerdictValue
    witness: Any = None
    method: str = "exact"
    bounds_used: dict = field(default_factory=dict)
    reason: str | None = None

    @property
    def yes(self) -> bool:
        return self.value is VerdictValue.YES

    @property
    def no(self) -> bool:
        return self.value is VerdictValue.NO

    @property
    def indeterminate(self) -> bool:
        return self.value is VerdictValue.INDETERMINATE

    def to_json(self) -> dict:
        out = {"verdict": self.value.value, "method": self.method}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.bounds_used:
            out["bounds_used"] = self.bounds_used
        if self.reason:
            out["reason"] = self.reason
        return out


def _yes(witness=None, method="exact", bounds=None) -> Verdict:
    return Verdict(VerdictValue.YES, witness, method, bounds or {})


def _no(witness=None, method="exact", bounds=None) -> Verdict:
    return Verdict(VerdictValue.NO, witness, method, bounds or {})


def _indet(reason: str, bounds=None) -> Verdict:
    return Verdict(VerdictValue.INDETERMINATE, None, "symbolic+interval", bounds or {}, reason)


# ---------------------------------------------------------------------------
# Branch choices for eigenvalue logarithms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchChoice:
    """Integer branch matrix b: lambda_im = ln|mu_im| + i(Arg mu_im + 2 pi b_im),
    with Arg principal in (-pi, pi]."""

    b: tuple[tuple[int, ...], ...]

    @staticmethod
    def zero(p: int, n: int) -> "BranchChoice":
        return BranchChoice(tuple((0,) * n for _ in range(p)))

    def entry(self, i: int, m: int) -> int:
        return self.b[i][m]

    def max_abs(self) -> int:
        return max((abs(v) for row in self.b for v in row), default=0)

    def verify(self, eigen: EigenData) -> bool:
        """exp(lambda_im) = mu_im, verified exactly: the modulus part must
        satisfy prod p^(2 coords) = |mu|^2, and the angle part is principal
        argument plus whole turns, which exponentiates back to mu for any
        integer branch entry."""
        if len(self.b) != eigen.p or any(len(row) != eigen.n for row in self.b):
            return False
        for i in range(eigen.p):
            for m in range(eigen.n):
                if log_modulus(eigen.mu[i][m]).squared_exp() != eigen.mu[i][m].norm():
                    return False
        return True

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.b]


def _turns_of(ctx: EigenContext, i: int, k) -> TurnSum:
    """sum_m k_m Arg(mu_im) / (2 pi), symbolically."""
    total = TurnSum(Fraction(0), ())
    for m, e in enumerate(k):
        if e:
            total = total + ctx.arg_turns(i, m).scale(e)
    return total


def k_vector(eigen: EigenData | EigenContext, k, branch: BranchChoice | None = None) -> tuple[int, ...]:
    """K_i(k) = (sum_m k_m (Arg mu_im + 2 pi b_im)) / (2 pi), certified, per germ i."""
    ctx = EigenContext.of(eigen)
    br = branch if branch is not None else BranchChoice.zero(ctx.eigen.p, ctx.eigen.n)
    return tuple(
        certified_round_to_integer(_turns_of(ctx, i, k))
        + sum(e * br.entry(i, m) for m, e in enumerate(k))
        for i in range(ctx.eigen.p)
    )


# ---------------------------------------------------------------------------
# Symbolic polynomials over {ln p, pi, atan(t)} with Gaussian coefficients
# ---------------------------------------------------------------------------

# symbol encodings: ("log", p), ("pi",), ("atan", num, den) with 0 < num/den < 1
SymMonomial = tuple

_POLY_ZERO: dict = {}


def poly_const(c: GaussianRational) -> dict:
    return {} if c.is_zero() else {(): c}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for mono, c in b.items():
        acc = out.get(mono, GaussianRational(0)) + c
        if acc.is_zero():
            out.pop(mono, None)
        else:
            out[mono] = acc
    return out


def poly_scale(a: dict, c: GaussianRational) -> dict:
    if c.is_zero():
        return {}
    return {mono: v * c for mono, v in a.items()}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(sorted(ma + mb))
            acc = out.get(mono, GaussianRational(0)) + ca * cb
            if acc.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = acc
    return out


def poly_det(rows: list[list[dict]]) -> dict:
    n = len(rows)
    det: dict = {}
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        term = poly_const(GaussianRational(sign))
        for i in range(n):
            term = poly_mul(term, rows[i][perm[i]])
            if not term:
                break
        det = poly_add(det, term)
    return det


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _symbol_interval(sym, prec: int) -> Interval:
    kind = sym[0]
    if kind == "log":
        return Interval.log_int(sym[1], prec)
    if kind == "pi":
        return Interval.pi(prec)
    if kind == "atan":
        return Interval.atan_fraction(Fraction(sym[1], sym[2]), prec)
    raise AssertionError(f"unknown symbol {sym}")


def poly_eval_intervals(poly: dict, prec: int) -> tuple[Interval, Interval]:
    re_acc = Interval.from_fraction(Fraction(0), prec)
    im_acc = Interval.from_fraction(Fraction(0), prec)
    for mono, coeff in poly.items():
        prod = Interval.from_fraction(Fraction(1), prec)
        for sym in mono:
            prod = prod * _symbol_interval(sym, prec)
        if coeff.re:
            re_acc = re_acc + prod.scale(coeff.re)
        if coeff.im:
            im_acc = im_acc + prod.scale(coeff.im)
    return re_acc, im_acc


def _poly_is_log_affine(poly: dict) -> bool:
    for mono in poly:
        if len(mono) > 1:
            return False
        if mono and mono[0][0] != "log":
            return False
    return True


def certify_poly_nonzero(poly: dict, max_bits: int | None = None) -> bool:
    """True when the polynomial's value is certified nonzero.

    Symbolically zero inputs return False immediately (they ARE zero).
    Affine forms in {1, ln p} are decided exactly; everything else goes to
    the interval ladder, and False there means 'could not certify', not
    'zero'."""
    if not poly:
        return False
    if _poly_is_log_affine(poly):
        # c0 + sum c_p ln p = 0 only when every coefficient vanishes: a
        # nontrivial relation would force a multiplicative relation among
        # primes (or e^q rational for rational q != 0)
        return True
    for prec in precision_ladder(max_bits):
        re_iv, im_iv = poly_eval_intervals(poly, prec)
        if re_iv.sign() != 0 or im_iv.sign() != 0:
            return True
    return False


def decide_full_row_rank(entries: list[list[dict]], max_bits: int | None = None):
    """Is the symbolic matrix of full row rank (as real/complex numbers)?

    Returns (True, witness) / (False, witness) / (None, info).  False relies
    only on symbolic cancellation (exact); True on a certified nonzero minor.
    """
    p = len(entries)
    cols = len(entries[0]) if p else 0
    if p > cols:
        return False, {"reason": "more rows than columns"}
    all_zero = True
    uncertified = []
    for subset in itertools.combinations(range(cols), p):
        det = poly_det([[entries[i][c] for c in subset] for i in range(p)])
        if not det:
            continue
        all_zero = False
        if certify_poly_nonzero(det, max_bits):
            return True, {"minor_columns": [c + 1 for c in subset]}
        uncertified.append([c + 1 for c in subset])
    if all_zero:
        return False, {"all_minors_symbolically_zero": True}
    return None, {"uncertified_minors": uncertified}


def _logmod_poly(vec: LogModulusVector) -> dict:
    return {(("log", p),): GaussianRational(c) for p, c in vec.coords}


def _lambda_entry_poly(ctx: EigenContext, i: int, m: int, branch: BranchChoice) -> dict:
    """lambda_im as a symbolic polynomial (degree 1) over {ln p, pi, atan}."""
    poly = _logmod_poly(ctx.log_modulus(i, m))
    turns = ctx.arg_turns(i, m)
    pi_coeff = 2 * (turns.rational + branch.entry(i, m))
    if pi_coeff:
        poly = poly_add(poly, {(("pi",),): GaussianRational(0, pi_coeff)})
    for c, t in turns.atan_terms:
        sym = ("atan", t.numerator, t.denominator)
        poly = poly_add(poly, {(sym,): GaussianRational(0, c)})
    return poly


# ---------------------------------------------------------------------------
# Non-degeneracy
# ---------------------------------------------------------------------------


def is_nondegenerate(
    fam, omega_bound: int | None = None, context: EigenContext | None = None
) -> Verdict:
    """q independent first-integral exponents at the linear level certify q
    functionally independent monomial first integrals.  `context`, when
    given, is the family's eigen context."""
    if not fam.is_diagonal_linear():
        raise UsageError("non-degeneracy test requires diagonal linear parts")
    eigen = context if context is not None else EigenData.from_family(fam)
    q = fam.n - fam.p
    bound = omega_bound if omega_bound is not None else 2 * fam.degree
    omega = enumerate_omega(eigen, bound)
    chosen: list[list[int]] = []
    rank = 0
    for pt in omega.points:
        candidate = chosen + [list(pt)]
        if integer_rank(candidate) > rank:
            chosen = candidate
            rank += 1
            if rank == q:
                break
    bounds = {"omega_bound": bound}
    if rank >= q:
        return _yes({"independent_exponents": chosen}, bounds=bounds)
    return _no({"rank_enumerated": rank, "required": q}, bounds=bounds)


# ---------------------------------------------------------------------------
# Projective hyperbolicity
# ---------------------------------------------------------------------------


def is_projectively_hyperbolic(eigen: EigenData | EigenContext, max_bits: int | None = None) -> Verdict:
    """Are the p log-modulus vectors R-linearly independent?"""
    ctx = EigenContext.of(eigen)
    eigen = ctx.eigen
    logmods = [[ctx.log_modulus(i, m) for m in range(eigen.n)] for i in range(eigen.p)]
    if eigen.p == 1:
        for m in range(eigen.n):
            if not logmods[0][m].is_zero():
                return _yes({"nonzero_column": m + 1})
        return _no({"all_unit_modulus": True})
    entries = [[_logmod_poly(logmods[i][m]) for m in range(eigen.n)] for i in range(eigen.p)]
    decided, info = decide_full_row_rank(entries, max_bits)
    if decided is True:
        return _yes(info, method="symbolic+interval")
    if decided is False:
        return _no(info, method="exact")
    return _indet("rank of the log-modulus matrix could not be certified", {"max_bits": max_bits or precision_cap()})


# ---------------------------------------------------------------------------
# Weak resonance
# ---------------------------------------------------------------------------


def weak_resonance(eigen: EigenData | EigenContext, branches: BranchChoice | None = None) -> Verdict:
    """YES means weakly resonant (some relation vector has a nonzero 2-pi-i
    multiplier vector K); NO means weakly non-resonant for this branch
    choice.  K is linear on the relation lattice, so its basis suffices."""
    ctx = EigenContext.of(eigen)
    eigen = ctx.eigen
    branch = branches if branches is not None else BranchChoice.zero(eigen.p, eigen.n)
    lat = ctx.lattice
    if lat.rank == 0:
        return _no({"relation_lattice": "trivial"})
    table = []
    for k in lat.basis:
        # modulus part vanishes automatically on the relation lattice; check it
        for i in range(eigen.p):
            acc = LogModulusVector(())
            for m, e in enumerate(k):
                if e:
                    acc = acc + ctx.log_modulus(i, m).scale(e)
            if not acc.is_zero():
                raise AssertionError("relation vector with nonzero modulus part")
        try:
            kv = k_vector(ctx, k, branch)
        except IndeterminateError as exc:
            return _indet(str(exc))
        table.append({"k": list(k), "K": list(kv)})
        if any(kv):
            return _yes({"k": list(k), "K": list(kv), "branch": branch.to_json()})
    return _no({"K_on_basis": table, "branch": branch.to_json()})


# ---------------------------------------------------------------------------
# Infinitesimal generators (branch search as an integer linear system)
# ---------------------------------------------------------------------------


def _branch_row_solutions(ctx: EigenContext, i: int, span_rows: list[list[int]], bound: int):
    """Integer vectors b_i with sum_m w_m b_im = -K0_i(w) on every span row,
    restricted to |b_im| <= bound.  Returns (solutions, infeasibility); the
    solutions are complete for the box and sorted smallest-norm first."""
    eigen = ctx.eigen
    rhs = [-certified_round_to_integer(_turns_of(ctx, i, w)) for w in span_rows]
    particular = solve_integer([list(w) for w in span_rows], rhs)
    if particular is None:
        return [], {"germ": i + 1, "span": [list(w) for w in span_rows], "rhs": rhs,
                    "reason": "no integer solution"}
    kern = kernel_basis([list(w) for w in span_rows], ncols=eigen.n)
    # every in-bound solution is particular + kernel vector, so scanning the
    # kernel coset against the box is complete
    solutions = list(
        lattice_points(kern, [-bound] * eigen.n, [bound] * eigen.n, offset=list(particular))
    )
    if not solutions:
        return [], {"germ": i + 1, "reason": "integer solutions exist but none within branch bound",
                    "bound": bound, "particular": particular}
    solutions.sort(key=lambda b: (max(abs(v) for v in b), b))
    return solutions, None


def find_infinitesimal_generators(
    eigen: EigenData | EigenContext, branch_bound: int = 10, omega_bound: int = 8
) -> tuple[BranchChoice | None, dict]:
    """Branch matrix making K vanish on the Z-span of the enumerated Omega
    points (then every common monomial first integral of the linear parts is
    a first integral of the generators), or None with an infeasibility
    certificate."""
    ctx = EigenContext.of(eigen)
    eigen = ctx.eigen
    span = omega_span_basis(ctx, omega_bound)
    bounds = {"omega_bound": omega_bound, "branch_bound": branch_bound}
    if not span:
        return BranchChoice.zero(eigen.p, eigen.n), {"vacuous": True, **bounds}
    rows = []
    for i in range(eigen.p):
        solutions, failure = _branch_row_solutions(ctx, i, span, branch_bound)
        if failure is not None:
            return None, {**failure, **bounds}
        rows.append(solutions[0])
    return BranchChoice(tuple(rows)), bounds


def generators_independent(
    eigen: EigenData | EigenContext, branch: BranchChoice, max_bits: int | None = None
):
    """Hybrid decision whether the lambda(b) rows are linearly independent."""
    ctx = EigenContext.of(eigen)
    entries = [
        [_lambda_entry_poly(ctx, i, m, branch) for m in range(ctx.eigen.n)]
        for i in range(ctx.eigen.p)
    ]
    return decide_full_row_rank(entries, max_bits)


def normal_form_hypothesis(
    eigen: EigenData | EigenContext,
    branch_bound: int = 3,
    max_bits: int | None = None,
    candidate_cap: int = 256,
) -> Verdict:
    """Theorem hypothesis: projectively hyperbolic, or infinitesimally
    integrable with a weakly non-resonant, linearly independent family of
    generators (the independence is part of integrability; branch search is
    bounded and the bound is reported)."""
    ctx = EigenContext.of(eigen)
    eigen = ctx.eigen
    proj = is_projectively_hyperbolic(ctx, max_bits)
    if proj.yes:
        return _yes({"route": "projectively_hyperbolic", **(proj.witness or {})},
                    method=proj.method)
    lat = ctx.lattice
    bounds = {"branch_bound": branch_bound}
    # branches with K == 0 on the full relation lattice are exactly the
    # weakly non-resonant generator families
    per_row: list[list[tuple[int, ...]]] = []
    infeasible = None
    for i in range(eigen.p):
        if lat.rank == 0:
            per_row.append([tuple([0] * eigen.n)])
            continue
        try:
            sols, failure = _branch_row_solutions(
                ctx, i, [list(k) for k in lat.basis], branch_bound
            )
        except IndeterminateError as exc:
            return _indet(str(exc), bounds)
        if failure is not None:
            infeasible = failure
            break
        per_row.append(sols)
    if infeasible is not None:
        if proj.no:
            return _no({"projective": proj.witness, "weak_nonresonance": infeasible}, bounds=bounds)
        return _indet("projective hyperbolicity undecided and no weakly non-resonant branch", bounds)
    total = 1
    for sols in per_row:
        total *= len(sols)
    if total > candidate_cap:
        return _indet(f"too many candidate branches ({total}) within bound", bounds)
    saw_indeterminate = False
    for combo in itertools.product(*per_row):
        branch = BranchChoice(tuple(combo))
        decided, info = generators_independent(ctx, branch, max_bits)
        if decided is True:
            return _yes(
                {"route": "weakly_nonresonant_generators", "branch": branch.to_json(), **info},
                method="symbolic+interval",
                bounds=bounds,
            )
        if decided is None:
            saw_indeterminate = True
    if saw_indeterminate or not proj.no:
        return _indet("no branch certified; independence or hyperbolicity undecided", bounds)
    return _no(
        {"projective": proj.witness, "dependent_generators_for_all_branches_within_bound": True},
        bounds=bounds,
    )


# ---------------------------------------------------------------------------
# Hyperbolicity of the Z^p action
# ---------------------------------------------------------------------------


def _covectors(ctx: EigenContext) -> list[list[LogModulusVector]]:
    """c_k = (ln|mu_1k|, ..., ln|mu_pk|) as exact prime-coordinate vectors."""
    return [
        [ctx.log_modulus(i, k) for i in range(ctx.eigen.p)]
        for k in range(ctx.eigen.n)
    ]


def is_hyperbolic(eigen: EigenData | EigenContext, max_bits: int | None = None) -> Verdict:
    """Every p-subset of the n covectors linearly independent."""
    ctx = EigenContext.of(eigen)
    eigen = ctx.eigen
    covs = _covectors(ctx)
    uncertified = []
    for subset in itertools.combinations(range(eigen.n), eigen.p):
        entries = [[_logmod_poly(covs[k][i]) for k in subset] for i in range(eigen.p)]
        decided, info = decide_full_row_rank(entries, max_bits)
        if decided is False:
            return _no({"dependent_subset": [k + 1 for k in subset], **info})
        if decided is None:
            uncertified.append([k + 1 for k in subset])
    if uncertified:
        return _indet(f"rank not certified for subsets {uncertified}")
    return _yes({"subsets_checked": math.comb(eigen.n, eigen.p)}, method="symbolic+interval")


def _hull_contains_origin(covs: list[LogModulusVector], max_bits: int | None):
    """Does conv{c_1..c_p} (points in R^p) contain 0?  covs[j] is the j-th
    point; each coordinate i of point j is covs_points[j][i]."""
    p = len(covs[0]) if covs else 0
    npts = len(covs)
    # exact: any point that is exactly zero puts the origin in the hull
    for j in range(npts):
        if all(covs[j][i].is_zero() for i in range(p)):
            return True, {"zero_covector_at": j + 1}
    # row-wise 1-D reduction: coordinate i of all points proportional to one
    # nonzero prime-coordinate vector => exact rational equation
    reduced_rows = []
    reducible = True
    for i in range(p):
        vecs = [covs[j][i] for j in range(npts)]
        generator = next((v for v in vecs if not v.is_zero()), None)
        if generator is None:
            continue  # identically zero equation
        gen_dict = generator.as_dict()
        anchor_prime, anchor_coeff = next(iter(sorted(gen_dict.items())))
        ratios = []
        ok = True
        for v in vecs:
            vd = v.as_dict()
            r = Fraction(vd.get(anchor_prime, 0)) / anchor_coeff
            # v must equal r * generator exactly
            if vd != {pp: c * r for pp, c in gen_dict.items() if c * r != 0}:
                ok = False
                break
            ratios.append(r)
        if not ok:
            reducible = False
            break
        reduced_rows.append(ratios)
    if reducible:
        rows = [[Fraction(x) for x in row] for row in reduced_rows]
        rows.append([Fraction(1)] * npts)  # sum lambda = 1
        rhs = [Fraction(0)] * (len(rows) - 1) + [Fraction(1)]
        point = rational_feasible(rows, rhs)
        if point is None:
            return False, {"exact_rational_infeasible": True}
        return True, {"hull_coefficients": [str(x) for x in point]}
    # sufficient containment: rational lambda balancing every prime coordinate
    prime_rows: list[list[Fraction]] = []
    for i in range(p):
        primes = sorted({pp for j in range(npts) for pp in covs[j][i].as_dict()})
        for pp in primes:
            prime_rows.append([Fraction(covs[j][i].as_dict().get(pp, 0)) for j in range(npts)])
    prime_rows.append([Fraction(1)] * npts)
    rhs = [Fraction(0)] * (len(prime_rows) - 1) + [Fraction(1)]
    point = rational_feasible(prime_rows, rhs)
    if point is not None:
        return True, {"hull_coefficients": [str(x) for x in point], "route": "per-prime"}
    # separation certificate: rational w with <w, c_j> > 0 for all j, certified
    candidates = _separation_candidates(covs, p, npts)
    for w in candidates:
        forms = []
        for j in range(npts):
            acc = LogModulusVector(())
            for i in range(p):
                acc = acc + covs[j][i].scale(w[i])
            forms.append(acc)
        if all(_certify_logform_positive(f, max_bits) for f in forms):
            return False, {"separating_vector": [str(x) for x in w]}
    return None, {"reason": "hull membership not certified"}


def _certify_logform_positive(vec: LogModulusVector, max_bits: int | None) -> bool:
    return vec.sign(max_bits) > 0


def _separation_candidates(covs, p, npts):
    # float approximations drive the candidate; certification is exact
    approx = []
    for j in range(npts):
        pt = []
        for i in range(p):
            val = sum(float(c) * math.log(pp) for pp, c in covs[j][i].as_dict().items())
            pt.append(val)
        approx.append(pt)
    cands = []
    centroid = [sum(pt[i] for pt in approx) / npts for i in range(p)]
    cands.append(centroid)
    cands.extend(approx)
    out = []
    for c in cands:
        norm = max((abs(v) for v in c), default=0.0)
        if norm == 0.0:
            continue
        out.append([Fraction(v / norm).limit_denominator(10**6) for v in c])
    return out


def is_weakly_hyperbolic(eigen: EigenData | EigenContext, max_bits: int | None = None) -> Verdict:
    """No p-subset's convex hull contains the origin."""
    ctx = EigenContext.of(eigen)
    eigen = ctx.eigen
    covs_by_col = _covectors(ctx)
    points = [[covs_by_col[k][i] for i in range(eigen.p)] for k in range(eigen.n)]
    undecided = []
    for subset in itertools.combinations(range(eigen.n), eigen.p):
        contains, info = _hull_contains_origin([points[k] for k in subset], max_bits)
        if contains is True:
            return _no({"subset": [k + 1 for k in subset], **info})
        if contains is None:
            undecided.append([k + 1 for k in subset])
    if undecided:
        return _indet(f"hull tests undecided for subsets {undecided}")
    return _yes({"subsets_checked": math.comb(eigen.n, eigen.p)})


# ---------------------------------------------------------------------------
# Poincare type (single diffeomorphism, constructive)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoincareTypeCertificate:
    """Constructive growth certificate for a type-(1, n-1) diffeomorphism.

    log-moduli satisfy (ln|mu_1|,...,ln|mu_n|) = c k with c > 0 encoded by
    log_scale (exp(2c) is the exact rational scale_sq); alphas are exact
    torsion orders for unit-modulus slots; betas give exact cancelling pairs
    across the contracting/expanding split; every claim re-verifies by exact
    products."""

    k: tuple[int, ...]
    log_scale: tuple[tuple[int, Fraction], ...]
    scale_sq: Fraction
    alphas: tuple[tuple[int, int], ...]  # (index_1based, order)
    betas: tuple[tuple[int, int, int, int], ...]  # (i_1based, j_1based, beta_i, beta_j)
    bound_m: int

    def alpha_of(self, index: int) -> int | None:
        for idx, order in self.alphas:
            if idx == index:
                return order
        return None

    def beta_of(self, i: int, j: int) -> tuple[int, int] | None:
        for a, b, bi, bj in self.betas:
            if (a, b) == (i, j):
                return (bi, bj)
        return None

    def verify(self, eigen: EigenData) -> bool:
        mu = eigen.mu[0]
        if LogModulusVector(self.log_scale).squared_exp() != self.scale_sq or self.scale_sq <= 1:
            return False
        # ln|mu_m| = k_m * log_scale, checked on the exact squared moduli
        for m in range(len(mu)):
            if mu[m].norm() != self.scale_sq ** self.k[m]:
                return False
        for idx, order in self.alphas:
            if not (mu[idx - 1] ** order).is_one():
                return False
        for i, j, bi, bj in self.betas:
            if not (mu[i - 1] ** bi * mu[j - 1] ** bj).is_one():
                return False
            if bi * self.k[i - 1] + bj * self.k[j - 1] != 0:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "k": list(self.k),
            "log_scale": [[p, str(c)] for p, c in self.log_scale],
            "scale_squared": str(self.scale_sq),
            "alphas": [list(a) for a in self.alphas],
            "betas": [list(b) for b in self.betas],
            "bound_M": self.bound_m,
        }


def poincare_type_single(
    eigen: EigenData | EigenContext, omega: OmegaEnumeration, torsion_bound: int = 64
) -> Verdict:
    """Constructive Poincare-type certificate for p = 1 with n-1 independent
    first-integral exponents; hypothesis is that some eigenvalue leaves the
    unit circle."""
    ctx = EigenContext.of(eigen)
    eigen = ctx.eigen
    if eigen.p != 1:
        raise UsageError("constructive Poincare-type requires p = 1")
    mu = eigen.mu[0]
    n = eigen.n
    logmods = [ctx.log_modulus(0, m) for m in range(n)]
    if all(v.is_zero() for v in logmods):
        return _no({"all_unit_modulus": True})
    rows: list[list[int]] = []
    for pt in omega.points:
        cand = rows + [list(pt)]
        if integer_rank(cand) > len(rows):
            rows.append(list(pt))
        if len(rows) == n - 1:
            break
    if len(rows) < n - 1:
        raise UsageError(
            f"need n-1 = {n - 1} independent first-integral exponents, found {len(rows)}"
        )
    kern = kernel_basis(rows, ncols=n)
    if len(kern) != 1:
        raise AssertionError("first-integral matrix kernel is not one-dimensional")
    k = list(kern[0])
    anchor = next(m for m in range(n) if k[m] != 0 and not logmods[m].is_zero())
    scale = logmods[anchor].scale(Fraction(1, k[anchor]))
    for m in range(n):
        if logmods[m].as_dict() != scale.scale(k[m]).as_dict():
            raise AssertionError("log-moduli are not proportional to the kernel vector")
    if scale.sign() < 0:
        k = [-v for v in k]
        scale = scale.scale(-1)
    scale_sq = scale.squared_exp()
    alphas = []
    for m in range(n):
        if k[m] == 0:
            order = _torsion_order(mu[m], torsion_bound)
            if order is None:
                return _indet(
                    f"unit-modulus eigenvalue at slot {m + 1} has no torsion order <= {torsion_bound}",
                    {"torsion_bound": torsion_bound},
                )
            alphas.append((m + 1, order))
    betas = []
    contracting = [m for m in range(n) if k[m] < 0]
    expanding = [m for m in range(n) if k[m] > 0]
    for i in contracting:
        for j in expanding:
            g = math.gcd(k[i], k[j])
            base_i, base_j = k[j] // g, -k[i] // g
            w = mu[i] ** base_i * mu[j] ** base_j
            t = _torsion_order(w, torsion_bound)
            if t is None:
                return _indet(
                    f"pair ({i + 1},{j + 1}) has no exact cancelling power <= {torsion_bound}",
                    {"torsion_bound": torsion_bound},
                )
            betas.append((i + 1, j + 1, t * base_i, t * base_j))
    entries = [order for _, order in alphas] + [b for _, _, bi, bj in betas for b in (bi, bj)]
    bound_m = max(entries, default=0) + 1
    cert = PoincareTypeCertificate(
        tuple(k), scale.coords, scale_sq, tuple(alphas), tuple(betas), bound_m
    )
    if not cert.verify(eigen):
        raise AssertionError("Poincare-type certificate failed self-verification")
    return _yes(cert, bounds={"torsion_bound": torsion_bound})


def _torsion_order(z: GaussianRational, bound: int) -> int | None:
    acc = GaussianRational(1)
    for t in range(1, bound + 1):
        acc = acc * z
        if acc.is_one():
            return t
    return None


def reduce_exponent(cert: PoincareTypeCertificate, s) -> tuple[int, ...]:
    """Reduce an exponent vector preserving the exact eigenvalue product:
    unit-modulus slots fold modulo their torsion order, contracting/expanding
    pairs cancel along beta vectors, until one side is bounded by M."""
    out = list(s)
    m_bound = cert.bound_m
    for idx, order in cert.alphas:
        if out[idx - 1] >= m_bound:
            out[idx - 1] %= order
    while True:
        progressed = False
        for i1, j1, bi, bj in cert.betas:
            i, j = i1 - 1, j1 - 1
            if out[i] > m_bound and out[j] > m_bound:
                steps = min(out[i] // bi, out[j] // bj)
                if steps > 0:
                    out[i] -= steps * bi
                    out[j] -= steps * bj
                    progressed = True
        if not progressed:
            break
    return tuple(out)
