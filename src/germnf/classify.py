"""Deciders, with certificates, for the hypotheses of the theory.

Every decision is sound: YES/NO verdicts carry exactly re-checkable
witnesses, and anything that would require deciding vanishing of a
transcendental expression gets a third verdict, INDETERMINATE, instead of
a guess.  Concretely:

* sign questions about rational linear forms in {ln q}, q in the integer
  coprime base of the eigenvalues' norms and denominators (see
  resonance.EigenData.integer_base), are decided by one exact comparison
  of integer products (see LogModulusVector.sign), with no intervals;
* products of logarithms and arctangents are handled symbolically (a
  symbolic zero is a true zero) with directed-rounded interval arithmetic
  certifying the nonzero direction;
* the remaining gap (a symbolically nonzero expression whose value cannot
  be separated from zero) is reported as INDETERMINATE.

A NO rests only on an exact fact: Omega spanning too small a rank
(`_exponents_needed`: the relation lattice's rank, or the cone's with a
separating vector), n - rank L < p for the generators, or a branch system
with no integer solution.  No decider reads a bound: Omega's span is
`resonance.omega_cone`, exact, and the branches b are decided exactly (see
normal_form_hypothesis), so INDETERMINATE comes only from a value that no
precision up to the cap separates from zero.

Every decider takes the one eigen object, `resonance.EigenData`, which
decomposes each eigenvalue once and keeps what the deciders share: the
relation lattice, the Omega cone and one table of log-modulus minors,
which the three hyperbolicity deciders read.  Weak hyperbolicity decides
each subset's hull: full rank (not in it), else a rational hull point from
an exact LP, else one circuit rule at every rank (in it iff some minimally
dependent subset has a kernel vector of one strict sign), else
INDETERMINATE; see is_weakly_hyperbolic.

There is one precision budget: interval evaluation climbs 64 bits doubling
up to precision_cap(), which GERMNF_PRECISION_BITS sets, and an
INDETERMINATE rank verdict reports that cap as `bounds_used.max_bits`.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction
from typing import Any, NamedTuple

from .exactnum import (
    GaussianRational,
    IndeterminateError,
    LogModulusVector,
    TurnSum,
    atan_interval,
    certified_round_to_integer,
    interval_sign,
    libmpi,
    log_interval,
    precision_cap,
    precision_ladder,
    rational_interval,
)
from .linalg import integer_rank, kernel_basis, rational_feasible, solve_integer
from .resonance import EigenData, OmegaCone, omega_cone
from .series import UsageError


class VerdictValue(Enum):
    YES = "yes"
    NO = "no"
    INDETERMINATE = "indeterminate"


class Verdict(NamedTuple):
    value: VerdictValue
    witness: Any
    method: str
    bounds_used: dict
    reason: str | None = None

    @property
    def yes(self) -> bool:
        return self.value is VerdictValue.YES

    @property
    def no(self) -> bool:
        return self.value is VerdictValue.NO

    def to_json(self) -> dict:
        out = {"verdict": self.value.value, "method": self.method}
        if self.witness is not None:
            out["witness"] = self.witness.to_json() if hasattr(self.witness, "to_json") else self.witness
        if self.bounds_used:
            out["bounds_used"] = self.bounds_used
        if self.reason:
            out["reason"] = self.reason
        return out


def _yes(witness=None, method="exact") -> Verdict:
    return Verdict(VerdictValue.YES, witness, method, {})


def _no(witness=None, method="exact") -> Verdict:
    return Verdict(VerdictValue.NO, witness, method, {})


def _indet(reason: str, bounds=None) -> Verdict:
    return Verdict(VerdictValue.INDETERMINATE, None, "symbolic+interval", bounds or {}, reason)


def _method(exact: bool) -> str:
    """A definite verdict's label: 'exact' when no fact it rests on needed
    the interval ladder, else 'symbolic+interval'."""
    return "exact" if exact else "symbolic+interval"


# ---------------------------------------------------------------------------
# Branch choices for eigenvalue logarithms
# ---------------------------------------------------------------------------


class BranchChoice(NamedTuple):
    """Integer branch matrix b: lambda_im = ln|mu_im| + i(Arg mu_im + 2 pi b_im),
    with Arg principal in (-pi, pi]."""

    b: tuple[tuple[int, ...], ...]

    @staticmethod
    def zero(p: int, n: int) -> "BranchChoice":
        return BranchChoice(tuple((0,) * n for _ in range(p)))

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.b]


def _turns_of(eigen: EigenData, i: int, k) -> TurnSum:
    """sum_m k_m Arg(mu_im) / (2 pi), symbolically."""
    return sum((eigen.arg_turns(i, m).scale(e) for m, e in enumerate(k) if e), TurnSum(Fraction(0), ()))


def k_vector(eigen: EigenData, k, branch: BranchChoice | None = None) -> tuple[int, ...]:
    """K_i(k) = (sum_m k_m (Arg mu_im + 2 pi b_im)) / (2 pi), certified, per germ i."""
    br = branch if branch is not None else BranchChoice.zero(eigen.p, eigen.n)
    return tuple(
        certified_round_to_integer(_turns_of(eigen, i, k))
        + sum(e * br.b[i][m] for m, e in enumerate(k))
        for i in range(eigen.p)
    )


# ---------------------------------------------------------------------------
# Symbolic polynomials over {ln q, pi, atan(t)} with Gaussian coefficients
# ---------------------------------------------------------------------------

# symbol encodings: ("log", q), ("pi",), ("atan", num, den) with 0 < num/den < 1,
# q an element of the integer coprime base.  Each ln q is the Q-linear form
# sum_p v_p(q) ln p in logarithms of primes, and these forms are independent
# because the q are multiplicatively independent.  So the substitution
# ln q -> sum_p v_p(q) ln p is injective and linear: it sends a polynomial to
# zero only when the polynomial is zero, and it keeps degrees.  Symbolic
# zero-ness and log-affineness of a minor are thus what they are over primes.


def poly_const(c: GaussianRational) -> dict:
    return {} if c.is_zero() else {(): c}


def _accumulate(out: dict, mono, c: GaussianRational) -> None:
    acc = out.get(mono)
    acc = c if acc is None else acc + c
    if acc.is_zero():
        out.pop(mono, None)
    else:
        out[mono] = acc


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for mono, c in b.items():
        _accumulate(out, mono, c)
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            _accumulate(out, tuple(sorted(ma + mb)), ca * cb)
    return out


def poly_det(rows: list[list[dict]]) -> dict:
    """Determinant by Laplace expansion along the first row."""
    det = {} if rows else poly_const(GaussianRational(1))
    for j, entry in enumerate(rows[0] if rows else ()):
        if entry:
            det = poly_add(det, poly_mul(entry, _cofactor(rows, (0,), j)))
    return det


def _cofactor(rows: list[list[dict]], dropped: tuple[int, ...], j: int) -> dict:
    """(-1)^(sum(dropped) + j) times the minor of `rows` without the rows in
    `dropped` and column j."""
    minor = poly_det([row[:j] + row[j + 1:] for i, row in enumerate(rows) if i not in dropped])
    return {mono: -c for mono, c in minor.items()} if (sum(dropped) + j) % 2 else minor


def _symbol_interval(sym, prec: int):
    if sym[0] == "log":
        return log_interval(sym[1], prec)
    if sym[0] == "pi":
        return libmpi().mpi_pi(prec)
    if sym[0] == "atan":
        return atan_interval(Fraction(sym[1], sym[2]), prec)
    raise AssertionError(f"unknown symbol {sym}")


def poly_eval_intervals(poly: dict, prec: int):
    """Enclosures (lo, hi) of the real and imaginary parts of the value at
    `prec` bits."""
    mpi = libmpi()
    re_acc = im_acc = (mpi.fzero, mpi.fzero)
    for mono, coeff in poly.items():
        prod = (mpi.fone, mpi.fone)
        for sym in mono:
            prod = mpi.mpi_mul(prod, _symbol_interval(sym, prec), prec)
        if coeff.re:
            re_acc = mpi.mpi_add(re_acc, mpi.mpi_mul(prod, rational_interval(coeff.re, prec), prec), prec)
        if coeff.im:
            im_acc = mpi.mpi_add(im_acc, mpi.mpi_mul(prod, rational_interval(coeff.im, prec), prec), prec)
    return re_acc, im_acc


def _poly_is_log_affine(poly: dict) -> bool:
    return all(not mono or (len(mono) == 1 and mono[0][0] == "log") for mono in poly)


def _is_log_form(poly: dict) -> bool:
    """sum c_q ln q with no constant term: poly_sign decides it exactly."""
    return () not in poly and _poly_is_log_affine(poly)


def certify_poly_nonzero(poly: dict) -> bool:
    """True when the polynomial's value is certified nonzero.

    Symbolically zero inputs return False immediately (they ARE zero).
    Affine forms in {1, ln q} are decided exactly; everything else goes to
    the interval ladder, and False there means 'could not certify', not
    'zero'."""
    # c0 + sum c_q ln q = 0 only when every coefficient vanishes: the ln q
    # of pairwise-coprime integers q > 1 are Q-independent (a relation
    # would make a product of their powers 1), and c0 != 0 would make e^c0
    # algebraic for a rational c0 != 0, which Lindemann rules out
    return bool(poly) and (_poly_is_log_affine(poly) or _interval_signs(poly) != (0, 0))


def _interval_signs(poly: dict) -> tuple[int, int]:
    """Signs of the real and imaginary parts at the first precision that
    separates either from zero, else (0, 0)."""
    for prec in precision_ladder():
        signs = tuple(map(interval_sign, poly_eval_intervals(poly, prec)))
        if signs != (0, 0):
            return signs
    return 0, 0


def poly_sign(poly: dict) -> int | None:
    """Certified sign of a real polynomial's value: 0 for the symbolic zero,
    None when no precision up to the cap separates it from zero.  A linear
    form in logarithms of pairwise-coprime integers (the base elements) is
    decided exactly by LogModulusVector.sign."""
    if _is_log_form(poly):
        return LogModulusVector.from_dict({mono[0][1]: c.re for mono, c in poly.items()}).sign()
    return _interval_signs(poly)[0] or None


class Minor(NamedTuple):
    """The p x p minor on `columns` (0-based) of a p-row symbolic matrix.
    `full`: `det` certified nonzero (True), symbolically zero (False) or
    neither (None)."""

    columns: tuple[int, ...]
    det: dict
    full: bool | None

    @property
    def exact(self) -> bool:
        """Was `full` decided with no interval: a log-affine or zero det?"""
        return _poly_is_log_affine(self.det)


def _minors(entries: list[list[dict]]):
    """The minors of p rows of symbolic entries on each p-subset of
    columns, lazily and in lexicographic order."""
    for columns in itertools.combinations(range(len(entries[0])), len(entries)):
        det = poly_det([[row[c] for c in columns] for row in entries])
        yield Minor(columns, det, (certify_poly_nonzero(det) or None) if det else False)


def _one_based(columns) -> list[int]:
    return [c + 1 for c in columns]


def _full_row_rank(minors):
    """(True, witness) at the first certified minor, (False, witness) when
    every minor is symbolically zero, (None, info) otherwise."""
    uncertified = []
    for minor in minors:
        if minor.full:
            return True, {"minor_columns": _one_based(minor.columns)}
        if minor.full is None:
            uncertified.append(_one_based(minor.columns))
    if uncertified:
        return None, {"uncertified_minors": uncertified}
    return False, {"all_minors_symbolically_zero": True}


def _logmod_poly(vec: LogModulusVector) -> dict:
    return {(("log", p),): GaussianRational(c) for p, c in vec.coords}


def _lambda_entry_poly(eigen: EigenData, i: int, m: int, branch: BranchChoice) -> dict:
    """lambda_im as a symbolic polynomial (degree 1) over {ln q, pi, atan}."""
    poly = _logmod_poly(eigen.log_modulus(i, m))
    turns = eigen.arg_turns(i, m)
    pi_coeff = 2 * (turns.rational + branch.b[i][m])
    if pi_coeff:
        poly = poly_add(poly, {(("pi",),): GaussianRational(0, pi_coeff)})
    for c, t in turns.atan_terms:
        sym = ("atan", t.numerator, t.denominator)
        poly = poly_add(poly, {(sym,): GaussianRational(0, c)})
    return poly


def _minor_table(eigen: EigenData) -> list[Minor]:
    """The minors of the p x n log-modulus matrix, entry (i, m) = ln|mu_im|,
    built once per eigen object (under the precision cap in force at its
    first use).  Its column p-subsets are the p-subsets of covectors
    c_k = (ln|mu_1k|, ..., ln|mu_pk|), which all three hyperbolicity
    deciders read."""
    return eigen.once("minor_table", lambda: list(_minors(
        [[_logmod_poly(eigen.log_modulus(i, m)) for m in range(eigen.n)] for i in range(eigen.p)])))


# ---------------------------------------------------------------------------
# Non-degeneracy
# ---------------------------------------------------------------------------


def is_nondegenerate(eigen: EigenData) -> Verdict:
    """q = n - p independent first-integral exponents at the linear level
    certify q functionally independent monomial first integrals.  YES lists
    the first q that raise the rank among m_j + t v and v (M's basis, the
    cone's point, t >= 0 least with every m_j + t v >= 0): integer
    combinations of the verified lattice basis, so no power of mu re-checks
    them, which at entries such as 312000 would take minutes."""
    q = eigen.n - eigen.p
    cone, shortfall = _exponents_needed(eigen, q)
    if shortfall is not None:
        return shortfall
    chosen: list[list[int]] = []
    if q:
        v = cone.point
        t = max([0] + [-(m[c] // v[c]) for m in cone.basis for c in range(eigen.n) if v[c]])
        for pt in [[x + t * y for x, y in zip(m, v)] for m in cone.basis] + [list(v)]:
            if len(chosen) < q and integer_rank([*chosen, pt]) > len(chosen):
                chosen.append(pt)
    return _yes({"independent_exponents": chosen})


def _exponents_needed(eigen: EigenData, k: int) -> tuple[OmegaCone | None, Verdict | None]:
    """(the Omega cone, None) when Omega spans rank >= k, else (None, NO)
    with {lattice_rank, needed}, and when rank L >= k also the cone's
    `omega_rank`, `zero_coordinates` Z and `separating_vector` w: w.x = 0
    on Omega, so every Omega point lies in L cap {x_Z = 0}."""
    cone = omega_cone(eigen)
    if len(cone.basis) >= k:
        return cone, None
    witness = {"lattice_rank": eigen.lattice.rank, "needed": k}
    if eigen.lattice.rank >= k:
        witness.update(omega_rank=len(cone.basis), zero_coordinates=_one_based(cone.zero),
                       separating_vector=list(cone.separator))
    return None, _no(witness)


# ---------------------------------------------------------------------------
# Projective hyperbolicity
# ---------------------------------------------------------------------------


def is_projectively_hyperbolic(eigen: EigenData) -> Verdict:
    """Are the p log-modulus vectors R-linearly independent?  Yes when some
    minor of the table is certified nonzero, no when all are symbolically
    zero.  For p = 1 a minor is one log form, so both answers are exact."""
    table = _minor_table(eigen)
    full = next((minor for minor in table if minor.full), None)
    if eigen.p == 1:
        return _yes({"nonzero_column": full.columns[0] + 1}) if full else _no({"all_unit_modulus": True})
    decided, info = _full_row_rank(table)
    if decided is True:
        return _yes(info, method=_method(full.exact))
    if decided is False:
        return _no(info)
    return _indet("rank of the log-modulus matrix could not be certified", {"max_bits": precision_cap()})


# ---------------------------------------------------------------------------
# Weak resonance
# ---------------------------------------------------------------------------


def weak_resonance(eigen: EigenData, branches: BranchChoice | None = None) -> Verdict:
    """YES means weakly resonant (some relation vector has a nonzero 2-pi-i
    multiplier vector K); NO means weakly non-resonant for this branch
    choice.  K is linear on the relation lattice, so its basis suffices."""
    branch = branches if branches is not None else BranchChoice.zero(eigen.p, eigen.n)
    lat = eigen.lattice
    if lat.rank == 0:
        return _no({"relation_lattice": "trivial"})
    table = []
    for k in lat.basis:
        # modulus part vanishes automatically on the relation lattice; check it
        for i in range(eigen.p):
            modulus = sum((eigen.log_modulus(i, m).scale(e) for m, e in enumerate(k) if e), LogModulusVector(()))
            if not modulus.is_zero():
                raise AssertionError("relation vector with nonzero modulus part")
        try:
            kv = k_vector(eigen, k, branch)
        except IndeterminateError as exc:
            return _indet(str(exc))
        table.append({"k": list(k), "K": list(kv)})
        if any(kv):
            return _yes({"k": list(k), "K": list(kv), "branch": branch.to_json()})
    return _no({"K_on_basis": table, "branch": branch.to_json()})


# ---------------------------------------------------------------------------
# Infinitesimal generators (branch search as an integer linear system)
# ---------------------------------------------------------------------------


def _branch_rows(eigen: EigenData, span_rows: tuple[tuple[int, ...], ...]):
    """(b, None) with b_i, per germ i, one integer solution of
    sum_m w_m b_im = -K0_i(w) on every span row w, solve_integer's
    particular solution; else (None, the first infeasible system).  The
    other solutions add the kernel of the span rows.  IndeterminateError
    when a K0 is not certified."""
    rows = [list(w) for w in span_rows]
    particular = []
    for i in range(eigen.p):
        rhs = [-certified_round_to_integer(_turns_of(eigen, i, w)) for w in rows]
        row = solve_integer(rows, rhs, ncols=eigen.n)
        if row is None:
            return None, {"germ": i + 1, "span": rows, "rhs": rhs, "reason": "no integer solution"}
        particular.append(row)
    return particular, None


def find_infinitesimal_generators(eigen: EigenData) -> Verdict:
    """Is there a branch matrix making K vanish on the Z-span of Omega (then
    every common monomial first integral of the linear parts is a first
    integral of the generators)?  That span is the cone's lattice M, exact.
    YES with each row's particular solution, which is 0 whenever 0 is a
    solution, and `vacuous` when Omega is empty; NO with a row that has no
    integer solution; INDETERMINATE when a K0 is not certified."""
    span = omega_cone(eigen).basis
    if not span:
        return _yes({"branch": BranchChoice.zero(eigen.p, eigen.n).to_json(), "vacuous": True})
    try:
        rows, failure = _branch_rows(eigen, span)
    except IndeterminateError as exc:
        return _indet(str(exc))
    return _no(failure) if failure is not None else _yes({"branch": rows})


def generators_independent(eigen: EigenData, branch: BranchChoice):
    """Are the lambda(b) rows linearly independent?  See _full_row_rank:
    False rests only on symbolic cancellation, True on a certified minor."""
    entries = [[_lambda_entry_poly(eigen, i, m, branch) for m in range(eigen.n)] for i in range(eigen.p)]
    return _full_row_rank(_minors(entries))


def normal_form_hypothesis(eigen: EigenData) -> Verdict:
    """Theorem hypothesis: projectively hyperbolic, or infinitesimally
    integrable with a weakly non-resonant, linearly independent family of
    generators lambda(b) (the independence is part of integrability).

    The branches are decided exactly.  K(b) = 0 on the relation lattice L
    (weak non-resonance) asks b_i in a coset b0_i + span_Z(n_1, ..., n_k)
    per row, the n_j a basis of L^perp cap Z^n, k = n - rank L; no integer
    b0_i is an exact NO.  Every row of lambda(b) vanishes on L, so
    lambda(b) = (C0 + 2 pi i T) N with N the k x n matrix of the n_j, C0
    the coordinates of lambda(b0) and T in Z^(p x k) free; N has rank k,
    so rank lambda(b) = rank(C0 + 2 pi i T).  If k < p every family is
    dependent, an exact NO with witness {lattice_rank, n, p}.  Else take
    b_i = b0_i + s n_i for s = 0, ..., p: det(C0_S + 2 pi i s I) on the
    first p coordinates is a polynomial in s of degree p with leading
    coefficient (2 pi i)^p, so it has at most p roots and one of these
    p + 1 families is independent.  A minor of lambda(b) that is truly
    nonzero is symbolically nonzero, so the verdict is YES unless no
    precision up to the cap certifies it: INDETERMINATE with that cap."""
    proj = is_projectively_hyperbolic(eigen)
    if proj.yes:
        return _yes({"route": "projectively_hyperbolic", **(proj.witness or {})},
                    method=proj.method)
    try:
        particular, failure = _branch_rows(eigen, eigen.lattice.basis)
    except IndeterminateError as exc:
        return _indet(str(exc))
    if failure is not None:
        if proj.no:
            return _no({"projective": proj.witness, "weak_nonresonance": failure})
        return _indet("projective hyperbolicity undecided and no weakly non-resonant branch")
    kernel = kernel_basis([list(k) for k in eigen.lattice.basis], ncols=eigen.n)
    if len(kernel) < eigen.p:
        if proj.no:
            return _no({"lattice_rank": eigen.lattice.rank, "n": eigen.n, "p": eigen.p})
        return _indet("projective hyperbolicity undecided and the generators dependent for every branch")
    undecided = False
    for s in range(eigen.p + 1):
        branch = BranchChoice(tuple(tuple(b + s * v for b, v in zip(row, kernel[i]))
                                    for i, row in enumerate(particular)))
        decided, info = generators_independent(eigen, branch)
        if decided:
            # only intervals certify a lambda(b) minor: at p >= 2 it has
            # degree p, and at p = 1 an entry without pi or atan is ln|mu|,
            # which, nonzero, makes the family projectively hyperbolic
            return _yes({"route": "weakly_nonresonant_generators", "branch": branch.to_json(), **info},
                        method="symbolic+interval")
        undecided = undecided or decided is None
    if not undecided:
        raise AssertionError("lambda(b) dependent at all p + 1 values of s: more roots than its degree p")
    return _indet("no lambda(b) minor certified nonzero", {"max_bits": precision_cap()})


# ---------------------------------------------------------------------------
# Hyperbolicity of the Z^p action
# ---------------------------------------------------------------------------


def is_hyperbolic(eigen: EigenData) -> Verdict:
    """Every p-subset of the n covectors linearly independent: every minor
    of the table certified nonzero."""
    table = _minor_table(eigen)
    for minor in table:
        if minor.full is False:
            return _no({"dependent_subset": _one_based(minor.columns), "all_minors_symbolically_zero": True})
    uncertified = [_one_based(minor.columns) for minor in table if minor.full is None]
    if uncertified:
        return _indet(f"rank not certified for subsets {uncertified}")
    return _yes({"subsets_checked": len(table)}, method=_method(all(minor.exact for minor in table)))


def _circuit(rows: list[list[dict]], minors) -> tuple[bool | None, tuple | None, bool]:
    """Is the subset T of covectors `rows` (|T| >= 2, one row each), whose
    |T|-row minors are `minors`, dependent with a kernel vector of one
    strict sign?  (True, (v, signs)), False or None, and whether the answer
    is exact.  See is_weakly_hyperbolic, step 3."""
    uncertified = False
    for minor in minors:
        if minor.full:
            return False, None, minor.exact
        uncertified = uncertified or minor.full is None
    if uncertified:
        return None, None, True
    block = [list(column) for column in zip(*rows)]
    inconclusive = False
    for dropped in itertools.combinations(range(len(block)), len(block) - len(rows) + 1):
        vector = tuple(_cofactor(block, dropped, j) for j in range(len(rows)))
        signs = tuple(poly_sign(v) for v in vector)
        if not any(signs):
            # no certified entry: v may vanish, and another choice decide
            inconclusive = inconclusive or any(vector)
            continue
        exact = all(_is_log_form(v) for v, s in zip(vector, signs) if s)
        if set(signs) in ({1}, {-1}):
            return True, (vector, signs), exact
        if 0 in signs or {1, -1} <= set(signs):
            return False, None, exact
        return None, None, True
    return (None if inconclusive else False), None, True


def _hull_contains_origin(eigen: EigenData, minor: Minor) -> tuple[bool | None, dict, bool]:
    """Does the convex hull of the covectors c_k, k in minor.columns,
    contain 0?  (True, witness), (False, {}) or (None, {}), and whether the
    answer is exact: no fact it rests on needed the interval ladder.  The
    steps are those of is_weakly_hyperbolic."""
    if minor.full:
        return False, {}, minor.exact
    points = [[eigen.log_modulus(i, k) for i in range(eigen.p)] for k in minor.columns]
    # one row per coordinate and base element, and sum lambda_k = 1
    rows = [[Fraction(point[i].as_dict().get(q, 0)) for point in points] for i in range(eigen.p)
            for q in sorted({q for point in points for q, _ in point[i].coords})] + [[Fraction(1)] * len(points)]
    hull_point = rational_feasible(rows, [Fraction(0)] * (len(rows) - 1) + [Fraction(1)])
    if hull_point is not None:
        return True, {"hull_coefficients": [str(x) for x in hull_point]}, True
    undecided, exact = False, True
    for size in range(2, eigen.p + 1):
        for circuit in itertools.combinations(minor.columns, size):
            covectors = [[_logmod_poly(eigen.log_modulus(i, k)) for i in range(eigen.p)] for k in circuit]
            # at T = S the one minor is the table's
            contains, kernel, by_exact = _circuit(covectors, _minors(covectors) if size < eigen.p else [minor])
            if contains:
                vector, signs = kernel
                # each entry as [coefficient, [base elements whose logarithms it multiplies]]
                info = {"kernel_vector": [[[str(c), [s[1] for s in mono]] for mono, c in sorted(v.items())]
                                          for v in vector],
                        "kernel_signs": list(signs)}
                if size < eigen.p:
                    info["circuit"] = _one_based(circuit)
                return True, info, by_exact
            undecided = undecided or contains is None
            exact = exact and by_exact
    return (None if undecided else False), {}, exact


def is_weakly_hyperbolic(eigen: EigenData) -> Verdict:
    """No p-subset's convex hull contains the origin.

    By Gordan's alternative the origin is either in conv{c_k : k in S} or
    strictly separated from it.  Each p-subset S is decided in this order:

    1. its minor certified nonzero: sum lambda_k c_k = 0 forces lambda = 0,
       against sum lambda_k = 1, so the origin is not in the hull;
    2. a rational hull point lambda balancing every base coordinate (an
       exact LP): the origin is in the hull, lambda is the witness;
    3. its circuits: by Caratheodory the origin is in the hull iff some
       minimally dependent T in S has a kernel vector of one strict sign
       (|T| = 1, a zero covector, is a hull point of step 2).  For each T,
       |T| >= 2: a |T|-row minor of c_T certified nonzero makes T
       independent.  When all are symbolically zero, each choice of |T| - 1
       rows (the dropped ones in lexicographic order) gives a kernel vector
       v of signed (|T| - 1)-row minors, by Laplace expansion; at |T| = p
       it is the cofactor vector along the dropped row.  A certified
       nonzero entry makes v span the kernel: one strict sign puts the
       origin in the hull, with v, its signs and T (as `circuit` when not
       S) the witness; opposite signs or a symbolically zero entry rule T
       out.  A v with no certified nonzero entry passes to the next choice,
       and T is not a circuit when every v is symbolically zero.  Anything
       else, an uncertified minor or sign, leaves S INDETERMINATE."""
    table = _minor_table(eigen)
    undecided = []
    exact = True
    for minor in table:
        contains, info, by_exact = _hull_contains_origin(eigen, minor)
        if contains:
            return _no({"subset": _one_based(minor.columns), **info}, method=_method(by_exact))
        if contains is None:
            undecided.append(_one_based(minor.columns))
        exact = exact and by_exact
    if undecided:
        return _indet(f"hull tests undecided for subsets {undecided}")
    return _yes({"subsets_checked": len(table)}, method=_method(exact))


# ---------------------------------------------------------------------------
# Poincare type (single diffeomorphism, constructive)
# ---------------------------------------------------------------------------


class PoincareTypeCertificate(NamedTuple):
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


def poincare_type_single(eigen: EigenData) -> Verdict:
    """Constructive Poincare-type certificate for p = 1 with n-1 independent
    first-integral exponents; hypothesis is that some eigenvalue leaves the
    unit circle.  Too few exponents give the NO of _exponents_needed.  The
    rows are the basis of M, Omega's span, which lies in the relation
    lattice and spans k^perp over Q, so every integer vector v orthogonal to
    k has a multiple in the lattice and mu^v is a root of unity: a slot with
    k_m = 0 or a cancelling pair without a torsion order is an internal
    error (AssertionError), not an undecided input."""
    if eigen.p != 1:
        raise UsageError("constructive Poincare-type requires p = 1")
    mu = eigen.mu[0]
    n = eigen.n
    logmods = [eigen.log_modulus(0, m) for m in range(n)]
    if all(v.is_zero() for v in logmods):
        return _no({"all_unit_modulus": True})
    cone, shortfall = _exponents_needed(eigen, n - 1)
    if shortfall is not None:
        return shortfall
    kern = kernel_basis([list(m) for m in cone.basis], ncols=n)
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
            order = _torsion_order(mu[m])
            if order is None:
                raise AssertionError(f"unit-modulus eigenvalue at slot {m + 1} is not a root of unity")
            alphas.append((m + 1, order))
    betas = []
    contracting = [m for m in range(n) if k[m] < 0]
    expanding = [m for m in range(n) if k[m] > 0]
    for i in contracting:
        for j in expanding:
            g = math.gcd(k[i], k[j])
            base_i, base_j = k[j] // g, -k[i] // g
            w = mu[i] ** base_i * mu[j] ** base_j
            t = _torsion_order(w)
            if t is None:
                raise AssertionError(f"pair ({i + 1},{j + 1}) has no exact cancelling power: not a root of unity")
            betas.append((i + 1, j + 1, t * base_i, t * base_j))
    entries = [order for _, order in alphas] + [b for _, _, bi, bj in betas for b in (bi, bj)]
    bound_m = max(entries, default=0) + 1
    cert = PoincareTypeCertificate(
        tuple(k), scale.coords, scale_sq, tuple(alphas), tuple(betas), bound_m
    )
    if not cert.verify(eigen):
        raise AssertionError("Poincare-type certificate failed self-verification")
    return _yes(cert)


def _torsion_order(z: GaussianRational) -> int | None:
    """The order of z as a root of unity, else None.  The roots of unity in
    Q(i) are +-1 and +-i, so the order divides 4."""
    return next((t for t in (1, 2, 4) if (z ** t).is_one()), None)
