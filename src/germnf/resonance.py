"""Multiplicative relation lattices of eigenvalue families.

The central object is {k in Z^n : prod_m mu_im^{k_m} = 1 for all i},
computed exactly: each eigenvalue factors over canonical Gaussian primes,
so a product is 1 iff every prime exponent balances and the i-unit
exponent balances mod 4.  The mod-4 congruence is absorbed into one
integer-kernel computation by a scaled auxiliary column per germ.

Omega (the paper's first-integral exponent set) is the lattice's
intersection with N^n; resonant sets are its e_m-translates.

An EigenContext decomposes an EigenData once: each distinct eigenvalue is
factored once, its log-modulus vector is read off that factorization and
its principal argument is taken once, and the relation lattice is computed
once.  Every function here and in `classify` that takes eigen data accepts
either an EigenData, for which it builds a context of its own, or a context
that a caller (one CLI command) shares between them.  Nothing is cached
beyond the context's lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import (
    GaussianFactorization,
    GaussianRational,
    LogModulusVector,
    TurnSum,
    factor_gaussian,
    principal_arg_turns,
)
from .linalg import integer_rank, kernel_basis, lattice_points, row_hnf
from .series import MultiIndex, UsageError, grlex_key


@dataclass(frozen=True)
class EigenData:
    """Eigenvalues mu[i][m] of the diagonal semisimple linear parts."""

    mu: tuple[tuple[GaussianRational, ...], ...]

    def __post_init__(self):
        if not self.mu or not self.mu[0]:
            raise UsageError("eigen data must be a nonempty p x n matrix")
        n = len(self.mu[0])
        for row in self.mu:
            if len(row) != n:
                raise UsageError("ragged eigenvalue matrix")
            for z in row:
                if z.is_zero():
                    raise UsageError("eigenvalues must be nonzero")

    @property
    def p(self) -> int:
        return len(self.mu)

    @property
    def n(self) -> int:
        return len(self.mu[0])

    @staticmethod
    def from_rows(rows) -> "EigenData":
        return EigenData(tuple(tuple(_as_gauss(z) for z in row) for row in rows))

    @staticmethod
    def from_family(fam) -> "EigenData":
        return EigenData(tuple(fam.linear_diags()))

    def product(self, i: int, k) -> GaussianRational:
        """prod_m mu[i][m]^{k_m}, exact (negative entries via inverses)."""
        acc = GaussianRational(1)
        for m, e in enumerate(k):
            if e:
                acc = acc * self.mu[i][m] ** int(e)
        return acc

    def satisfies_relation(self, k) -> bool:
        return all(self.product(i, k).is_one() for i in range(self.p))


def _as_gauss(z) -> GaussianRational:
    if isinstance(z, GaussianRational):
        return z
    if isinstance(z, str):
        return GaussianRational.parse(z)
    return GaussianRational(z)


@dataclass(frozen=True)
class RelationLattice:
    """HNF basis of {k in Z^n : mu^k = 1 for all rows}, ambient dimension n."""

    basis: tuple[tuple[int, ...], ...]
    n: int

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, k) -> bool:
        from .linalg import solve_integer

        if not self.basis:
            return not any(k)
        sol = solve_integer(
            [[self.basis[j][c] for j in range(self.rank)] for c in range(self.n)],
            list(k),
        )
        return sol is not None

    def verify(self, eigen: EigenData) -> bool:
        return all(eigen.satisfies_relation(k) for k in self.basis)

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.basis]


class EigenContext:
    """Per-eigenvalue decompositions and the relation lattice of one
    EigenData, each computed once (see the module docstring)."""

    def __init__(self, eigen: EigenData):
        self.eigen = eigen
        distinct = dict.fromkeys(z for row in eigen.mu for z in row)
        self._factors = {z: factor_gaussian(z) for z in distinct}
        self._logmods = {z: f.log_modulus() for z, f in self._factors.items()}
        self._turns: dict[GaussianRational, TurnSum] = {}  # filled on demand
        self._lattice: RelationLattice | None = None

    @staticmethod
    def of(eigen: "EigenData | EigenContext") -> "EigenContext":
        return eigen if isinstance(eigen, EigenContext) else EigenContext(eigen)

    def factorization(self, i: int, m: int) -> GaussianFactorization:
        return self._factors[self.eigen.mu[i][m]]

    def log_modulus(self, i: int, m: int) -> LogModulusVector:
        return self._logmods[self.eigen.mu[i][m]]

    def arg_turns(self, i: int, m: int) -> TurnSum:
        z = self.eigen.mu[i][m]
        if z not in self._turns:
            self._turns[z] = principal_arg_turns(z)
        return self._turns[z]

    @property
    def lattice(self) -> RelationLattice:
        if self._lattice is None:
            self._lattice = relation_lattice(self)
        return self._lattice


def relation_lattice(eigen: EigenData | EigenContext) -> RelationLattice:
    """Exact relation lattice of the eigenvalue family.

    Row system: for every germ i and every Gaussian prime pi occurring in
    any mu[i][m], sum_m k_m * v_pi(mu[i][m]) = 0; and per germ a unit row
    sum_m k_m * u_im - 4*t_i = 0 with auxiliary integer t_i.  The kernel is
    projected back to the k coordinates and HNF-canonicalized.
    """
    ctx = EigenContext.of(eigen)
    eigen = ctx.eigen
    p, n = eigen.p, eigen.n
    factorizations = [[ctx.factorization(i, m) for m in range(n)] for i in range(p)]
    rows: list[list[int]] = []
    for i in range(p):
        primes: list[GaussianRational] = []
        seen = set()
        for f in factorizations[i]:
            for prime, _ in f.factors:
                if prime not in seen:
                    seen.add(prime)
                    primes.append(prime)
        primes.sort(key=lambda q: (q.norm(), q.re, q.im))
        for prime in primes:
            row = [factorizations[i][m].exponent_of(prime) for m in range(n)]
            rows.append(row + [0] * p)
        unit_row = [factorizations[i][m].unit_exp for m in range(n)] + [0] * p
        unit_row[n + i] = -4
        rows.append(unit_row)
    kernel = kernel_basis(rows, ncols=n + p)
    projected = [vec[:n] for vec in kernel]
    basis = row_hnf(projected)
    lattice = RelationLattice(tuple(tuple(r) for r in basis), n)
    if not lattice.verify(eigen):
        raise AssertionError("relation lattice failed exact re-verification")
    return lattice


def _lattice_and_data(eigen, lattice: RelationLattice | None) -> tuple[RelationLattice, EigenData]:
    """The given lattice, else the context's; and the plain eigen data."""
    if lattice is not None:
        return lattice, eigen.eigen if isinstance(eigen, EigenContext) else eigen
    ctx = EigenContext.of(eigen)
    return ctx.lattice, ctx.eigen


@dataclass(frozen=True)
class OmegaEnumeration:
    """All nonzero first-integral exponents of degree <= degree_bound."""

    degree_bound: int
    points: tuple[MultiIndex, ...]

    def to_json(self) -> dict:
        return {"bound": self.degree_bound, "points": [list(pt) for pt in self.points]}


def enumerate_omega(
    eigen: EigenData | EigenContext, bound: int, lattice: RelationLattice | None = None
) -> OmegaEnumeration:
    """Nonzero lattice points in N^n with total degree <= bound.

    Enumeration walks the relation lattice intersected with the simplex
    rather than all of N^n; every emitted point is re-verified by an exact
    eigenvalue product.
    """
    if bound < 1:
        raise UsageError("enumeration bound must be >= 1")
    lat, eigen = _lattice_and_data(eigen, lattice)
    pts = []
    for pt in lattice_points([list(r) for r in lat.basis], [0] * eigen.n, [bound] * eigen.n):
        deg = sum(pt)
        if 1 <= deg <= bound:
            if not eigen.satisfies_relation(pt):
                raise AssertionError(f"enumerated point {pt} failed product re-verification")
            pts.append(pt)
    pts.sort(key=grlex_key)
    return OmegaEnumeration(bound, tuple(pts))


@dataclass(frozen=True)
class ResonantSet:
    """Exponents gamma, 2 <= |gamma| <= bound, resonant for component m."""

    component: int  # 1-based, matching reports
    degree_bound: int
    points: tuple[MultiIndex, ...]

    def to_json(self) -> dict:
        return {
            "component": self.component,
            "bound": self.degree_bound,
            "points": [list(pt) for pt in self.points],
        }


def resonant_set(
    eigen: EigenData | EigenContext, m: int, bound: int, lattice: RelationLattice | None = None
) -> ResonantSet:
    """Solutions of the resonance condition mu_im = mu_i^gamma for all i.

    m is 1-based.  Computed as (e_m + lattice) intersected with N^n in the
    degree range, then cross-checked term by term against the exact
    products; the brute-force oracle comparison lives in the tests.
    """
    lat, eigen = _lattice_and_data(eigen, lattice)
    if not 1 <= m <= eigen.n:
        raise UsageError(f"component {m} out of range 1..{eigen.n}")
    if bound < 2:
        raise UsageError("resonant set bound must be >= 2")
    offset = [1 if j == m - 1 else 0 for j in range(eigen.n)]
    pts = []
    for pt in lattice_points([list(r) for r in lat.basis], [0] * eigen.n, [bound] * eigen.n, offset=offset):
        deg = sum(pt)
        if 2 <= deg <= bound:
            for i in range(eigen.p):
                if eigen.product(i, pt) != eigen.mu[i][m - 1]:
                    raise AssertionError(f"resonant candidate {pt} failed exact check")
            pts.append(pt)
    pts.sort(key=grlex_key)
    return ResonantSet(m, bound, tuple(pts))


def is_resonant_exponent(eigen: EigenData, m: int, gamma) -> bool:
    """Exact membership test for the component-m resonance condition (m 1-based)."""
    return all(eigen.product(i, gamma) == eigen.mu[i][m - 1] for i in range(eigen.p))


def vect_omega_rank(lat: RelationLattice, enumeration_bound: int) -> tuple[int, int]:
    """(rank over Q of enumerated Omega points, rank of the full lattice).

    Both are reported: the vector space the paper takes is spanned by the
    nonnegative points only, and a finite enumeration can only bound its
    dimension from below.
    """
    pts = [
        list(pt)
        for pt in lattice_points([list(r) for r in lat.basis], [0] * lat.n, [enumeration_bound] * lat.n)
        if 1 <= sum(pt) <= enumeration_bound
    ]
    rank_enumerated = integer_rank(pts) if pts else 0
    return rank_enumerated, lat.rank


def omega_span_basis(
    eigen: EigenData | EigenContext, bound: int, lattice: RelationLattice | None = None
) -> list[list[int]]:
    """HNF basis of the Z-span of the enumerated Omega points."""
    omega = enumerate_omega(eigen, bound, lattice)
    return row_hnf([list(pt) for pt in omega.points])
