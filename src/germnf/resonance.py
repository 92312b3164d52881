"""Multiplicative relation lattices of eigenvalue families.

The central object is {k in Z^n : prod_m mu_im^{k_m} = 1 for all i},
computed exactly with no integer factoring: each eigenvalue factors over
one coprime base in Z[i] of all numerators and denominators of mu, built
with gcds only (`exactnum.coprime_base`).  Pairwise-coprime non-units are
multiplicatively independent: a product of their powers is a unit only
when every exponent is 0, since a Gaussian prime dividing one element
divides no other.  So a product is 1 iff every base exponent balances and
the i-unit exponent balances mod 4, exactly as over Gaussian primes.  The
mod-4 congruence is absorbed into one integer-kernel computation by a
scaled auxiliary column per germ.

Omega (the paper's first-integral exponent set) is the lattice's
intersection with N^n; resonant sets are its e_m-translates.  One walk,
`_walk`, lists both to a degree bound, for `lattice` and `vect_omega_rank`.
The deciders read Omega's span exactly instead, with no bound, from the
cone (L (x) Q) cap Q^n_{>=0} (`omega_cone`).

EigenData is the one eigen object: every hypothesis of the theorem is a
function of the eigenvalue matrix mu alone, and everything read off mu is
computed once per object, on first use, and kept with it: the two
coprime bases (in Z[i] for the lattice, in Z for the log-moduli), each
distinct eigenvalue's factorization, log-modulus vector and principal
argument, the relation lattice, its Omega cone, the Omega walk per degree
bound, `classify`'s table of log-modulus minors, and the tables of eigenvalue
powers and resonance gaps.  A caller that holds a lattice or an Omega
listing holds the EigenData it came from, so the functions here take
only that.  Nothing is cached beyond the object's lifetime; one CLI
command builds one object.

The power table maps gamma in N^n to (mu_i^gamma for every germ i).  Every
exact product test reads it: the Omega condition mu_i^k = 1, a relation
k = k+ - k- as mu^(k+) = mu^(k-) (no inverse: every mu is nonzero), and
the gap table of mu_i^gamma - mu_im per (m, gamma), from which
`is_resonant_exponent` decides resonance for every caller and the
normalizer takes its divisors.  Entries are products of mu entries only,
never read off a factorization, so every re-verification stays
independent of the coprime base.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exactnum import (
    GaussianFactorization,
    GaussianRational,
    LogModulusVector,
    ONE,
    TurnSum,
    base_factorization,
    base_log_modulus,
    gaussian_coprime_base,
    integer_coprime_base,
    principal_arg_turns,
)
from .linalg import WalkTooLong, integer_rank, kernel_basis, lattice_points, rational_feasible, row_hnf
from .series import MultiIndex, UsageError, grlex_key

# Nodes one walk of the lattice to degree <= bound may visit.  A full-rank
# lattice keeps about bound^n / n! points, so this caps the cost that the
# bound alone does not.
MAX_WALK_NODES = 30_000


class EigenData:
    """Eigenvalues mu[i][m] of the diagonal semisimple linear parts, and
    what is read off them, each computed once (see the module docstring)."""

    __slots__ = ("mu", "_memo")

    def __init__(self, mu: tuple[tuple[GaussianRational, ...], ...]):
        if not mu or not mu[0]:
            raise UsageError("eigen data must be a nonempty p x n matrix")
        n = len(mu[0])
        if len(mu) > n:
            raise UsageError("family has more germs than the ambient dimension")
        for row in mu:
            if len(row) != n:
                raise UsageError("ragged eigenvalue matrix")
            for z in row:
                if z.is_zero():
                    raise UsageError("eigenvalues must be nonzero")
        self.mu = mu
        self._memo: dict = {}

    def __eq__(self, other):
        if not isinstance(other, EigenData):
            return NotImplemented
        return self.mu == other.mu

    def __hash__(self):
        return hash(self.mu)

    def __repr__(self):
        return f"EigenData({self.mu!r})"

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

    def once(self, key, make):
        """make(), computed on the first request for `key` and kept."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    @property
    def gaussian_base(self) -> tuple[GaussianRational, ...]:
        """The coprime base in Z[i] of the distinct eigenvalues, all rows
        together (see relation_lattice)."""
        return self.once("gaussian_base", lambda: gaussian_coprime_base(self._distinct()))

    @property
    def integer_base(self) -> tuple[int, ...]:
        """The coprime base in Z of the distinct eigenvalues' norms and
        denominators, all rows together, since `classify`'s log-modulus
        minors mix rows."""
        return self.once("integer_base", lambda: integer_coprime_base(self._distinct()))

    def _distinct(self) -> tuple[GaussianRational, ...]:
        return tuple(dict.fromkeys(z for row in self.mu for z in row))

    def factorization(self, i: int, m: int) -> GaussianFactorization:
        """mu_im over the Gaussian coprime base."""
        z = self.mu[i][m]
        return self.once(("factors", z), lambda: base_factorization(z, self.gaussian_base))

    def log_modulus(self, i: int, m: int) -> LogModulusVector:
        """ln|mu_im| over the integer coprime base."""
        z = self.mu[i][m]
        return self.once(("log_modulus", z), lambda: base_log_modulus(z, self.integer_base))

    def arg_turns(self, i: int, m: int) -> TurnSum:
        z = self.mu[i][m]
        return self.once(("arg_turns", z), lambda: principal_arg_turns(z))

    @property
    def lattice(self) -> "RelationLattice":
        return self.once("lattice", lambda: relation_lattice(self))

    def power(self, gamma) -> tuple[GaussianRational, ...]:
        """(mu_i^gamma for every germ i), gamma in N^n, from the power table.

        With k the last nonzero coordinate of gamma, a new entry is
        power(gamma - e_k) * mu_k when that entry exists, else
        power(gamma with coordinate k zeroed) * mu_k^gamma_k, so the
        recursion is at most n deep and a row such as (1000, 1) adds O(n)
        entries."""
        gamma = tuple(gamma)
        table = self.once("powers", lambda: {(0,) * self.n: (ONE,) * self.p})
        found = table.get(gamma)
        if found is None:
            k = max(j for j, e in enumerate(gamma) if e)
            below = table.get(gamma[:k] + (gamma[k] - 1,) + gamma[k + 1:])
            if below is not None:
                found = tuple(pw * row[k] for pw, row in zip(below, self.mu))
            else:
                rest = self.power(gamma[:k] + (0,) + gamma[k + 1:])
                found = tuple(pw * row[k] ** gamma[k] for pw, row in zip(rest, self.mu))
            table[gamma] = found
        return found

    def gaps(self, m: int, gamma: MultiIndex) -> tuple[GaussianRational, ...]:
        """(mu_i^gamma - mu_im for every germ i), m 0-based, from the gap table."""
        table = self.once("gaps", dict)
        found = table.get((m, gamma))
        if found is None:
            found = table[(m, gamma)] = tuple(pw - row[m] for pw, row in zip(self.power(gamma), self.mu))
        return found

    def satisfies_relation(self, k) -> bool:
        """mu_i^k = 1 for every germ i, tested as mu^(k+) = mu^(k-)."""
        return self.power(max(e, 0) for e in k) == self.power(max(-e, 0) for e in k)


def _as_gauss(z) -> GaussianRational:
    if isinstance(z, GaussianRational):
        return z
    if isinstance(z, str):
        return GaussianRational.parse(z)
    return GaussianRational(z)


class RelationLattice(NamedTuple):
    """HNF basis of {k in Z^n : mu^k = 1 for all rows}, ambient dimension n."""

    basis: tuple[tuple[int, ...], ...]
    n: int

    @property
    def rank(self) -> int:
        return len(self.basis)

    def verify(self, eigen: EigenData) -> bool:
        return all(eigen.satisfies_relation(k) for k in self.basis)

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.basis]


def relation_lattice(eigen: EigenData) -> RelationLattice:
    """Exact relation lattice of the eigenvalue family.

    Row system: for every germ i and every element q of the Gaussian
    coprime base occurring in any mu[i][m], sum_m k_m * v_q(mu[i][m]) = 0;
    and per germ a unit row sum_m k_m * u_im - 4*t_i = 0 with auxiliary
    integer t_i.  The base elements are multiplicatively independent (see
    the module docstring), so these rows cut out the same lattice as rows
    over Gaussian primes would.  The kernel is projected back to the k
    coordinates and HNF-canonicalized, then re-verified by exact products.
    """
    p, n = eigen.p, eigen.n
    rows: list[list[int]] = []
    for i in range(p):
        factorizations = [eigen.factorization(i, m) for m in range(n)]
        exponents = [dict(f.factors) for f in factorizations]
        for q in dict.fromkeys(q for f in factorizations for q, _ in f.factors):
            rows.append([e.get(q, 0) for e in exponents] + [0] * p)
        unit_row = [f.unit_exp for f in factorizations] + [0] * p
        unit_row[n + i] = -4
        rows.append(unit_row)
    kernel = kernel_basis(rows, ncols=n + p)
    projected = [vec[:n] for vec in kernel]
    basis = row_hnf(projected)
    lattice = RelationLattice(tuple(tuple(r) for r in basis), n)
    if not lattice.verify(eigen):
        raise AssertionError("relation lattice failed exact re-verification")
    return lattice


class OmegaCone(NamedTuple):
    """Omega's span, exactly: see omega_cone."""

    zero: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    point: tuple[int, ...] | None
    separator: tuple[int, ...]


def omega_cone(eigen: EigenData) -> OmegaCone:
    """Omega's span from C = (L (x) Q) cap Q^n_{>=0}, L the relation
    lattice: `zero`, the coordinates (0-based) that all of C leaves at 0;
    `basis`, the HNF basis of M = L cap {x_zero = 0}; `point`, an Omega
    point v positive off `zero` (None when Omega is empty); `separator`, an
    integer w >= 0 orthogonal to L and positive on `zero`.

    Rank <= 1 is decided by signs.  Else a basis row >= 0 covers its
    support, and each coordinate j not yet covered takes one LP, x >= 0,
    x orthogonal to L^perp, x_j = 1, or else its dual, B w = 0, w >= 0,
    w_j = 1 with B the basis of L: by Tucker's alternative exactly one of
    them is feasible.  v and w sum the solutions of each kind, cleared of
    denominators, and v is multiplied by the product of M's HNF pivots,
    which puts it in M.

    M is the Z-span of Omega, so rank M = dim C: Omega lies in M, and each
    m in M is (m + t v) - t v, two Omega points for large t, since m and v
    vanish on `zero` and v is positive off it."""
    return eigen.once("omega_cone", lambda: _cone([list(row) for row in eigen.lattice.basis], eigen.n))


def _cone(basis: list[list[int]], n: int) -> OmegaCone:
    if len(basis) <= 1:
        row = basis[0] if basis else [0] * n
        if basis and min(row) >= 0:
            return OmegaCone(tuple(j for j in range(n) if not row[j]), (tuple(row),), tuple(row),
                             tuple(int(not x) for x in row))
        pos = sum(x for x in row if x > 0)  # else C = 0, and w balances the signs
        neg = pos - sum(row)
        return OmegaCone(tuple(range(n)), (), None, tuple(neg if x > 0 else pos if x < 0 else 1 for x in row))
    points, duals, perp = [row for row in basis if min(row) >= 0], [], None
    for j in range(n):
        if any(x[j] for x in points + duals):
            continue
        unit = [int(m == j) for m in range(n)]
        perp = kernel_basis(basis, ncols=n) if perp is None else perp
        x = rational_feasible(perp + [unit], [0] * len(perp) + [1])
        if x is not None:
            points.append(x)
            continue
        w = rational_feasible(basis + [unit], [0] * len(basis) + [1])
        if w is None:
            raise AssertionError(f"neither the Omega cone nor its dual is positive at coordinate {j + 1}")
        duals.append(w)
    zero = tuple(j for j in range(n) if not any(x[j] for x in points))
    # M = {y B : y in Z^rank, (y B)_zero = 0}
    ys = kernel_basis([[row[j] for row in basis] for j in zero], ncols=len(basis))
    span = row_hnf([[sum(a * row[c] for a, row in zip(y, basis)) for c in range(n)] for y in ys])
    pivots = math.prod(next(x for x in row if x) for row in span)
    point = tuple(pivots * x for x in _cleared(points, n)) if points else None
    return OmegaCone(zero, tuple(map(tuple, span)), point, _cleared(duals, n))


def _cleared(vectors: list, n: int) -> tuple[int, ...]:
    """The sum of rational n-vectors times the lcm of its denominators."""
    total = [sum((Fraction(v[c]) for v in vectors), Fraction(0)) for c in range(n)]
    scale = math.lcm(*(f.denominator for f in total))
    return tuple(int(f * scale) for f in total)


def enumerate_omega(eigen: EigenData, bound: int) -> tuple[MultiIndex, ...]:
    """Nonzero lattice points in N^n with total degree <= bound, in grlex
    order.  The eigen object keeps them, so one command walks to each bound
    once."""
    if bound < 1:
        raise UsageError("enumeration bound must be >= 1")
    return eigen.once(("omega", bound), lambda: _walk(eigen, [0] * eigen.n, 1, bound, eigen.satisfies_relation))


def _walk(eigen: EigenData, offset: list[int], low: int, bound: int, holds) -> tuple[MultiIndex, ...]:
    """The points of offset + lattice in N^n with low <= degree <= bound, in
    grlex order.  The walk visits only partial points that can still end in
    N^n at degree <= bound, and each point is re-checked exactly by `holds`,
    which reads the power table.  UsageError once it has visited
    MAX_WALK_NODES nodes."""
    n = eigen.n
    walk = lattice_points(eigen.lattice.basis, offset, bound, MAX_WALK_NODES)
    pts = []
    try:
        for pt in walk:
            if low <= sum(pt):
                if not holds(pt):
                    raise AssertionError(f"walked point {pt} failed its exact re-check")
                pts.append(pt)
    except WalkTooLong:
        raise UsageError(
            f"the lattice walk to degree {bound} in {n} variables passed {MAX_WALK_NODES} nodes; "
            "lower --bound-omega (or --degree)"
        ) from None
    pts.sort(key=grlex_key)
    return tuple(pts)


class ResonantSet(NamedTuple):
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


def resonant_set(eigen: EigenData, m: int, bound: int) -> ResonantSet:
    """Solutions of the resonance condition mu_im = mu_i^gamma for all i.

    m is 1-based.  Computed as (e_m + lattice) intersected with N^n in the
    degree range by the walk Omega uses, each point checked against the
    resonance gaps; the brute-force oracle comparison lives in the tests.
    """
    if not 1 <= m <= eigen.n:
        raise UsageError(f"component {m} out of range 1..{eigen.n}")
    if bound < 2:
        raise UsageError("resonant set bound must be >= 2")
    offset = [1 if j == m - 1 else 0 for j in range(eigen.n)]
    return ResonantSet(m, bound, _walk(eigen, offset, 2, bound, lambda pt: is_resonant_exponent(eigen, m, pt)))


def is_resonant_exponent(eigen: EigenData, m: int, gamma) -> bool:
    """mu_i^gamma = mu_im for every germ i (m 1-based): no resonance gap is nonzero."""
    return not any(eigen.gaps(m - 1, tuple(gamma)))


def vect_omega_rank(eigen: EigenData, enumeration_bound: int) -> tuple[int, int]:
    """(rank over Q of enumerated Omega points, rank of the full lattice).

    Both are reported: the vector space the paper takes is spanned by the
    nonnegative points only, and a finite enumeration can only bound its
    dimension from below.
    """
    return integer_rank(enumerate_omega(eigen, enumeration_bound)), eigen.lattice.rank
