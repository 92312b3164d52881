"""Truncated multivariate formal power series over Q(i).

A series is a jet: terms of total degree > D are discarded by every
operation.  The truncation degree is fixed per computation at parse time;
mixing degrees or dimensions raises UsageError rather than coercing.

Storage is sparse because normal forms are supported on resonant monomials
only, and integer-native: a series holds one positive denominator `_den`
and a dict `_terms` {key: (a, b)} of nonzero Gaussian-integer numerators,
the coefficient of x^e being (a + b*i) / _den.  Every operation returns its
result in lowest terms, gcd(_den, all a, all b) = 1 (zero is {} over 1), so
equal jets have equal storage and `==` and `hash` compare it directly.  The
ring operations, scaling, truncation and composition are plain integer
multiply-adds with one gcd per result.

The key of x^e in n variables is one int that packs the total degree |e|
and then e_1 ... e_n, FIELD bits each, e_n lowest:

    key = |e| << FIELD*n  |  e_1 << FIELD*(n-1)  |  ...  |  e_n.

Every field stays below 2^FIELD because the constructor refuses a
truncation degree D >= 2^FIELD and products form only keys of degree <= D.
So a product of monomials is the sum of their keys, |e| <= d is
key < (d + 1) << FIELD*n, the lowest degree is read from the smallest key,
graded-lex order is the order of key ^ (2^(FIELD*n) - 1) (the exponent
fields flipped), and dividing by x_j subtracts the key of x_j.

`GaussianRational` and exponent tuples stay the boundary types: the mapping
constructor takes {exponent tuple: scalar}, `scale` one scalar, and
`coeff` a tuple; `items` and `support` give tuples and scalars back, and
`to_term_list` exponent lists and coefficient strings.  Only
`keys_of_degree` hands out keys, which `unpack` turns into tuples;
`from_key_parts` takes keys (`pack`) with integer triples.

Composition has two kernels.  `compose_all` substitutes the components into
each monomial of the targets through one table of images x^gamma o g
(`_monomial_images`), from which `fixed_point_rows` also reads the integer
rows of F o g = F.  `compose_shifted` sums t(x + h), h of order >= 2
(`identity_shift`), as a Taylor series with far fewer products.

The scalar shares the coefficient representation, one (a + b*i) / d in
lowest terms, so a coefficient crosses the boundary as its integer triple
(`as_parts`, `from_parts`) with no Fraction built.  `support()` gives the
exponents without building coefficients, and `term_strings` prints the
coefficients straight from the numerators (`parts_str`).  Canonical term
order everywhere is graded lexicographic: ascending total degree, then x1
before x2 before ...
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .exactnum import DomainError, GaussianRational, ZERO, as_parts, from_parts, parts_str

MultiIndex = tuple[int, ...]


class UsageError(ValueError):
    """Structural misuse: mismatched dimensions/degrees, bad indices."""


MAX_JET_MONOMIALS = 20_000


def check_jet_size(n: int, degree: int) -> None:
    """UsageError when a jet in n variables to the degree has more than
    MAX_JET_MONOMIALS monomials, C(n + degree, n); checked where input
    fixes n and the degree, before any jet is built.  The binomial is
    accumulated as C(M + j, j), M = max(n, degree), and stops at the cap,
    so huge n or degree costs a handful of steps."""
    count, big = 1, max(n, degree)
    for j in range(1, min(n, degree) + 1):
        count = count * (big + j) // j
        if count > MAX_JET_MONOMIALS:
            raise UsageError(
                f"a jet in {n} variables to degree {degree} has more than "
                f"{MAX_JET_MONOMIALS} monomials"
            )


def grlex_key(exponents: MultiIndex):
    return (sum(exponents), tuple(-e for e in exponents))


FIELD = 16  # bits per exponent field of a packed key
_FIELD_MASK = (1 << FIELD) - 1


def _checked(exponents, n: int) -> MultiIndex:
    """The exponent tuple of a monomial in n variables; UsageError for an
    entry whose type is not exactly int (a float, bool or string is refused,
    not coerced), a wrong arity or a negative entry, which would pack into
    another key."""
    exp = tuple(exponents)
    for e in exp:
        if type(e) is not int:
            raise UsageError(f"exponent entry {e!r} in {exp} is not an int")
    if len(exp) != n:
        raise UsageError(f"exponent {exp} has wrong arity for n={n}")
    if min(exp) < 0:
        raise UsageError(f"negative exponent in {exp}")
    return exp


def pack(exp: MultiIndex) -> int:
    """The key of x^exp, whose entries and total degree are below 2^FIELD."""
    key = sum(exp)
    for e in exp:
        key = key << FIELD | e
    return key


def _unit(j: int, n: int) -> int:
    """The key of x_j."""
    return 1 << FIELD * n | 1 << FIELD * (n - 1 - j)


def unpack(key: int, n: int) -> MultiIndex:
    """The exponent tuple of a key in n variables."""
    return tuple(key >> s & _FIELD_MASK for s in range(FIELD * (n - 1), -1, -FIELD))


def grlex_sorted(keys, n: int) -> list[int]:
    """Keys in n variables in graded-lex order: by key ^ (2^(FIELD*n) - 1)."""
    return sorted(keys, key=((1 << FIELD * n) - 1).__xor__)


def _lowest_terms(terms: dict, den: int) -> tuple[dict, int]:
    """(terms, den) without zero numerators and divided by the gcd of den
    and all numerators; 1 over the zero series.  `terms` is consumed."""
    for e in [e for e, (a, b) in terms.items() if not (a or b)]:
        del terms[e]
    if not terms:
        return terms, 1
    g = den
    for a, b in terms.values():
        g = gcd(g, a, b)
        if g == 1:
            return terms, den
    return {e: (a // g, b // g) for e, (a, b) in terms.items()}, den // g


def from_key_parts(n: int, degree: int, parts: dict) -> "TruncatedSeries":
    """The series sum (a + b*i)/d x^key over {key: (a, b, d)}, each d > 0 and
    each key of degree <= D, in lowest terms: the constructor's tail."""
    den = lcm(*(d for _, _, d in parts.values()))
    return _canonical(n, degree, {e: (a * (den // d), b * (den // d)) for e, (a, b, d) in parts.items()}, den)


def _canonical(n: int, degree: int, terms: dict, den: int) -> "TruncatedSeries":
    """The series sum (a + b*i)/den x^e over terms {e: (a, b)}, in lowest terms."""
    out = object.__new__(TruncatedSeries)
    out.n, out.degree = n, degree
    out._terms, out._den = _lowest_terms(terms, den)
    return out


class TruncatedSeries:
    """Jet of a formal power series in n variables modulo degree > D."""

    __slots__ = ("n", "degree", "_terms", "_den")

    def __init__(self, n: int, degree: int, terms: Mapping[MultiIndex, GaussianRational] | None = None):
        if n < 1:
            raise UsageError("dimension must be >= 1")
        if degree < 0:
            raise UsageError("truncation degree must be >= 0")
        if degree >> FIELD:
            raise UsageError(f"truncation degree {degree} is not below 2^{FIELD}")
        parts = {}
        for exp, coeff in (terms or {}).items():
            exp = _checked(exp, n)
            if sum(exp) <= degree:
                parts[pack(exp)] = as_parts(coeff)
        out = from_key_parts(n, degree, parts)
        self.n, self.degree, self._terms, self._den = n, degree, out._terms, out._den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int, degree: int) -> "TruncatedSeries":
        return TruncatedSeries(n, degree)

    @staticmethod
    def constant(value, n: int, degree: int) -> "TruncatedSeries":
        return TruncatedSeries(n, degree, {(0,) * n: value})

    @staticmethod
    def variable(index: int, n: int, degree: int) -> "TruncatedSeries":
        if not 0 <= index < n:
            raise UsageError(f"variable index {index} out of range")
        exp = tuple(1 if j == index else 0 for j in range(n))
        return TruncatedSeries(n, degree, {exp: 1})

    @staticmethod
    def monomial(exponents: MultiIndex, coeff, degree: int) -> "TruncatedSeries":
        return TruncatedSeries(len(exponents), degree, {tuple(exponents): coeff})

    # -- basic queries -------------------------------------------------------

    def coeff(self, exponents: MultiIndex) -> GaussianRational:
        """The coefficient of x^exponents, zero above the truncation degree;
        UsageError for a malformed exponent tuple."""
        exp = _checked(exponents, self.n)
        return self._coeff_at(pack(exp)) if sum(exp) <= self.degree else ZERO

    def _coeff_at(self, key: int) -> GaussianRational:
        ab = self._terms.get(key)
        if ab is None:
            return ZERO
        return from_parts(ab[0], ab[1], self._den)

    def linear_coeffs(self) -> list[GaussianRational]:
        """The coefficients of x_1, ..., x_n."""
        return [self._coeff_at(_unit(j, self.n)) for j in range(self.n)]

    def _grlex_keys(self) -> list[int]:
        """The keys of the nonzero terms in graded-lex order."""
        return grlex_sorted(self._terms, self.n)

    def items(self) -> list[tuple[MultiIndex, GaussianRational]]:
        """Terms in graded-lex order (the canonical iteration order)."""
        return [(unpack(key, self.n), self._coeff_at(key)) for key in self._grlex_keys()]

    def support(self) -> list[MultiIndex]:
        """Exponents of the nonzero terms in graded-lex order."""
        return [unpack(key, self.n) for key in self._grlex_keys()]

    def term_strings(self, min_degree: int = 0) -> list[tuple[list[int], str]]:
        """(exponent list, str(coefficient)) of each term of total degree
        >= min_degree, in graded-lex order, printed from the numerators."""
        n, den, terms = self.n, self._den, self._terms
        start = min_degree << FIELD * n
        shifts = range(FIELD * (n - 1), -1, -FIELD)
        return [
            ([key >> s & _FIELD_MASK for s in shifts], parts_str(*terms[key], den))
            for key in self._grlex_keys()
            if key >= start
        ]

    def keys_of_degree(self, d: int) -> set[int]:
        """The keys of the nonzero terms of total degree d (see `unpack`)."""
        low, high = d << FIELD * self.n, (d + 1) << FIELD * self.n
        return {key for key in self._terms if low <= key < high}

    def order(self) -> int:
        """The lowest total degree of a nonzero term; degree + 1 for zero."""
        return min(self._terms) >> FIELD * self.n if self._terms else self.degree + 1

    def is_zero(self) -> bool:
        return not self._terms

    def is_real(self) -> bool:
        """True when every coefficient has zero imaginary part."""
        return not any(b for _, b in self._terms.values())

    def constant_term(self) -> GaussianRational:
        return self._coeff_at(0)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.n == other.n
            and self.degree == other.degree
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.n, self.degree, self._den, frozenset(self._terms.items())))

    # -- ring operations -----------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries"):
        if self.n != other.n or self.degree != other.degree:
            raise UsageError(
                f"series mismatch: (n={self.n}, D={self.degree}) vs (n={other.n}, D={other.degree})"
            )

    def _combine(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        """self + sign * other over the least common denominator."""
        self._check_compatible(other)
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        terms = {e: (a * fa, b * fa) for e, (a, b) in self._terms.items()}
        for e, (a, b) in other._terms.items():
            cur = terms.get(e)
            if cur is None:
                terms[e] = (a * fb, b * fb)
            else:
                terms[e] = (cur[0] + a * fb, cur[1] + b * fb)
        return _canonical(self.n, self.degree, terms, den)

    def _map(self, func, den: int = 1) -> "TruncatedSeries":
        """The series of func(key, a, b) -> (new key, new a, new b) over
        self._den * den."""
        terms = {}
        for k, (a, b) in self._terms.items():
            mapped = func(k, a, b)
            terms[mapped[0]] = mapped[1:]
        return _canonical(self.n, self.degree, terms, self._den * den)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "TruncatedSeries":
        return self.scale(-1)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """The truncated product.  Keys ka + kb < cutoff = (D + 1) << FIELD*n
        exactly when the degrees add up to <= D, and other's keys are
        scanned in ascending order, so each row stops at its first pair
        past D and no key with a field at 2^FIELD is ever formed."""
        self._check_compatible(other)
        cutoff = (self.degree + 1) << FIELD * self.n
        right = [(kb, br, bi) for kb, (br, bi) in sorted(other._terms.items())]
        terms: dict[int, tuple[int, int]] = {}
        get = terms.get
        for ka, (ar, ai) in self._terms.items():
            room = cutoff - ka
            for kb, br, bi in right:
                if kb >= room:
                    break
                key = ka + kb
                re = ar * br - ai * bi
                im = ar * bi + ai * br
                cur = get(key)
                if cur is None:
                    terms[key] = (re, im)
                else:
                    terms[key] = (cur[0] + re, cur[1] + im)
        return _canonical(self.n, self.degree, terms, self._den * other._den)

    def scale(self, value) -> "TruncatedSeries":
        p, q, d = as_parts(value)
        if p == d == 1 and not q:
            return self  # jets are immutable
        return self._map(lambda k, a, b: (k, a * p - b * q, a * q + b * p), d)

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise UsageError("negative series powers are not defined here")
        result, base, e = None, self, exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return TruncatedSeries.constant(1, self.n, self.degree) if result is None else result

    # -- jets ----------------------------------------------------------------

    def part_up_to(self, d: int) -> "TruncatedSeries":
        cutoff = (d + 1) << FIELD * self.n
        return _canonical(self.n, self.degree, {k: ab for k, ab in self._terms.items() if k < cutoff}, self._den)

    def truncate(self, new_degree: int) -> "TruncatedSeries":
        if new_degree > self.degree:
            raise UsageError("cannot raise the truncation degree of a jet")
        out = self.part_up_to(new_degree)  # a fresh object, so setting its degree is safe
        out.degree = new_degree
        return out

    # -- composition and transcendental jets ----------------------------------

    def compose(self, components: Iterable["TruncatedSeries"]) -> "TruncatedSeries":
        """Jet of self(g1, ..., gn); each g must have zero constant term."""
        return compose_all([self], components)[0]

    def exp0(self) -> "TruncatedSeries":
        """exp(w) for a jet w with w(0) = 0."""
        if not self.constant_term().is_zero():
            raise DomainError("exp0 requires zero constant term")
        result = TruncatedSeries.constant(1, self.n, self.degree)
        power = TruncatedSeries.constant(1, self.n, self.degree)
        fact = 1
        for t in range(1, self.degree + 1):
            power = power * self
            if power.is_zero():
                break
            fact *= t
            result = result + power.scale(Fraction(1, fact))
        return result

    def divide_by_variable(self, index: int) -> "TruncatedSeries":
        """Exact division by x_index; raises DomainError if any term lacks it.

        The quotient is returned at the same truncation degree (it is a
        polynomial of degree <= D - 1, so no information is invented)."""
        n = self.n
        if not 0 <= index < n:
            raise UsageError(f"variable index {index} out of range")
        unit, shift = _unit(index, n), FIELD * (n - 1 - index)

        def lower(k, a, b):
            if not k >> shift & _FIELD_MASK:
                raise DomainError(f"term {unpack(k, n)} is not divisible by variable {index + 1}")
            return k - unit, a, b

        return self._map(lower)

    # -- serialization ---------------------------------------------------------

    def to_term_list(self) -> list[dict]:
        return [{"exponents": exp, "coeff": c} for exp, c in self.term_strings()]

    def __str__(self):
        if not self._terms:
            return "0"
        names = _variable_names(self.n)
        parts = []
        for exp, c in self.items():
            mono = "".join(
                f"{names[j]}" + (f"^{e}" if e > 1 else "")
                for j, e in enumerate(exp)
                if e
            )
            coeff_txt = str(c)
            if mono:
                if c.is_one():
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    wrap = f"({coeff_txt})" if ("+" in coeff_txt[1:] or "-" in coeff_txt[1:]) else coeff_txt
                    parts.append(f"{wrap}*{mono}")
            else:
                parts.append(coeff_txt)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"<TruncatedSeries n={self.n} D={self.degree} {self}>"


def _monomial_images(comps: list[TruncatedSeries]):
    """The memo image(key) = x^gamma o g that `compose_all` and
    `fixed_point_rows` read, for a map g of n components in n variables.  A
    missing image is (x^(gamma - e_k) o g) * g_k, k the last variable of
    gamma (the lowest nonzero field of its key): one product per monomial."""
    if not comps:
        raise UsageError("composition needs at least one component series")
    n, degree = comps[0].n, comps[0].degree
    if len(comps) != n:
        raise UsageError(f"a map in {n} variables needs {n} component series")
    for g in comps:
        if g.n != n or g.degree != degree:
            raise UsageError("composition component mismatch")
        if 0 in g._terms:
            raise DomainError("composition requires zero constant terms")
    units = [_unit(k, n) for k in range(n)]
    images: dict[int, TruncatedSeries] = {0: _canonical(n, degree, {0: (1, 0)}, 1)}
    images.update(zip(units, comps))

    def image(key: int) -> TruncatedSeries:
        found = images.get(key)
        if found is None:
            k = n - 1 - ((key & -key).bit_length() - 1) // FIELD
            found = images[key] = image(key - units[k]) * comps[k]
        return found

    return image


def compose_all(
    targets: Iterable[TruncatedSeries], components: Iterable[TruncatedSeries]
) -> list[TruncatedSeries]:
    """Jets of t(g1, ..., gn) for every target t; each g must have zero
    constant term and the targets' degree.  All targets share one
    `_monomial_images` memo, and a target's coefficients are applied to
    the images as one integer linear combination."""
    comps = list(components)
    image = _monomial_images(comps)
    n, degree = comps[0].n, comps[0].degree
    out = []
    for target in targets:
        if target.n != len(comps):
            raise UsageError(f"composition needs {target.n} component series")
        if target.degree != degree:
            raise UsageError("composition component mismatch")
        parts = [(a, b, image(key)) for key, (a, b) in target._terms.items()]
        den = lcm(*(img._den for _, _, img in parts))
        terms: dict[int, tuple[int, int]] = {}
        get = terms.get
        for p, q, img in parts:
            f = den // img._den
            p, q = p * f, q * f
            for e, (a, b) in img._terms.items():
                re = a * p - b * q
                im = a * q + b * p
                cur = get(e)
                if cur is None:
                    terms[e] = (re, im)
                else:
                    terms[e] = (cur[0] + re, cur[1] + im)
        out.append(_canonical(n, degree, terms, den * target._den))
    return out


def fixed_point_rows(components: list[TruncatedSeries], columns: list[MultiIndex]) -> list[dict]:
    """The conditions F o g = F on F = sum_j c_j x^(columns[j]): one sparse
    row {j: nonzero entry} per monomial x^delta, in graded-lex order.  The
    entry is from_parts(a - [delta == gamma]*den, b, den) for gamma =
    columns[j] and (a + b*i)/den the coefficient of x^delta in x^gamma o g,
    read off the `_monomial_images` memo: no jet per column, none subtracted."""
    image, n = _monomial_images(components), len(components)
    rows: dict[int, dict] = {}
    for j, gamma in enumerate(columns):
        key = pack(_checked(gamma, n))
        img = image(key)
        den, terms = img._den, dict(img._terms)
        a, b = terms.get(key, (0, 0))
        terms[key] = (a - den, b)
        for delta, (a, b) in terms.items():
            if a or b:
                rows.setdefault(delta, {})[j] = from_parts(a, b, den)
    return [rows[key] for key in grlex_sorted(rows, n)]


def identity_shift(components: list[TruncatedSeries]) -> list[TruncatedSeries] | None:
    """The h_m with g_m = x_m + h_m, h without linear terms, when the linear
    part of the components g is exactly the identity; else None.  Decided
    from the n degree-1 slots of each component, without a pass over its
    other terms."""
    n = len(components)
    units = [_unit(k, n) for k in range(n)]
    shift = []
    for unit, g in zip(units, components):
        terms = g._terms
        if terms.get(unit) != (g._den, 0) or sum(u in terms for u in units) != 1:
            return None
        shift.append(_canonical(n, g.degree, {k: ab for k, ab in terms.items() if k != unit}, g._den))
    return shift


def compose_shifted(
    targets: Iterable[TruncatedSeries], h: list[TruncatedSeries]
) -> list[TruncatedSeries]:
    """Jets of t(x + h) for every target t, where h has neither constant
    nor linear terms (its lowest degree `low` is >= 2).

    The Taylor sum t(x + h) = sum_beta (d^beta t / beta!)(x) h^beta is
    evaluated in Horner form over the multi-indices beta, each taken once as
    a non-decreasing index sequence:

        V(beta) = c_beta + sum_{j >= last(beta), h_j != 0} h_j * V(beta + e_j),

    with c_beta = d^beta t / beta! and t(x + h) = V(0).  A child's c is the
    parent's differentiated once, c_(beta + e_j) = (d_j c_beta) / beta'_j
    with beta'_j the multiplicity of j in beta + e_j: integer multiples of
    the numerators over a denominator times beta'_j.  h^beta starts at
    degree |beta| * low, so V(beta) is read only through D - |beta| * low:
    c_beta is kept only through that degree, and the sum stops at
    |beta| = D // low.  (Terms a product puts above it, possible only when h
    is not homogeneous, fall past D in the next product.)  So only a few
    Taylor terms are formed, where substituting every monomial of t
    (`compose_all`) builds the image of each one.  Products go through
    `TruncatedSeries.__mul__`; each V(beta) is one accumulation over the
    least common denominator and one `_canonical`."""
    n, degree = len(h), h[0].degree
    for g in h:
        if g.n != n or g.degree != degree:
            raise UsageError("composition component mismatch")
    active = [j for j, g in enumerate(h) if g._terms]
    low = min(g.order() for g in h)
    if low < 2:
        raise DomainError("a Taylor shift needs h without constant or linear terms")
    units = [_unit(j, n) for j in range(n)]

    def value(terms: dict, den: int, first: int, size: int, mult: int) -> TruncatedSeries:
        """V(beta) for c_beta = terms / den, |beta| = size, beta's last index
        active[first] with multiplicity mult (first = mult = 0 at the root)."""
        reach = degree - (size + 1) * low  # a child V is read through this degree
        cutoff = (reach + 2) << FIELD * n  # keys of degree <= reach + 1
        products = []
        for q in range(first, len(active) if reach >= 0 else first):
            j = active[q]
            unit, shift = units[j], FIELD * (n - 1 - j)
            child = {}
            for k, (a, b) in terms.items():
                if k < cutoff:
                    e = k >> shift & _FIELD_MASK
                    if e:
                        child[k - unit] = (a * e, b * e)
            if child:
                count = mult + 1 if q == first else 1  # the multiplicity of j in beta + e_j
                products.append(h[j] * value(child, den * count, q, size + 1, count))
        if not products:
            return _canonical(n, degree, dict(terms), den)
        total = lcm(den, *(p._den for p in products))
        f = total // den
        acc = {e: (a * f, b * f) for e, (a, b) in terms.items()}
        get = acc.get
        for p in products:
            f = total // p._den
            for e, (a, b) in p._terms.items():
                cur = get(e)
                if cur is None:
                    acc[e] = (a * f, b * f)
                else:
                    acc[e] = (cur[0] + a * f, cur[1] + b * f)
        return _canonical(n, degree, acc, total)

    out = []
    for target in targets:
        if target.n != n or target.degree != degree:
            raise UsageError("composition component mismatch")
        out.append(value(target._terms, target._den, 0, 0, 0))
    return out


def _variable_names(n: int) -> list[str]:
    if n <= 3:
        return ["x", "y", "z"][:n]
    return [f"x{j + 1}" for j in range(n)]
