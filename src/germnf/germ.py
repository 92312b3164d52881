"""Diffeomorphism germs fixing the origin, and commuting families.

A germ is stored as its degree-D jet: one TruncatedSeries per component,
all with zero constant term and an invertible linear part.  The germ
algebra accepts arbitrary invertible linear parts; the normalizer imposes
diagonality separately (eigen-decomposition over Q(i) is out of scope).
Invertibility is checked once, where a linear part enters from outside
(`germ_from_json`): compositions and inverses of invertible germs are
invertible, so `Germ` itself checks only the structure, and `invert_germ`
or `conjugate` by a singular germ still fails in `field_inverse`.

Each component is an integer-native jet (see `series`): Gaussian-integer
numerators over one denominator, in lowest terms, so germs compare and hash
by their stored jets and `GaussianRational` appears only where a coefficient
is read out (the linear matrix).  The wire format is read in one pass into
that storage, strings to packed keys and integer triples with no Fraction
(`germ_from_json`), and printed from the numerators.  compose_germ(f, g)
picks its algorithm from g: when g's linear part is exactly the identity,
g = id + h, it is the Taylor sum f(x + h) of `series.compose_shifted`;
otherwise all components are substituted through one `compose_all` call,
whose memo of monomial images is shared by the n components of f.

Composition convention: compose_germ(f, g) is f after g.  No inverse is
formed to divide on the left: one checked rounds loop (`_rounds`) gives the
Y_i with (id + h) o Y_i = g_i.  `conjugate_by_shift` runs it for a
near-identity step s = id + h given by its shift h alone, the normalizer's
step, after forming every g o s and psi o s in one Taylor sum.  `invert_germ`
and `conjugate` run it for any invertible linear part L: f o Y = g is
(id + h) o Y = A o g for A = L^{-1} and A o f = id + h (`_shift_form`).
"""

from __future__ import annotations

from .exactnum import GaussianRational, as_parts, parse_parts
from .linalg import field_inverse, field_rref
from .series import (
    TruncatedSeries,
    UsageError,
    check_jet_size,
    compose_all,
    compose_shifted,
    from_key_parts,
    grlex_key,
    identity_shift,
    pack,
)


class CommutationError(ValueError):
    """`require_commuting` found two germs that do not commute up to D."""

    def __init__(self, i: int, j: int, witness):
        self.witness = witness
        degree, component, exp, coeff = witness
        super().__init__(
            f"germs {i + 1} and {j + 1} do not commute: defect at degree {degree}, "
            f"component {component}, monomial {exp}, coefficient {coeff}"
        )


def _unit(j: int, n: int) -> tuple[int, ...]:
    return tuple(int(k == j) for k in range(n))


def _is_diagonal(mat: list[list[GaussianRational]]) -> bool:
    return all(a.is_zero() for i, row in enumerate(mat) for j, a in enumerate(row) if i != j)


class Germ:
    """Jet of a diffeomorphism germ fixing 0 in K^n, K = Q(i)."""

    __slots__ = ("n", "degree", "components")

    def __init__(self, components: list[TruncatedSeries]):
        comps = tuple(components)
        if not comps:
            raise UsageError("a germ needs at least one component")
        n = comps[0].n
        degree = comps[0].degree
        if len(comps) != n:
            raise UsageError(f"expected {n} components, got {len(comps)}")
        for c in comps:
            if c.n != n or c.degree != degree:
                raise UsageError("component dimension/degree mismatch")
            if not c.constant_term().is_zero():
                raise UsageError("germ components must vanish at the origin")
        self.n = n
        self.degree = degree
        self.components = comps

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int, degree: int) -> "Germ":
        return Germ([TruncatedSeries.variable(j, n, degree) for j in range(n)])

    @staticmethod
    def from_linear_matrix(matrix, degree: int) -> "Germ":
        n = len(matrix)
        return Germ([TruncatedSeries(n, degree, {_unit(j, n): a for j, a in enumerate(row)}) for row in matrix])

    # -- linear part --------------------------------------------------------

    def linear_matrix(self) -> list[list[GaussianRational]]:
        return [comp.linear_coeffs() for comp in self.components]

    def is_diagonal_linear(self) -> bool:
        return _is_diagonal(self.linear_matrix())

    def linear_diag(self) -> tuple[GaussianRational, ...]:
        mat = self.linear_matrix()
        if not _is_diagonal(mat):
            raise UsageError("linear part is not diagonal")
        return tuple(mat[j][j] for j in range(self.n))

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Germ):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    def __repr__(self):
        return f"<Germ n={self.n} D={self.degree} {self}>"


def compose_germ(f: Germ, g: Germ) -> Germ:
    """f o g (f after g), truncated at the shared degree.  When g = id + h
    (its linear part exactly the identity), f o g is the Taylor sum
    f(x + h) of `compose_shifted`; otherwise every monomial of f is
    substituted by `compose_all`."""
    if f.n != g.n or f.degree != g.degree:
        raise UsageError("germ composition dimension/degree mismatch")
    shift = identity_shift(g.components)
    if shift is None:
        return Germ(compose_all(f.components, g.components))
    return Germ(compose_shifted(f.components, shift))


def jet_through(components: list[TruncatedSeries], d: int) -> list[TruncatedSeries]:
    """The components without their terms above degree d."""
    return [c.part_up_to(d) for c in components] if d < components[0].degree else components


def _round_degrees(r: int, degree: int) -> range:
    return range(r - 1, degree, r - 1)  # the degree Y is exact through before each composing round


def _rounds(h: list[TruncatedSeries], targets) -> list[Germ]:
    """The checked jets Y with Y + h o Y = g for each target g (a list of
    components), h without constant or linear terms and of lowest degree r.
    The round Y <- g - h o Y from Y = 0 is exact through degree r - 1, each
    later one gains r - 1, and h is fed Y only through that degree, at most
    D - r + 1 (all h o Y reads).  Check (AssertionError): a fixed point: the
    last round gives Y = g - h o Y' for the Y' it was fed, so Y + h o Y =
    g - h o Y' + h o Y, which is g when Y through D - r + 1 is Y'."""
    degree = h[0].degree
    r = min(c.order() for c in h)
    solved = []
    for g in targets:
        y, fed = list(g), None
        for t in _round_degrees(r, degree):
            fed = jet_through(y, min(t, degree - r + 1))
            y = [a - b for a, b in zip(g, compose_all(h, fed))]
        if r <= degree and jet_through(y, degree - r + 1) != fed:
            raise AssertionError("germ solve failed verification: f o Y != g (no fixed point)")
        solved.append(Germ(y))
    return solved


def _shift_form(f: Germ) -> tuple[Germ, list[TruncatedSeries]]:
    """(A, h) with A = L^{-1} for f's linear part L, as a linear germ, and
    A o f = id + h: f o Y = g is the L = I solve of `_rounds` for A o g.
    Check (AssertionError): A o f has linear part I (so L L^{-1} = I)."""
    n, degree = f.n, f.degree
    rows = field_inverse([{j: as_parts(a) for j, a in enumerate(row) if a} for row in f.linear_matrix()])
    inverse = Germ([from_key_parts(n, degree, {pack(_unit(j, n)): t for j, t in row.items()}) for row in rows])
    h = identity_shift(compose_germ(inverse, f).components)
    if h is None:
        raise AssertionError("germ solve failed verification: L^-1 L is not the identity")
    return inverse, h


def invert_germ(f: Germ) -> Germ:
    """Two-sided inverse of f modulo degree > D, the checked solve of f o X = id."""
    inverse, h = _shift_form(f)
    return _rounds(h, [inverse.components])[0]


def conjugate(f: Germ, psi: Germ) -> Germ:
    """psi^{-1} o f o psi, the checked solve of psi o Y = f o psi."""
    inverse, h = _shift_form(psi)
    return _rounds(h, [compose_germ(compose_germ(inverse, f), psi).components])[0]


def conjugate_by_shift(germs: list[Germ], psi: Germ, h: list[TruncatedSeries]) -> tuple[list[Germ], Germ]:
    """(s^{-1} o g o s for every g, psi o s) for the near-identity step
    s = id + h, given by its shift h (no constant or linear terms).  One
    `compose_shifted` call forms every g o s and psi o s; the conjugates
    are the checked rounds of s o Y = g o s with L = I and N = h, so no
    linear part is inverted and s is never built as a germ."""
    n = len(h)
    shifted = compose_shifted([c for g in (*germs, psi) for c in g.components], h)
    parts = [shifted[k:k + n] for k in range(0, len(shifted), n)]
    return _rounds(h, parts[:-1]), Germ(parts[-1])


def commutativity_defect(f: Germ, g: Germ):
    """None when f o g = g o f up to D; otherwise the first witness term in
    (degree, component, graded-lex) order as (degree, component_1based,
    exponents, coefficient of fog - gof)."""
    fg = compose_germ(f, g)
    gf = compose_germ(g, f)
    worst = None
    for m in range(f.n):
        diff = fg.components[m] - gf.components[m]
        if diff.is_zero():
            continue
        exp = diff.support()[0]  # support() is sorted: this component's minimum
        key = (sum(exp), m, grlex_key(exp))
        if worst is None or key < worst[0]:
            worst = (key, (sum(exp), m + 1, exp, diff.coeff(exp)))
    return worst[1] if worst else None


class Family:
    """p germs sharing (n, D), meant to commute pairwise.  Construction does
    not check commutation: the CLI shows it once per command, at load by
    `require_commuting` or at the end (see `cli._commutation_once`)."""

    __slots__ = ("p", "n", "degree", "germs")

    def __init__(self, germs: list[Germ]):
        members = tuple(germs)
        if not members:
            raise UsageError("a family needs at least one germ")
        n, degree = members[0].n, members[0].degree
        for g in members:
            if g.n != n or g.degree != degree:
                raise UsageError("family members must share dimension and degree")
        if len(members) > n:
            raise UsageError("family has more germs than the ambient dimension")
        self.p = len(members)
        self.n = n
        self.degree = degree
        self.germs = members

    def linear_diags(self) -> list[tuple[GaussianRational, ...]]:
        return [g.linear_diag() for g in self.germs]

    def is_diagonal_linear(self) -> bool:
        return all(g.is_diagonal_linear() for g in self.germs)

    def __eq__(self, other):
        if not isinstance(other, Family):
            return NotImplemented
        return self.germs == other.germs


def require_commuting(fam: Family) -> Family:
    """The family, if every pair commutes up to D; else CommutationError."""
    for i, f in enumerate(fam.germs):
        for j in range(i + 1, fam.p):
            defect = commutativity_defect(f, fam.germs[j])
            if defect is not None:
                raise CommutationError(i, j, defect)
    return fam


# ---------------------------------------------------------------------------
# JSON wire format (schema 1)
# ---------------------------------------------------------------------------


def germ_to_json(g: Germ) -> dict:
    """The wire form: the linear part, read once, and the terms of degree
    >= 2 by component, each component's in graded-lex order."""
    mat = g.linear_matrix()
    entry: dict = {}
    if _is_diagonal(mat):
        entry["linear_diag"] = [str(mat[j][j]) for j in range(g.n)]
    else:
        entry["linear_matrix"] = [[str(a) for a in row] for row in mat]
    entry["terms"] = [
        {"component": m + 1, "exponents": exp, "coeff": coeff}
        for m, comp in enumerate(g.components)
        for exp, coeff in comp.term_strings(2)
    ]
    return entry


def _json_int(value, what: str) -> int:
    """An integer field of the wire format: floats, strings and booleans are
    rejected, never coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{what} must be an integer, got {value!r}")
    return value


def check_schema(data: dict) -> None:
    """The schema of family and eigen input: the int 1, not true or 1.0 (equal to 1 in Python)."""
    if type(data.get("schema")) is not int or data["schema"] != 1:
        raise UsageError("missing or unsupported schema field (expected 1)")


def _json_parts(value) -> tuple[int, int, int]:
    """A coefficient of the wire format, a string (`parse_parts`), as its
    triple; numbers and other JSON values are rejected, never coerced."""
    if not isinstance(value, str):
        raise UsageError(f"coefficient must be a string, got {value!r}")
    return parse_parts(value)


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise UsageError(f"{what} must be a list, got {value!r}")
    return value


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise UsageError(f"{what} must be an object, got {value!r}")
    return value


def germ_from_json(entry: dict, n: int, degree: int) -> Germ:
    """One map entry in one pass: repeated terms summed as triples, terms
    above D dropped, and no scalar built: the rank check eliminates the
    parsed linear triples, which need not be in lowest terms for a rank."""
    entry = _json_object(entry, "map entry")
    if "linear_diag" in entry:
        diag = [_json_parts(s) for s in _json_list(entry["linear_diag"], "linear_diag")]
        if len(diag) != n:
            raise UsageError("linear_diag length does not match n")
        linear = [{j: t} for j, t in enumerate(diag)]
    elif "linear_matrix" in entry:
        rows = _json_list(entry["linear_matrix"], "linear_matrix")
        mat = [[_json_parts(s) for s in _json_list(row, "linear_matrix row")] for row in rows]
        if len(mat) != n or any(len(r) != n for r in mat):
            raise UsageError("linear_matrix shape does not match n")
        linear = [dict(enumerate(row)) for row in mat]
    else:
        raise UsageError("map entry needs linear_diag or linear_matrix")
    if not n:
        raise UsageError("a germ needs at least one component")
    if len(field_rref(linear)[1]) < n:
        raise UsageError("linear part is singular; not a diffeomorphism germ")
    comps = [{pack(_unit(j, n)): t for j, t in row.items()} for row in linear]
    for term in _json_list(entry.get("terms", []), "terms"):
        term = _json_object(term, "term")
        try:
            m, exps, coeff = term["component"], term["exponents"], term["coeff"]
        except KeyError as exc:
            raise UsageError(f"missing field {exc.args[0]!r} in term") from None
        m = _json_int(m, "component")
        if not 1 <= m <= n:
            raise UsageError(f"component {m} out of range 1..{n}")
        exp = tuple(_json_int(e, "exponent") for e in _json_list(exps, "exponents"))
        if len(exp) != n:
            raise UsageError(f"exponents {exp} have wrong arity")
        if sum(exp) < 2:
            raise UsageError(f"terms must have degree >= 2 (linear part is separate): {exp}")
        if min(exp) < 0:
            raise UsageError(f"negative exponent in {exp}")
        c, e, f = _json_parts(coeff)
        if sum(exp) <= degree:
            comp, key = comps[m - 1], pack(exp)
            if key in comp:
                a, b, d = comp[key]
                c, e, f = a * f + c * d, b * f + e * d, d * f
            comp[key] = c, e, f
    return Germ([from_key_parts(n, degree, comp) for comp in comps])


def family_to_json(fam: Family) -> dict:
    return {
        "schema": 1,
        "n": fam.n,
        "p": fam.p,
        "degree": fam.degree,
        "maps": [germ_to_json(g) for g in fam.germs],
    }


def family_from_json(data: dict) -> Family:
    check_schema(data)
    for key in data:
        if key not in {"schema", "n", "p", "degree", "maps"}:
            raise UsageError(f"unknown field {key!r} in family input")
    try:
        n, degree, maps = data["n"], data["degree"], data["maps"]
    except KeyError as exc:
        raise UsageError(f"missing field {exc.args[0]!r} in family input") from None
    n, degree = _json_int(n, "n"), _json_int(degree, "degree")
    if degree < 2:
        raise UsageError("degree must be >= 2")
    check_jet_size(n, degree)
    maps = _json_list(maps, "maps")
    if "p" in data and _json_int(data["p"], "p") != len(maps):
        raise UsageError("declared p does not match the number of maps")
    germs = [germ_from_json(entry, n, degree) for entry in maps]
    return Family(germs)

