"""Exact linear algebra: integer lattices and field elimination.

Integer routines use row-style Hermite normal form with positive pivots,
which makes every lattice basis in the engine canonical and reports
diffable.  Field routines run over any of the exact coefficient types
(Fraction, GaussianRational) that support +, -, *, / and are false exactly
when zero; their matrices are sparse rows {column: nonzero value}.
"""

from __future__ import annotations

from fractions import Fraction


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf_with_transform(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row HNF with unimodular transform: returns (H, U) with U*A = H.

    H keeps its zero rows (at the bottom) so U rows stay aligned; pivots are
    positive and entries above each pivot are reduced into [0, pivot).
    """
    return _hnf(rows, [[1 if i == j else 0 for j in range(len(rows))] for i in range(len(rows))])


def _hnf(rows: list[list[int]], u: list[list]) -> tuple[list[list[int]], list[list]]:
    """hnf_with_transform, with every row operation also applied to u, one
    row per row of A: the identity gives U, and empty rows track nothing."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, m):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        u[r], u[pivot_row] = u[pivot_row], u[r]
        for i in range(r + 1, m):
            if not a[i][c]:
                continue
            g, s, t = _ext_gcd(a[r][c], a[i][c])
            p, q = a[r][c] // g, a[i][c] // g
            row_r, row_i = a[r], a[i]
            urow_r, urow_i = u[r], u[i]
            a[r] = [s * x + t * y for x, y in zip(row_r, row_i)]
            a[i] = [p * y - q * x for x, y in zip(row_r, row_i)]
            u[r] = [s * x + t * y for x, y in zip(urow_r, urow_i)]
            u[i] = [p * y - q * x for x, y in zip(urow_r, urow_i)]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    return a, u


def row_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Canonical HNF basis of the lattice spanned by the rows (zero rows
    dropped).  No transform is tracked: an m x m one would cost O(m^2) per
    step on the thousands of Omega points a large bound walks."""
    h, _ = _hnf(rows, [[] for _ in rows])
    return [r for r in h if any(r)]


def integer_rank(rows: list[list[int]]) -> int:
    return len(row_hnf(rows))


def kernel_basis(rows: list[list[int]], ncols: int | None = None) -> list[list[int]]:
    """Canonical basis of {x in Z^c : A x = 0} for integer A given by rows."""
    m = len(rows)
    n = ncols if ncols is not None else (len(rows[0]) if m else 0)
    if n == 0:
        return []
    if m == 0:
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    transpose = [[rows[i][j] for i in range(m)] for j in range(n)]
    h, u = hnf_with_transform(transpose)
    kernel = [u[i] for i in range(n) if not any(h[i])]
    return row_hnf(kernel)


def solve_integer(rows: list[list[int]], rhs: list[int], ncols: int | None = None) -> list[int] | None:
    """One integer solution x in Z^c of A x = b, or None when none exists;
    x = 0 whenever b = 0, and a system with no rows gives c zeros."""
    m = len(rows)
    n = ncols if ncols is not None else (len(rows[0]) if m else 0)
    if m != len(rhs):
        raise ValueError("rhs length mismatch")
    if m == 0:
        return [0] * n
    transpose = [[rows[i][j] for i in range(m)] for j in range(n)]
    h, u = hnf_with_transform(transpose)  # A * U^T = H^T
    residual = list(rhs)
    y = [0] * n
    for j in range(n):
        col = h[j]
        if not any(col):
            break
        p = next(i for i, v in enumerate(col) if v)
        if residual[p] % col[p]:
            return None
        y[j] = residual[p] // col[p]
        for i in range(m):
            residual[i] -= y[j] * col[i]
    if any(residual):
        return None
    x = [0] * n
    for j in range(n):
        if y[j]:
            for c in range(n):
                x[c] += y[j] * u[j][c]
    for i in range(m):
        if sum(rows[i][c] * x[c] for c in range(n)) != rhs[i]:
            raise AssertionError("integer solve verification failed")
    return x


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


class WalkTooLong(Exception):
    """A lattice walk reached its node cap before it was done."""


def lattice_points(basis: list[list[int]], offset: list[int], max_sum: int, max_nodes: int):
    """All points offset + Z-combinations of basis rows in N^n with
    coordinate sum at most max_sum.  Yields tuples in a deterministic order.

    basis must be in row HNF, so row l is the last row to move its pivot
    coordinate and every coordinate that no later row moves: those are
    fixed once row l's coefficient a is chosen.  Each fixed coordinate
    c + a*v >= 0 bounds a, and so does the sum of the fixed coordinates,
    now + a*step <= max_sum, since the free ones add at least 0.  So every
    node of the walk is a consistent partial point and the walk's cost is
    its node count, which raises WalkTooLong past max_nodes."""
    n = len(offset)
    last, pivot = [-1] * n, -1  # the last row that moves each coordinate
    for level, row in enumerate(basis):
        p = next(i for i, v in enumerate(row) if v)
        if row[p] <= 0 or p <= pivot:
            raise ValueError("basis must be in row HNF with positive pivots")
        pivot = p
        for j, v in enumerate(row):
            if v:
                last[j] = level
    # per row: the coordinates it fixes with their entries, and their sum
    k, start = len(basis), 0
    levels = [[[], 0] for _ in basis]
    for j, level in enumerate(last):
        if level < 0:
            if offset[j] < 0:
                return
            start += offset[j]
        else:
            levels[level][0].append((j, basis[level][j]))
            levels[level][1] += basis[level][j]
    if start > max_sum:
        return
    nodes = 0

    def rec(level: int, current: list[int], fixed_sum: int):
        nonlocal nodes
        if level == k:
            yield tuple(current)
            return
        row, (fixes, step) = basis[level], levels[level]
        now = fixed_sum + sum(current[j] for j, _ in fixes)
        # c + a*v >= 0 for each fixed coordinate and for the slack max_sum - now - a*step:
        # the pivot bounds a below, and a negative entry or else step > 0 bounds it above
        lows, highs = [], []
        for c, v in [(current[j], v) for j, v in fixes] + [(max_sum - now, -step)]:
            if v > 0:
                lows.append(_ceil_div(-c, v))
            elif v < 0:
                highs.append(-c // v)
            elif c < 0:
                return
        a_lo, a_hi = max(lows), min(highs)
        if a_hi < a_lo:
            return
        nodes += a_hi - a_lo + 1
        if nodes > max_nodes:
            raise WalkTooLong(f"the walk passed {max_nodes} nodes")
        for a in range(a_lo, a_hi + 1):
            yield from rec(level + 1, [current[j] + a * row[j] for j in range(n)], now + a * step)

    yield from rec(0, list(offset), start)


# ---------------------------------------------------------------------------
# Field elimination on sparse rows (Fraction and GaussianRational alike)
# ---------------------------------------------------------------------------


def _subtract(row: dict, f, pivot_row: dict) -> None:
    """row -= f * pivot_row in place, dropping entries that cancel."""
    g = -f
    for c, y in pivot_row.items():
        x = row.get(c)
        if x is None:
            row[c] = g * y
        else:
            x = x + g * y
            if x:
                row[c] = x
            else:
                del row[c]


def field_rref(rows: list[dict]) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form over a field; returns (rref rows, pivot cols).

    A row is a dict {column: value}; zero values are dropped, and every
    output row holds only its nonzero entries.  Rows are reduced one at a
    time against the pivot rows found so far, so zero entries cost nothing.
    The reduced echelon basis of a row space is unique, so the result does
    not depend on the order of the rows.
    """
    echelon: dict[int, dict] = {}
    for given in rows:
        row = {c: x for c, x in given.items() if x}
        for c in [c for c in row if c in echelon]:
            _subtract(row, row[c], echelon[c])
        if not row:
            continue
        pivot = min(row)
        inv = row[pivot]
        row = {c: x / inv for c, x in row.items()}
        for other in echelon.values():
            if pivot in other:
                _subtract(other, other[pivot], row)
        echelon[pivot] = row
    pivots = sorted(echelon)
    return [echelon[c] for c in pivots], pivots


def field_kernel(rows: list[dict], ncols: int, one) -> list[dict]:
    """Basis of the right kernel in columns 0..ncols-1, as sparse vectors.

    `one` is the field's unit (e.g. Fraction(1)).  Each basis vector has a
    1 in its free column, in increasing order of that column.
    """
    rref, pivots = field_rref(rows)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = {fc: one}
        for pc, row in zip(pivots, rref):
            if fc in row:
                vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def field_inverse(rows: list[dict], one) -> list[dict]:
    """Inverse of a square n x n matrix given by n sparse rows; raises
    ValueError if singular."""
    n = len(rows)
    aug = [{**row, n + i: one} for i, row in enumerate(rows)]
    rref, pivots = field_rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [{c - n: x for c, x in row.items() if c >= n} for row in rref[:n]]


# ---------------------------------------------------------------------------
# Exact rational feasibility (phase-1 simplex)
# ---------------------------------------------------------------------------


def rational_feasible(eq_rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve {x >= 0 : A x = b} exactly over Q.

    Phase-1 simplex with Bland's rule on Fractions; returns one feasible
    point or None.  Sizes here are tiny (convex-hull membership tests), so
    no effort is spent on performance.
    """
    m = len(eq_rows)
    n = len(eq_rows[0]) if m else 0
    if m == 0:
        return [Fraction(0)] * n
    a = [list(map(Fraction, row)) for row in eq_rows]
    b = [Fraction(v) for v in rhs]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    # tableau with artificial basis; minimize sum of artificials
    tab = [a[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] -= tab[i][j]
    for j in range(n, n + m):
        cost[j] += Fraction(1)
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        ratios = [
            (tab[i][-1] / tab[i][enter], i)
            for i in range(m)
            if tab[i][enter] > 0
        ]
        if not ratios:
            raise AssertionError("phase-1 objective unbounded")
        _, leave = min(ratios, key=lambda t: (t[0], basis[t[1]]))
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    if -cost[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
        elif tab[i][-1] != 0:
            return None  # artificial stuck at positive level
    for i in range(m):
        acc = sum((eq_rows[i][j] * x[j] for j in range(n)), Fraction(0))
        if acc != rhs[i]:
            raise AssertionError("simplex verification failed")
    return x
