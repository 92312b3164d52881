import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from germnf.exactnum import GaussianRational as GR
from germnf.linalg import (
    field_inverse,
    field_kernel,
    field_rref,
    hnf_with_transform,
    integer_rank,
    kernel_basis,
    WalkTooLong,
    lattice_points,
    rational_feasible,
    row_hnf,
    solve_integer,
)

from helpers import gr_from_sympy, gr_to_sympy, nonzero_gaussians


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def _int_det(m):
    n = len(m)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for s in range(n):
            if seen[s]:
                continue
            ln, j = 0, s
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                ln += 1
            if ln % 2 == 0:
                sign = -sign
        prod = sign
        for i in range(n):
            prod *= m[i][perm[i]]
        total += prod
    return total


def test_hnf_transform_is_unimodular():
    rng = random.Random(3)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(rng.randint(1, 4))]
        h, u = hnf_with_transform(rows)
        assert _mat_mul(u, rows) == h
        assert abs(_int_det(u)) == 1


def test_hnf_shape():
    h = row_hnf([[0, 4], [1, 1]])
    assert h == [[1, 1], [0, 4]]
    # pivots positive, entries above pivots reduced
    h2 = row_hnf([[2, 2], [4, 0]])
    assert h2 == [[2, 2], [0, 4]]


def test_kernel_basis_annihilates_and_is_complete():
    rng = random.Random(9)
    for _ in range(40):
        m = rng.randint(1, 3)
        c = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(m)]
        kern = kernel_basis(rows, ncols=c)
        for vec in kern:
            assert all(sum(rows[i][j] * vec[j] for j in range(c)) == 0 for i in range(m))
        # completeness on a small box: every kernel point in the span
        span = row_hnf(kern) if kern else []
        for x in itertools.product(range(-2, 3), repeat=c):
            if all(sum(rows[i][j] * x[j] for j in range(c)) == 0 for i in range(m)):
                if not any(x):
                    continue
                assert solve_integer(
                    [[span[k][j] for k in range(len(span))] for j in range(c)], list(x)
                ) is not None


def test_solve_integer():
    assert solve_integer([[2, 4]], [6]) is not None
    assert solve_integer([[2, 4]], [3]) is None
    x = solve_integer([[1, 2, 3], [0, 1, 1]], [5, 2])
    assert x is not None and x[0] + 2 * x[1] + 3 * x[2] == 5 and x[1] + x[2] == 2
    assert solve_integer([[1, 2, 3], [0, 1, 1]], [0, 0]) == [0, 0, 0]
    # no rows: every x solves, and the solution has ncols zeros, as kernel_basis has ncols columns
    assert solve_integer([], [], ncols=3) == [0, 0, 0]
    assert solve_integer([], []) == []


def test_rank():
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 0], [0, 1]]) == 2


def test_lattice_points_against_brute_force():
    """The walk lists offset + L in N^n with coordinate sum <= max_sum, each
    point once, on signed HNF bases and signed offsets."""
    rng = random.Random(26)
    for _ in range(300):
        n = rng.randint(1, 4)
        basis = row_hnf([[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))])
        offset = [rng.randint(-2, 2) for _ in range(n)]
        max_sum = rng.randint(0, 8)
        got = list(lattice_points(basis, offset, max_sum, 10**6))

        def in_coset(pt):  # reduce pt - offset by the echelon rows
            d = [a - b for a, b in zip(pt, offset)]
            for row in basis:
                p = next(j for j, v in enumerate(row) if v)
                if d[p] % row[p]:
                    return False
                d = [a - d[p] // row[p] * b for a, b in zip(d, row)]
            return not any(d)

        brute = [pt for pt in itertools.product(range(max_sum + 1), repeat=n) if sum(pt) <= max_sum and in_coset(pt)]
        assert len(got) == len(set(got)) and sorted(got) == brute


def test_lattice_points_degree_bound_matches_the_filtered_box():
    """max_sum cuts the walk, not only its output: the points are those of a
    wider walk (a larger degree bound) with sum <= max_sum, in the same order,
    on bases with signed entries and signed offsets."""
    rng = random.Random(27)
    for _ in range(300):
        n = rng.randint(1, 4)
        basis = row_hnf([[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))])
        offset = [rng.randint(-2, 2) for _ in range(n)]
        max_sum = rng.randint(-3, 8)
        box = lattice_points(basis, offset, max_sum + rng.randint(0, 5), 10**6)
        got = list(lattice_points(basis, offset, max_sum, 10**6))
        assert got == [pt for pt in box if sum(pt) <= max_sum]


def test_lattice_points_node_cap_counts_visited_nodes():
    # full rank in N^3 to degree 10: C(14, 3) - 1 = 363 nodes, C(13, 3) - 1 = 285 nonzero points
    unit = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert len(list(lattice_points(unit, [0] * 3, 10, 363))) == 286
    with pytest.raises(WalkTooLong):
        list(lattice_points(unit, [0] * 3, 10, 362))
    # each row fixes a coordinate it moves negatively: only the origin lies in N^6, and
    # the walk to bound 1000 visits one node per row, not 1001^3 leaves
    signed = [[1, 0, -1, 0, 0, 0], [0, 1, 0, -1, 0, 0], [0, 0, 0, 0, 1, -1]]
    assert list(lattice_points(signed, [0] * 6, 1000, 3)) == [(0,) * 6]


def test_lattice_points_refuses_a_basis_out_of_hnf():
    with pytest.raises(ValueError):
        list(lattice_points([[0, 1], [1, 0]], [0, 0], 3, 100))


def test_rational_feasible():
    # x + y = 1, x - y = 0 -> (1/2, 1/2)
    point = rational_feasible(
        [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]],
        [Fraction(1), Fraction(0)],
    )
    assert point == [Fraction(1, 2), Fraction(1, 2)]
    # x + y = 1 with x + 2y = 3 forces y = 2, x = -1 < 0: infeasible
    assert rational_feasible(
        [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(2)]],
        [Fraction(1), Fraction(3)],
    ) is None
    # lambda1 + 2 lambda2 = 0, sum = 1 over nonnegatives: infeasible
    assert rational_feasible(
        [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(1)]],
        [Fraction(0), Fraction(1)],
    ) is None


def test_field_routines():
    one = Fraction(1)
    kern = field_kernel([{0: one, 1: one}], 3, one)
    assert kern == [{1: one, 0: -one}, {2: one}]
    inv = field_inverse([{0: Fraction(2), 1: one}, {0: one, 1: one}], one)
    assert inv == [{0: one, 1: -one}, {0: -one, 1: Fraction(2)}]
    with pytest.raises(ValueError):
        field_inverse([{0: one, 1: one}, {0: Fraction(2), 1: Fraction(2)}], one)
    rref, pivots = field_rref([{1: one}, {0: one, 1: Fraction(0)}, {}])
    assert pivots == [0, 1] and rref == [{0: one}, {1: one}]


# sparse elimination over Q(i) against sympy ----------------------------------

@st.composite
def _sparse_matrices(draw):
    """(rows, ncols): up to 8 x 10 sparse rows over Q(i), with zero rows,
    duplicate rows and combinations of earlier rows mixed in."""
    ncols = draw(st.integers(1, 10))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["random", "random", "zero", "duplicate", "combination"]))
        if kind == "zero" or (kind != "random" and not rows):
            rows.append({})
        elif kind == "duplicate":
            rows.append(dict(draw(st.sampled_from(rows))))
        elif kind == "combination":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(nonzero_gaussians), draw(nonzero_gaussians)
            combo = {c: s * a.get(c, GR(0)) + t * b.get(c, GR(0)) for c in set(a) | set(b)}
            rows.append({c: x for c, x in combo.items() if x})
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
            rows.append({c: draw(nonzero_gaussians) for c in sorted(cols)})
    return rows, ncols


class TestSparseElimination:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(_sparse_matrices())
    def test_matches_sympy_rref_over_gaussian_rationals(self, matrix):
        rows, ncols = matrix
        dense = sympy.Matrix([[gr_to_sympy(row.get(c, GR(0))) for c in range(ncols)] for row in rows])
        reduced, sympy_pivots = dense.rref()
        want = [
            {c: x for c in range(ncols) if (x := gr_from_sympy(reduced[i, c]))}
            for i in range(len(sympy_pivots))
        ]
        rref, pivots = field_rref(rows)
        assert pivots == list(sympy_pivots)
        assert rref == want
        assert all(all(x for x in row.values()) for row in rref)

        kernel = field_kernel(rows, ncols, GR(1))
        free = [c for c in range(ncols) if c not in pivots]
        assert kernel == [
            {fc: GR(1), **{pc: -row[fc] for pc, row in zip(pivots, want) if fc in row}}
            for fc in free
        ]
        for vec in kernel:
            for row in rows:
                assert sum((x * vec.get(c, GR(0)) for c, x in row.items()), GR(0)).is_zero()

    def test_row_order_does_not_change_the_result(self):
        rng = random.Random(4)
        for _ in range(20):
            rows = [
                {c: GR(rng.randint(-3, 3), rng.randint(-3, 3)) for c in range(6) if rng.random() < 0.4}
                for _ in range(5)
            ]
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert field_rref(rows) == field_rref(shuffled)
