import itertools
import json
import random
import signal
import time
from fractions import Fraction
from math import gcd, log2

import pytest

from lspectra import abelian
from lspectra.abelian import (
    EnumerationBoundError,
    FgAbGroup,
    IntMatrix,
    cokernel,
    cokernel_with_gens,
    ext_group,
    extension_candidates,
    hom_group,
    hom_is_well_defined,
    kernel_basis,
    map_kernel_group,
    maps_exact,
    smith_normal_form,
)

from lspectra.chain import IntComplex
from lspectra.cli import main
from lspectra.forms import brown_kervaire
from lspectra.ltables import verify_classical
from lspectra.poincare import linking_form

from helpers import (
    add_in,
    block_diagonal,
    canonical_by_primes,
    combination_by_entry,
    elements_of,
    ext_by_resolution,
    from_blocks_by_entry,
    from_columns_by_entry,
    group_from_annihilator_counts,
    hidden_e_tensor_f_plus_h,
    lattice_eq,
    hom_by_enumeration,
    hstack_by_entry,
    kernel_by_entry,
    kron_by_entry,
    minors_gcd_invariant_factors,
    product_by_entry,
    random_group,
    random_matrix,
    scale_in,
    shaped,
    solve_by_entry,
    transpose_by_entry,
)


Z = FgAbGroup.free(1)


class TestSmithNormalForm:
    def test_reduction_example(self):
        # oracle: gcds of minors give the invariant factors
        a = IntMatrix([[2, 4], [6, 8]])
        r = smith_normal_form(a)
        assert r.diagonal() == [2, 4]
        assert minors_gcd_invariant_factors(a) == [2, 4]
        assert r.U @ a @ r.V == r.D

    def test_identity(self):
        a = IntMatrix.identity(3)
        assert smith_normal_form(a).D == a

    def test_zero(self):
        a = IntMatrix.zero(2, 3)
        assert smith_normal_form(a).D == a

    def test_random_identity_and_divisibility(self):
        rng = random.Random(7)
        for _ in range(60):
            a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            r = smith_normal_form(a)
            assert r.U @ a @ r.V == r.D
            assert abs(r.U.det()) == 1
            assert abs(r.V.det()) == 1
            diag = [d for d in r.diagonal() if d]
            for x, y in zip(diag, diag[1:]):
                assert y % x == 0
            assert diag == minors_gcd_invariant_factors(a)

    def test_kernel_and_solve(self):
        a = IntMatrix([[2, 4, 1], [0, 0, 3]])
        k = kernel_basis(a)
        for j in range(k.cols):
            col = [k[i, j] for i in range(k.rows)]
            assert all(sum(a[i, l] * col[l] for l in range(3)) == 0 for i in range(2))
        x = smith_normal_form(a).solve([3, 3])
        assert x is not None
        assert [sum(a[i, l] * x[l] for l in range(3)) for i in range(2)] == [3, 3]
        assert smith_normal_form(IntMatrix([[2]])).solve([1]) is None


# A dense 11 x 11 matrix with 9-bit entries on which the smallest-pivot
# Smith loop grew transforms with entries of some 86 000 bits.
DENSE_11 = [
    [-8, -43, 38, 54, 0, 1, 8, 8, -16, 19, 18],
    [93, 43, -4, -178, -97, 0, -67, -38, -8, -11, -22],
    [10, 32, -16, -38, -7, -1, -8, -6, 6, -17, -11],
    [18, 63, -60, -102, -6, 0, -18, -15, 24, -21, -30],
    [-83, -44, -2, 144, 88, 0, 55, 32, 10, 17, 17],
    [122, 0, 38, -186, -136, -1, -88, -45, -28, 10, -8],
    [165, -127, 156, -126, -205, -4, -115, -48, -80, 63, 40],
    [-108, -13, -18, 170, 117, 1, 76, 41, 18, -2, 11],
    [315, -61, 156, -402, -363, -4, -221, -108, -96, 45, 8],
    [4, -20, 44, 56, -14, 0, 8, 6, -20, -2, 18],
    [134, -60, 98, -148, -161, -2, -96, -43, -54, 35, 15],
]


def _transform_bits(snf):
    return max((abs(x).bit_length() for M in (snf.U, snf.V) for row in M.entries for x in row),
               default=0)


def _sparse_matrix(rng, rows, cols, density=0.25):
    return IntMatrix([[rng.choice((1, -1)) if rng.random() < density else 0 for _ in range(cols)]
                      for _ in range(rows)], shape=(rows, cols))


def _checked_diagonal(a):
    """The diagonal of D, once U·A·V = D, |det U| = |det V| = 1, the chain and
    the transform-free path's diagonal have been checked."""
    snf = smith_normal_form(a)
    assert snf.U @ a @ snf.V == snf.D
    assert abs(snf.U.det()) == 1 and abs(snf.V.det()) == 1
    diag = snf.diagonal()
    nonzero = [d for d in diag if d]
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    assert all(d > 0 for d in nonzero)
    assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
    assert abelian._smith(a.entries, a.rows, a.cols)[0] == nonzero
    assert cokernel(a) == FgAbGroup(a.rows - len(nonzero), tuple(d for d in nonzero if d > 1))
    return diag


def _sympy_invariant_factors(a):
    sympy = pytest.importorskip("sympy")
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    return [int(d) for d in normalforms.invariant_factors(sympy.Matrix(a.tolist()), domain=sympy.ZZ)]


class TestBoundedSmith:
    """Hermite rows, then Smith of the Hermite matrix: oracles at every size."""

    def test_small_against_minors(self):
        for a in _oracle_matrices(14, count=150, max_dim=5):
            diag = _checked_diagonal(a)
            assert [d for d in diag if d] == minors_gcd_invariant_factors(a)

    @pytest.mark.parametrize("rows, cols", [(6, 6), (8, 11), (12, 9), (16, 16), (20, 20),
                                            (24, 18), (30, 30)])
    def test_dense_against_sympy(self, rows, cols):
        rng = random.Random(1000 * rows + cols)
        r = min(rows, cols) - 3  # and one of rank r, a product through Z^r
        for a in (_shaped_matrix(rng, rows, cols),
                  _shaped_matrix(rng, rows, r, -3, 3) @ _shaped_matrix(rng, r, cols, -3, 3)):
            assert _checked_diagonal(a) == _sympy_invariant_factors(a)

    @pytest.mark.parametrize("rows, cols", [(10, 10), (20, 15), (30, 30), (35, 40), (40, 40)])
    def test_sparse_against_sympy(self, rows, cols):
        rng = random.Random(1000 * rows + cols)
        for density in (0.1, 0.25):
            a = _sparse_matrix(rng, rows, cols, density)
            assert _checked_diagonal(a) == _sympy_invariant_factors(a)

    def test_dense_11_regression(self):
        a = IntMatrix(DENSE_11)
        start = time.perf_counter()
        snf = smith_normal_form(a)
        assert time.perf_counter() - start < 0.5
        assert snf.diagonal() == [1, 1, 1, 1, 2, 2, 2, 2, 0, 0, 0]
        assert _transform_bits(snf) < 1000
        assert _checked_diagonal(a) == snf.diagonal()

    @pytest.mark.parametrize("kind", ["dense 40", "sparse 80"])
    def test_large_inputs_stay_fast_and_small(self, kind):
        rng = random.Random(40)
        a = _shaped_matrix(rng, 40, 40) if kind == "dense 40" else _sparse_matrix(rng, 80, 80)
        start = time.perf_counter()
        snf = smith_normal_form(a)
        assert time.perf_counter() - start < 1.0
        assert snf.U @ a @ snf.V == snf.D
        assert _transform_bits(snf) < 1000


def _shaped_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], shape=(rows, cols)
    )


def _oracle_matrices(seed, count=120, max_dim=8):
    """Seeded mix of empty, non-square, full-rank and rank-deficient matrices."""
    rng = random.Random(seed)
    out = [IntMatrix.zero(0, 3), IntMatrix.zero(4, 0), IntMatrix.zero(0, 0), IntMatrix.zero(3, 5)]
    for _ in range(count):
        rows, cols = rng.randint(0, max_dim), rng.randint(0, max_dim)
        if rng.random() < 0.5 and rows and cols:
            # rank at most r: a product through Z^r
            r = rng.randint(0, min(rows, cols) - 1)
            out.append(_shaped_matrix(rng, rows, r, -3, 3) @ _shaped_matrix(rng, r, cols, -3, 3))
        else:
            out.append(_shaped_matrix(rng, rows, cols))
    return out


def _apply(a, x):
    return [sum(a[i, j] * x[j] for j in range(a.cols)) for i in range(a.rows)]


class TestFromColumns:
    @pytest.mark.parametrize("rows,cols", [
        (0, []),
        (3, []),
        (0, [[], []]),
        (2, [[1, 2], [3, 4], [5, 6]]),
    ])
    def test_equals_hand_written_transpose(self, rows, cols):
        old = IntMatrix([[c[i] for c in cols] for i in range(rows)], shape=(rows, len(cols)))
        made = IntMatrix.from_columns(cols, rows)
        assert made == old
        assert (made.rows, made.cols) == (rows, len(cols))
        assert made.columns() == [list(c) for c in cols]


class TestBlockDiagonal:
    def test_places_each_block_on_the_diagonal(self):
        blocks = [IntMatrix([[1, 2, 3], [4, 5, 6]]), IntMatrix.zero(0, 2), IntMatrix([[7]]),
                  IntMatrix.zero(2, 0)]
        made = block_diagonal(*blocks)
        assert made == IntMatrix([
            [1, 2, 3, 0, 0, 0],
            [4, 5, 6, 0, 0, 0],
            [0, 0, 0, 0, 0, 7],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
        ])
        assert block_diagonal() == IntMatrix.zero(0, 0)


class TestBlocks:
    def test_kron_entrywise_with_sign_and_empty_shapes(self):
        rng = random.Random(77)
        for _ in range(60):
            shapes = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(2)]
            a, b = (_shaped_matrix(rng, r, c, -4, 4) for r, c in shapes)
            sign = rng.choice((1, -1))
            k = a.kron(b, sign)
            assert (k.rows, k.cols) == (a.rows * b.rows, a.cols * b.cols)
            for i, j, r, s in itertools.product(*map(range, (a.rows, a.cols, b.rows, b.cols))):
                assert k[i * b.rows + r, j * b.cols + s] == sign * a[i, j] * b[r, s]

    def test_kron_small_cases(self):
        row, col = IntMatrix([[1, 2]]), IntMatrix([[3], [4]])
        assert row.kron(col, -1) == IntMatrix([[-3, -6], [-4, -8]])
        empty = IntMatrix.zero(0, 3).kron(IntMatrix([[1, 2]]))
        assert (empty.rows, empty.cols) == (0, 6)
        assert IntMatrix([[1], [2]]).kron(IntMatrix.zero(2, 0)) == IntMatrix.zero(4, 0)
        assert IntMatrix.identity(2).kron(IntMatrix([[5]])) == IntMatrix([[5, 0], [0, 5]])

    def test_from_blocks_overlapping_blocks_add(self):
        made = IntMatrix.from_blocks(3, 4, [
            (0, 0, IntMatrix([[1, 2], [3, 4]])),
            (1, 1, IntMatrix([[10, 20, 30], [40, 50, 60]])),
            (2, 0, IntMatrix.zero(1, 4)),
            (3, 4, IntMatrix.zero(0, 0)),
        ])
        assert made == IntMatrix([[1, 2, 0, 0], [3, 14, 20, 30], [0, 40, 50, 60]])
        assert IntMatrix.from_blocks(2, 0, []) == IntMatrix.zero(2, 0)

    @pytest.mark.parametrize("top, left", [(2, 0), (0, 3), (-1, 0), (0, -1)])
    def test_from_blocks_rejects_a_block_outside(self, top, left):
        with pytest.raises(ValueError):
            IntMatrix.from_blocks(2, 3, [(top, left, IntMatrix([[1]]))])


BIG = 1 << 200


def _hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    settings = hypothesis.settings(derandomize=True, max_examples=150, deadline=None, database=None,
                                   suppress_health_check=list(hypothesis.HealthCheck))
    return hypothesis, hypothesis.strategies, settings


def _draw_matrix(data, st, rows, cols, bound=BIG):
    entries = st.lists(st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
                       min_size=rows, max_size=rows)
    return IntMatrix(data.draw(entries), shape=(rows, cols))


class TestKernelsByEntry:
    """Every IntMatrix kernel against its entry-by-entry reference in helpers,
    on shapes from 0 to 4 (0 x n and n x 0 included), entries up to ±2^200."""

    def test_products_transposes_sums_and_stacks(self):
        hypothesis, st, settings = _hypothesis()
        dim = st.integers(0, 4)

        @settings
        @hypothesis.given(data=st.data())
        def check(data):
            r, c, k = data.draw(dim), data.draw(dim), data.draw(dim)
            a, b = _draw_matrix(data, st, r, c), _draw_matrix(data, st, r, c)
            e, h = _draw_matrix(data, st, c, k), _draw_matrix(data, st, r, k)
            x = data.draw(st.integers(-BIG, BIG))
            assert shaped(a @ e) == product_by_entry(a, e)
            assert shaped(a.transpose()) == transpose_by_entry(a)
            assert shaped(a + b) == combination_by_entry(a, b, 1, 1)
            assert shaped(a - b) == combination_by_entry(a, b, 1, -1)
            assert shaped(-a) == combination_by_entry(a, b, -1, 0)
            assert shaped(a.scale(x)) == combination_by_entry(a, b, x, 0)
            assert shaped(a.hstack(h)) == hstack_by_entry(a, h)
            assert shaped(a.kron(e, -1)) == kron_by_entry(a, e, -1)
            assert shaped(a.kron(e)) == kron_by_entry(a, e, 1)
            assert a.columns() == [[a[i, j] for i in range(r)] for j in range(c)]
            assert shaped(IntMatrix.from_columns(a.columns(), r)) == from_columns_by_entry(a.columns(), r)

        check()

    def test_from_blocks(self):
        hypothesis, st, settings = _hypothesis()
        dim = st.integers(0, 4)

        @settings
        @hypothesis.given(data=st.data())
        def check(data):
            rows, cols = data.draw(dim), data.draw(dim)
            blocks = []
            for _ in range(data.draw(st.integers(0, 4))):
                r, c = data.draw(st.integers(0, rows)), data.draw(st.integers(0, cols))
                top, left = data.draw(st.integers(0, rows - r)), data.draw(st.integers(0, cols - c))
                blocks.append((top, left, _draw_matrix(data, st, r, c)))
            made = IntMatrix.from_blocks(rows, cols, blocks)
            assert shaped(made) == from_blocks_by_entry(rows, cols, blocks)

        check()

    def test_solve_and_kernel(self):
        hypothesis, st, settings = _hypothesis()
        dim = st.integers(0, 4)

        @settings
        @hypothesis.given(data=st.data())
        def check(data):
            r, c, k = data.draw(dim), data.draw(dim), data.draw(st.integers(0, 3))
            if data.draw(st.booleans()):  # rank at most k: a product through Z^k, so kernels are common
                a = _draw_matrix(data, st, r, k, 1 << 100) @ _draw_matrix(data, st, k, c, 1 << 100)
            else:
                a = _draw_matrix(data, st, r, c)
            snf = smith_normal_form(a)
            K = snf.kernel_basis()
            assert shaped(K) == kernel_by_entry(snf)
            assert kernel_basis(a) == K
            assert product_by_entry(a, K) == (r, K.cols, [[0] * K.cols] * r)
            x0 = data.draw(st.lists(st.integers(-BIG, BIG), min_size=c, max_size=c))
            b = _apply(a, x0)
            shifted = b[:]
            if shifted:
                shifted[0] += data.draw(st.integers(1, 3))
            for rhs in (b, shifted):
                x = snf.solve(rhs)
                assert x == solve_by_entry(snf, rhs)
                if x is None:
                    assert rhs is shifted
                else:
                    assert _apply(a, x) == rhs

        check()


class TestIntegerEntries:
    """The public constructor reads entries with operator.index: non-integers are refused, not truncated."""

    @pytest.mark.parametrize("entry", [1.5, 2.0, "2", Fraction(7, 2), Fraction(4, 1), None])
    def test_non_integer_entry_is_refused(self, entry):
        with pytest.raises(TypeError):
            IntMatrix([[1, entry]])
        with pytest.raises(TypeError):
            IntMatrix([[entry]], shape=(1, 1))

    def test_integer_entries_are_read_as_ints(self):
        m = IntMatrix([[True, -(1 << 200)], [0, 3]])
        assert m.tolist() == [[1, -(1 << 200)], [0, 3]] and type(m[0, 0]) is int

    def test_complex_with_a_float_differential_is_refused(self):
        # 2.9 was truncated to 2, and H_{-1} came out as Z/2
        with pytest.raises(TypeError):
            IntComplex({0: 1, -1: 1}, {0: [[2.9]]})


class TestFactorOnce:
    """One SnfResult answers every solve and kernel query against its matrix."""

    def test_solve_matches_module_solve(self):
        rng = random.Random(2024)
        solvable = unsolvable = 0
        for a in _oracle_matrices(11):
            snf = smith_normal_form(a)
            for _ in range(3):
                x0 = [rng.randint(-9, 9) for _ in range(a.cols)]
                b = _apply(a, x0)
                x = snf.solve(b)
                assert x is not None and _apply(a, x) == b
                solvable += 1
                # off the image, unless the lattice happens to contain it
                c = [v + rng.choice((1, 2, 3)) * (i == 0) for i, v in enumerate(b)]
                y = snf.solve(c)
                if y is None:
                    unsolvable += 1
                else:
                    assert _apply(a, y) == c
        assert solvable > 300 and unsolvable > 100

    def test_unsolvable_is_none(self):
        a = IntMatrix([[2, 4], [4, 8], [0, 0]])
        snf = smith_normal_form(a)
        for b in ([1, 0, 0], [2, 0, 0], [0, 0, 1], [2, 4, 1]):
            assert snf.solve(b) is None
        x = snf.solve([2, 4, 0])
        assert x is not None and _apply(a, x) == [2, 4, 0]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form(IntMatrix([[1, 0], [0, 1]])).solve([1])

    def test_kernel_basis_matches_module_kernel(self):
        for a in _oracle_matrices(12):
            snf = smith_normal_form(a)
            k = snf.kernel_basis()
            assert k == kernel_basis(a)
            rank = sum(1 for d in snf.diagonal() if d)
            assert (k.rows, k.cols) == (a.cols, a.cols - rank)
            for col in k.columns():
                assert not any(_apply(a, col))

    def test_uinv_tracking_leaves_transforms_unchanged(self):
        for a in _oracle_matrices(13):
            D, U, none, V = abelian._smith(a.entries, a.rows, a.cols, u=True, v=True)
            D2, U2, Uinv, V2 = abelian._smith(a.entries, a.rows, a.cols, u=True, uinv=True, v=True)
            assert none is None
            assert (U, D, V) == (U2, D2, V2)
            if a.rows:
                assert IntMatrix.from_columns(Uinv, a.rows) @ IntMatrix(U) == IntMatrix.identity(a.rows)

    def test_linking_form_factors_each_matrix_once(self, monkeypatch):
        # d_0, its kernel basis, the boundary coordinates, d_1 and the
        # adjoint of the extracted pairing that nondegenerate() presents
        S = hidden_e_tensor_f_plus_h(random.Random(5))
        seen = []
        raw = abelian._smith

        def counted(a, m, n, *args, **kwargs):
            seen.append((m, n, tuple(tuple(row) for row in a)))
            return raw(a, m, n, *args, **kwargs)

        monkeypatch.setattr(abelian, "_smith", counted)
        assert brown_kervaire(linking_form(S)) == 4
        assert len(set(seen)) == 5
        assert len(seen) == len(set(seen))


class TestFgAbGroup:
    def test_canonical_form(self):
        g = FgAbGroup.from_divisors([6, 4])
        assert g.torsion == (2, 12)
        assert FgAbGroup.from_divisors([2, 3]) == FgAbGroup.cyclic(6)
        assert FgAbGroup.from_divisors([2, 4]) != FgAbGroup.cyclic(8)

    def test_render_parse_roundtrip(self):
        for g in (FgAbGroup(), Z, FgAbGroup(2, (2, 4)), FgAbGroup(0, (3,))):
            assert FgAbGroup.parse(g.render()) == g
        assert FgAbGroup.parse("Z^2 + Z/2 + Z/4").render() == "Z^2 + Z/2 + Z/4"
        assert FgAbGroup().render() == "0"

    def test_invalid_chain_rejected(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (4, 2))

    def test_canonical_form_matches_prime_power_regrouping(self):
        # oracle: elementary divisors by trial division, regrouped per prime
        assert canonical_by_primes([2, 3]) == FgAbGroup.cyclic(6) == FgAbGroup.from_divisors([2, 3])
        assert canonical_by_primes([0, 6, 4]) == FgAbGroup.from_divisors([0, 6, 4])
        assert str(FgAbGroup.from_divisors([0, 6, 4])) == "Z + Z/2 + Z/12"
        primes = [p for p in range(2, 2000) if all(p % q for q in range(2, int(p ** 0.5) + 1))]
        rng = random.Random(12)

        def entry():
            kind = rng.randrange(5)
            if kind == 0:
                return rng.choice((0, 1, -1))
            if kind == 1:
                return rng.randint(2, 300)
            if kind == 2:
                p = rng.choice(primes[:25])
                return p ** rng.randint(1, int(20 / log2(p)))  # at most 2^20
            return rng.choice((1, -1)) * rng.choice(primes) * rng.choice(primes)

        shuffle = random.Random(13)  # its own stream, so the lists above stay as seeded
        for _ in range(2000):
            divisors = [entry() for _ in range(rng.randint(0, 6))]
            assert FgAbGroup.from_divisors(divisors) == canonical_by_primes(divisors), divisors
            # a permuted, negated copy is a hit in the intern table: the very same group
            copy = [-d for d in shuffle.sample(divisors, len(divisors))]
            assert FgAbGroup.from_divisors(copy) is FgAbGroup.from_divisors(divisors), divisors

    def test_large_prime_factors_canonicalise(self):
        # trial division never finishes on these; the gcd/lcm chain does not factor
        m61, m127 = 2 ** 61 - 1, 2 ** 127 - 1

        def expire(signum, frame):
            raise TimeoutError("canonicalising Mersenne-prime orders ran past 2 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(2)
        try:
            assert FgAbGroup.from_divisors([m127, m61]) == FgAbGroup(0, (m127 * m61,))
            assert FgAbGroup.parse(f"Z/{m61} + Z/{m61}").torsion == (m61, m61)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestCokernel:
    def test_examples(self):
        assert cokernel(IntMatrix([[2]])) == FgAbGroup.cyclic(2)
        assert cokernel(IntMatrix([[2, 0], [0, 0]])) == FgAbGroup(1, (2,))
        assert cokernel(IntMatrix([[1, 1], [1, -1]])) == FgAbGroup.cyclic(2)

    def test_matches_snf_diagonal(self):
        # oracle: the invariant factors read off a full SnfResult
        rng = random.Random(11)
        for _ in range(60):
            m, n = rng.randint(0, 5), rng.randint(0, 5)
            a = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)], shape=(m, n))
            nonzero = [d for d in smith_normal_form(a).diagonal() if d]
            expected = FgAbGroup.from_divisors(
                [d for d in nonzero if d > 1] + [0] * (m - len(nonzero))
            )
            assert cokernel(a) == expected

    def test_generators_have_stated_orders(self):
        a = IntMatrix([[2, 0], [0, 3], [0, 0]])
        group, gens, orders = cokernel_with_gens(a)
        assert group == FgAbGroup(1, (6,))
        assert orders[0] == 0 and orders[1] == 6
        assert len(gens) == 2

    def test_generators_generate_with_exact_orders(self):
        # the generators together with im(A) must span the ambient lattice,
        # each order must annihilate its class, and no proper divisor may
        rng = random.Random(19)
        for _ in range(40):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(0, 4), -9, 9)
            group, gens, orders = cokernel_with_gens(a)
            cols = [list(c) for c in zip(*a.tolist())] if a.cols else []
            span = IntMatrix(
                [[v[i] for v in (gens + cols)] for i in range(a.rows)],
                shape=(a.rows, len(gens) + len(cols)),
            )
            assert lattice_eq(span, IntMatrix.identity(a.rows))
            snf = smith_normal_form(a)
            for g, o in zip(gens, orders):
                if o == 0:
                    continue
                assert snf.solve([o * x for x in g]) is not None
                for p in {2, 3, 5, 7}:
                    if o % p == 0:
                        assert snf.solve([(o // p) * x for x in g]) is None


class TestHomExt:
    def test_known_values(self):
        assert hom_group(FgAbGroup.free(2), Z) == FgAbGroup.free(2)
        assert hom_group(FgAbGroup.cyclic(4), FgAbGroup.cyclic(6)) == FgAbGroup.cyclic(2)
        assert hom_group(FgAbGroup.cyclic(2), Z).is_trivial()
        assert ext_group(FgAbGroup.cyclic(2), Z) == FgAbGroup.cyclic(2)
        assert ext_group(Z, random_group(random.Random(0))).is_trivial()
        assert ext_group(FgAbGroup.cyclic(4), FgAbGroup.cyclic(6)) == FgAbGroup.cyclic(2)

    def test_hom_against_enumeration(self):
        small = [
            FgAbGroup.cyclic(2),
            FgAbGroup.cyclic(4),
            FgAbGroup.cyclic(8),
            FgAbGroup.from_divisors([2, 2]),
            FgAbGroup.from_divisors([2, 4]),
            FgAbGroup.cyclic(6),
            FgAbGroup.cyclic(12),
            FgAbGroup.from_divisors([3, 3]),
            FgAbGroup.cyclic(64),
            FgAbGroup.from_divisors([2, 2, 4]),
        ]
        for a in small:
            for b in small:
                assert hom_group(a, b) == hom_by_enumeration(a, b), (a, b)

    def test_ext_against_resolution(self):
        small = [
            FgAbGroup.cyclic(2),
            FgAbGroup.cyclic(4),
            FgAbGroup.cyclic(6),
            FgAbGroup.from_divisors([2, 4]),
            FgAbGroup(1, (2,)),
            Z,
        ]
        for a in small:
            for b in small:
                assert ext_group(a, b) == ext_by_resolution(a, b), (a, b)

    def test_ext_into_z_is_torsion_subgroup(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_group(rng)
            assert ext_group(g, Z) == FgAbGroup(0, g.torsion)


class TestExtensionCandidates:
    def test_known_values(self):
        assert extension_candidates(Z, FgAbGroup.cyclic(2)) == frozenset(
            {Z, FgAbGroup(1, (2,))}
        )
        assert extension_candidates(FgAbGroup.cyclic(2), Z) == frozenset({FgAbGroup(1, (2,))})
        assert extension_candidates(FgAbGroup.cyclic(2), FgAbGroup.cyclic(2)) == frozenset(
            {FgAbGroup.from_divisors([2, 2]), FgAbGroup.cyclic(4)}
        )

    def test_torsionfree_quotient_splits(self):
        rng = random.Random(5)
        for _ in range(20):
            a = random_group(rng, max_order=16)
            b = FgAbGroup.free(rng.randint(0, 2))
            assert extension_candidates(a, b) == frozenset({a.direct_sum(b)})

    def test_every_candidate_has_right_order_and_contains_sub(self):
        a = FgAbGroup.from_divisors([2, 4])
        b = FgAbGroup.from_divisors([2])
        for e in extension_candidates(a, b):
            assert e.order() == a.order() * b.order()

    def test_bound(self):
        for _ in range(2):  # the memo keeps no error: the second call enumerates and raises again
            with pytest.raises(EnumerationBoundError):
                extension_candidates(FgAbGroup.free(13), FgAbGroup.cyclic(2))


class TestMemo:
    """Interned groups and the memoised Hom, Ext and extension candidates change no value."""

    def test_memoised_functions_equal_their_originals(self):
        def outcome(fn, a, b):
            try:
                return fn(a, b)
            except EnumerationBoundError as exc:
                return str(exc)

        rng = random.Random(29)
        for _ in range(150):
            a, b = random_group(rng, max_order=16), random_group(rng, max_order=16)
            for fn in (hom_group, ext_group, extension_candidates):
                assert outcome(fn, a, b) == outcome(fn.__wrapped__, a, b), (fn.__name__, a, b)

    @pytest.mark.parametrize("factors,line", [
        (["x"], "ValueError: invalid literal for int() with base 10: 'x'"),
        ([[2]], "TypeError: int() argument must be a string, a bytes-like object or a real number, "
                "not 'list'"),
    ])
    def test_malformed_factor_fails_before_the_lookup(self, factors, line, tmp_path, capsys):
        # the intern key is normalised before the lookup, so the entry's own error is reported
        path = tmp_path / "form.json"
        path.write_text(json.dumps({"factors": factors, "q": {}}))
        assert main(["invariant", "--name", "beta", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {line}\n"

    def test_verify_a_canonicalises_each_divisor_list_once(self, monkeypatch):
        # without the intern table verify A at +-100 canonicalises 6 757 lists, 7 of them distinct
        canonicalised = []
        genuine = abelian._divisibility_chain

        def counted(d, move=None):
            if move is None:  # the Smith kernel always passes its move; from_divisors never does
                canonicalised.append(tuple(d))
            genuine(d, move)

        monkeypatch.setattr(abelian, "_divisibility_chain", counted)
        monkeypatch.setattr(abelian, "_INTERNED", {})
        assert all(item.passed for item in verify_classical((-100, 100)))
        assert 0 < len(canonicalised) <= 16, len(canonicalised)


class TestLattices:
    def test_lattice_eq(self):
        a = IntMatrix([[2, 0], [0, 3]])
        b = IntMatrix([[2, 2], [3, 0]])
        assert lattice_eq(a, b)
        c = IntMatrix([[2, 0], [0, 6]])
        assert not lattice_eq(a, c)


def _random_hom(rng, src, tgt):
    """A random matrix that is a homomorphism src -> tgt on presentation generators."""
    rows = []
    for t in tgt.gen_orders():
        row = []
        for o in src.gen_orders():
            if o == 0:
                row.append(rng.randint(-6, 6))
            else:
                # o * m = 0 mod t, and exactly 0 when t is free
                row.append(rng.randint(-6, 6) * (t // gcd(t, o)) if t else 0)
        rows.append(row)
    return IntMatrix(rows, shape=(tgt.gens(), src.gens()))


def _reduced(group, v):
    return tuple(x % o if o else x for x, o in zip(v, group.gen_orders()))


def _torsion_elements(group):
    """The elements of the torsion subgroup as vectors on all generators."""
    return [(0,) * group.free_rank + x for x in elements_of(FgAbGroup(0, group.torsion))]


def _kernel_generators(M, src, tgt):
    """Columns generating {x : M x = 0 in tgt}, relations of src included."""
    R = tgt.relation_matrix()
    K = kernel_basis(M.hstack(R) if R.cols else M)
    return [col[: src.gens()] for col in K.columns()] + src.relation_matrix().columns()


def _exact_by_hermite(f, a, b, g, c):
    """im f = ker g as lattices of Z^gens(b) containing the relations of b."""
    image = IntMatrix.from_columns(f.columns() + b.relation_matrix().columns(), b.gens())
    kernel = IntMatrix.from_columns(_kernel_generators(g, b, c), b.gens())
    return lattice_eq(image, kernel)


def _subgroup_generated(group, vectors):
    """Every element of a finite group reached from 0 by adding the vectors."""
    seen = {_reduced(group, [0] * group.gens())}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for v in vectors:
            y = _reduced(group, [p + q for p, q in zip(x, v)])
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def _random_exactness_pair(rng, mode):
    """(f, A, B, g, C) with f: A -> B and g: B -> C well defined.

    mode 0 draws f and g at random; mode 1 sends A into ker g, so g f = 0;
    mode 2 also sends a free summand of A onto generators of ker g, so the
    pair is exact by construction.
    """
    b, c = random_group(rng), random_group(rng)
    g = _random_hom(rng, b, c)
    if mode == 0:
        a = random_group(rng)
        return _random_hom(rng, a, b), a, b, g, c
    kernel = _kernel_generators(g, b, c)
    torsion_kernel = [x for x in _torsion_elements(b) if not any(_reduced(c, _apply(g, x)))]
    free = []
    for _ in range(rng.randint(0, 2)):
        coeffs = [rng.randint(-2, 2) for _ in kernel]
        free.append([sum(k * v[i] for k, v in zip(coeffs, kernel)) for i in range(b.gens())])
    if mode == 2:
        free += kernel
    torsion = [rng.choice([2, 2, 4, 3, 6]) for _ in range(rng.randint(0, 2))]
    a = FgAbGroup.from_divisors([0] * len(free) + torsion)
    cols = list(free)
    for o in a.torsion:
        killed = [x for x in torsion_kernel if not any(_reduced(b, [o * v for v in x]))]
        cols.append(list(rng.choice(killed)))
    return IntMatrix.from_columns(cols, b.gens()), a, b, g, c


class TestExactnessAgainstOracles:
    def test_random_pairs(self):
        rng = random.Random(77)
        counts = dict.fromkeys(("exact", "im < ker", "im not in ker", "finite middle"), 0)
        for i in range(360):
            f, a, b, g, c = _random_exactness_pair(rng, i % 3)
            assert hom_is_well_defined(f, a, b) and hom_is_well_defined(g, b, c)
            exact = maps_exact(f, (a, b), g, (b, c))
            assert exact == _exact_by_hermite(f, a, b, g, c), (f, a, b, g, c)
            composite_zero = all(not any(_reduced(c, _apply(g, col))) for col in f.columns())
            assert composite_zero or i % 3 == 0
            assert exact or i % 3 != 2
            counts["exact" if exact else "im < ker" if composite_zero else "im not in ker"] += 1
            if b.free_rank:
                continue
            counts["finite middle"] += 1
            image = _subgroup_generated(b, f.columns())
            kernel = {x for x in elements_of(b) if not any(_reduced(c, _apply(g, x)))}
            assert exact == (image == kernel)
            by_counts = group_from_annihilator_counts(
                sorted(kernel), lambda x, y: add_in(b, x, y), lambda r, x: scale_in(b, r, x),
                len(kernel))
            assert map_kernel_group(g, b, c) == by_counts
        assert counts["exact"] >= 150 and counts["im < ker"] >= 100
        assert counts["im not in ker"] >= 20 and counts["finite middle"] >= 150

    def test_image_strictly_inside_kernel(self):
        # Z --2--> Z --> 0: the image 2Z is a proper sublattice of the kernel Z
        assert not maps_exact(IntMatrix([[2]]), (Z, Z), IntMatrix.zero(0, 1), (Z, FgAbGroup()))
        assert maps_exact(IntMatrix([[1]]), (Z, Z), IntMatrix.zero(0, 1), (Z, FgAbGroup()))

    def test_image_not_inside_kernel(self):
        assert not maps_exact(IntMatrix([[1]]), (Z, Z), IntMatrix([[1]]), (Z, Z))
        z4 = FgAbGroup.cyclic(4)
        assert not maps_exact(IntMatrix([[1]]), (z4, z4), IntMatrix([[1]]), (z4, z4))
        # Z/2 --2--> Z/4 --1--> Z/2 is exact, and Z/2 --2--> Z/4 --1--> Z/4 is not
        z2 = FgAbGroup.cyclic(2)
        assert maps_exact(IntMatrix([[2]]), (z2, z4), IntMatrix([[1]]), (z4, z2))
        assert not maps_exact(IntMatrix([[2]]), (z2, z4), IntMatrix([[1]]), (z4, z4))

    def test_kernel_of_a_non_homomorphism_raises(self):
        z2, z4 = FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)
        for M, src, tgt in ((IntMatrix([[1]]), z2, Z), (IntMatrix([[1]]), z2, z4),
                            (IntMatrix([[1, 0], [0, 1]]), FgAbGroup(1, (2,)), FgAbGroup.free(2))):
            assert not hom_is_well_defined(M, src, tgt)
            with pytest.raises(ValueError):
                map_kernel_group(M, src, tgt)


def test_doctests():
    import doctest

    import lspectra.abelian as mod

    failures, _ = doctest.testmod(mod)
    assert failures == 0


class TestWellDefinedShapes:
    @pytest.mark.parametrize("shape", [(1, 2), (2, 1), (0, 1), (1, 0)])
    def test_a_matrix_of_the_wrong_shape_is_no_homomorphism(self, shape):
        Z = FgAbGroup.free(1)
        assert hom_is_well_defined(IntMatrix.zero(1, 1), Z, Z)
        assert not hom_is_well_defined(IntMatrix.zero(*shape), Z, Z)
