import random

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
    kernel_basis,
    lattice_eq,
    smith_normal_form,
    solve,
)

from lspectra.chain import IntComplex
from lspectra.forms import brown_kervaire
from lspectra.poincare import (
    PoincareStructure,
    StructuredComplex,
    linking_form,
    representative,
    tensor_structured,
)

from helpers import (
    ext_by_resolution,
    hom_by_enumeration,
    minors_gcd_invariant_factors,
    random_group,
    random_matrix,
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
        x = solve(a, [3, 3])
        assert x is not None
        assert [sum(a[i, l] * x[l] for l in range(3)) for i in range(2)] == [3, 3]
        assert solve(IntMatrix([[2]]), [1]) is None


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


class TestFactorOnce:
    """SnfResult answers every query the module-level functions answer."""

    def test_solve_matches_module_solve(self):
        rng = random.Random(2024)
        solvable = unsolvable = 0
        for a in _oracle_matrices(11):
            snf = smith_normal_form(a)
            for _ in range(3):
                x0 = [rng.randint(-9, 9) for _ in range(a.cols)]
                b = _apply(a, x0)
                x = snf.solve(b)
                assert x == solve(a, b)
                assert x is not None and _apply(a, x) == b
                solvable += 1
                # off the image, unless the lattice happens to contain it
                c = [v + rng.choice((1, 2, 3)) * (i == 0) for i, v in enumerate(b)]
                y = snf.solve(c)
                assert y == solve(a, c)
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
            assert solve(a, b) is None
        assert snf.solve([2, 4, 0]) == solve(a, [2, 4, 0])

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
            U, none, D, V = abelian._snf_raw(a.entries, a.rows, a.cols)
            U2, Uinv, D2, V2 = abelian._snf_raw(a.entries, a.rows, a.cols, track_uinv=True)
            assert none is None
            assert (U, D, V) == (U2, D2, V2)
            if a.rows:
                assert IntMatrix(Uinv) @ IntMatrix(U) == IntMatrix.identity(a.rows)

    @pytest.mark.parametrize("lift_seed", [None, 1])
    def test_linking_form_factors_each_matrix_once(self, lift_seed, monkeypatch):
        # d_0, its kernel basis, the boundary coordinates and d_1
        S = _hidden_e_tensor_f_plus_h(random.Random(5))
        seen = []
        raw = abelian._snf_raw

        def counted(a, m, n, *args, **kwargs):
            seen.append((m, n, tuple(tuple(row) for row in a)))
            return raw(a, m, n, *args, **kwargs)

        monkeypatch.setattr(abelian, "_snf_raw", counted)
        lift_rng = None if lift_seed is None else random.Random(lift_seed)
        assert brown_kervaire(linking_form(S, lift_rng=lift_rng)) == 4
        assert len(set(seen)) == 4
        assert len(seen) == len(set(seen))


def _hidden_e_tensor_f_plus_h(rng):
    """E (x) (F + hyperbolic) plus contractible Z --1--> Z summands in degrees
    1 -> 0 and 0 -> -1, transported along random unimodular bases."""
    f_plus_h = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    plane = StructuredComplex(
        IntComplex({1: 4}), PoincareStructure("quadratic", 2, {(0, 1): f_plus_h})
    )
    T = tensor_structured(representative("E"), plane)
    C = T.complex
    # block sums: degree 1 gains one generator, degree 0 two, degree -1 one
    extra = {1: 1, 0: 2, -1: 1}
    ranks = {k: C.rank(k) + extra.get(k, 0) for k in (1, 0, -1)}

    def grow(m, rows, cols, placements=()):
        out = [[0] * cols for _ in range(rows)]
        for i in range(m.rows):
            for j in range(m.cols):
                out[i][j] = m[i, j]
        for i, j in placements:
            out[i][j] = 1
        return IntMatrix(out, shape=(rows, cols))

    d = {
        1: grow(C.diff(1), ranks[0], ranks[1], [(C.rank(0), C.rank(1))]),
        0: grow(C.diff(0), ranks[-1], ranks[0], [(C.rank(-1), C.rank(0) + 1)]),
    }
    psi = {
        (lv, k): grow(m, ranks[k], ranks[1 + lv - k])
        for (lv, k), m in T.structure.psi.items()
    }

    def unimodular(n):
        a, ainv = IntMatrix.identity(n), IntMatrix.identity(n)
        for _ in range(3 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            e = [[int(r == s) for s in range(n)] for r in range(n)]
            einv = [row[:] for row in e]
            e[i][j], einv[i][j] = c, -c
            a, ainv = IntMatrix(e) @ a, ainv @ IntMatrix(einv)
        return a, ainv

    bases = {k: unimodular(r) for k, r in ranks.items()}
    d = {k: bases[k - 1][0] @ m @ bases[k][1] for k, m in d.items()}
    psi = {
        (lv, k): bases[k][1].transpose() @ m @ bases[1 + lv - k][1]
        for (lv, k), m in psi.items()
    }
    return StructuredComplex(IntComplex(ranks, d), PoincareStructure("quadratic", 1, psi))


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
            for g, o in zip(gens, orders):
                if o == 0:
                    continue
                assert solve(a, [o * x for x in g]) is not None
                for p in {2, 3, 5, 7}:
                    if o % p == 0:
                        assert solve(a, [(o // p) * x for x in g]) is None


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
            assert ext_group(g, Z) == g.torsion_subgroup()


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
        with pytest.raises(EnumerationBoundError):
            extension_candidates(FgAbGroup.free(13), FgAbGroup.cyclic(2), bound=4096)


class TestLattices:
    def test_lattice_eq(self):
        a = IntMatrix([[2, 0], [0, 3]])
        b = IntMatrix([[2, 2], [3, 0]])
        assert lattice_eq(a, b)
        c = IntMatrix([[2, 0], [0, 6]])
        assert not lattice_eq(a, c)


def test_doctests():
    import doctest

    import lspectra.abelian as mod

    failures, _ = doctest.testmod(mod)
    assert failures == 0
