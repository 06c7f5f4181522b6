import random

import pytest

from lspectra.abelian import FgAbGroup, IntMatrix, extension_candidates, kernel_basis
from lspectra.chain import IntComplex, dual, tensor

from helpers import acyclic_after_inverting_two, homology_lifts_by_entry, kunneth_parts, product_by_entry


def two_term(d, top=0):
    """Z --d--> Z in degrees top -> top-1."""
    return IntComplex({top: 1, top - 1: 1}, {top: [[d]]})


class TestHomology:
    def test_z2_in_degree_minus_one(self):
        c = two_term(2)
        assert c.homology(-1) == FgAbGroup.cyclic(2)
        assert c.homology(0).is_trivial()

    def test_ef_model(self):
        c = IntComplex({1: 2, 0: 2}, {1: [[2, 0], [0, 2]]})
        assert c.homology(0) == FgAbGroup.from_divisors([2, 2])

    def test_zero_complex(self):
        c = IntComplex({})
        assert c.homology(0).is_trivial()
        assert c.homology(5).is_trivial()

    def test_generators_are_cycles(self):
        c = IntComplex({2: 2, 1: 3, 0: 1}, {2: [[2, 0], [0, 3], [0, 0]], 1: [[0, 0, 5]]})
        h, gens, orders = c.homology_with_gens(1)
        d1 = c.diff(1)
        for g in gens:
            assert all(sum(d1[i, j] * g[j] for j in range(3)) == 0 for i in range(1))

    def test_d_squared_enforced(self):
        with pytest.raises(ValueError):
            IntComplex({2: 1, 1: 1, 0: 1}, {2: [[1]], 1: [[1]]})


class TestHomologyLifts:
    def test_lifts_match_the_entrywise_product(self):
        # C_2 --d2--> C_1 --d1--> C_0, d2 = K·B with K a kernel basis of d1,
        # entries of d1 and B up to 2^200 and every rank from 0 to 3
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        big = 1 << 200

        def matrix(data, rows, cols):
            entries = st.lists(st.lists(st.integers(-big, big), min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows)
            return IntMatrix(data.draw(entries), shape=(rows, cols))

        @hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None,
                             suppress_health_check=list(hypothesis.HealthCheck))
        @hypothesis.given(data=st.data())
        def check(data):
            r0, r1, r2 = (data.draw(st.integers(0, 3)) for _ in range(3))
            d1 = matrix(data, r0, r1)
            K = kernel_basis(d1)
            d2 = K @ matrix(data, K.cols, r2)
            c = IntComplex({0: r0, 1: r1, 2: r2}, {1: d1, 2: d2})
            for n in (0, 1, 2):
                _, lifts, _ = c.homology_with_gens(n)
                assert lifts == homology_lifts_by_entry(c, n)
                assert all(not any(row) for row in product_by_entry(c.diff(n), IntMatrix.from_columns(lifts, c.rank(n)))[2])

        check()


class TestTensor:
    def test_e_tensor_f_shape(self):
        e = two_term(2)
        f = IntComplex({1: 2})
        t = tensor(e, f)
        assert t.ranks == {1: 2, 0: 2}
        assert t.diff(1) == IntMatrix([[2, 0], [0, 2]])

    def test_unit(self):
        c = IntComplex({2: 2, 1: 1}, {2: [[0, 6]]})
        unit = IntComplex({0: 1})
        assert tensor(c, unit) == c
        assert tensor(unit, c) == c

    def test_small_kunneth_example(self):
        c = two_term(2)
        d = two_term(3)
        t = tensor(c, d)
        # H_-2 = Z/2 (x) Z/3 = 0 and no Tor contribution there
        assert t.homology(-2).is_trivial()

    def test_d_squared_after_tensor_and_kunneth_membership(self):
        rng = random.Random(3)
        for _ in range(15):
            c = _random_complex(rng)
            d = _random_complex(rng)
            t = tensor(c, d)  # constructor re-checks d.d = 0
            lo, hi = t.window()
            for n in range(lo, hi + 1):
                tens, tor = kunneth_parts(c, d, n)
                h = t.homology(n)
                assert h in extension_candidates(tens, tor), (n, h, tens, tor)


class TestDual:
    def test_point(self):
        c = IntComplex({0: 1})
        assert dual(c, 0) == c

    def test_degree_convention(self):
        c = IntComplex({-2: 1})
        assert dual(c, -4).ranks == {-2: 1}

    def test_e_model_dual_homology(self):
        e = two_term(2)
        d = dual(e, 1)
        # degrees reflect through k <-> 1-k; torsion moves across by one
        assert d.ranks == {1: 1, 2: 1}
        assert d.homology(1) == FgAbGroup.cyclic(2)

    def test_double_dual(self):
        rng = random.Random(9)
        for _ in range(10):
            c = _random_complex(rng)
            n = rng.randint(-2, 2)
            dd = dual(dual(c, n), n)
            assert dd.ranks == c.ranks
            lo, hi = c.window()
            sign = -1 if n % 2 == 0 else 1
            for k in range(lo, hi + 1):
                assert dd.diff(k) in (c.diff(k), c.diff(k).scale(-1))
                assert dd.diff(k) == c.diff(k).scale(1 if sign == 1 else -1)


class TestAcyclicity:
    def test_ef_model_true(self):
        t = IntComplex({1: 2, 0: 2}, {1: [[2, 0], [0, 2]]})
        assert acyclic_after_inverting_two(t)

    def test_free_point_false(self):
        assert not acyclic_after_inverting_two(IntComplex({0: 1}))

    def test_odd_torsion_false(self):
        assert not acyclic_after_inverting_two(two_term(6))


class TestSerialisation:
    def test_roundtrip(self):
        c = IntComplex({1: 2, 0: 2, -1: 1}, {1: [[2, 0], [0, 2]], 0: [[0, 0]]})
        assert IntComplex.from_json(c.to_json()) == c


def _random_complex(rng):
    """Random two-differential complex with d.d = 0 by construction."""
    lo = rng.randint(-2, 0)
    r0, r1, r2 = (rng.randint(0, 2) for _ in range(3))
    ranks = {lo: r0, lo + 1: r1, lo + 2: r2}
    d1 = [[rng.randint(-3, 3) for _ in range(r1)] for _ in range(r0)]
    # choose d2 inside ker(d1) by scaling columns of the kernel
    from lspectra.abelian import kernel_basis

    diffs = {}
    if r0 and r1:
        diffs[lo + 1] = IntMatrix(d1, shape=(r0, r1))
    if r1 and r2:
        k = kernel_basis(IntMatrix(d1, shape=(r0, r1)) if r0 else IntMatrix.zero(0, r1))
        cols = []
        for _ in range(r2):
            col = [0] * r1
            for j in range(k.cols):
                c = rng.randint(-2, 2)
                for i in range(r1):
                    col[i] += c * k[i, j]
            cols.append(col)
        diffs[lo + 2] = IntMatrix([[col[i] for col in cols] for i in range(r1)], shape=(r1, r2))
    return IntComplex(ranks, diffs)


class TestRanks:
    def test_a_negative_rank_is_refused_by_its_degree(self):
        with pytest.raises(ValueError, match="negative rank -1 at degree 0"):
            IntComplex({0: -1})
        with pytest.raises(ValueError, match="negative rank -3 at degree 5"):
            IntComplex.from_json({"ranks": {"1": 1, "0": 1, "5": -3}, "differentials": {"1": [[2]]}})

    def test_a_zero_rank_is_an_empty_degree(self):
        assert IntComplex({0: 0, 1: 1}) == IntComplex({1: 1})
        assert IntComplex.from_json({"ranks": {"0": 0, "1": 1}}).degrees() == [1]
