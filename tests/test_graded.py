import random
from collections import Counter

import pytest

from lspectra import graded
from lspectra.abelian import FgAbGroup, IntMatrix, ext_group, hom_group
from lspectra.graded import (
    GradedGroup,
    GradedMap,
    OutOfWindowError,
    SesDatum,
    anderson_dual,
    check_exact,
    cofibre_of_mult,
    compare_graded,
    deciding_degrees,
    direct_sum_graded,
    double_dual_check,
    mod_table,
    scalar_map,
    shift_graded,
    torsor_count,
)
from lspectra.ltables import TABLE_NAMES, _Claim, _evaluate, _tables_equal, table

from helpers import (dual_by_degree, mod_by_degree, random_group, restrict, shift_by_degree, sum_by_degree,
                     table_by_degree)

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.cyclic(2)


class TestGradedGroup:
    def test_period_validated(self):
        with pytest.raises(ValueError):
            GradedGroup((0, 4), {0: Z, 4: Z2}, period=4)
        g = GradedGroup((0, 4), {0: Z, 4: Z}, period=4)
        assert g[8] == Z  # periodic lookup
        with pytest.raises(OutOfWindowError):
            GradedGroup((0, 2), {0: Z})[5]

    def test_json_roundtrip(self):
        g = GradedGroup((-2, 2), {-2: Z2, 0: Z, 2: FgAbGroup(1, (4,))}, None)
        assert GradedGroup.from_json(g.to_json()) == g


class TestAndersonDual:
    def test_hz_self_dual(self):
        g = GradedGroup((-2, 2), {0: Z})
        d = anderson_dual(g)
        assert d[0] == Z
        assert all(d[n].is_trivial() for n in d.degrees() if n != 0)

    def test_hzn_shifts(self):
        for n in (2, 3, 8):
            g = GradedGroup((-3, 3), {0: FgAbGroup.cyclic(n)})
            d = anderson_dual(g)
            assert d[-1] == FgAbGroup.cyclic(n)
            assert all(d[m].is_trivial() for m in d.degrees() if m != -1)

    def test_ko_shift_by_four(self):
        ko = table("KO", (-16, 16))
        d = anderson_dual(ko)
        s = shift_graded(ko, 4)
        w = (-12, 12)
        assert compare_graded(restrict(d, w), restrict(s, w))

    def test_free_table_reflects(self):
        g = GradedGroup((-3, 3), {1: FgAbGroup.free(2), -2: Z})
        d = anderson_dual(g)
        assert d[-1] == FgAbGroup.free(2)
        assert d[2] == Z

    def test_torsion_table_reflects_and_shifts(self):
        g = GradedGroup((-3, 3), {1: Z2, 0: FgAbGroup.cyclic(3)})
        d = anderson_dual(g)
        assert d[-2] == Z2
        assert d[-1] == FgAbGroup.cyclic(3)

    def test_out_of_window_error(self):
        g = GradedGroup((0, 3), {0: Z})
        d = anderson_dual(g)  # the reflected window, shrunk where Ext would need degree -1
        assert d.window == (-3, -1)
        with pytest.raises(OutOfWindowError):
            anderson_dual(GradedGroup((0, 0), {0: Z}))  # no degree is left to dualise


class TestDoubleDual:
    def test_trivial(self):
        assert double_dual_check(GradedGroup((-2, 2), {}))

    def test_lq_table(self):
        assert double_dual_check(table("Lq", (-8, 8)))

    def test_random_windows(self):
        rng = random.Random(21)
        for _ in range(40):
            lo = rng.randint(-4, 0)
            hi = lo + rng.randint(2, 5)
            groups = {n: random_group(rng) for n in range(lo, hi + 1)}
            assert double_dual_check(GradedGroup((lo, hi), groups))


class TestCheckExact:
    def test_ses_z_mult2_z2(self):
        # 0 -> Z --2--> Z -> Z/2 -> 0 at a single degree
        w = (0, 0)
        a = GradedGroup(w, {0: Z})
        b = GradedGroup(w, {0: Z})
        c = GradedGroup(w, {0: Z2})
        f = GradedMap(a, b, 0, {0: IntMatrix([[2]])})
        g = GradedMap(b, c, 0, {0: IntMatrix([[1]])})
        assert check_exact(f, g)

    def test_reduction_mismatch(self):
        w = (0, 0)
        a = GradedGroup(w, {0: Z})
        b = GradedGroup(w, {0: Z})
        c = GradedGroup(w, {0: FgAbGroup.cyclic(4)})
        f = GradedMap(a, b, 0, {0: IntMatrix([[2]])})
        g = GradedMap(b, c, 0, {0: IntMatrix([[1]])})  # plain reduction
        assert not check_exact(f, g)

    @staticmethod
    def _periodic_ses(f_at_7):
        """0 -> Z --2--> Z -> Z/2 -> 0 over -20..20, f acting by ``f_at_7`` in degree 7."""
        degrees = range(-20, 21)
        z = GradedGroup((-20, 20), {n: Z for n in degrees})
        z2 = GradedGroup((-20, 20), {n: Z2 for n in degrees})
        f = GradedMap(z, z, 0, {n: IntMatrix([[f_at_7 if n == 7 else 2]]) for n in degrees})
        return f, GradedMap(z, z2, 0, {n: IntMatrix([[1]]) for n in degrees})

    def test_each_distinct_degree_is_tested_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(graded, "maps_exact", lambda *datum: calls.append(datum) or True)
        assert check_exact(*self._periodic_ses(2))
        assert len(calls) == 1
        calls.clear()
        assert check_exact(*self._periodic_ses(4))
        assert len(calls) == 2

    def test_map_corrupted_in_one_degree_is_not_exact(self):
        assert check_exact(*self._periodic_ses(2))
        assert not check_exact(*self._periodic_ses(4))
        assert not check_exact(*self._periodic_ses(0))

    def test_well_definedness_enforced(self):
        w = (0, 0)
        a = GradedGroup(w, {0: Z2})
        b = GradedGroup(w, {0: Z})
        with pytest.raises(ValueError):
            GradedMap(a, b, 0, {0: IntMatrix([[1]])})


class TestScalarMap:
    def test_blocks_follow_the_summands(self):
        w = (0, 2)
        a = GradedGroup(w, {0: Z, 1: Z2})
        b = GradedGroup(w, {0: FgAbGroup.cyclic(8), 2: Z})
        f = scalar_map([a], [a, b], 0, lambda n: [[1], [n - 3]], core=w, tails=(None, None))
        assert f.target == GradedGroup(w, {0: FgAbGroup(1, (8,)), 1: Z2, 2: Z})
        assert f.component(0) == IntMatrix([[1], [-3]])
        assert f.component(1) == IntMatrix([[1]])
        assert f.component(2) == IntMatrix.zero(1, 0)
        up = scalar_map([b], [a], 1, lambda n: [[5]], core=(0, 0), tails=(1, 1))
        assert up.components.keys() == {0, 1}  # degree 2 leaves the target window

    @pytest.mark.parametrize("summands", [
        ["Z + Z/2"],  # two generators in one summand
        ["Z/8", "Z/2"],  # the sum orders its generators Z/2, Z/8
        ["Z/2", "Z/3"],  # the sum Z/6 has one generator
    ])
    def test_layout_other_than_the_sums_rejected(self, summands):
        parts = [GradedGroup((0, 0), {0: g}) for g in summands]
        with pytest.raises(ValueError, match="not those of their sum"):
            scalar_map(parts, [GradedGroup((0, 0), {})], 0, lambda n: [[0] * len(parts)], core=(0, 0), tails=(1, 1))


class TestCofibre:
    def test_identity_gives_trivial(self):
        m = table("Ls", (-8, 8))
        ses = cofibre_of_mult(m, scalar_map([m], [m], 0, lambda n: [[1]], core=(0, 0), tails=(1, 1)))
        assert all(d.sub.is_trivial() and d.quotient.is_trivial() and d.resolved == FgAbGroup()
                   for d in ses.values())

    def test_lq_mod_e_table(self):
        from lspectra.ltables import mult_by

        lq = table("Lq", (-12, 12))
        e = mult_by("Lq", "e", lq)
        ses = cofibre_of_mult(lq, e)
        for n, datum in ses.items():
            if n % 4 == 0:
                assert datum.sub == Z and datum.quotient == Z2 and datum.resolved is None
            elif n % 4 == 1:
                assert datum.resolved == FgAbGroup()
            elif n % 4 == 2:
                assert datum.resolved == FgAbGroup(1, (2,))
            else:
                assert datum.resolved == FgAbGroup()


    @staticmethod
    def _periodic_mult(f_at_7):
        """Multiplication on Z in every degree of -20..20: by 2, and by ``f_at_7`` in degree 7."""
        degrees = range(-20, 21)
        z = GradedGroup((-20, 20), {n: Z for n in degrees})
        return z, GradedMap(z, z, 0, {n: IntMatrix([[f_at_7 if n == 7 else 2]]) for n in degrees})

    def test_each_distinct_datum_is_factored_once(self, monkeypatch):
        calls = []
        genuine = graded.map_kernel_group
        monkeypatch.setattr(graded, "map_kernel_group", lambda *d: calls.append(d) or genuine(*d))
        ses = cofibre_of_mult(*self._periodic_mult(2))
        assert len(ses) == 40 and len(calls) == 1
        calls.clear()
        cofibre_of_mult(*self._periodic_mult(0))
        assert len(calls) == 2

    def test_map_corrupted_in_one_degree_changes_that_degree_only(self):
        good = cofibre_of_mult(*self._periodic_mult(2))
        bad = cofibre_of_mult(*self._periodic_mult(0))
        # degree n reads the cokernel at n and the kernel at n - 1
        assert [n for n in good if good[n] != bad[n]] == [7, 8]
        assert bad[7] == SesDatum(sub=Z, quotient=FgAbGroup(), resolved=Z)
        assert bad[8] == SesDatum(sub=Z2, quotient=Z, resolved=FgAbGroup(1, (2,)))
        assert good[8] == SesDatum(sub=Z2, quotient=FgAbGroup(), resolved=Z2)


class TestTorsor:
    def test_ln_is_z2_squared(self):
        assert torsor_count(table("Ln", (-8, 8)), 4) == FgAbGroup(0, (2, 2))

    def test_free_table_trivial(self):
        assert torsor_count(table("LR", (-8, 8)), 4).is_trivial()

    def test_ls_pattern_against_direct_ext(self):
        ls = table("Ls", (-8, 8))
        direct = FgAbGroup()
        for i in range(-8, -4):
            direct = direct.direct_sum(ext_group(ls[i], ls[i + 1]))
        assert torsor_count(ls, 4) == direct

    def test_randomized_against_ext_oracle(self):
        rng = random.Random(13)
        for _ in range(25):
            period = rng.choice([2, 3, 4])
            cell = [random_group(rng, max_order=16) for _ in range(period)]
            lo = -period
            hi = period * 2 - 1
            groups = {n: cell[n % period] for n in range(lo, hi + 1)}
            g = GradedGroup((lo, hi), groups, period)
            direct = FgAbGroup()
            for i in range(lo, lo + period):
                direct = direct.direct_sum(ext_group(g[i], g[i + 1]))
            assert torsor_count(g, period) == direct


class TestCombinators:
    def test_shift(self):
        g = table("Ln", (-8, 8))
        s = shift_graded(g, -1)
        assert s[3] == g[4]

    def test_mod_table(self):
        lr = table("LR", (-8, 8))
        lr2 = mod_table(lr, 2)
        assert lr2[0] == Z2 and lr2[4] == Z2 and lr2[1].is_trivial()
        lr8 = mod_table(lr, 8)
        assert lr8[0] == FgAbGroup.cyclic(8)

    def test_compare_is_equivalence(self):
        a = table("Ls", (-4, 4))
        b = table("Ls", (-4, 4))
        assert compare_graded(a, a)
        assert compare_graded(a, b) and compare_graded(b, a)
        with pytest.raises(ValueError):
            compare_graded(a, table("Ls", (-8, 8)))


class TestDirectSum:
    def test_sums_over_the_common_window(self):
        a = GradedGroup((-3, 2), {-3: Z, 0: Z, 1: Z2})
        b = GradedGroup((0, 5), {0: Z2, 1: FgAbGroup.cyclic(3), 4: Z})
        s = direct_sum_graded(a, b)
        assert s == GradedGroup((0, 2), {0: FgAbGroup(1, (2,)), 1: FgAbGroup.cyclic(6)})
        assert direct_sum_graded(b, a) == s

    def test_disjoint_windows_raise(self):
        with pytest.raises(ValueError, match="share no degree"):
            direct_sum_graded(GradedGroup((0, 2), {0: Z}), GradedGroup((3, 4), {3: Z}))


def _compare_item(name, A, B, detail, W):
    """The row of the claim that A and B agree over W, as the evaluator decides it."""
    (row,) = _evaluate(W, [_Claim(name, detail, _tables_equal, lambda: (A, B))])
    return row


class TestCompareItem:
    def test_reads_both_tables_over_the_report_window(self):
        ls = table("Ls", (-8, 8))
        assert _compare_item("row", ls, table("Ls", (-4, 20)), "d", (-4, 8)).passed

    def test_a_table_not_covering_the_window_fails_naming_the_degree(self):
        short = GradedGroup((0, 2), {0: Z})
        item = _compare_item("row", GradedGroup((-5, 5), {0: Z}), short, "d", (-1, 2))
        assert not item.passed
        assert item.detail == "d; degree -1 outside window (0, 2)"

    def test_mismatch_names_the_degree(self):
        item = _compare_item("row", GradedGroup((0, 2), {1: Z}), GradedGroup((0, 2), {1: Z2}), "d", (0, 2))
        assert (item.passed, item.detail) == (False, "d; mismatch at degree 1: Z vs Z/2")


class TestQuasiPeriodicTables:
    """Tables built from a core and two tails against the same tables worked out degree by degree."""

    WINDOWS = [(-12, 12), (-139, 139), (-2048, -1049), (1049, 2048)]

    @pytest.mark.parametrize("window", WINDOWS)
    def test_tables_and_duals_match_the_oracle(self, window):
        for name in TABLE_NAMES:
            made, oracle = table(name, window), table_by_degree(name, window)
            assert oracle.matches(made), name
            assert dual_by_degree(oracle).matches(anderson_dual(made)), name
            assert dual_by_degree(dual_by_degree(oracle)).matches(anderson_dual(anderson_dual(made))), name

    @pytest.mark.parametrize("window", WINDOWS)
    def test_combinators_match_the_oracle(self, window):
        made = {name: table(name, window) for name in TABLE_NAMES}
        oracle = {name: table_by_degree(name, window) for name in made}
        for name in made:
            for k in (-2, 1, 4):
                assert shift_by_degree(oracle[name], k).matches(shift_graded(made[name], k)), (name, k)
            # the oracle factors the kernel and cokernel of multiplication by m in each degree; where it finds
            # more than one extension (KO mod 2, say), mod_table refuses, naming a degree the oracle refuses too
            for m in (0, 1, -2, 2, 3, 4, 6, 8):
                try:
                    expected = mod_by_degree(oracle[name], m)
                except ValueError:
                    with pytest.raises(ValueError, match=f"mod-{m} table ambiguous at degree") as refusal:
                        mod_table(made[name], m)
                    d = int(str(refusal.value).rsplit(" ", 1)[1])
                    with pytest.raises(ValueError):
                        mod_by_degree(table_by_degree(name, (d - 1, d)), m)
                    continue
                assert expected.matches(mod_table(made[name], m)), (name, m)
        for names in (("LR", "Ls"), ("Ls", "KO"), ("Lgs", "scriptL", "lR")):
            assert sum_by_degree(*(oracle[n] for n in names)).matches(
                direct_sum_graded(*(made[n] for n in names))), names
        split = direct_sum_graded(made["LR"], shift_graded(mod_table(made["LR"], 2), 1))
        assert sum_by_degree(oracle["LR"], shift_by_degree(mod_by_degree(oracle["LR"], 2), 1)).matches(split)

    def test_mod_table_builds_no_map(self, monkeypatch):
        built = []
        genuine = GradedMap._fill
        monkeypatch.setattr(GradedMap, "_fill", lambda f, *a: built.append(a) or genuine(f, *a))
        for name in ("LR", "lR", "Ls", "scriptL"):
            for m in (0, 2, 8):
                mod_table(table(name, (-12, 12)), m)
        mod_table(GradedGroup((0, 3), {0: "Z", 2: "Z/4"}), 2)
        assert built == []
        scalar_map([table("Ls", (-4, 4))], [table("Ls", (-4, 4))], 0, lambda n: [[1]], core=(0, 0), tails=(1, 1))
        assert len(built) == 1  # the counter sees a map being built

    def test_far_tables_and_duals_cost_what_near_ones_do(self, monkeypatch):
        from lspectra import ltables

        calls = Counter()
        for module, fn in ((ltables, "ring_basis"), (graded, "hom_group")):
            genuine = getattr(module, fn)
            monkeypatch.setattr(module, fn, lambda *a, _g=genuine, _f=fn: calls.update([_f]) or _g(*a))

        def counted(window):
            calls.clear()
            anderson_dual(table("Lgs", window))
            return dict(calls)

        near = counted((-12, 12))
        assert counted((-2048, -1049)) == counted((1049, 2048)) == near
        assert near["ring_basis"] <= 16 and near["hom_group"] <= 32, near

    def test_a_finite_table_keeps_its_lookups(self):
        g = GradedGroup((0, 5), {0: Z, 1: Z2, 4: Z, 5: Z2}, period=4)
        assert [g[n] for n in (-4, -3, 8, 9, 10)] == [Z, Z2, Z, Z2, FgAbGroup()]
        short = GradedGroup((0, 2), {0: Z}, period=4)  # the window does not span its period
        assert short[2] == FgAbGroup()
        with pytest.raises(OutOfWindowError, match=r"degree 4 outside window \(0, 2\)"):
            short[4]
        assert GradedGroup((0, 2), {0: Z}) == GradedGroup((0, 2), {0: Z}, 4)


def _tight_table(rng, window=(-40, 40)):
    """A table whose core, somewhere near 0, is one period of each tail plus up to 5 free degrees."""
    below, above = rng.randint(1, 4), rng.randint(1, 4)
    a = rng.randint(-8, 4)
    b = a + max(below, above) - 1 + rng.randint(0, 5)
    groups = {n: random_group(rng, max_order=16) for n in range(a, b + 1)}
    return GradedGroup.from_core(window, None, (a, b), groups.__getitem__, (below, above))


class TestTightCores:
    """Combinators on tables whose cores have no slack, against their degreewise definitions."""

    FAR = list(range(-70, 71)) + [-2048, -1001, 999, 2047]

    def test_combinators_repeat_where_their_inputs_do(self):
        from lspectra.ltables import _truncate_below

        rng = random.Random(2044)
        for _ in range(60):
            A, B = _tight_table(rng), _tight_table(rng)
            dual, k, cut = anderson_dual(A), rng.randint(-9, 9), rng.randint(-9, 9)
            shifted, summed, cut_off = shift_graded(A, k), direct_sum_graded(A, B), _truncate_below(A, cut)
            for n in self.FAR:
                assert dual[n] == hom_group(A[-n], Z).direct_sum(ext_group(A[-n - 1], Z)), n
                assert shifted[n] == A[n - k] and cut_off[n] == (A[n] if n >= cut else FgAbGroup()), n
                assert summed[n] == FgAbGroup.from_divisors(A[n].gen_orders() + B[n].gen_orders()), n

    def test_deciding_degrees_decide(self):
        # a table and a copy with a larger core, one of them changed in a single degree
        rng = random.Random(4096)
        for _ in range(300):
            A = _tight_table(rng)
            B = direct_sum_graded(A)
            if rng.random() < 0.5:
                m, other = rng.randint(B.core[0], B.core[1]), random_group(rng)
                B = GradedGroup.from_core(B.window, None, B.core, lambda n: other if n == m else A[n], B.tails)
            lo = rng.randint(-60, 40)
            W = (lo, lo + rng.randint(0, 30))
            assert all(A[n] == B[n] for n in deciding_degrees(W, (A, B))) == all(
                A[n] == B[n] for n in range(W[0], W[1] + 1)), W


class TestFailureBranches:
    """Each refusal of the graded layer below is reached by some input."""

    def test_an_ambiguous_mod_table_is_refused(self):
        # coker of 2 on Z/2 in degree 1 and its kernel in degree 0: Z/4 or Z/2 + Z/2
        with pytest.raises(ValueError, match="mod-2 table ambiguous at degree 1"):
            mod_table(GradedGroup((0, 1), {0: "Z/2", 1: "Z/2"}), 2)

    def test_maps_with_no_common_degree_are_refused(self):
        G = GradedGroup((0, 3), {0: "Z", 2: "Z"})
        with pytest.raises(ValueError, match="no common degree to check"):
            check_exact(GradedMap(G, G, 0, {0: [[1]]}), GradedMap(G, G, 0, {2: [[1]]}))

    def test_a_degree_not_given_reads_as_the_zero_map(self):
        G = GradedGroup((0, 3), {0: "Z", 2: "Z + Z/2"})
        f = GradedMap(G, G, 0, {0: [[3]]})
        assert f.component(0) == IntMatrix([[3]])
        assert f.component(2) == IntMatrix.zero(2, 2) and f.component(3) == IntMatrix.zero(0, 0)
        assert sorted(f.components) == [0]
