import dataclasses

import pytest

from lspectra import ltables
from lspectra.abelian import IntMatrix
from lspectra.graded import GradedMap, compare_graded, double_dual_check, restrict, shift_graded
from lspectra.ltables import (
    ONE,
    RingPresentation,
    TABLE_NAMES,
    e_multiplication_report,
    boundary_map,
    golden_table,
    mono,
    mult_by,
    presentation,
    symmetrisation_map,
    table,
    verify_presentation,
    verify_presentations_report,
    verify_classical,
    verify_genuine,
)

class TestTables:
    def test_golden_windows(self):
        for name in TABLE_NAMES:
            gold = golden_table(name)
            made = table(name, gold.window)
            assert compare_graded(made, gold), name

    def test_sample_rows(self):
        ls = table("Ls", (0, 4))
        assert [ls[n].render() for n in range(0, 5)] == ["Z", "Z/2", "0", "0", "Z"]
        lgs = table("Lgs", (-8, 0))
        assert [lgs[n].render() for n in (-6, -5, -4, -3)] == ["Z/2", "0", "Z", "0"]
        sl = table("scriptL", (-4, 4))
        assert [sl[n].render() for n in range(-4, 5)] == [
            "Z", "0", "0", "0", "Z", "0", "0", "0", "Z",
        ]

    def test_declared_periods_hold(self):
        # construction validates periodicity; a wrong declaration raises
        for name in ("Lq", "Ls", "Ln", "LR", "LC", "LCc", "dR", "KO"):
            t = table(name, (-16, 16))
            assert t.period is not None
        for name in ("Lgs", "Lgq", "lR", "scriptL"):
            assert table(name, (-16, 16)).period is None

    def test_localisation_consistency(self):
        lgs, ls = table("Lgs", (-16, 16)), table("Ls", (-16, 16))
        assert all(lgs[n] == ls[n] for n in range(0, 17))
        lq, lgq = table("Lq", (-16, 16)), table("Lgq", (-16, 16))
        assert all(lq[n] == lgq[n] for n in range(-16, 2))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            table("nope", (-4, 4))


class TestMultiplication:
    def test_e_on_ln_hits_four(self):
        e = mult_by("Ln", "e", (-8, 8))
        assert e.component(-1) == IntMatrix([[4]])  # f -> ef = 4
        assert e.component(3) == IntMatrix([[4]])  # xf -> 4x
        assert e.component(0) == IntMatrix([[1]])  # 1 -> e
        assert e.component(1).is_zero()  # e -> e^2 = 0

    def test_x_invertible_on_ls(self):
        x = mult_by("Ls", "x", (-8, 8))
        for n in range(-8, 5):
            if n % 4 in (0, 1):
                assert x.component(n) == IntMatrix([[1]])

    def test_x_on_lgs_at_minus_four(self):
        x = mult_by("Lgs", "x", (-12, 12))
        assert x.component(-4) == IntMatrix([[8]])
        assert x.component(-8) == IntMatrix([[1]])
        assert x.component(-6).is_zero()  # x z_1 = 0

    def test_unknown_symbol(self):
        with pytest.raises(KeyError):
            mult_by("Ls", "q", (-4, 4))


class TestBoundaryMap:
    def test_stated_values(self):
        b = boundary_map((-8, 8))
        assert b.component(3) == IntMatrix([[1]])  # xf -> 8xg, the generator
        assert b.component(1).is_zero()
        assert b.component(0).is_zero()
        assert b.component(-5) == IntMatrix([[1]])


class TestPresentations:
    def test_all_verify(self):
        report = verify_presentations_report((-16, 16))
        assert all(item.passed for item in report), [i.name for i in report if not i.passed]

    def test_corrupted_ef_detected(self):
        good = presentation("Ln")
        rewrites = tuple(
            (p, (2 if p == mono(("e", 1), ("f", 1)) else c), r) for p, c, r in good.rewrites
        )
        bad = RingPresentation(
            name="Ln",
            generators=good.generators,
            invertible=good.invertible,
            coeff_modulus=good.coeff_modulus,
            rewrites=rewrites,
            torsion_patterns=good.torsion_patterns,
        )
        assert bad.reduce({mono(("e", 1), ("f", 1)): 1, ONE: -4}) != {}
        assert not verify_presentation("Ln", (-8, 8), pres=bad)

    @pytest.mark.parametrize("name", ["Ls", "Ln", "LC", "Lgs", "scriptL"])
    def test_corrupted_rule_detected(self, name):
        good = presentation(name, (-16, 16))
        xy1 = mono(("x", 1), ("y1", 1))
        if name == "Ls":
            bad = dataclasses.replace(good, torsion_patterns=((mono(("e", 1)), 4),))
        elif name == "Ln":
            bad = dataclasses.replace(good, rewrites=tuple(
                (p, 2 if p == mono(("e", 1), ("f", 1)) else c, r) for p, c, r in good.rewrites))
        elif name == "LC":
            bad = dataclasses.replace(good, coeff_modulus=4)
        else:
            bad = dataclasses.replace(good, rewrites=tuple(
                (p, 4 if p == xy1 else c, r) for p, c, r in good.rewrites))
        assert bad != good
        assert verify_presentation(name, (-16, 16))
        assert not verify_presentation(name, (-16, 16), pres=bad)

    def test_every_rule_is_checked(self):
        # y2 z1 -> z3 keeps every generator product inside the basis with the
        # right orders, so only reducing the relation of its own rule sees it
        good = presentation("Lgs", (-16, 16))
        target = mono(("z1", 1), ("y2", 1))
        bad = dataclasses.replace(good, rewrites=tuple(
            (p, 1, mono(("z3", 1))) if p == target else (p, c, r) for p, c, r in good.rewrites))
        assert not verify_presentation("Lgs", (-16, 16), pres=bad)

    def test_rewrite_patterns_distinct(self):
        patterns = [p for p, _, _ in presentation("Lgs", (-100, 100)).rewrites]
        assert len(patterns) == len(set(patterns)) == 1398

    @pytest.mark.parametrize("window", [(-16, 16), (5, 6), (20, 30), (-30, -20)])
    def test_lq_ring_structure(self, window):
        assert ltables.verify_lq_ring(window)

    def test_lq_ring_detects_wrong_symmetrisation(self, monkeypatch):
        genuine = ltables.symmetrisation_map

        def times_four(window):
            s = genuine(window)
            comps = {n: IntMatrix([[4]]) if n % 4 == 0 else s.component(n) for n in s.source.degrees()}
            return GradedMap(s.source, s.target, 0, comps)

        monkeypatch.setattr(ltables, "symmetrisation_map", times_four)
        assert not ltables.verify_lq_ring((-16, 16))
        rows = {i.name: i for i in verify_presentations_report((-16, 16))}
        assert rows["lq-ring-structure"].passed is False
        assert rows["lq-ring-structure"].detail == ""

    def test_verify_presentation_true(self):
        assert verify_presentation("Ln", (-16, 16))
        assert verify_presentation("Lgs", (-16, 16))


class TestTheoremSuites:
    def test_classical_suite_all_pass(self):
        report = verify_classical((-12, 12))
        failed = [i.name for i in report if not i.passed]
        assert not failed, failed

    def test_genuine_suite_all_pass(self):
        report = verify_genuine((-16, 16))
        failed = [i.name for i in report if not i.passed]
        assert not failed, failed

    def test_fault_injection_flips_kernel_argument(self):
        window = (-12, 12)
        pad = (-20, 20)
        ln = table("Ln", pad)
        genuine = mult_by("Ln", "e", pad)
        corrupted = {}
        for n in range(pad[0], pad[1]):
            c = genuine.component(n)
            corrupted[n] = IntMatrix.zero(c.rows, c.cols) if n % 4 == 3 else c
        from lspectra.graded import GradedMap

        bad = GradedMap(ln, ln, 1, corrupted)
        report = {i.name: i.passed for i in e_multiplication_report(window, e_map=bad)}
        assert report["mult-e-kernel"] is False
        assert report["mult-e-cofibre-vanishing"] is False
        assert report["mult-e-resolved-Z"] is False
        good = {i.name: i.passed for i in e_multiplication_report(window)}
        assert all(good.values())

    def test_symmetrisation_map_values(self):
        s = symmetrisation_map((-8, 8))
        assert s.component(0) == IntMatrix([[8]])
        assert s.component(4) == IntMatrix([[8]])
        assert s.component(2).is_zero()

    def test_anderson_involutive_on_builtins(self):
        for name in ("Ls", "Lq", "Ln", "LR", "LC", "LCc", "dR", "KO"):
            assert double_dual_check(table(name, (-12, 12))), name

    def test_skew_shift_pinned_by_self_duality(self):
        # the two-fold shift is Anderson self-dual; the opposite shift is not
        from lspectra.graded import anderson_dual

        lgs = table("Lgs", (-18, 18))
        w = (-10, 10)
        up = shift_graded(lgs, 2)
        assert compare_graded(restrict(anderson_dual(up), w), restrict(up, w))
        down = shift_graded(lgs, -2)
        assert not compare_graded(restrict(anderson_dual(down), w), restrict(down, w))
