import inspect
import random
import re
import signal
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from lspectra import graded, ltables
from lspectra.abelian import FgAbGroup, IntMatrix
from lspectra.cli import main
from lspectra.graded import (
    GradedGroup,
    GradedMap,
    SesDatum,
    check_exact,
    compare_graded,
    double_dual_check,
    scalar_map,
    shift_graded,
)
from lspectra.ltables import (
    ONE,
    CheckResult,
    RingPresentation,
    TABLE_NAMES,
    e_multiplication_report,
    boundary_map,
    golden_table,
    mono,
    mono_mul,
    mult_by,
    presentation,
    projection_to_ln,
    symmetrisation_map,
    table,
    verify_presentation,
    verify_presentations_report,
    verify_classical,
    verify_genuine,
)

from helpers import (component_read_at, expand_schemata, expanded_presentation, mono_div_by_dict,
                     products_in_basis_by_scan, random_ring_element, reduce_by_scan, replaced, restrict)

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
        e = mult_by("Ln", "e", table("Ln", (-8, 8)))
        assert e.component(-1) == IntMatrix([[4]])  # f -> ef = 4
        assert e.component(3) == IntMatrix([[4]])  # xf -> 4x
        assert e.component(0) == IntMatrix([[1]])  # 1 -> e
        assert e.component(1).is_zero()  # e -> e^2 = 0

    def test_x_invertible_on_ls(self):
        x = mult_by("Ls", "x", table("Ls", (-8, 8)))
        for n in range(-8, 5):
            if n % 4 in (0, 1):
                assert x.component(n) == IntMatrix([[1]])

    def test_x_on_lgs_at_minus_four(self):
        x = mult_by("Lgs", "x", table("Lgs", (-12, 12)))
        assert x.component(-4) == IntMatrix([[8]])
        assert x.component(-8) == IntMatrix([[1]])
        assert x.component(-6).is_zero()  # x z_1 = 0

    def test_unknown_symbol(self):
        with pytest.raises(KeyError):
            mult_by("Ls", "q", table("Ls", (-4, 4)))

    def test_module_generators_are_those_of_ls(self):
        lq = table("Lq", (-4, 4))
        assert [mult_by("Lq", sym, lq).degree_shift for sym in ("x", "e")] == [4, 1]
        with pytest.raises(KeyError, match="unknown generator 'q' of Lq"):
            mult_by("Lq", "q", lq)

    @pytest.mark.parametrize("window", [(2036, 2048), (-2048, -2036)])
    def test_far_tables_repeat_the_pattern(self, window):
        # far from 0 every power of x is a normal form of its own
        lo, hi = window
        e, x = mult_by("Ln", "e", table("Ln", window)), mult_by("Ls", "x", table("Ls", window))
        e_by_residue = {3: IntMatrix([[4]]), 0: IntMatrix([[1]])}
        for n in range(lo, hi):
            if n % 4 == 1:
                assert e.component(n).is_zero(), n
            elif n % 4 in e_by_residue:
                assert e.component(n) == e_by_residue[n % 4], n
        for n in range(lo, hi - 3):
            if n % 4 in (0, 1):
                assert x.component(n) == IntMatrix([[1]]), n


class TestBoundaryMap:
    def test_stated_values(self):
        b = boundary_map(table("Ln", (-8, 8)), table("Lq", (-8, 8)))
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
            rewrites=rewrites,
            torsion_patterns=good.torsion_patterns,
        )
        assert bad.reduce({mono(("e", 1), ("f", 1)): 1, ONE: -4}) != {}
        assert not verify_presentation("Ln", (-8, 8), pres=bad)

    @pytest.mark.parametrize("name", ["Ls", "Ln", "LC", "Lgs", "scriptL"])
    def test_corrupted_rule_detected(self, name):
        good = presentation(name)
        xy1 = mono(("x", 1), ("y1", 1))
        if name == "Ls":
            bad = replaced(good, torsion_patterns=((mono(("e", 1)), 4),))
        elif name == "Ln":
            bad = replaced(good, rewrites=tuple(
                (p, 2 if p == mono(("e", 1), ("f", 1)) else c, r) for p, c, r in good.rewrites))
        elif name == "LC":
            bad = replaced(good, torsion_patterns=((ONE, 4),))
        else:
            bad = replaced(good, rewrites=tuple(
                (p, 4 if p == xy1 else c, r) for p, c, r in good.rewrites))
        assert bad != good
        assert verify_presentation(name, (-16, 16))
        assert not verify_presentation(name, (-16, 16), pres=bad)

    def test_every_rule_is_checked(self):
        # y2 z1 -> z3 keeps every generator product inside the basis with the
        # right orders, so only reducing the relation of its own rule sees it
        good = expanded_presentation("Lgs", (-16, 16))
        target = mono(("z1", 1), ("y2", 1))
        bad = replaced(good, rewrites=tuple(
            (p, 1, mono(("z3", 1))) if p == target else (p, c, r) for p, c, r in good.rewrites))
        assert not verify_presentation("Lgs", (-16, 16), pres=bad)

    def test_rewrite_patterns_distinct(self):
        patterns = [p for p, _, _ in expanded_presentation("Lgs", (-100, 100)).rewrites]
        assert len(patterns) == len(set(patterns)) == 1398

    @pytest.mark.parametrize("window", [(-16, 16), (5, 6), (20, 30), (-30, -20)])
    def test_lq_ring_structure(self, window):
        assert ltables.verify_lq_ring(window)

    def test_lq_ring_builds_tables_only_where_it_reads(self, monkeypatch):
        # one map on the window widened by a period, read at the left factors' degrees too; the tables
        # once spanned every degree back to 0
        built = []
        genuine = ltables.table
        monkeypatch.setattr(ltables, "table", lambda name, window: built.append((name, window)) or genuine(name, window))
        assert ltables.verify_lq_ring((-2000, -1996))
        assert sorted(built) == [("Lq", (-2004, -1993)), ("Ls", (-2004, -1993))]

    def test_lq_ring_detects_wrong_symmetrisation(self, monkeypatch):
        genuine = ltables.symmetrisation_map

        def times_four(lq, ls):
            s = genuine(lq, ls)
            comps = {n: IntMatrix([[4]]) if n % 4 == 0 else s.component(n) for n in s.source.degrees()}
            return GradedMap(s.source, s.target, 0, comps)

        monkeypatch.setattr(ltables, "symmetrisation_map", times_four)
        assert not ltables.verify_lq_ring((-16, 16))
        rows = {i.name: i for i in verify_presentations_report((-16, 16))}
        assert rows["lq-ring-structure"].passed is False
        assert rows["lq-ring-structure"].detail == ""

    @pytest.mark.parametrize("window", [(-16, 16), (-75, 75)])
    def test_lq_module_check_detects_wrong_x(self, window, monkeypatch):
        # x acting by 3 on L^q no longer commutes with the symmetrisation
        genuine = ltables.mult_by

        def x_by_three(name, sym, tab):
            if (name, sym) == ("Lq", "x"):
                return scalar_map([tab], [tab], 4, lambda n: [[3]], core=(0, 0), tails=(1, 1))
            return genuine(name, sym, tab)

        assert verify_presentation("Lq", window)
        monkeypatch.setattr(ltables, "mult_by", x_by_three)
        assert not verify_presentation("Lq", window)
        rows = {i.name: i.passed for i in verify_presentations_report((-16, 16))}
        assert [name for name, passed in rows.items() if not passed] == ["presentation-Lq"]

    @pytest.mark.parametrize("name,degree,label", [
        ("Ls", 41, mono(("e", 1), ("x", 10))),
        ("Ln", 40, mono(("x", 10))),
    ])
    def test_torsion_order_check_can_fail(self, name, degree, label, monkeypatch):
        # a basis order beyond the golden window is seen only by the check
        # that products of torsion classes respect their orders
        genuine = ltables.ring_basis

        def wrong_order(ring, d):
            if (ring, d) == (name, degree):
                assert genuine(ring, d)[0][0] == label
                return [(label, 4)]
            return genuine(ring, d)

        assert verify_presentation(name, (-50, 50))
        monkeypatch.setattr(ltables, "ring_basis", wrong_order)
        assert not verify_presentation(name, (-50, 50))

    def test_verify_presentation_true(self):
        assert verify_presentation("Ln", (-16, 16))
        assert verify_presentation("Lgs", (-16, 16))


class TestDataModel:
    """A presentation is its generators, rewrites and torsion relations, and nothing else."""

    def test_four_init_fields(self):
        fields = list(inspect.signature(RingPresentation).parameters)
        assert fields == ["name", "generators", "rewrites", "torsion_patterns"]

    def test_coefficient_moduli_are_torsion_relations_on_one(self):
        assert presentation("Ln").torsion_patterns[-1] == (ONE, 8)
        assert presentation("LC").torsion_patterns == ((ONE, 2),)

    @pytest.mark.parametrize("modulus", [None, 16])
    def test_a_wrong_modulus_fails_its_row_only(self, modulus, monkeypatch):
        good = presentation("Ln")
        torsion = good.torsion_patterns[:-1] + (((ONE, modulus),) if modulus else ())
        bad = replaced(good, torsion_patterns=torsion)
        genuine = ltables.verify_presentation
        monkeypatch.setattr(ltables, "verify_presentation", lambda n, w, **kw: genuine(
            n, w, pres=bad if n == "Ln" else None, **kw))
        rows = {i.name: i.passed for i in verify_presentations_report((-16, 16))}
        assert [row for row, passed in rows.items() if not passed] == ["presentation-Ln"]

    def test_far_x_powers_reduce_as_the_scan(self):
        rings = {name: ltables._build_presentation(name) for name in ("Ls", "Ln", "LC", "LR")}
        rings["Lq ring"] = ltables._lq_ring()
        rng = random.Random("far x powers")
        for name, pres in rings.items():
            unit = "t" if name == "Lq ring" else "x"
            others = [s for s, _ in pres.generators if s != unit]
            memo = {}
            for _ in range(200):
                element = {}
                for _ in range(rng.randint(1, 4)):
                    factors = [(s, rng.randint(0, 3)) for s in rng.sample(others, rng.randint(0, len(others)))]
                    m = mono((unit, rng.randint(-600, 600)), *factors)
                    element[m] = element.get(m, 0) + rng.randint(-9, 9)
                assert pres.reduce(element) == reduce_by_scan(pres, element, memo), (name, element)

    def test_far_windows_keep_the_shared_memos_bounded(self, capsys):
        for argv in (["verify", "A", "--window", "-2048..-1049"], ["verify", "B", "--window", "1049..2048"],
                     ["verify", "presentations", "--window", "-500..500"]):
            assert main(argv) == 0, argv
        capsys.readouterr()
        sizes = {name: len(pres._normal_forms) for name, pres in ltables._SHARED.items()}
        assert max(sizes.values()) <= ltables.MEMO_BOUND, sizes


def _corrupted_rule(name: str) -> RingPresentation:
    """The presentation of ``name`` with the one rule that ``test_corrupted_rule_detected`` corrupts."""
    good = presentation(name)
    if name == "Ls":
        return replaced(good, torsion_patterns=((mono(("e", 1)), 4),))
    if name == "Ln":
        return replaced(good, rewrites=tuple(
            (p, 2 if p == mono(("e", 1), ("f", 1)) else c, r) for p, c, r in good.rewrites))
    if name == "LC":
        return replaced(good, torsion_patterns=((ONE, 4),))
    xy1 = mono(("x", 1), ("y1", 1))
    return replaced(good, rewrites=tuple((p, 4 if p == xy1 else c, r) for p, c, r in good.rewrites))


def _basis_with(ring: str, degree: int, basis):
    """``ring_basis`` with the basis of one degree of one ring replaced."""
    genuine = ltables.ring_basis
    return lambda r, d: list(basis) if (r, d) == (ring, degree) else genuine(r, d)


def _coefficient_mutants(name: str) -> list:
    """(label, presentation) with one rewrite coefficient or torsion modulus c set to 0, c+1, 2c, c//2 or -c."""
    good = presentation(name)
    out = []
    for kind in ("rewrites", "torsion_patterns"):
        rules = getattr(good, kind)
        for k, rule in enumerate(rules):
            c = rule[1]
            for v in dict.fromkeys((0, c + 1, 2 * c, c // 2, -c)):
                if v != c:
                    bad = rules[:k] + ((rule[0], v, *rule[2:]),) + rules[k + 1:]
                    out.append((f"{name} {kind}[{k}] {c} -> {v}", replaced(good, **{kind: bad})))
    return out


def _outcome(f, *args, **kwargs):
    """("value", f(...)), or ("raises", the exception's type)."""
    try:
        return "value", f(*args, **kwargs)
    except ArithmeticError as exc:
        return "raises", type(exc)


class TestProductCheck:
    """The generator-product check of ``verify_presentation`` against the scan of every degree."""

    @pytest.mark.parametrize("window,sample", [((-16, 16), None), ((-50, 50), 12)])
    def test_coefficient_mutants_match_the_scan(self, window, sample):
        # every mutant at +-16, a seeded sample at +-50; each check on a fresh memo of its own
        mutants = [(name, label, bad) for name in ("Lgs", "scriptL") for label, bad in _coefficient_mutants(name)]
        if sample:
            mutants = random.Random(f"coefficient mutants {window}").sample(mutants, sample)
        passed = True
        for name, label, bad in mutants:
            scan = _outcome(products_in_basis_by_scan, replaced(bad), window)
            assert scan[0] == "value", label  # a modulus set to 0 is no relation: nothing divides by zero
            assert _outcome(ltables._products_in_basis, replaced(bad), window) == scan, label
            fresh = replaced(bad)
            relations = _outcome(lambda: not any(fresh.reduce(elem) for elem in presentation(name)._relations(window)))
            golden = _outcome(ltables._matches_golden, name)
            expected = next((o for o in (relations, scan) if o != ("value", True)), golden)
            assert _outcome(verify_presentation, name, window, pres=replaced(bad)) == expected, label
            passed &= expected == ("value", True)
        assert not passed  # the set holds mutants that fail the row

    @pytest.mark.parametrize("window", [(-16, 16), (-50, 50), (-400, -396)])
    def test_verdict_is_relations_and_scan_and_golden(self, window, monkeypatch):
        genuine = ltables.ring_basis
        cases = [(name, None, genuine) for name in ltables.RING_NAMES]
        cases += [(name, _corrupted_rule(name), genuine) for name in ("Ls", "Ln", "LC", "Lgs", "scriptL")]
        # the bases of test_torsion_order_check_can_fail, and z11 dropped from degree -46
        cases += [(name, None, _basis_with(name, degree, [(label, 4)]))
                  for name, degree, label in (("Ls", 41, mono(("e", 1), ("x", 10))), ("Ln", 40, mono(("x", 10))))]
        cases += [("Lgs", None, _basis_with("Lgs", -46, []))]
        verdicts = []
        for name, bad, basis in cases:
            monkeypatch.setattr(ltables, "ring_basis", basis)
            pres = bad or presentation(name)
            relations = not any(pres.reduce(elem) for elem in presentation(name)._relations(window))
            products = products_in_basis_by_scan(pres, window)
            # the fast check alone, on a fresh memo, whatever the relations say
            assert ltables._products_in_basis(replaced(pres), window) == products, (name, bad, window)
            expected = relations and products and ltables._matches_golden(name)
            assert verify_presentation(name, window, pres=bad) == expected, (name, bad, window)
            verdicts.append((expected, products))
        genuine_rows = len(ltables.RING_NAMES)
        assert all(all(v) for v in verdicts[:genuine_rows])
        if window == (-50, 50):
            # every corruption lies in the window; the products alone see ef = 2 and the three bases
            assert not any(expected for expected, _ in verdicts[genuine_rows:])
            seen = [not products for _, products in verdicts[genuine_rows:]]
            assert seen == [False, True, False, False, False] + [True] * 3

    def test_an_empty_target_degree_still_fails(self, monkeypatch):
        # z11 lies outside the +-16 golden window, and dropping it leaves every
        # rule and every other basis monomial intact: only the products that
        # land in degree -46, such as x z12 = z11, see it
        assert ltables.ring_basis("Lgs", -46) == [(mono(("z11", 1)), 2)]
        assert verify_presentation("Lgs", (-50, 50))
        monkeypatch.setattr(ltables, "ring_basis", _basis_with("Lgs", -46, []))
        assert not verify_presentation("Lgs", (-50, 50))
        assert verify_presentation("Lgs", (-40, 40))

    def test_one_term_reduction_is_reduce_of_one_term(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        rings = {name: presentation(name) for name in ltables.RING_NAMES}
        rings["Lq ring"] = ltables._lq_ring()
        symbols = {name: [s if isinstance(d, int) else f"{s}{i}" for s, d in pres.generators
                          for i in ([None] if isinstance(d, int) else range(1, 7))]
                   for name, pres in rings.items()}

        def cases(name):
            factors = st.lists(st.tuples(st.sampled_from(symbols[name]), st.integers(-3, 4)), max_size=4)
            return st.tuples(st.just(name), factors, st.integers(-200, 200))

        @hypothesis.settings(derandomize=True, max_examples=400, deadline=None, database=None)
        @hypothesis.given(case=st.sampled_from(sorted(rings)).flatmap(cases))
        def agrees(case):
            name, factors, c = case
            m = mono(*factors)
            term = rings[name]._reduce_term(m, c)
            assert rings[name].reduce({m: c}) == ({} if term is None else {term[1]: term[0]}), (name, m, c)

        agrees()
        # the moduli apply to the product with the coefficient: 64 g t^2 = 0, though g t^2 is not
        lq, gt2 = ltables._lq_ring(), mono(("g", 1), ("t", 2))
        assert lq._reduce_term(gt2, 64) is None and lq.reduce({gt2: 64}) == {}
        assert lq._reduce_term(gt2, 1) == (1, gt2)
        # x of L^s at a negative power stays in the normal form of e x^-5 and of e^2 x^-5 = 0
        ls, ex = presentation("Ls"), mono(("e", 1), ("x", -5))
        assert ls._reduce_term(ex, 3) == (1, ex) and ls._reduce_term(mono(("e", 2), ("x", -5)), 1) is None

    def test_one_generator_product_is_mono_mul(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        symbols = ["e", "f", "g", "t", "x", "y1", "y2", "y10", "z3"]

        @hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
        @hypothesis.given(factors=st.lists(st.tuples(st.sampled_from(symbols), st.integers(-3, 3)), max_size=5),
                          s=st.sampled_from(symbols))
        def agrees(factors, s):
            m = mono(*factors)
            assert ltables._times(m, s) == mono_mul(m, mono((s, 1)))

        agrees()
        # x x^-1 = 1: the factor cancels and leaves no zero power behind
        assert ltables._times(mono(("x", -1)), "x") == ONE
        assert ltables._times(mono(("e", 1), ("x", -1), ("y2", 1)), "x") == mono(("e", 1), ("y2", 1))

    def test_mono_div_is_the_dict_quotient(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        symbols = ["e", "f", "g", "t", "x", "y1", "y2", "y10", "z3"]
        factors = st.lists(st.tuples(st.sampled_from(symbols), st.integers(-3, 3)), max_size=5)

        @hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
        @hypothesis.given(m=factors, pattern=factors, s=st.sampled_from(symbols), e=st.integers(-3, 3))
        def agrees(m, pattern, s, e):
            m, pattern = mono(*m), mono(*pattern)
            assert ltables.mono_div(m, pattern) == mono_div_by_dict(m, pattern)
            assert ltables._times(m, s, e) == mono_mul(m, mono((s, e)))

        agrees()
        # a factor that cancels leaves no zero power behind, and 1 divides as the identity
        assert ltables.mono_div(mono(("x", 2), ("y2", 1)), mono(("x", 2))) == mono(("y2", 1))
        assert ltables.mono_div(mono(("e", 1)), ONE) == mono(("e", 1))


class TestSchemata:
    """Window-free presentations: the window decides only what is checked."""

    def test_one_rule_per_family(self):
        assert list(inspect.signature(presentation).parameters) == ["name"]
        lgs, script = presentation("Lgs"), presentation("scriptL")
        assert (len(lgs.rewrites), len(lgs.torsion_patterns)) == (11, 2)
        assert (len(script.rewrites), len(script.torsion_patterns)) == (3, 0)
        assert not hasattr(ltables, "_family_range") and not hasattr(ltables, "_DivisorIndex")
        # y_i y_j -> 8 y_(i+j) holds for indices far past any window's range
        assert lgs.reduce({mono(("y400", 1), ("y600", 1)): 1}) == {mono(("y1000", 1)): 8}
        assert lgs.degree(mono(("x", 2), ("y3", 1), ("z5", 1))) == 8 - 12 - 22
        with pytest.raises(KeyError):
            lgs.degree(mono(("y", 1)))

    @pytest.mark.parametrize("window", [(-16, 16), (-100, 100), (-400, -396)])
    @pytest.mark.parametrize("name", ltables.RING_NAMES)
    def test_checked_relations_are_the_expansion_in_the_window(self, name, window, monkeypatch):
        reduced = []
        genuine = RingPresentation.reduce

        def recorded(pres, element):
            if sys._getframe(1).f_code.co_name == "verify_presentation":
                reduced.append(frozenset(element.items()))
            return genuine(pres, element)

        monkeypatch.setattr(RingPresentation, "reduce", recorded)
        assert verify_presentation(name, window)
        oracle = expanded_presentation(name, window)
        relations = [{p: 1, r: -c} for p, c, r in oracle.rewrites]
        relations += [{p: d} for p, d in oracle.torsion_patterns]
        lo, hi = window
        expected = {frozenset(r.items()) for r in relations if lo <= oracle.degree(next(iter(r))) <= hi}
        assert set(reduced) == expected and len(reduced) == len(expected)

    @pytest.mark.parametrize("name", ["Lgs", "scriptL"])
    @pytest.mark.parametrize("window,inside,outside", [
        ((-16, 16), (1, 3), (3, 3)),
        ((-100, 100), (10, 15), (13, 14)),
        ((-400, -396), (40, 60), (50, 52)),
    ])
    def test_a_corrupted_instance_is_seen_in_the_window_only(self, name, window, inside, outside, monkeypatch):
        # y_i y_j -> 4 y_(i+j), listed before the schemata, corrupts that one instance
        def corrupted(i, j):
            good = presentation(name)
            rule = (mono((f"y{i}", 1), (f"y{j}", 1)), 4, mono((f"y{i + j}", 1)))
            return replaced(good, rewrites=(rule,) + good.rewrites)

        lo, hi = window
        assert lo <= -4 * sum(inside) <= hi and not lo <= -4 * sum(outside) <= hi
        genuine = ltables.verify_presentation
        for bad, failing in ((corrupted(*inside), [f"presentation-{name}"]), (corrupted(*outside), [])):
            monkeypatch.setattr(ltables, "verify_presentation", lambda n, w, **kw: genuine(
                n, w, pres=bad if n == name else None, **kw))
            rows = {i.name: i.passed for i in verify_presentations_report(window)}
            assert [row for row, passed in rows.items() if not passed] == failing
        # not examined outside the window, and seen by one that holds its degree
        d = -4 * sum(outside)
        assert not genuine(name, (d, d), pres=corrupted(*outside))

    def test_far_window_report_is_fast(self):
        # 9 s when the rules were expanded up to the window's range
        start = time.perf_counter()
        report = verify_presentations_report((-2000, -1996))
        assert time.perf_counter() - start < 2
        assert all(item.passed for item in report)

    def test_normal_forms_match_the_expansion_on_generated_monomials(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        window = lo, hi = (-100, 100)
        oracles = {name: (expanded_presentation(name, window), {}) for name in ("Lgs", "scriptL")}
        pres = {name: presentation(name) for name in oracles}
        n_fam = max(int(s[1:]) for s, _ in oracles["Lgs"][0].generators if s[1:])

        @hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
        @hypothesis.given(name=st.sampled_from(sorted(oracles)), e=st.integers(0, 2), lift=st.integers(0, 8),
                          members=st.lists(st.tuples(st.sampled_from("yz"), st.integers(1, n_fam),
                                                     st.integers(1, 3)), max_size=3),
                          coeff=st.integers(1, 9))
        def agrees(name, e, lift, members, coeff):
            oracle, memo = oracles[name]
            families = "yz" if name == "Lgs" else "y"
            rest = mono(*((f"{f}{i}", k) for f, i, k in members if f in families),
                        *([("e", e)] if name == "Lgs" else []))
            r = oracle.degree(rest)
            least, most = max(0, -((r - lo) // 4)), (hi - r) // 4
            hypothesis.assume(least <= most)
            m = mono_mul(rest, mono(("x", min(least + lift, most))))
            assert lo <= oracle.degree(m) <= hi
            assert pres[name].reduce({m: coeff}) == reduce_by_scan(oracle, {m: coeff}, memo), m

        agrees()

    @pytest.mark.parametrize("name", ["Lgs", "scriptL"])
    @pytest.mark.parametrize("corruption", ["instance first", "instance last", "schema twice"])
    def test_first_match_order_holds_on_corrupted_rule_lists(self, name, corruption):
        # a plain instance before the schemata wins where it divides, one after them never does, and of two
        # copies of a schema the first wins: each list against the scan of its own expansion, in its order
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        good = presentation(name)
        y_y = next(rule for rule in good.rewrites if rule[0] == ((("y", ("i",), 0), 1), (("y", ("j",), 0), 1)))
        x_y1_y2, x_y3, y2 = mono(("x", 1), ("y1", 1), ("y2", 1)), mono(("x", 1), ("y3", 1)), mono(("y2", 1))
        # x y1 y2 is 8 y2 by x y1 -> 8, and 4 y2 where y1 y2 -> 4 y3 comes first; x y3 is y2 by the schema
        rewrites, seen, expected = {
            "instance first": (((mono(("y1", 1), ("y2", 1)), 4, mono(("y3", 1))),) + good.rewrites, x_y1_y2, 4),
            "instance last": (good.rewrites + ((x_y3, 5, y2),), x_y3, 1),
            "schema twice": (((y_y[0], 4, y_y[2]),) + good.rewrites + (good.rewrites[-1],), x_y1_y2, 4),
        }[corruption]
        pres = replaced(good, rewrites=rewrites)
        window = lo, hi = (-100, 100)
        oracle, memo = expand_schemata(pres, 40), {}
        families = "yz" if name == "Lgs" else "y"

        @hypothesis.settings(derandomize=True, max_examples=150, deadline=None, database=None)
        @hypothesis.given(e=st.integers(0, 2), lift=st.integers(0, 8), coeff=st.integers(1, 9),
                          members=st.lists(st.tuples(st.sampled_from(families), st.integers(1, 4) | st.integers(1, 13),
                                                     st.integers(1, 2)), max_size=3))
        def agrees(e, lift, coeff, members):
            # y_i y_j may fire before x y_(i+1) does, and adds the indices: keep every sum in the expansion
            hypothesis.assume(sum(i * k for _, i, k in members) <= 40)
            rest = mono(*((f"{f}{i}", k) for f, i, k in members), *([("e", e)] if name == "Lgs" else []))
            r = oracle.degree(rest)
            least, most = max(0, -((r - lo) // 4)), (hi - r) // 4
            hypothesis.assume(least <= most)
            m = mono_mul(rest, mono(("x", min(least + lift, most))))
            assert pres.reduce({m: coeff}) == reduce_by_scan(oracle, {m: coeff}, memo), m

        agrees()
        assert pres.reduce({seen: 1}) == reduce_by_scan(oracle, {seen: 1}) == {y2: expected}


class TestIndexedReduce:
    """``reduce`` against the scan of every rule of the expanded presentation."""

    @staticmethod
    def _agrees_with_scan(pres, elements):
        memo = {}  # the scan's first rule per monomial, for this rule order only
        for element in elements:
            assert pres.reduce(element) == reduce_by_scan(pres, element, memo), element

    @pytest.mark.parametrize("window", [(-16, 16), (-100, 100), (-200, -196)])
    @pytest.mark.parametrize("name", ltables.RING_NAMES)
    def test_matches_the_scan_in_any_rule_order(self, name, window):
        # the schemata against their expansion, on the monomials of a degree in
        # the window: there no normal form needs a product the expansion omits
        pres = expanded_presentation(name, window)
        rng = random.Random(f"{name} {window}")
        symbols = [s for s, _ in pres.generators]
        elements = [random_ring_element(rng, symbols) for _ in range(200)]
        lo, hi = window
        memo = {}
        for element in elements:
            in_window = {m: c for m, c in element.items() if lo <= pres.degree(m) <= hi}
            assert presentation(name).reduce(in_window) == reduce_by_scan(pres, in_window, memo), in_window
        self._agrees_with_scan(pres, elements)
        for _ in range(5):
            shuffled = replaced(
                pres, rewrites=tuple(rng.sample(pres.rewrites, len(pres.rewrites))),
                torsion_patterns=tuple(rng.sample(pres.torsion_patterns, len(pres.torsion_patterns))))
            self._agrees_with_scan(shuffled, elements)

    @staticmethod
    def _ring(rewrites=(), torsion=()):
        gens = (("a", 1), ("b", 1), ("c", 2))
        return RingPresentation("abc", gens, tuple(rewrites), tuple(torsion))

    def test_first_rule_wins_over_the_most_specific(self):
        ab_to_c = (mono(("a", 1), ("b", 1)), 1, mono(("c", 1)))
        a_to_0 = (mono(("a", 1)), 0, ONE)
        element = {mono(("a", 2), ("b", 1)): 3, mono(("a", 1), ("b", 1)): 1}
        ab_first = self._ring([ab_to_c, a_to_0]).reduce(element)
        a_first = self._ring([a_to_0, ab_to_c]).reduce(element)
        assert ab_first == {mono(("c", 1)): 1} and a_first == {}
        for rules in ([ab_to_c, a_to_0], [a_to_0, ab_to_c]):
            pres = self._ring(rules)
            assert pres.reduce(element) == reduce_by_scan(pres, element)

    def test_torsion_moduli_apply_in_list_order(self):
        a = mono(("a", 1))
        four_six = self._ring(torsion=[(a, 4), (a, 6)])
        six_four = self._ring(torsion=[(a, 6), (a, 4)])
        assert four_six.reduce({a: 7}) == {a: 3}
        assert six_four.reduce({a: 7}) == {a: 1}
        for pres in (four_six, six_four):
            assert pres.reduce({a: 7}) == reduce_by_scan(pres, {a: 7})

    def test_pattern_without_a_positive_power_divides_without_its_symbol(self):
        # a^-1 divides every monomial whose power of a is at least -1
        pres = self._ring([(mono(("a", -1)), 0, ONE)])
        element = {mono(("b", 1)): 1, mono(("a", -2)): 2, mono(("a", -1), ("c", 1)): 3}
        assert pres.reduce(element) == reduce_by_scan(pres, element) == {mono(("a", -2)): 2}

    def test_index_is_not_part_of_the_value(self):
        pres = presentation("Lgs")
        pres.reduce({mono(("x", 2), ("y3", 1)): 1})  # fills the memo
        fresh = replaced(presentation("Lgs"))  # presentation("Lgs") is pres itself
        assert pres == fresh and hash(pres) == hash(fresh) and repr(pres) == repr(fresh)
        assert "_rules" not in repr(pres)
        # replace compiles the new rules
        no_rules = replaced(pres, rewrites=())
        assert no_rules.reduce({mono(("x", 1), ("y1", 1)): 1}) == {mono(("x", 1), ("y1", 1)): 1}

    def test_replace_starts_a_fresh_memo(self):
        pres = expanded_presentation("Lgs", (-16, 16))
        xy2, y1 = mono(("x", 1), ("y2", 1)), mono(("y1", 1))
        assert pres.reduce({xy2: 1}) == {y1: 1}  # memoises x y2 -> y1
        five = replaced(pres, rewrites=tuple(
            (p, 5 if p == xy2 else c, r) for p, c, r in pres.rewrites))
        assert five.reduce({xy2: 1}) == {y1: 5}
        assert pres.reduce({xy2: 1}) == {y1: 1}

    def test_a_cycle_of_rewrites_fails(self):
        a, b, c = mono(("a", 1)), mono(("b", 1)), mono(("c", 1))
        pres = self._ring([(c, 1, a), (a, 2, b), (b, 1, a)])

        def expire(signum, frame):
            raise TimeoutError("reducing under a cycle of rewrites ran past 2 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(2)
        try:
            # entered from c, the cycle is named at a, the first monomial met twice
            for start, named in ((a, a), (b, b), (c, a)):
                with pytest.raises(ValueError, match=re.escape(f"returns to {named}")):
                    pres.reduce({start: 1})
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_each_monomial_is_rewritten_once(self, monkeypatch):
        # x^k y_i reaches its normal form through min(i, k) rewrites, each
        # monomial on the way being another degree's product: following every
        # chain to its end made 75 710 rule applications on Lgs at +-150,
        # where 8 721 distinct monomials are looked up
        applied = 0
        genuine = ltables.mono_div

        def counted(m, pattern):
            nonlocal applied
            applied += 1
            return genuine(m, pattern)

        monkeypatch.setattr(ltables, "mono_div", counted)
        fresh = replaced(presentation("Lgs"))  # the shared instance may hold these forms already
        assert verify_presentation("Lgs", (-150, 150), pres=fresh)
        assert 0 < applied <= 8721

    def test_far_and_wide_windows_verify(self):
        # 25 s and more than 100 s with a scan of every rule per monomial
        for window in ((-400, -396), (-150, 150)):
            assert all(item.passed for item in verify_presentations_report(window))


class TestSharedPresentations:
    """One presentation per ring per process: shared memos change no verdict and no matrix."""

    def test_one_instance_per_ring(self):
        for name in ltables.RING_NAMES:
            assert presentation(name) is presentation(name) == ltables._build_presentation(name)
        assert golden_table("Lgs") is golden_table("Lgs")

    def test_reports_and_maps_match_fresh_instances(self, monkeypatch):
        # nested, overlapping and disjoint windows, in a seeded order, one process
        windows = [(-16, 16), (-40, 40), (-75, 75), (-30, 50), (-20, -4), (60, 90), (-400, -396), (-50, 10),
                   (-12, 12), (100, 120)]
        random.Random(25).shuffle(windows)
        maps = (("Lgs", "x"), ("Ln", "e"), ("Ls", "e"))

        def run():
            reports = [[item.to_json() for item in verify_presentations_report(w)] for w in windows]
            matrices = [mult_by(name, sym, table(name, w)).components for w in windows for name, sym in maps]
            return reports, matrices

        shared = run()
        # every presentation and golden table built anew, as when each call had a process of its own
        monkeypatch.setattr(ltables, "presentation", ltables._build_presentation)
        monkeypatch.setattr(ltables, "golden_table", golden_table.__wrapped__)
        fresh = run()
        for window, got, expected in zip(windows, shared[0], fresh[0]):
            assert got == expected, window
        assert all(row["passed"] for report in shared[0] for row in report)
        assert shared[1] == fresh[1]

    def test_corruptions_fail_after_warm_up(self, monkeypatch):
        window = (-50, 50)
        for name in ("Lgs", "scriptL"):
            assert verify_presentation(name, window)  # warms the shared memo over the window
        # the corruption of test_every_rule_is_checked, on the expansion over the window
        good = expanded_presentation("Lgs", window)
        target = mono(("z1", 1), ("y2", 1))
        cases = [("Lgs", replaced(good, rewrites=tuple(
            (p, 1, mono(("z3", 1))) if p == target else (p, c, r) for p, c, r in good.rewrites)))]
        # y2 y5 -> 4 y7 in degree -28, listed before the schemata
        for name in ("Lgs", "scriptL"):
            pres = presentation(name)
            rule = (mono(("y2", 1), ("y5", 1)), 4, mono(("y7", 1)))
            cases.append((name, replaced(pres, rewrites=(rule,) + pres.rewrites)))
        genuine = ltables.verify_presentation
        for name, bad in cases:
            monkeypatch.setattr(ltables, "verify_presentation", lambda n, w, **kw: genuine(
                n, w, pres=bad if n == name else None, **kw))
            rows = {i.name: i.passed for i in verify_presentations_report(window)}
            assert [row for row, passed in rows.items() if not passed] == [f"presentation-{name}"], (name, bad)
        monkeypatch.setattr(ltables, "verify_presentation", genuine)
        assert verify_presentation("Lgs", window, pres=good)

    def test_a_memo_past_the_bound_is_built_afresh(self, monkeypatch):
        windows = [(-16, 16), (-40, 40)]
        expected = [[item.to_json() for item in verify_presentations_report(w)] for w in windows]
        monkeypatch.setattr(ltables, "MEMO_BOUND", 3)
        got = []
        for w in windows:
            before = presentation("Lgs")
            got.append([item.to_json() for item in verify_presentations_report(w)])
            assert len(before._normal_forms) > 3  # the report filled the shared instance
            after = presentation("Lgs")
            assert after is not before and not after._normal_forms and presentation("Lgs") is after
            # the bases are read off the rebuilt instance, and memoised there
            assert ltables.ring_basis("Lgs", -8) == [(mono(("y2", 1)), 0)] and set(after._bases) == {-8}
        assert got == expected

    def test_threads_share_and_rebuild_the_presentations(self, monkeypatch):
        # more threads than cores, switching often: each reduces through presentation() while the
        # others fill the shared memos past the bound and so drop and rebuild the instances
        monkeypatch.setattr(ltables, "MEMO_BOUND", 20)
        rng = random.Random(25)
        cases = [(name, mono(("x", rng.randint(0, 6)), (f"y{rng.randint(1, 9)}", 1), (f"y{rng.randint(1, 9)}", 1)))
                 for name in ("Lgs", "scriptL") for _ in range(40)]
        expected = [ltables._build_presentation(name).reduce({m: 1}) for name, m in cases]
        agreed, errors = [], []

        def work(k):
            try:
                for _ in range(10):
                    agreed.append([presentation(name).reduce({m: 1}) for name, m in cases[k:] + cases[:k]]
                                  == expected[k:] + expected[:k])
            except Exception as exc:  # a thread's error fails the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and agreed == [True] * 80
        assert all(verify_presentation(name, (-40, 40)) for name in ("Lgs", "scriptL"))


# the rows that G/2m in place of G/m fails, with their details, by suite
_MOD_TABLE_FAILURES = {
    "A": ["splitting-Ls\tFAIL\tL^s = L(R) + (L(R)/2)[1]; mismatch at degree -11: Z/2 vs Z/4",
          "splitting-Lq\tFAIL\tL^q = L(R) + (L(R)/2)[-2]; mismatch at degree -10: Z/2 vs Z/4",
          "splitting-Ln\tFAIL\tL^n = L(R)/8 + (L(R)/2)[1] + (L(R)/2)[-1]; mismatch at degree -12: Z/8 vs Z/16"],
    "B": ["splitting-Lgs\tFAIL\tL^gs = scriptL + (l(R)/2)[1] + (L(R)/(l(R),2))[-2]; mismatch at degree 1: Z/2 vs Z/4",
          "scriptL-square\tFAIL\tMayer-Vietoris for scriptL -> L(R) x_(L(R)/8) l(R)/8"],
}


class TestTheoremSuites:
    def test_classical_suite_all_pass(self):
        report = verify_classical((-12, 12))
        failed = [i.name for i in report if not i.passed]
        assert not failed, failed

    def test_genuine_suite_all_pass(self):
        report = verify_genuine((-16, 16))
        failed = [i.name for i in report if not i.passed]
        assert not failed, failed

    @pytest.mark.parametrize("verifier,window,twice", [
        (verify_classical, (-60, 60), {}),
        (verify_genuine, (-60, 60), {}),
        (e_multiplication_report, (-12, 12), {}),
        (verify_presentations_report, (-40, 40), {}),
        (verify_presentations_report, (-16, 16), {}),
        # the golden comparisons build L^q and L^s on (-16, 16), which the L^q module check (W widened by 8)
        # reads at (-8, 8), and the multiplicativity check (lo - 4, hi + 3) at (-12, 13)
        (verify_presentations_report, (-8, 8), {}),
        (verify_presentations_report, (-12, 13), {}),
    ], ids=["A", "B", "e-multiplication", "presentations", "presentations-golden-window",
            "presentations-read-golden-window", "presentations-ring-golden-window"])
    def test_each_table_is_built_once(self, verifier, window, twice, monkeypatch):
        # the maps take the tables they join, so no (name, window) is built twice but those in ``twice``
        builds = Counter()
        genuine = ltables.table

        def counted(name, window=(-16, 16)):
            builds[name, window] += 1
            return genuine(name, window)

        monkeypatch.setattr(ltables, "table", counted)
        assert all(item.passed for item in verifier(window))
        assert builds and {key: k for key, k in builds.items() if k > 1} == twice, builds

    def test_fault_injection_flips_kernel_argument(self):
        window = (-12, 12)
        pad = (-20, 20)
        ln = table("Ln", pad)
        genuine = mult_by("Ln", "e", ln)
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
        assert e_multiplication_report(window, e_map=bad) == [
            CheckResult("mult-e-kernel", False, "ker(e) = 0 in degrees 3 mod 4"),
            CheckResult("mult-e-condition-i", True, "pi_(4k+1)(L^q/e) is torsion (zero)"),
            CheckResult("mult-e-cofibre-vanishing", False, "pi_(4k+1)(L^n/e) = 0"),
            CheckResult("mult-e-resolved-Z", False, "extension in degrees 0 mod 4 resolves to Z, not Z + Z/2")]
        good = {i.name: i.passed for i in e_multiplication_report(window)}
        assert all(good.values())

    def test_kernel_argument_factors_each_datum_once(self, monkeypatch):
        calls = []
        genuine = ltables.map_kernel_group
        monkeypatch.setattr(ltables, "map_kernel_group", lambda *d: calls.append(d) or genuine(*d))
        report = {i.name: i.passed for i in e_multiplication_report((-60, 60))}
        assert report["mult-e-kernel"] and len(calls) == 1  # 30 degrees 3 mod 4, one datum

    def test_kernel_argument_sees_one_corrupted_degree(self):
        pad = (-20, 20)
        genuine = mult_by("Ln", "e", table("Ln", pad))
        corrupted = {n: IntMatrix.zero(1, 1) if n == 3 else genuine.component(n)
                     for n in range(pad[0], pad[1])}
        bad = GradedMap(genuine.source, genuine.target, 1, corrupted)
        report = {i.name: i.passed for i in e_multiplication_report((-12, 12), e_map=bad)}
        assert report["mult-e-kernel"] is False

    @pytest.mark.parametrize("suite,row,caller,corrupt,detail", [
        # the boundary L^n -> L^q set to zero
        (verify_classical, "symmetrisation-les", "boundary_map", lambda m: [[0]],
         "L^q -> L^s -> L^n long exact sequence"),
        # L^gs -> L^s by 1 instead of 8 in degrees 4k < 0
        (verify_genuine, "genuine-pullback-square", "_genuine_square_item",
         lambda m: [[1], [1]] if m == [[8], [1]] else m, "Mayer-Vietoris for L^gs -> L^s x_(L^n) tau L^n"),
        # the sign of tau L^n -> L^n flipped
        (verify_genuine, "genuine-pullback-square", "_genuine_square_item",
         lambda m: [[1, 1]] if m == [[1, -1]] else m, "Mayer-Vietoris for L^gs -> L^s x_(L^n) tau L^n"),
        # scriptL -> L(R) by 1 instead of 8 in degrees 4k < 0
        (verify_genuine, "scriptL-square", "_script_square_item",
         lambda m: [[1], [1]] if m == [[8], [1]] else m, "Mayer-Vietoris for scriptL -> L(R) x_(L(R)/8) l(R)/8"),
    ], ids=["boundary-zero", "lgs-to-ls-by-one", "beta-sign", "scriptL-to-LR-by-one"])
    def test_corrupted_coefficient_fails_its_row_only(self, suite, row, caller, corrupt, detail, monkeypatch):
        genuine = ltables.scalar_map

        def patched(sources, targets, shift, coeffs, **sums):
            # corrupt only the maps that ``caller`` builds
            if sys._getframe(1).f_code.co_name == caller:
                return genuine(sources, targets, shift, lambda n: corrupt(coeffs(n)), **sums)
            return genuine(sources, targets, shift, coeffs, **sums)

        monkeypatch.setattr(ltables, "scalar_map", patched)
        verdicts = {i.name: i.passed for i in suite()}
        assert verdicts.pop(row) is False
        assert all(verdicts.values()), verdicts
        assert [i for i in suite() if not i.passed] == [CheckResult(row, False, detail)]

    @pytest.mark.parametrize("window", ["-16..16", "2040..2048"])
    @pytest.mark.parametrize("degree,entry", [(-4, [[2]]), (0, [[2], [1]])], ids=["core", "tail"])
    def test_wrong_rule_entry_fails_its_row(self, window, degree, entry, monkeypatch, capsys):
        # the L^gs -> L^s x tau L^n rule is stated on -4..0 with tails 4 below and 1 above.  Its entry at -4
        # (8, by 2 here) lies in the core, which no window above 0 holds; its entry at 0 (1, by 2 here) is
        # the one the upper tail repeats to 2040..2048.  Either fails the row, and only it, at both windows
        genuine = ltables.scalar_map
        corrupted = []

        def patched(sources, targets, shift, coeffs, **rule):
            if sys._getframe(1).f_code.co_name == "_genuine_square_item" and len(targets) == 2:
                assert rule == {"core": (-4, 0), "tails": (4, 1)}

                def wrong(n):
                    corrupted.append(n)
                    return entry if n == degree else coeffs(n)

                return genuine(sources, targets, shift, wrong, **rule)
            return genuine(sources, targets, shift, coeffs, **rule)

        monkeypatch.setattr(ltables, "scalar_map", patched)
        assert main(["verify", "B", "--window", window, "--format", "tsv"]) == 1
        failed = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines() if "\tFAIL\t" in line]
        assert failed == ["genuine-pullback-square"]
        assert degree in corrupted and set(corrupted) <= set(range(-4, 1))

    def test_uct_row_reads_the_dual(self, monkeypatch):
        # I(L^q) shifted up one degree: I_1 = L^s_0 = Z is no extension of Hom(0, Z) by Ext(Z/2, Z)
        genuine = ltables.anderson_dual
        monkeypatch.setattr(ltables, "anderson_dual", lambda G: shift_graded(genuine(G), 1))
        verdicts = {i.name: i.passed for i in verify_classical()}
        assert verdicts["uct-exactness"] is False

    def test_resolved_z_reads_ls_mod_e(self, monkeypatch):
        # pi_(4k)(L^s/e) made Z/2: the extension of L^q/e in degrees 0 mod 4 is no longer forced
        genuine = ltables.cofibre_of_mult
        torsion = SesDatum(sub=FgAbGroup.cyclic(2), quotient=FgAbGroup(), resolved=FgAbGroup.cyclic(2))

        def patched(M, mul):
            ses = genuine(M, mul)
            if M == table("Ls", M.window):
                ses.update({n: torsion for n in ses if n % 4 == 0})  # in place: it answers past its core
            return ses

        monkeypatch.setattr(ltables, "cofibre_of_mult", patched)
        verdicts = {i.name: i.passed for i in e_multiplication_report((-12, 12))}
        assert verdicts.pop("mult-e-resolved-Z") is False
        assert all(verdicts.values()), verdicts
        assert [i for i in e_multiplication_report((-12, 12)) if not i.passed] == [
            CheckResult("mult-e-resolved-Z", False, "extension in degrees 0 mod 4 resolves to Z, not Z + Z/2")]

    def test_wrong_mod_tables_fail_the_rows_that_read_them(self, monkeypatch, capsys):
        # G/2m in place of G/m: the splittings through Moore quotients, and the square over L(R)/8, fail
        genuine = ltables.mod_table
        monkeypatch.setattr(ltables, "mod_table", lambda G, m: genuine(G, 2 * m))
        for suite, rows in (("A", ["splitting-Ls", "splitting-Lq", "splitting-Ln"]),
                            ("B", ["splitting-Lgs", "scriptL-square"])):
            assert main(["verify", suite, "--format", "tsv"]) == 1
            lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
            assert [name for name, verdict, _ in lines if verdict == "FAIL"] == rows, suite
            assert {verdict for _, verdict, _ in lines} == {"PASS", "FAIL"}
            for name, _, detail in lines:
                if name in rows and name.startswith("splitting-"):
                    assert re.search(r"; mismatch at degree -?\d+: ", detail), detail
            assert ["\t".join(line) for line in lines if line[1] == "FAIL"] == _MOD_TABLE_FAILURES[suite]

    def test_symmetrisation_map_values(self):
        s = symmetrisation_map(table("Lq", (-8, 8)), table("Ls", (-8, 8)))
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


def _is_table(G, name: str, shift: int = 0) -> bool:
    """G is the table of ``name`` shifted by ``shift``, on G's window."""
    lo, hi = G.window
    return G == shift_graded(table(name, (lo - shift, hi - shift)), shift)


def _dual_off_by_one(name: str, shift: int = 0):
    """A fault of ``anderson_dual``: the dual of the table of ``name`` (shifted by ``shift``) read one degree up."""
    return lambda genuine: lambda G: shift_graded(genuine(G), 1) if _is_table(G, name, shift) else genuine(G)


def _group_in_residue(name: str, residue: int, group):
    """A fault of ``table``: the table of ``name`` holds ``group`` in the degrees ``residue`` mod 4."""
    def fault(genuine):
        def patched(n, window=(-16, 16)):
            t = genuine(n, window)
            if n != name:
                return t
            return GradedGroup.from_core(t.window, t.period, t.core,
                                         lambda d: group if d % 4 == residue else t[d], t.tails)
        return patched
    return fault


def _x_on_lgs_at(degree: int, c: int):
    """A fault of ``mult_by``: x on L^gs is c at ``degree``, a finite map with the genuine components elsewhere."""
    def fault(genuine):
        def patched(name, sym, tab):
            f = genuine(name, sym, tab)
            if (name, sym) != ("Lgs", "x"):
                return f
            lo, hi = tab.window
            return GradedMap(f.source, f.target, f.degree_shift,
                             {n: IntMatrix([[c]]) if n == degree else f.component(n) for n in range(lo, hi + 1)})
        return patched
    return fault


def _double_dual_one_degree_off(genuine):
    """A fault of ``double_dual_check``: I(I(G)) compared with G one degree off."""
    def patched(G):
        twice = shift_graded(graded.anderson_dual(graded.anderson_dual(G)), 1)
        return all(twice[n] == G[n] for n in G.degrees())
    return patched


def _tsv_report(capsys, suite: str, code: int) -> list:
    """The lines of ``verify suite --format tsv`` at its default window, which must exit with ``code``."""
    assert main(["verify", suite, "--format", "tsv"]) == code
    return capsys.readouterr().out.splitlines()


class TestEveryRowCanFail:
    """A fault of one ``ltables`` name fails the rows listed, with these details, and no other row.

    Some rows fail only beside others: I(L^q) is forced degree by degree by
    the universal coefficient sequence, and pi_1 of L^s and L^n is what the
    splittings and the comparison ranges read too.
    """

    @pytest.mark.parametrize("suite,name,fault,failures", [
        ("A", "anderson_dual", _dual_off_by_one("Lq"), {
            "anderson-Lq-vs-Ls": "I(L^q) has the homotopy of L^s; mismatch at degree -12: 0 vs Z",
            "uct-exactness": "universal coefficient sequence for I(L^q)"}),
        ("A", "anderson_dual", _dual_off_by_one("Ln"), {
            "anderson-Ln-shift": "I(L^n) has the homotopy of L^n[-1]; mismatch at degree -12: Z/8 vs Z/2"}),
        # the splittings of L^n counted over half its period
        ("A", "torsor_count", lambda genuine: lambda G, period: genuine(G, period // 2), {
            "torsor-Ln": "(Z/2)^2 of splittings"}),
        ("A", "table", _group_in_residue("Ln", 1, FgAbGroup.cyclic(4)), {
            "anderson-Ln-shift": "I(L^n) has the homotopy of L^n[-1]; mismatch at degree -12: Z/2 vs Z/4",
            "symmetrisation-les": "L^q -> L^s -> L^n long exact sequence; component at degree -7 is not a homomorphism",
            "splitting-Ln": "L^n = L(R)/8 + (L(R)/2)[1] + (L(R)/2)[-1]; mismatch at degree -11: Z/4 vs Z/2",
            "torsor-Ln": "(Z/2)^2 of splittings",
            "fibre-seq-indeterminacy": "pi_1(L^s) + pi_1(L^n)"}),
        ("A", "double_dual_check", _double_dual_one_degree_off, {"double-dual": "I^2 = id on the three tables"}),
        ("B", "anderson_dual", _dual_off_by_one("Lgs"), {
            "anderson-Lgs": "I(L^gs) has the homotopy of L^gs[4] = L^gq; mismatch at degree -16: 0 vs Z"}),
        ("B", "anderson_dual", _dual_off_by_one("KO"), {
            "anderson-KO": "I(KO) has the homotopy of KO[4]; mismatch at degree -16: 0 vs Z"}),
        # verify B reads L^q only in the comparison ranges
        ("B", "table", lambda genuine: lambda n, window=(-16, 16): genuine("Ls" if n == "Lq" else n, window), {
            "comparison-ranges": "iso ranges of the comparison maps"}),
        ("B", "mult_by", _x_on_lgs_at(-4, 4), {
            "mult-x-minus4": "x: L^gs_(-4) -> L^gs_0 is multiplication by 8"}),
        ("B", "mult_by", _x_on_lgs_at(4, 2), {"mult-x-iso": "x is an isomorphism in the other free degrees"}),
        ("B", "anderson_dual", _dual_off_by_one("Lgs", 2), {
            "skew-self-dual": "the two-fold shift is Anderson self-dual; mismatch at degree -16: 0 vs Z/2"}),
        ("B", "table", _group_in_residue("Ls", 1, FgAbGroup.cyclic(4)), {
            "genuine-pullback-square": "Mayer-Vietoris for L^gs -> L^s x_(L^n) tau L^n; "
                                       "summand generators at degree 1 are not those of their sum",
            "comparison-ranges": "iso ranges of the comparison maps",
            "canonical-maps-torsor": "Z/2 of homotopies between the canonical maps"}),
    ], ids=["anderson-Lq-vs-Ls", "anderson-Ln-shift", "torsor-Ln", "fibre-seq-indeterminacy", "double-dual",
            "anderson-Lgs", "anderson-KO", "comparison-ranges", "mult-x-minus4", "mult-x-iso", "skew-self-dual",
            "canonical-maps-torsor"])
    def test_a_fault_fails_exactly_these_rows(self, suite, name, fault, failures, monkeypatch, capsys):
        passing = _tsv_report(capsys, suite, 0)
        monkeypatch.setattr(ltables, name, fault(getattr(ltables, name)))
        expected = [f"{row}\tFAIL\t{failures[row]}" if (row := line.split("\t")[0]) in failures else line
                    for line in passing]
        assert [line.split("\t")[0] for line in passing if line.split("\t")[0] in failures] == list(failures)
        assert _tsv_report(capsys, suite, 1) == expected


class TestReadme:
    def test_the_claims_table_lists_every_row_in_order(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n### Verified claims\n", 1)[1].split("\n## ", 1)[0]
        listed = [tuple(cell.strip().strip("`") for cell in line.split("|")[1:3])
                  for line in section.splitlines() if line.startswith("| ") and not line.startswith("| suite ")]
        emitted = [(suite, row.name) for suite, report in (("A", verify_classical), ("B", verify_genuine),
                                                          ("presentations", verify_presentations_report))
                   for row in report()]
        assert len(emitted) == 35 and listed == emitted


class TestOneMapBuilder:
    """Every package map is a coefficient rule passed to ``scalar_map``, ring multiplication included."""

    @pytest.mark.parametrize("name", ltables.RING_NAMES)
    @pytest.mark.parametrize("window", [(-24, 24), (-2048, -2024), (2024, 2048)])
    def test_ring_products_are_read_off_reduce(self, name, window):
        pres = presentation(name)
        plain = [(sym, d) for sym, d in pres.generators if isinstance(d, int)]
        tab = table(name, window)
        for sym, d in plain:
            f = mult_by(name, sym, tab)
            for n in range(window[0], window[1] + 1):
                src, tgt = ltables.ring_basis(name, n), ltables.ring_basis(name, n + d)
                got = f.component(n)
                if not src or not tgt:
                    assert got == IntMatrix.zero(len(tgt), len(src)), (name, sym, n)
                    continue
                product = pres.reduce({mono_mul(src[0][0], mono((sym, 1))): 1})
                assert set(product) <= {tgt[0][0]}, (name, sym, n)
                assert got == IntMatrix([[product.get(tgt[0][0], 0)]]), (name, sym, n)

    @pytest.mark.parametrize("shift", [0, 2])
    def test_the_sums_slots_key_the_components(self, shift):
        # LCc repeats with period 2 and Ls with period 4; the coefficients have period 3, stated as data
        def rule(n):
            return [[n % 3, 1 + n % 3], [2, n % 3 - 1]]

        for window in ((-70, 70), (2040, 2048), (-2048, -2040)):
            sources = [table("LCc", window), table("Ls", window)]
            targets = [table("Ls", window), table("LCc", window)]
            f = scalar_map(sources, targets, shift, rule, core=(0, 2), tails=(3, 3))
            for n in range(window[0], window[1] + 1):
                rows = [i for i, t in enumerate(targets) if t[n + shift].gens()]
                cols = [j for j, s in enumerate(sources) if s[n].gens()]
                expected = IntMatrix([[rule(n)[i][j] for j in cols] for i in rows], shape=(len(rows), len(cols)))
                assert f.component(n) == expected, (window, n)


    @pytest.mark.parametrize("window", [(-24, 24), (-2048, -2024), (2024, 2048)])
    def test_a_rule_is_called_on_its_core_alone(self, window):
        # the symmetrisation rule stated on 0..3 with period 4, raising anywhere else
        def rule(n):
            if not 0 <= n <= 3:
                raise AssertionError(f"rule called at degree {n}")
            return [[8 if n % 4 == 0 else 0]]

        lq, ls = table("Lq", window), table("Ls", window)
        f = scalar_map([lq], [ls], 0, rule, core=(0, 3), tails=(4, 4))
        for n in range(window[0], window[1] + 1):
            assert f.component(n) == symmetrisation_map(lq, ls).component(n), n
        assert check_exact(f, projection_to_ln(ls, table("Ln", window)))

    @pytest.mark.parametrize("suite,window", [(verify_classical, (-12, 12)), (verify_classical, (2040, 2048)),
                                              (verify_genuine, (-16, 16)), (verify_genuine, (-2048, -2040)),
                                              (verify_presentations_report, (-16, 16))])
    def test_no_suite_reads_a_rule_outside_its_core(self, suite, window, monkeypatch):
        genuine = ltables.scalar_map
        calls = []

        def guarded(sources, targets, shift, coeffs, *, core, tails):
            def rule(n):
                assert core[0] <= n <= core[1], (n, core)
                calls.append(n)
                return coeffs(n)

            return genuine(sources, targets, shift, rule, core=core, tails=tails)

        monkeypatch.setattr(ltables, "scalar_map", guarded)
        assert all(item.passed for item in suite(window))
        assert calls

    @pytest.mark.parametrize("window", [(-24, 24), (-2048, -2024), (2024, 2048)])
    def test_every_suite_map_equals_the_rule_read_at_each_degree(self, window, monkeypatch):
        # the oracle reads each rule at every degree itself, ring products included, as maps were once read;
        # every map a suite builds goes through scalar_map, so the maps made are the maps recorded
        built, made = [], []
        genuine, genuine_fill = ltables.scalar_map, GradedMap._fill

        def recorded(sources, targets, shift, coeffs, **rule):
            f = genuine(sources, targets, shift, coeffs, **rule)
            built.append((sources, targets, shift, coeffs, f))
            return f

        monkeypatch.setattr(ltables, "scalar_map", recorded)
        monkeypatch.setattr(GradedMap, "_fill", lambda f, *a: made.append(f) or genuine_fill(f, *a))
        for suite in (verify_classical, verify_genuine, verify_presentations_report):
            assert all(item.passed for item in suite())
        assert len(built) >= 15 and [f for *_, f in built] == made
        for sources, targets, shift, coeffs, f in built:
            for n in range(window[0], window[1] + 1):
                assert f.component(n) == component_read_at(sources, targets, shift, coeffs, n), (f.source, n)


class TestFailureBranches:
    """Each failure branch of the map builders and verifiers below is reached by some input."""

    def test_a_product_outside_the_stated_basis_is_refused(self, monkeypatch, capsys):
        monkeypatch.setattr(ltables, "ring_basis", _basis_with("Ln", 0, []))
        # f in degree -1 times e is 4, and degree 0 no longer holds 1
        with pytest.raises(ValueError, match="product leaves the stated basis at degree -1$"):
            mult_by("Ln", "e", table("Ln", (-8, 8)))
        # in verify A the rows that read e on L^n fail with the reason, beside those the changed table fails
        assert main(["verify", "A", "--format", "tsv"]) == 1
        reason = "; product leaves the stated basis at degree -1"
        assert [line for line in capsys.readouterr().out.splitlines() if "\tFAIL\t" in line] == [
            "symmetrisation-les\tFAIL\tL^q -> L^s -> L^n long exact sequence",
            "splitting-Ln\tFAIL\tL^n = L(R)/8 + (L(R)/2)[1] + (L(R)/2)[-1]; mismatch at degree 0: 0 vs Z/8",
            "mult-e-kernel\tFAIL\tker(e) = 0 in degrees 3 mod 4" + reason,
            "mult-e-cofibre-vanishing\tFAIL\tpi_(4k+1)(L^n/e) = 0" + reason,
            "mult-e-resolved-Z\tFAIL\textension in degrees 0 mod 4 resolves to Z, not Z + Z/2" + reason]

    def test_an_lq_product_outside_the_lq_classes_fails(self, monkeypatch):
        # (8 t)(8 g) = 64 g, which is 4 g once g's coefficients are read mod 12: not 8 times a label
        wrong = RingPresentation("Lq", (("t", 4), ("g", -2)), (), ((mono(("g", 1)), 12), (mono(("g", 2)), 64)))
        assert ltables.verify_lq_ring((-16, 16))
        monkeypatch.setattr(ltables, "_lq_ring", lambda: wrong)
        assert not ltables.verify_lq_ring((-16, 16))

    def test_a_missing_golden_file_is_an_error(self, monkeypatch, capsys):
        def missing(name):
            raise FileNotFoundError(f"no golden window for {name}")

        monkeypatch.setattr(ltables, "golden_table", missing)
        assert main(["verify", "presentations"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no golden window for Ls\n"
