import cmath
import functools
import itertools
import json
import random
from fractions import Fraction

import pytest

from lspectra import forms
from lspectra.abelian import FgAbGroup, IntMatrix
from lspectra.cli import main
from lspectra.forms import (
    DegenerateFormError,
    E8_GRAM,
    F2QuadForm,
    LinkingForm,
    SingularFormError,
    SymForm,
    arf,
    brown_kervaire,
    gauss_sum,
    nondegenerate,
    signature,
)
from lspectra.poincare import representative, tensor_structured

from helpers import (
    arf_by_counting,
    as_integer,
    block_sum,
    check_quadratic_by_pairs,
    conjugate,
    cyclotomic_product,
    direct_sum_by_elements,
    f2_nondegenerate_by_elimination,
    form_file,
    form_from_json_by_dict,
    gauss_sum_by_elements,
    gauss_sum_float,
    nondegenerate_by_elements,
    norm_squared,
    orthogonal_sum,
    polarization_by_elements,
    qvals_by_generator_data,
    random_generator_data,
    random_linking_form,
    root_power,
    skew_unit,
    two_rank_parity,
)


class TestSignature:
    def test_e8(self):
        # the matrix itself is pinned by Sylvester: positive leading minors
        # and determinant one make it the even unimodular form of rank 8
        for k in range(1, 9):
            minor = IntMatrix([[E8_GRAM[i, j] for j in range(k)] for i in range(k)])
            assert minor.det() > 0
        assert E8_GRAM.det() == 1
        assert signature(SymForm(E8_GRAM)) == 8

    def test_diagonal(self):
        assert signature(SymForm(IntMatrix([[1, 0], [0, -1]]))) == 0
        assert signature(SymForm(IntMatrix.identity(3))) == 3

    def test_hyperbolic_pivot(self):
        assert signature(SymForm(IntMatrix([[0, 1], [1, 0]]))) == 0

    def test_singular(self):
        with pytest.raises(SingularFormError):
            signature(SymForm(IntMatrix([[1, 1], [1, 1]])))

    def test_congruence_invariance_and_additivity(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(1, 4)
            while True:
                a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                g = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
                gm = IntMatrix(g)
                if gm.det() != 0:
                    break
            f = SymForm(gm)
            u = _random_unimodular(rng, n)
            assert signature(SymForm(u.transpose() @ gm @ u)) == signature(f)
            other = SymForm(IntMatrix.identity(rng.randint(1, 3)))
            assert signature(block_sum(f, other)) == signature(f) + signature(other)


def _random_unimodular(rng, n):
    m = IntMatrix.identity(n).tolist()
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            for k in range(n):
                m[i][k] += c * m[j][k]
    return IntMatrix(m)


class TestArf:
    def test_hyperbolic_zero(self):
        assert arf(F2QuadForm(IntMatrix([[0, 1], [0, 0]]))) == 0

    def test_arf_one_plane(self):
        assert arf(F2QuadForm(IntMatrix([[1, 1], [0, 1]]))) == 1

    def test_sum_of_two_arf_one(self):
        plane = F2QuadForm(IntMatrix([[1, 1], [0, 1]]))
        assert arf(orthogonal_sum(plane, plane)) == 0

    def test_additivity(self):
        rng = random.Random(23)
        planes = [
            F2QuadForm(IntMatrix([[0, 1], [0, 0]])),
            F2QuadForm(IntMatrix([[1, 1], [0, 1]])),
            F2QuadForm(IntMatrix([[0, 1], [0, 1]])),
            F2QuadForm(IntMatrix([[1, 1], [0, 0]])),
        ]
        for _ in range(15):
            a, b = rng.choice(planes), rng.choice(planes)
            assert arf(orthogonal_sum(a, b)) == (arf(a) + arf(b)) % 2

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFormError):
            arf(F2QuadForm(IntMatrix([[1, 0], [0, 1]])))
        with pytest.raises(DegenerateFormError):
            arf(F2QuadForm(IntMatrix([[1]])))

    def test_invariance_under_f2_basis_change(self):
        rng = random.Random(31)
        base = orthogonal_sum(F2QuadForm(IntMatrix([[1, 1], [0, 1]])),
                              F2QuadForm(IntMatrix([[0, 1], [0, 0]])))
        value = arf(base)
        n = base.dim
        for _ in range(20):
            u = _random_gl_f2(rng, n)
            m = u.transpose() @ base.matrix @ u
            folded = [[0] * n for _ in range(n)]
            for i in range(n):
                folded[i][i] = m[i, i] % 2
                for j in range(i + 1, n):
                    folded[i][j] = (m[i, j] + m[j, i]) % 2
            assert arf(F2QuadForm(IntMatrix(folded))) == value

    def test_matches_counting_on_every_small_form(self):
        # every upper-triangular 0/1 matrix of dimension 0-4
        outcomes = []
        for n in range(5):
            slots = [(i, j) for i in range(n) for j in range(i, n)]
            for bits in itertools.product((0, 1), repeat=len(slots)):
                m = [[0] * n for _ in range(n)]
                for (i, j), v in zip(slots, bits):
                    m[i][j] = v
                form = F2QuadForm(IntMatrix(m, shape=(n, n)))
                value = _arf_or_degenerate(arf, form)
                assert value == _arf_or_degenerate(arf_by_counting, form), m
                outcomes.append(value)
        assert len(outcomes) == 1099 and {0, 1, None} <= set(outcomes)

    def test_matches_counting_on_seeded_forms(self):
        # entries 0-3 on and above the diagonal, even entries below
        rng = random.Random(41)
        outcomes = set()
        for n in range(5, 13):
            for _ in range(10):
                m = [[rng.randint(0, 3) if j >= i else 2 * rng.randint(-2, 2) for j in range(n)]
                     for i in range(n)]
                form = F2QuadForm(IntMatrix(m))
                value = _arf_or_degenerate(arf, form)
                assert value == _arf_or_degenerate(arf_by_counting, form), m
                outcomes.add(value)
        assert outcomes == {0, 1, None}


def _arf_or_degenerate(invariant, form):
    """The Arf invariant, or None where ``invariant`` raises DegenerateFormError."""
    try:
        return invariant(form)
    except DegenerateFormError:
        return None


def _random_gl_f2(rng, n):
    while True:
        m = IntMatrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
        if m.det() % 2:
            return m


def _from_table(group, qvals):
    """The form of a value table, read from its form file as ``invariant --name beta`` reads one."""
    return LinkingForm.from_json(form_file(group, qvals))


class TestCyclotomic:
    def test_conjugation_norm(self):
        n = norm_squared((1, 2, 0, -1))
        # |x|^2 is fixed by conjugation
        assert conjugate(n) == n

    def test_sqrt2(self):
        s = tuple(map(sum, zip(root_power(1, 8), root_power(-1, 8))))
        assert cyclotomic_product(s, s) == (2, 0, 0, 0)


class TestLinkingForms:
    def test_half_valued_plane_beta_four(self):
        q = _from_table(
            FgAbGroup(0, (2, 2)),
            {
                (0, 0): Fraction(0),
                (1, 0): Fraction(1, 2),
                (0, 1): Fraction(1, 2),
                (1, 1): Fraction(1, 2),
            },
        )
        assert brown_kervaire(q) == 4
        assert (q.den, q.a, q.pairs) == (2, (1, 1), {(0, 1): 1})
        assert nondegenerate(q)

    def test_quarter_on_z2(self):
        q = _from_table(FgAbGroup(0, (2,)), {(0,): Fraction(0), (1,): Fraction(1, 4)})
        assert brown_kervaire(q) == 1
        assert nondegenerate(q)
        s = gauss_sum(q)
        # 1 + i = sqrt(2) zeta_8 exactly
        assert as_integer(norm_squared(s)) == 2

    def test_trivial(self):
        q = _from_table(FgAbGroup(), {(): Fraction(0)})
        assert brown_kervaire(q) == 0

    def test_degenerate_raises(self):
        q = _from_table(FgAbGroup(0, (2,)), {(0,): Fraction(0), (1,): Fraction(1, 2)})
        assert not nondegenerate(q)
        with pytest.raises(DegenerateFormError):
            brown_kervaire(q)

    def test_check_quadratic_examples(self):
        _from_table(FgAbGroup(0, (2,)), {(0,): Fraction(0), (1,): Fraction(1, 2)})
        corrupted = {
            (0, 0): Fraction(0),
            (1, 0): Fraction(1, 2),
            (0, 1): Fraction(1, 2),
            (1, 1): Fraction(1, 4),
        }
        with pytest.raises(ValueError):
            _from_table(FgAbGroup(0, (2, 2)), corrupted)
        # q(g) = 0 gives the zero polynomial on Z/4, which the table leaves at 3
        z4 = {(0,): Fraction(0), (1,): Fraction(0), (2,): Fraction(0), (3,): Fraction(1, 2)}
        with pytest.raises(ValueError, match=r"q\(3,\) = 1/2"):
            _from_table(FgAbGroup(0, (4,)), z4)

    def test_additivity_and_norm_identity_on_random_forms(self):
        rng = random.Random(101)
        for _ in range(50):
            a = random_linking_form(rng, max_order=16)
            b = random_linking_form(rng, max_order=16)
            s = a.direct_sum(b)
            assert a.group.order() * b.group.order() <= 256
            assert nondegenerate(s)
            assert as_integer(norm_squared(gauss_sum(s))) == s.group.order()
            assert brown_kervaire(s) == (brown_kervaire(a) + brown_kervaire(b)) % 8
            # float cross-check of the Gauss-sum phase
            z = gauss_sum_float(s)
            expected = cmath.rect(s.group.order() ** 0.5, 2 * cmath.pi * brown_kervaire(s) / 8)
            assert abs(z - expected) < 1e-6

    def test_two_rank_parity(self):
        assert two_rank_parity(LinkingForm.cyclic(1, 1)) == 1
        assert two_rank_parity(LinkingForm.hyperbolic(1)) == 0

    def test_json_roundtrip(self):
        q = skew_unit(2)
        doc = q.to_json()
        assert LinkingForm.from_json(doc) == q
        assert doc["factors"] == [4, 4]

    def test_values_parse_as_fraction_does(self):
        # p/q and p in ASCII digits are read with int; any other text must get Fraction's value or error
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        def outcome(parse, text):
            try:
                return parse(text)
            except (ValueError, ZeroDivisionError, TypeError) as exc:
                return type(exc), str(exc)

        digits = st.text("0123456789\u0663_.e", max_size=3)
        numerals = st.tuples(st.sampled_from(["", "-", "+", " "]), digits, st.sampled_from(["", "/", " / "]),
                             st.sampled_from(["", "-", "+"]), digits).map("".join)

        @hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
        @hypothesis.given(text=st.text() | numerals | st.integers(-10 ** 20, 10 ** 20) | st.none())
        def agrees(text):
            assert outcome(forms._parse_value, text) == outcome(Fraction, text), repr(text)

        agrees()


def _respelled(rng, key):
    """Another text for the coordinates of the canonical key ``key``, such as "(00,1)" or "((0,1))"."""
    inner = key[1:-1]
    coords = inner.split(",") if inner else []
    spellings = ["((" + inner + "))", "(" + inner + ",)", inner, "(," + inner + ")"]
    if coords:
        i = rng.randrange(len(coords))
        spellings.append("(" + ",".join(coords[:i] + ["0" + coords[i]] + coords[i + 1:]) + ")")
    return rng.choice(spellings)


BAD_VALUES = ([1], None, "1/0", "x", 3 * 10 ** 299)  # the last is a 300-digit integer, so 0 mod 1
BAD_KEY_COORDINATES = (" {}", "\u0660{}", "+{}", "1_{}")


def _mutated(rng, doc):
    """``doc`` with one to three seeded changes: keys reordered, respelled, removed, doubled or off the group,
    values changed or not numbers, or a huge group declared for a short table."""
    factors, items = list(doc["factors"]), list(doc["q"].items())
    den = 2 * max(factors, default=1)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["shuffle", "respell", "value", "remove", "double", "double in place", "off the group",
                           "arity", "bad value", "bad key", "huge"])
        i = rng.randrange(len(items)) if items else None
        if i is None or kind == "shuffle":
            rng.shuffle(items)
        elif kind == "respell":
            items[i] = (_respelled(rng, items[i][0]), items[i][1])
        elif kind == "value":
            items[i] = (items[i][0], str((Fraction(items[i][1]) + Fraction(rng.randrange(1, den), den)) % 1))
        elif kind == "remove":
            del items[i]
        elif kind == "double":
            items.insert(rng.randrange(len(items) + 1), (_respelled(rng, items[i][0]), rng.choice(items)[1]))
        elif kind == "double in place":
            items[rng.randrange(len(items))] = (_respelled(rng, items[i][0]), items[i][1])
        elif kind == "off the group":
            coords = [rng.randrange(d) for d in factors]
            if coords:
                coords[rng.randrange(len(coords))] += factors[0] * rng.choice([1, -1])
            items[i] = ("(" + ",".join(map(str, coords)) + ")", items[i][1])
        elif kind == "arity":
            inner = items[i][0][1:-1]
            items[i] = ("(" + (inner + ",0" if rng.random() < 0.5 else inner.rpartition(",")[0]) + ")", items[i][1])
        elif kind == "bad value":
            items[i] = (items[i][0], rng.choice(BAD_VALUES))
        elif kind == "bad key":
            coords = [str(rng.randrange(d)) for d in factors] or ["0"]
            j = rng.randrange(len(coords))
            coords[j] = rng.choice(BAD_KEY_COORDINATES).format(coords[j])
            items[i] = ("(" + ",".join(coords) + ")", items[i][1])
        else:
            factors, items = [2] * 40, items[:4]
    return {"factors": factors, "q": dict(items)}


def _read(read, doc):
    """("value", the form read), or ("raises", type, message): what the CLI would print."""
    try:
        return "value", read(doc)
    except Exception as exc:
        return "raises", type(exc), str(exc)


class TestFormReader:
    """``LinkingForm.from_json`` against the reader by a table keyed by coordinates."""

    def test_matches_the_table_reader_on_changed_files(self):
        rng = random.Random(909)
        seen = set()
        for i in range(160):
            if i % 2:
                form = random_linking_form(rng, max_order=1 << 10)
            else:
                form = LinkingForm(*random_generator_data(rng, max_order=1 << 10))
            doc = form.to_json()
            assert _read(LinkingForm.from_json, doc) == _read(form_from_json_by_dict, doc) == ("value", form)
            changed = _mutated(rng, doc)
            outcome = _read(LinkingForm.from_json, changed)
            assert outcome == _read(form_from_json_by_dict, changed), changed
            seen.add(outcome[0] if outcome[0] == "value" else (outcome[1].__name__, *outcome[2].split()[:2]))
        # every check refused some file, and some changed files were still accepted
        assert {"value", ("ValueError", "two", "keys"), ("ValueError", "table", "holds"),
                ("ValueError", "generator", "data"), ("ValueError", "table", "has"), ("ValueError", "table", "is"),
                ("ValueError", "invalid", "literal"), ("ValueError", "Invalid", "literal"),
                ("ZeroDivisionError", "Fraction(1,", "0)"), ("TypeError", "argument", "should")} <= seen, seen

    def test_matches_the_table_reader_up_to_the_bound(self):
        # keys in to_json order, shuffled and with one respelled, and one value changed at the first and at the
        # last element, on forms of up to 2^12 elements
        rng = random.Random(1212)
        cases = [functools.reduce(LinkingForm.direct_sum, [LinkingForm.hyperbolic(1)] * 6), LinkingForm.cyclic(12, 3)]
        cases += [random_linking_form(rng, max_order=1 << 12) if i % 2 else
                  LinkingForm(*random_generator_data(rng, max_order=1 << 12)) for i in range(8)]
        assert max(L.group.order() for L in cases) == 1 << 12
        outcomes = set()
        for form in cases:
            factors, items = form.to_json()["factors"], list(form.to_json()["q"].items())
            shuffled = rng.sample(items, len(items))
            i = rng.randrange(len(items))
            respelled = items[:i] + [(_respelled(rng, items[i][0]), items[i][1])] + items[i + 1:]
            for keys in (items, shuffled, respelled):
                doc = {"factors": factors, "q": dict(keys)}
                assert _read(LinkingForm.from_json, doc) == _read(form_from_json_by_dict, doc) == ("value", form)
            for n in (0, -1):
                key, value = items[n]
                doc = {"factors": factors, "q": {**dict(items), key: str((Fraction(value) + Fraction(1, 2)) % 1)}}
                outcome = _read(LinkingForm.from_json, doc)
                assert outcome == _read(form_from_json_by_dict, doc), (n, doc)
                outcomes.add(outcome[0] if outcome[0] == "value" else outcome[2].split(" = ")[0])
        zero = "(" + ", ".join(["0"] * 12) + ")"
        assert {f"table is not quadratic: q{zero}", "table is not quadratic: q(4095,)"} <= outcomes, outcomes

    def test_huge_declared_group_with_a_short_table(self):
        doc = {"factors": [2] * 40, "q": {"(0)": "0", "(1)": "1/2", "(0,1)": "1/4", "(1,1)": "3/4"}}
        expected = ("raises", ValueError, f"table holds 4 values for {1 << 40} elements")
        assert _read(LinkingForm.from_json, doc) == _read(form_from_json_by_dict, doc) == expected

    def test_each_distinct_value_is_parsed_once(self, monkeypatch):
        form = skew_unit(2).direct_sum(LinkingForm.cyclic(3, 5))
        items = list(form.to_json()["q"].items())
        random.Random(7).shuffle(items)
        calls = []
        genuine = forms._parse_value
        monkeypatch.setattr(forms, "_parse_value", lambda val: calls.append(val) or genuine(val))
        # every key as to_json writes it, then one respelled, which the key grammar reads
        for q in (dict(items), {**dict(items[1:]), "(0" + items[0][0][1:]: items[0][1]}):
            calls.clear()
            assert LinkingForm.from_json({"factors": [4, 4, 8], "q": q}) == form
            assert calls == list(dict.fromkeys(q.values()))
            assert len(calls) < len(q) / 4


def _accepted(group, table):
    """Does the form file of the table read?"""
    try:
        _from_table(group, table)
    except ValueError:
        return False
    return True


def _corrupt_one(rng, L):
    """L's value table with the value at one element replaced by a different dyadic value."""
    qvals = L.qvals
    x = rng.choice(sorted(qvals))
    den = 2 * L.group.exponent()
    qvals[x] = (qvals[x] + Fraction(rng.randrange(1, den), den)) % 1
    return L.group, qvals


def _random_dyadic_table(rng, max_order):
    divisors = []
    while rng.random() < 0.7:
        d = rng.choice([2, 2, 4, 8])
        if FgAbGroup.from_divisors(divisors + [d]).order() > max_order:
            break
        divisors.append(d)
    group = FgAbGroup.from_divisors(divisors)
    den = 2 * group.exponent()
    return group, {x: Fraction(rng.randrange(den), den) for x in group.elements()}


class TestQuadraticByGenerators:
    def test_builders_match_closed_forms(self):
        for k in range(1, 5):
            d = 1 << k
            for a in (1, 2, 3, 7):
                assert LinkingForm.cyclic(k, a).qvals == {
                    (x,): Fraction(a * x * x, 2 * d) % 1 for x in range(d)
                }
            square = [(x, y) for x in range(d) for y in range(d)]
            assert LinkingForm.hyperbolic(k).qvals == {
                (x, y): Fraction(x * y, d) % 1 for x, y in square
            }
            assert skew_unit(k).qvals == {
                (x, y): Fraction(x * x + x * y + y * y, d) % 1 for x, y in square
            }

    def test_agrees_with_pairwise_oracle(self):
        # genuine forms, forms corrupted at one element and arbitrary dyadic
        # tables, all of order at most 2^6
        rng = random.Random(404)
        verdicts = {0: [], 1: [], 2: []}
        for i in range(300):
            kind = i % 3
            if kind == 0:
                L = random_linking_form(rng, max_order=rng.choice([4, 16, 64]))
                group, table = L.group, L.qvals
            elif kind == 1:
                group, table = _corrupt_one(rng, random_linking_form(rng, max_order=64))
            else:
                group, table = _random_dyadic_table(rng, max_order=64)
            assert group.order() <= 64
            expected = check_quadratic_by_pairs(group, table, range(2 * group.exponent()))
            assert _accepted(group, table) == expected, (group, table)
            verdicts[kind].append((group.order(), expected))
        assert all(ok for _, ok in verdicts[0])
        # on Z/2 a changed generator value is another quadratic form
        assert not any(ok for order, ok in verdicts[1] if order > 2)
        assert not all(ok for _, ok in verdicts[2])

    def test_descent_decides_on_polynomial_tables(self):
        # tables that equal the polynomial of random generator data, with
        # denominators beyond what descent allows, so only descent decides
        rng = random.Random(505)
        verdicts = []
        for _ in range(150):
            group = _random_dyadic_table(rng, max_order=32)[0]
            e, k = group.exponent(), len(group.torsion)
            a = [Fraction(rng.randrange(4 * e), 4 * e) for _ in range(k)]
            b = {(i, j): Fraction(rng.randrange(2 * e), 2 * e)
                 for i in range(k) for j in range(i + 1, k)}
            qvals = {
                x: (sum(x[i] * x[i] * a[i] for i in range(k))
                    + sum(x[i] * x[j] * v for (i, j), v in b.items())) % 1
                for x in group.elements()
            }
            expected = check_quadratic_by_pairs(group, qvals, range(2 * e))
            assert _accepted(group, qvals) == expected, (group, qvals)
            verdicts.append(expected)
        assert any(verdicts) and not all(verdicts)

    def test_descent_failure_is_not_quadratic(self):
        # a x^2 on Z/2 descends only if 4a = 0 mod 1: 1/4 does, 1/8 does not
        z2 = FgAbGroup(0, (2,))
        assert _accepted(z2, {(0,): Fraction(0), (1,): Fraction(1, 4)})
        table = {(0,): Fraction(0), (1,): Fraction(1, 8)}
        assert not _accepted(z2, table)
        assert not check_quadratic_by_pairs(z2, table, range(4))
        with pytest.raises(ValueError, match="does not descend"):
            LinkingForm(z2, [Fraction(1, 8)], {})


class TestGeneratorData:
    def test_matches_element_oracles(self):
        # genuine orthogonal sums and random descending generator data,
        # degenerate forms among them
        rng = random.Random(606)
        degenerate = 0
        for i in range(320):
            if i % 2:
                L = random_linking_form(rng, max_order=64)
            else:
                L = LinkingForm(*random_generator_data(rng, max_order=64))
            table = L.qvals
            x, y = rng.choice(sorted(table)), rng.choice(sorted(table))
            assert L.b(x, y) == polarization_by_elements(L.group, table, x, y)
            assert nondegenerate(L) == nondegenerate_by_elements(L.group, table)
            degenerate += not nondegenerate(L)
            assert _from_table(L.group, table) == L
            if i % 3:
                M = random_linking_form(rng, max_order=4)
            else:
                M = LinkingForm(*random_generator_data(rng, max_order=4))
            s = L.direct_sum(M)
            assert (s.group, s.qvals) == direct_sum_by_elements(L, M)
        assert degenerate > 50

    def test_one_value_per_generator(self):
        # with one value short, the table of (Z/2)^2 would hold 2 values for its 4 elements
        group = FgAbGroup(0, (2, 2))
        message = r"^generator data must be 2 values and pairs \(i, j\) with 0 <= i < j < 2$"
        for a in ([Fraction(1, 2)], [], [0, 0, Fraction(1, 2)]):
            with pytest.raises(ValueError, match=message):
                LinkingForm(group, a, {})

    def test_pair_keys_name_two_generators_in_order(self):
        # (1, 0) names no pair i < j: q would read it and the enumeration skip it, so q(1, 1) would not be qvals[(1, 1)]
        group = FgAbGroup(0, (2, 2))
        for key in ((1, 0), (0, 0), (0, 2), (-1, 1), (2, 3)):
            with pytest.raises(ValueError, match="^generator data must be 2 values and pairs"):
                LinkingForm(group, [0, 0], {key: Fraction(1, 2)})
        L = LinkingForm(group, [0, 0], {(0, 1): Fraction(1, 2)})
        assert L.q((1, 1)) == L.qvals[(1, 1)] == Fraction(1, 2)

    def test_direct_sum_permutes_into_ascending_order(self):
        s = LinkingForm.cyclic(3, 1).direct_sum(LinkingForm.hyperbolic(1))
        assert s.group.torsion == (2, 2, 8)
        assert (s.den, s.a, s.pairs) == (16, (0, 0, 1), {(0, 1): 8})

    def test_value_table_is_bounded(self):
        L = LinkingForm.cyclic(1, 1)
        for _ in range(12):
            L = L.direct_sum(LinkingForm.cyclic(1, 1))
        assert L.group.order() == 1 << 13
        assert nondegenerate(L)
        for use in (lambda: L.qvals, L.to_json, lambda: gauss_sum(L)):
            with pytest.raises(ValueError, match="desk-scale bound"):
                use()

    def test_f2_polarization_matches_elimination(self):
        for n in range(5):
            slots = [(i, j) for i in range(n) for j in range(i, n)]
            for bits in itertools.product((0, 1), repeat=len(slots)):
                m = [[0] * n for _ in range(n)]
                for (i, j), v in zip(slots, bits):
                    m[i][j] = v
                matrix = IntMatrix(m, shape=(n, n))
                assert (nondegenerate(F2QuadForm(matrix).linking_form())
                        == f2_nondegenerate_by_elimination(matrix)), m


class TestGaussSum:
    def test_matches_one_root_per_element(self):
        rng = random.Random(909)
        pieces = ([LinkingForm.cyclic(k, a) for k in range(1, 7) for a in (1, 3, 5, 7)]
                  + [LinkingForm.hyperbolic(k) for k in range(1, 4)])
        randoms = [random_linking_form(rng, max_order=256) if i % 2 else
                   LinkingForm(*random_generator_data(rng, max_order=64)) for i in range(60)]
        for L in pieces + randoms:
            table = qvals_by_generator_data(L)
            s = gauss_sum(L)
            conductor = 2 * len(s)
            assert conductor == 8 * max(v.denominator for v in table.values())
            assert s == gauss_sum_by_elements(L.group, table, conductor)


class TestOneEnumerationPerOp:
    """``invariant --name beta`` enumerates the values of its form once: ``gauss_sum`` counts the list that
    reading a form file checked, and a structured complex's form is enumerated by ``gauss_sum`` alone."""

    @pytest.mark.parametrize("doc", [skew_unit(2).direct_sum(LinkingForm.cyclic(3, 5)).to_json(),
                                     tensor_structured(representative("E"), representative("F")).to_json()],
                             ids=["form file", "structured complex"])
    def test_beta_enumerates_once(self, doc, tmp_path, monkeypatch, capsys):
        # the enumeration is the one place the desk-scale bound is checked, so each check is one enumeration
        enumerated = []
        genuine = forms._check_enumerable
        monkeypatch.setattr(forms, "_check_enumerable", lambda order: enumerated.append(order) or genuine(order))
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        assert main(["invariant", "--name", "beta", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["value"] in range(8)
        assert enumerated == [128 if "factors" in doc else 4]


class TestBetaAtLargeConductors:
    """beta of a x^2 / 2^(k+1) on Z/2^k, up to the conductor N = 2^16 of the largest cyclic group beta reads."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_cyclic_forms(self, k):
        for a in (1, 3, 5, 7):
            L = LinkingForm.cyclic(k, a)
            beta = brown_kervaire(L)
            # even k: beta = a; odd k: beta = 1 for a = 1, 5 and 7 for a = 3, 7
            assert beta == (a if k % 2 == 0 else 1 if a % 4 == 1 else 7)
            expected = cmath.rect((1 << k) ** 0.5, 2 * cmath.pi * beta / 8)
            assert abs(gauss_sum_float(L) - expected) < 1e-6 * (1 << k)

    def test_largest_conductor_through_the_cli(self, tmp_path, capsys):
        L = LinkingForm.cyclic(12, 3)
        assert 2 * len(gauss_sum(L)) == 1 << 16
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(L.to_json()))
        assert main(["invariant", "--name", "beta", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"invariant": "beta", "value": 3}


class TestBetaOnEveryForm:
    """beta exists exactly on the nondegenerate forms, where the Milgram norm identity holds."""

    @pytest.mark.parametrize("factors", [(2,), (4,), (8,), (2, 2), (2, 4), (4, 4)])
    def test_every_quadratic_function_on_small_groups(self, factors):
        group = FgAbGroup(0, factors)
        steps = [[Fraction(k, 2 * d) for k in range(2 * d)] for d in factors]  # 2 d a = 0 mod 1
        pair_steps = [Fraction(k, min(factors)) for k in range(min(factors))]  # gcd(d_0, d_1) b = 0 mod 1
        seen = set()
        for a in itertools.product(*steps):
            for b in (pair_steps if len(factors) == 2 else [0]):
                form = LinkingForm(group, a, {(0, 1): b} if len(factors) == 2 else {})
                norm = as_integer(norm_squared(gauss_sum(form)))
                if nondegenerate(form):
                    assert norm == group.order()
                    assert brown_kervaire(form) in range(8)
                else:
                    # |G| |R| on the radical R where q vanishes on it, and 0 otherwise
                    assert norm != group.order()
                    with pytest.raises(DegenerateFormError, match="^Gauss-sum norm identity fails; form is "
                                                                 "degenerate$"):
                        brown_kervaire(form)
                seen.add(nondegenerate(form))
        assert seen == {True, False}
