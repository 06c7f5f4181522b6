import itertools
import random
from fractions import Fraction

import pytest

from lspectra.abelian import FgAbGroup, IntMatrix
from lspectra.chain import IntComplex
from lspectra.forms import DegenerateFormError, LinkingForm, brown_kervaire, nondegenerate
from lspectra import poincare
from lspectra.poincare import (
    InvalidStructureError,
    StructuredComplex,
    certify_ef,
    linking_form,
    poincare_check,
    representative,
    structure_relation_failures,
    tensor_structured,
)

from helpers import (form_file, hidden_e_tensor_f_plus_h, lift_exponent_by_search, not_poincare_f, padded_e_tensor_f,
                     perturbed_lifts, structure_failures_by_entry, structure_failures_by_range, unchecked)


class TestStructureValidation:
    def test_builtins_valid(self):
        for name in ("E", "F", "hyperbolic", "unit"):
            s = representative(name)
            assert structure_relation_failures(s) == []

    def test_shape_mismatch(self):
        cx = IntComplex({1: 2})
        with pytest.raises(InvalidStructureError):
            StructuredComplex(cx, "quadratic", 2, {(0, 1): [[1]]})

    def test_relation_violation(self):
        # on E's complex, dropping the level-1 matrix breaks the relations
        cx = IntComplex({0: 1, -1: 1}, {0: [[2]]})
        with pytest.raises(InvalidStructureError):
            StructuredComplex(
                cx, "symmetric", -1, {(0, 0): [[1]], (0, -1): [[-1]]}
            )

    def test_zero_matrix_of_wrong_shape_is_dropped(self):
        doc = {"ranks": {"1": 2}, "kind": "quadratic", "dimension": 2, "psi": {"0,1": [[0]]}}
        assert StructuredComplex.from_json(doc).to_json()["psi"] == {}

    def test_rejections_keep_their_order(self):
        # the kind is checked first, then the levels, then the shapes
        doc = {"ranks": {"1": 2}, "kind": "bogus", "dimension": 2, "psi": {"0,1": [[1]], "-1,1": [[1]]}}
        with pytest.raises(InvalidStructureError, match="unknown kind 'bogus'"):
            StructuredComplex.from_json(doc)
        doc["kind"] = "quadratic"
        with pytest.raises(InvalidStructureError, match="levels are indexed from 0"):
            StructuredComplex.from_json(doc)

    def test_bounded_search_pins_e_structure(self):
        # search all small symmetric structures on Z --2--> Z: the valid
        # Poincare ones are exactly the global-sign pair
        cx = IntComplex({0: 1, -1: 1}, {0: [[2]]})
        found = []
        for u0, u1, w in itertools.product(range(-2, 3), repeat=3):
            psi = {(0, 0): [[u0]], (0, -1): [[u1]], (1, -1): [[w]]}
            try:
                s = StructuredComplex(cx, "symmetric", -1, psi)
            except InvalidStructureError:
                continue
            if poincare_check(s):
                found.append((u0, u1, w))
        assert sorted(found) == [(-1, 1, -1), (1, -1, 1)]


def _valid_structures():
    return [representative("E"), tensor_structured(representative("E"), representative("F")),
            hidden_e_tensor_f_plus_h(random.Random(3))]


def _one_entry_corruptions():
    """(psi key, structure) for +1 at each entry of each psi block of each valid structure."""
    for S in _valid_structures():
        for key, m in sorted(S.psi.items()):
            for i, j in itertools.product(range(m.rows), range(m.cols)):
                entries = m.tolist()
                entries[i][j] += 1
                yield key, unchecked(S.complex, S.kind, S.dimension, {**S.psi, key: IntMatrix(entries)})


class TestStructureFaults:
    """The relation check skips absent psi blocks; it must still see every wrong entry."""

    def test_one_wrong_entry_fails_where_its_block_is_read(self):
        seen = 0
        for (level, k), bad in _one_entry_corruptions():
            failures = structure_relation_failures(bad)
            assert failures == structure_failures_by_entry(bad)
            assert {(level, k), (level, k + 1)} & set(failures), ((level, k), failures)
            seen += 1
        assert seen > 50

    def test_a_present_zero_block_fails_as_an_absent_one(self):
        added = 0
        for S in _valid_structures() + [bad for _, bad in _one_entry_corruptions()]:
            C = S.complex
            lo, hi = C.window()
            padded = unchecked(C, S.kind, S.dimension, S.psi)
            for level, k in itertools.product(range(S.max_level() + 2), range(lo, hi + 1)):
                shape = (C.rank(k), C.rank(S.partner_degree(level, k)))
                if (level, k) not in padded.psi and all(shape):
                    padded.psi[(level, k)] = IntMatrix.zero(*shape)
            added += len(padded.psi) - len(S.psi)
            assert structure_relation_failures(padded) == structure_relation_failures(S)
            if S.dimension == 1 and not structure_relation_failures(S):
                assert (1, 1) in padded.psi and linking_form(padded) == linking_form(S)
        assert added > 50


def _block_sum(picks) -> StructuredComplex:
    """E tensored with the orthogonal sum of the named quadratic planes."""
    planes = {"F": [[1, 1], [0, 1]], "hyp": [[0, 1], [0, 0]]}
    size = 2 * len(picks)
    block = [[0] * size for _ in range(size)]
    for t, name in enumerate(picks):
        for i, j in itertools.product(range(2), repeat=2):
            block[2 * t + i][2 * t + j] = planes[name][i][j]
    f = StructuredComplex(IntComplex({1: size}), "quadratic", 2, {(0, 1): IntMatrix(block)})
    return tensor_structured(representative("E"), f)


def _level_1000() -> StructuredComplex:
    """A structure of level 1000 on Z in degrees 1 and 1000, the level and span at the CLI's bounds."""
    cx = IntComplex({1: 1, 1000: 1})
    return unchecked(cx, "quadratic", 1, {(1000, 1): [[1]], (1000, 1000): [[2]]})


def _injected(S: StructuredComplex, rng, count):
    """S with a nonzero integer added to one entry of each of ``count`` seeded slots of nonzero shape."""
    C = S.complex
    slots = [(level, k) for level in range(S.max_level() + 3) for k in C.degrees()
             if C.rank(S.partner_degree(level, k))]
    psi = dict(S.psi)
    for level, k in rng.sample(slots, min(count, len(slots))):
        entries = S.psi_matrix(level, k).tolist()
        row = entries[rng.randrange(len(entries))]
        row[rng.randrange(len(row))] += rng.choice((-3, -1, 1, 2))
        psi[level, k] = IntMatrix(entries)
    return unchecked(C, S.kind, S.dimension, psi)


class TestStructureRelationDegrees:
    """The relation check visits the degrees of nonzero rank alone; the loop over lo..hi+1 is its oracle."""

    def test_same_failures_as_every_degree_of_the_window(self):
        rng = random.Random(61)
        structures = [representative(name) for name in ("E", "F", "hyperbolic", "unit")]
        structures += [tensor_structured(representative("E"), representative("F")), _level_1000()]
        structures += [_block_sum([rng.choice(("F", "hyp")) for _ in range(rng.randint(1, 3))]) for _ in range(4)]
        structures += [hidden_e_tensor_f_plus_h(random.Random(seed)) for seed in range(4)]
        failing = 0
        for S in structures:
            for bad in [S] + [_injected(S, rng, count) for count in (1, 2, 4)]:
                failures = structure_relation_failures(bad)
                assert failures == structure_failures_by_range(bad)
                failing += bool(failures)
        assert failing > 30


class TestPoincareCheck:
    def test_builtins(self):
        assert poincare_check(representative("E"))
        assert poincare_check(representative("F"))
        assert poincare_check(representative("hyperbolic"))
        assert poincare_check(representative("unit"))

    def test_zero_structure_fails(self):
        cx = IntComplex({1: 2})
        s = StructuredComplex(cx, "quadratic", 2, {})
        assert not poincare_check(s)

    def test_f_symmetrisation_is_skew_unimodular(self):
        from lspectra.poincare import duality_matrices

        lam = duality_matrices(representative("F"))
        assert lam[1] == IntMatrix([[0, 1], [-1, 0]])


class TestTensor:
    def test_e_tensor_f(self):
        t = tensor_structured(representative("E"), representative("F"))
        assert t.dimension == 1
        assert t.complex.ranks == {0: 2, 1: 2}
        assert t.psi_matrix(1, 1).is_zero()  # the level-1 structure of the product vanishes
        assert t.complex.homology(0) == FgAbGroup.from_divisors([2, 2])
        assert poincare_check(t)

    def test_unit_law(self):
        for name in ("F", "hyperbolic"):
            f = representative(name)
            t = tensor_structured(representative("unit"), f)
            assert t.complex == f.complex
            assert t.dimension == f.dimension
            assert t.psi == f.psi

    def test_preserves_poincare_on_builtin_pairs(self):
        for right in ("F", "hyperbolic"):
            t = tensor_structured(representative("E"), representative(right))
            assert poincare_check(t)

    def test_kind_checked(self):
        with pytest.raises(InvalidStructureError):
            tensor_structured(representative("F"), representative("F"))

    def test_unit_law_holds_for_higher_levels(self):
        cx = IntComplex({1: 1, 0: 1}, {1: [[4]]})
        q = StructuredComplex(
            cx,
            "quadratic", 1, {(0, 0): [[1]], (0, 1): [[1]], (1, 1): [[1]]},
        )
        t = tensor_structured(representative("unit"), q)
        assert t.psi == q.psi

    def test_higher_level_factor_fails_loudly(self):
        # products with a level->=1 quadratic factor and a nontrivial
        # symmetric side are outside the validated envelope: the output
        # relation check must reject them rather than return bad data
        cx = IntComplex({1: 1, 0: 1}, {1: [[4]]})
        q = StructuredComplex(
            cx,
            "quadratic", 1, {(0, 0): [[1]], (0, 1): [[1]], (1, 1): [[1]]},
        )
        with pytest.raises(InvalidStructureError):
            tensor_structured(representative("E"), q)


class TestLinkingForm:
    def test_e_tensor_f_table(self):
        t = tensor_structured(representative("E"), representative("F"))
        form = linking_form(t)
        assert form.qvals == {
            (0, 0): Fraction(0),
            (1, 0): Fraction(1, 2),
            (0, 1): Fraction(1, 2),
            (1, 1): Fraction(1, 2),
        }
        assert LinkingForm.from_json(form_file(form.group, form.qvals)) == form
        assert nondegenerate(form)

    def test_trivial_homology(self):
        cx = IntComplex({1: 1, 0: 1}, {1: [[1]]})
        s = StructuredComplex(cx, "quadratic", 1, {(0, 0): [[1]], (0, 1): [[1]]})
        assert linking_form(s).group.is_trivial()

    def test_z4_formula_example(self):
        # Z --4--> Z with psi_0 = [1] at both slots and psi_1 = [1]; the
        # displayed formula gives q(1) = (1 + 4)/8, inside {1,3,5,7}/8
        cx = IntComplex({1: 1, 0: 1}, {1: [[4]]})
        s = StructuredComplex(
            cx,
            "quadratic", 1, {(0, 0): [[1]], (0, 1): [[1]], (1, 1): [[1]]},
        )
        assert lift_exponent_by_search(s) == _derived_lift_exponent(s) == 2
        form = linking_form(s)
        assert form.q((1,)) in {Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8)}
        assert form.q((1,)) == Fraction(5, 8)
        assert nondegenerate(form)
        # brute-force oracle: evaluate the formula over a small search box
        z = next(z for z in range(-8, 9) if 4 * z == 4)  # dz = 2^2 * 1
        val = Fraction(1 * z * z + (4 * z) * 1 * z, 8) % 1
        assert form.q((1,)) == val

    def test_carrier_dimension_checked(self):
        with pytest.raises(InvalidStructureError):
            linking_form(representative("F"))

    def test_odd_torsion_rejected(self):
        cx = IntComplex({1: 1, 0: 1}, {1: [[3]]})
        s = StructuredComplex(cx, "quadratic", 1, {(0, 0): [[1]], (0, 1): [[1]]})
        with pytest.raises(DegenerateFormError):
            linking_form(s)

    def test_non_quadratic_values_rejected(self):
        # psi_1 pairs the Z/2 and Z/4 generators with weight 1/4, which does
        # not vanish on twice the Z/2 generator; unchecked relations let it in
        cx = IntComplex({1: 2, 0: 2}, {1: [[2, 0], [0, 4]]})
        psi = {(0, 0): IntMatrix.identity(2), (0, 1): IntMatrix.identity(2),
               (1, 1): [[0, 1], [0, 0]]}
        s = unchecked(cx, "quadratic", 1, psi)
        assert s.complex.homology(0) == FgAbGroup.from_divisors([2, 4])
        with pytest.raises(InvalidStructureError, match="not a quadratic function"):
            linking_form(s)

    def test_beta_invariant_under_randomized_lifts(self, monkeypatch):
        # E (x) F padded with a direction that d kills, so a lift is unique only up to a cycle; each lift
        # moves by a seeded multiple of it, and one or both of the two lifts move in every run
        padded = padded_e_tensor_f()
        reference = brown_kervaire(linking_form(padded))
        assert reference == 4
        for seed in range(10):
            with monkeypatch.context() as patch:
                moved = perturbed_lifts(patch, random.Random(seed))
                assert brown_kervaire(linking_form(padded)) == reference
            assert len(moved) == 2 and 1 <= sum(moved) <= 2, seed


class TestRandomizedTwoTorsion:
    def test_block_sums_stay_quadratic_nondegenerate(self):
        # orthogonal sums of the quadratic planes, tensored with E, give
        # randomized 2-torsion Poincare complexes; the extracted form must
        # always pass both checks and beta must add
        rng = random.Random(77)
        beta = {"F": 4, "hyp": 0}
        for _ in range(8):
            picks = [rng.choice(list(beta)) for _ in range(rng.randint(1, 3))]
            expected = sum(beta[name] for name in picks) % 8
            t = _block_sum(picks)
            assert poincare_check(t)
            assert lift_exponent_by_search(t) == _derived_lift_exponent(t)
            form = linking_form(t)
            assert LinkingForm.from_json(form_file(form.group, form.qvals)) == form
            assert nondegenerate(form)
            assert brown_kervaire(form) == expected


    def test_lift_exponent_is_read_off_the_homology(self):
        for seed in range(6):
            S = hidden_e_tensor_f_plus_h(random.Random(seed))
            assert lift_exponent_by_search(S) == _derived_lift_exponent(S) == 1


def _derived_lift_exponent(S):
    """log2 of the exponent of the carrier homology, the K linking_form uses."""
    return S.complex.homology(0).exponent().bit_length() - 1


class TestCertify:
    def test_ef_certificate_is_four(self):
        assert certify_ef(representative("E"), representative("F")) == 4

    def test_hyperbolic_gives_zero(self):
        assert certify_ef(representative("E"), representative("hyperbolic")) == 0

    def test_unit_gives_zero(self):
        assert certify_ef(representative("unit"), representative("F")) == 0

    def test_a_factor_that_is_not_poincare_has_no_certificate(self):
        e, f = representative("E"), representative("F")
        zero_e = StructuredComplex(e.complex, "symmetric", -1, {})  # valid data whose pairing is zero
        assert not poincare_check(zero_e) and not poincare_check(not_poincare_f())
        assert certify_ef(zero_e, f) is None
        assert certify_ef(e, not_poincare_f()) is None

    def test_a_product_that_is_not_poincare_has_no_certificate(self, monkeypatch):
        # the factors pass; a tensor whose structure is dropped does not, and is not certified
        genuine = poincare.tensor_structured
        monkeypatch.setattr(poincare, "tensor_structured",
                            lambda S, T: StructuredComplex(genuine(S, T).complex, "quadratic", 1, {}))
        assert certify_ef(representative("E"), representative("F")) is None

    def test_basis_change_of_f_keeps_four(self):
        # integral lifts of F2 basis changes preserve the Arf-1 class
        rng = random.Random(3)
        e = representative("E")
        cx = IntComplex({1: 2})
        for _ in range(10):
            u = _random_gl2z(rng)
            m = u.transpose() @ IntMatrix([[1, 1], [0, 1]]) @ u
            # fold the entry below the diagonal back up: psi_0 is only well defined up to (1-T)-shifts
            # chi + chi^T, and chi = [[0, 0], [-c, 0]] realises this one, so psi - psi^T stays det(u) [[0, 1], [-1, 0]]
            a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
            folded = IntMatrix([[a, b - c], [0, d]])
            f = StructuredComplex(cx, "quadratic", 2, {(0, 1): folded})
            assert certify_ef(e, f) == 4


def _random_gl2z(rng):
    out = IntMatrix.identity(2)
    for _ in range(5):
        c = rng.randint(-2, 2)
        e = IntMatrix([[1, c], [0, 1]]) if rng.random() < 0.5 else IntMatrix([[1, 0], [c, 1]])
        out = out @ e
    return out


class TestSerialisation:
    def test_roundtrip(self):
        t = tensor_structured(representative("E"), representative("F"))
        doc = t.to_json()
        back = StructuredComplex.from_json(doc)
        assert back.complex == t.complex
        assert back.psi == t.psi
        assert back.dimension == 1


class TestFailureBranches:
    def test_a_pairing_that_is_no_chain_map_fails_the_poincare_check(self):
        # E with psi_(0,-1) = 1 instead of -1: the adjoint no longer commutes with d = 2
        S = unchecked(IntComplex({0: 1, -1: 1}, {0: [[2]]}), "symmetric", -1, {(0, 0): [[1]], (0, -1): [[1]]})
        assert poincare_check(representative("E"))
        assert not poincare_check(S)

    def test_an_even_dimensional_product_with_two_torsion_is_refused(self):
        E = representative("E")
        with pytest.raises(DegenerateFormError, match="even-dimensional product with 2-torsion homology"):
            certify_ef(E, tensor_structured(E, representative("F")))
