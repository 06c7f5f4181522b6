"""The mutation table of the ring presentations, run through the shipped path.

Every rewrite coefficient and torsion modulus c of the seven rings is set to
0, c+1, 2c, c//2 and -c, one at a time (``helpers.coefficient_mutants``).
Each mutant is installed as the ring that every verb reads, and at least one
of ``verify presentations``, ``A`` and ``B``, at its default window, must
exit 1.  The mutants that pass all three are listed below with their reason:
an *equivalent* one is the genuine ring written another way, which the test
checks; a *surviving* one is a different ring that no row reads yet, and
names the ROADMAP item meant to catch it.  The surviving list may only shrink.
"""

import pytest

from lspectra import ltables
from lspectra.cli import main
from lspectra.ltables import ONE

from helpers import coefficient_mutants, install_ring

# a torsion modulus -d is the relation d, and a coefficient may change by a multiple of its target's order
EQUIVALENT = {
    "Ls torsion_patterns[0] 2 -> -2": "2e = 0 as -2e = 0",
    "Ln rewrites[2] 4 -> -4": "ef = -4 = 4 in Z/8",
    "Ln torsion_patterns[0] 2 -> -2": "2e = 0 as -2e = 0",
    "Ln torsion_patterns[1] 2 -> -2": "2f = 0 as -2f = 0",
    "Ln torsion_patterns[2] 8 -> -8": "8 = 0 as -8 = 0",
    "LC torsion_patterns[0] 2 -> -2": "2 = 0 as -2 = 0",
    "Lgs rewrites[4] 1 -> -1": "x z_(i+1) = -z_i = z_i, as 2z_i = 0",
    "Lgs torsion_patterns[0] 2 -> -2": "2e = 0 as -2e = 0",
    "Lgs torsion_patterns[1] 2 -> -2": "2z_i = 0 as -2z_i = 0",
}

_ASSOCIATIVITY = "ROADMAP item 4: the critical pairs (associativity) see it; no row reads this product"
_BOUNDARY = "ROADMAP item 5: an associative ring; the boundary of the genuine square, linear over x, forces x z_(i+1)"
SURVIVING = {
    "Lgs rewrites[4] 1 -> 0": _BOUNDARY,
    "Lgs rewrites[4] 1 -> 2": _BOUNDARY,
    **{f"Lgs rewrites[5] 8 -> {c}": _ASSOCIATIVITY for c in (0, 9, 16, 4, -8)},
    **{f"scriptL rewrites[{k}] {c} -> {v}": _ASSOCIATIVITY
       for k, c, values in ((0, 8, (0, 9, 16, 4, -8)), (1, 1, (0, 2, -1)), (2, 8, (0, 9, 16, 4, -8)))
       for v in values},
}

MUTANTS = [mutant for name in ltables.RING_NAMES for mutant in coefficient_mutants(name)]


def _suite_exit_codes(capsys) -> list:
    """The exit codes of ``verify presentations``, ``A`` and ``B`` at their default windows."""
    codes = []
    for suite in ("presentations", "A", "B"):
        codes.append(main(["verify", suite, "--format", "tsv"]))
        capsys.readouterr()
    return codes


def _bases_and_products(name: str, window) -> tuple:
    """The basis of each degree of the window, and the product of each generator with each basis element.

    A product is keyed by (generator, degree); its value is its normal form
    and its coefficient modulo the order of the target's basis element, or
    (0, 1) where that is 0.  The generators are those of degree at most the
    window's width in size.
    """
    lo, hi = window
    pres, products = ltables.presentation(name), {}
    bases = {n: ltables.ring_basis(name, n) for n in range(lo, hi + 1)}
    for sym, d in pres._generators_within(hi - lo):
        for n in range(lo, hi + 1):
            for m, _ in bases[n]:
                c, nf = pres._reduce_term(ltables._times(m, sym), 1) or (0, ONE)
                order = dict(ltables.ring_basis(name, n + d)).get(nf, 0)
                c = c % order if order else c
                products[sym, n] = (c, nf) if c else (0, ONE)
    return bases, products


class TestMutationTable:
    def test_the_mutants(self):
        assert len(MUTANTS) == 79 and len({label for label, _ in MUTANTS}) == 79
        labels = {label for label, _ in MUTANTS}
        assert set(EQUIVALENT) <= labels and set(SURVIVING) <= labels
        # 20 survived when the table was made: the list may only shrink
        assert len(EQUIVALENT) == 9 and len(SURVIVING) <= 20 and not set(EQUIVALENT) & set(SURVIVING)

    def test_every_mutant_fails_a_suite_or_is_listed(self, monkeypatch, capsys):
        outcomes = {}
        for label, bad in MUTANTS:
            install_ring(monkeypatch, bad)
            outcomes[label] = _suite_exit_codes(capsys)
        assert {label: codes for label, codes in outcomes.items() if 2 in codes} == {}
        passing = {label for label, codes in outcomes.items() if codes == [0, 0, 0]}
        assert passing == set(EQUIVALENT) | set(SURVIVING)

    @pytest.mark.parametrize("label", sorted(EQUIVALENT))
    def test_an_equivalent_mutant_has_the_genuine_bases_and_products(self, label, monkeypatch):
        # on the default window and its 8-degree padding both rings have the same bases with the same orders,
        # and reduce each generator product to coefficients that agree modulo the order of the target
        window = (-24, 24)
        bad = dict(MUTANTS)[label]
        ring, genuine = ltables.presentation(bad.name), _bases_and_products(bad.name, window)
        install_ring(monkeypatch, bad)
        assert ltables.presentation(bad.name) == bad != ring
        assert _bases_and_products(bad.name, window) == genuine

    def test_every_other_mutant_changes_a_basis_or_a_product(self, monkeypatch):
        # the reason checked above tells the equivalent mutants apart from all the others
        window = (-24, 24)
        genuine = {name: _bases_and_products(name, window) for name in ltables.RING_NAMES}
        same = []
        for label, bad in MUTANTS:
            install_ring(monkeypatch, bad)
            if _bases_and_products(bad.name, window) == genuine[bad.name]:
                same.append(label)
        assert same == [label for label, _ in MUTANTS if label in EQUIVALENT]
