"""Ring bases read off the presentations: the rules and torsion relations are their only statement."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lspectra import ltables
from lspectra.cli import main
from lspectra.ltables import ONE, mono, presentation, verify_presentation, verify_presentations_report

from helpers import replaced, ring_basis_by_hand

E = mono(("e", 1))
Z_I = (ltables._member("z", "i"),)
Y_I_Y_J = (ltables._member("y", "i"), ltables._member("y", "j"))


@pytest.fixture
def shared(monkeypatch):
    """Makes ``shared(ring, change)`` the shared presentation of ``ring``, and its bases the ones read off it.

    Every presentation is built afresh, ``ring``'s through ``change``: the
    bases are memoised on the presentations, so an empty ``_SHARED`` empties them.
    """
    genuine = ltables._build_presentation

    def install(ring, change):
        monkeypatch.setattr(ltables, "_build_presentation",
                            lambda name: change(genuine(name)) if name == ring else genuine(name))
        monkeypatch.setattr(ltables, "_SHARED", {})

    return install


def with_modulus(pattern, modulus):
    """The change of a presentation that sets the modulus of its torsion pattern ``pattern``."""
    def change(pres):
        assert pattern in [p for p, _ in pres.torsion_patterns]
        return replaced(pres, torsion_patterns=tuple(
            (p, modulus if p == pattern else d) for p, d in pres.torsion_patterns))
    return change


def without_rewrite(pattern):
    def change(pres):
        assert pattern in [p for p, _, _ in pres.rewrites]
        return replaced(pres, rewrites=tuple(r for r in pres.rewrites if r[0] != pattern))
    return change


class TestDerivedBasis:
    @pytest.mark.parametrize("name", ltables.RING_NAMES)
    def test_matches_the_bases_written_by_hand(self, name):
        # every degree the verifiers read: MAX_DEGREE, their 8-degree padding, and a tail period more
        for n in range(-2060, 2061):
            assert set(ltables.ring_basis(name, n)) == set(ring_basis_by_hand(name, n)), (name, n)

    def test_names_no_ring(self):
        import inspect

        source = inspect.getsource(ltables.ring_basis) + inspect.getsource(ltables._basis_parts)
        assert not any(f'"{name}"' in source for name in ltables.RING_NAMES)

    def test_a_warm_call_is_a_lookup(self):
        first = ltables.ring_basis("Lgs", -2046)
        assert first == [(mono(("z511", 1)), 2)]
        assert ltables.ring_basis("Lgs", -2046) is first is ltables._SHARED["Lgs"]._bases[-2046]

    def test_reading_a_basis_fills_only_its_own_rings_presentation(self, shared, monkeypatch):
        shared("Ls", lambda pres: pres)
        ls = presentation("Ls")
        for n in range(-60, 61):
            ltables.ring_basis("Lgs", n)
        lgs = presentation("Lgs")
        assert set(ltables._SHARED) == {"Ls", "Lgs"} and not ls._normal_forms and not ls._bases
        assert lgs._normal_forms and sorted(lgs._bases) == list(range(-60, 61))
        # a new instance starts with no bases, whether made by replace or rebuilt past the bound
        copy = replaced(lgs)
        assert copy == lgs and not copy._bases and copy._parts is None
        monkeypatch.setattr(ltables, "MEMO_BOUND", 3)
        rebuilt = presentation("Lgs")
        assert rebuilt is not lgs and not rebuilt._bases and rebuilt._parts is None
        assert ltables.ring_basis("Lgs", -8) == lgs._bases[-8] and set(rebuilt._bases) == {-8}

    def test_each_ring_is_built_once_per_process(self):
        # a fresh interpreter: the reports read every ring, its bases included, and build each presentation once
        script = "\n".join([
            "import json",
            "from collections import Counter",
            "from lspectra import ltables",
            "builds, genuine = Counter(), ltables._build_presentation",
            "ltables._build_presentation = lambda name: builds.update([name]) or genuine(name)",
            "rows = ltables.verify_presentations_report() + ltables.verify_classical()",
            "assert all(row.passed for row in rows)",
            "print(json.dumps(builds))",
        ])
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env)
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout) == {name: 1 for name in ltables.RING_NAMES}


class TestTorsionRelationsAreChecked:
    """A wrong torsion relation in the shared presentation fails its own row; each passed every row before."""

    @pytest.mark.parametrize("ring,pattern,modulus", [
        ("Ls", E, 4),
        ("LC", ONE, 4),
        ("Lgs", Z_I, 4),
        ("Ln", ONE, 16),
        ("Ln", E, 4),
    ], ids=["Ls-4e", "LC-4", "Lgs-4z", "Ln-16", "Ln-4e"])
    def test_fails_its_own_row_only(self, ring, pattern, modulus, shared, capsys):
        shared(ring, with_modulus(pattern, modulus))
        assert dict(presentation(ring).torsion_patterns)[pattern] == modulus
        rows = {i.name: i.passed for i in verify_presentations_report((-16, 16))}
        assert [row for row, passed in rows.items() if not passed] == [f"presentation-{ring}"]
        assert main(["verify", "presentations", "--format", "tsv"]) == 1
        failed = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines() if "\tFAIL" in line]
        assert failed == [f"presentation-{ring}"]


class TestWrongPresentationsFailTheSuites:
    """A map that a wrong ring cannot carry fails the rows that build it, naming the degree; each once exited 2."""

    @pytest.mark.parametrize("suite,ring,pattern,modulus,reason", [
        ("A", "Ln", ONE, 16, "not a homomorphism"),
        ("A", "Ln", E, 4, "not a homomorphism"),
        ("B", "Lgs", Z_I, 4, "not a homomorphism"),
        ("B", "Ls", E, 4, "not those of their sum"),
    ], ids=["A-Ln-16", "A-Ln-4e", "B-Lgs-4z", "B-Ls-4e"])
    def test_fails_rows_with_the_reason(self, suite, ring, pattern, modulus, reason, shared, capsys):
        assert main(["verify", suite, "--format", "tsv"]) == 0
        clean = capsys.readouterr().out.splitlines()
        shared(ring, with_modulus(pattern, modulus))
        assert main(["verify", suite, "--format", "tsv"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert captured.err == "" and len(lines) == len(clean)
        # the rows that pass print the bytes they print on the genuine ring
        assert all(line in clean for line in lines if "\tPASS\t" in line)
        details = [line.split("\t")[2] for line in lines if "\tFAIL\t" in line]
        assert any(re.search(f"; .*at degree -?\\d+ (are|is) {reason}$", d) for d in details), details


class TestShapesOutsideTheDerivation:
    def test_infinitely_many_irreducible_monomials_are_refused(self, shared):
        # without e^2 -> 0 every power of e is irreducible
        shared("Ls", without_rewrite(mono(("e", 2))))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^Ls has more than 64 irreducible monomials"):
            ltables.ring_basis("Ls", 1)
        assert time.perf_counter() - start < 2

    def test_an_irreducible_monomial_of_neither_shape_fails_through_the_products(self, shared):
        # without y_i y_j -> 8 y_(i+j), y1^2 is irreducible in degree -8 beside y2, but no basis lists it
        shared("Lgs", without_rewrite(Y_I_Y_J))
        pres, window = presentation("Lgs"), (-16, 16)
        y1_squared = mono(("y1", 2))
        assert pres.reduce({y1_squared: 1}) == {y1_squared: 1}
        assert ltables.ring_basis("Lgs", -8) == [(mono(("y2", 1)), 0)]
        assert not any(pres.reduce(elem) for elem in pres._relations(window))
        assert ltables._matches_golden("Lgs")
        assert not ltables._products_in_basis(pres, window)
        assert not verify_presentation("Lgs", window)
