"""Graded ring and module presentations for the integral L-theory tables.

Tables are generated from small rewriting presentations (generators,
relations, per-degree bases) and cross-checked against golden windows
shipped as data files; multiplication maps, the boundary map and the
symmetrisation map come out of the same presentations.  The two theorem
verifiers replay every graded-level claim: splittings, Anderson duals,
exactness of the fibre sequences, and the kernel argument that hinges on
ef = 4.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .abelian import FgAbGroup, IntMatrix, ext_group, hom_group, extension_candidates
from .graded import (
    GradedGroup,
    GradedMap,
    anderson_dual,
    check_exact,
    cofibre_of_mult,
    compare_graded,
    direct_sum_graded,
    double_dual_check,
    mod_table,
    restrict,
    shift_graded,
    torsor_count,
)

__all__ = [
    "RingPresentation",
    "CheckResult",
    "TABLE_NAMES",
    "presentation",
    "table",
    "mult_by",
    "boundary_map",
    "symmetrisation_map",
    "verify_presentation",
    "verify_presentations_report",
    "verify_classical",
    "verify_genuine",
    "e_multiplication_report",
    "golden_table",
]


# ---------------------------------------------------------------------------
# Monomial rewriting
# ---------------------------------------------------------------------------

Monomial = tuple  # tuple of (symbol, exponent), sorted by symbol

ONE: Monomial = ()


def mono(*pairs) -> Monomial:
    d = {}
    for s, e in pairs:
        d[s] = d.get(s, 0) + e
    return tuple(sorted((s, e) for s, e in d.items() if e))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return mono(*(list(a) + list(b)))


def mono_divides(pattern: Monomial, m: Monomial) -> bool:
    exps = dict(m)
    return all(exps.get(s, 0) >= e for s, e in pattern)


def mono_div(m: Monomial, pattern: Monomial) -> Monomial:
    exps = dict(m)
    for s, e in pattern:
        exps[s] = exps.get(s, 0) - e
    return tuple(sorted((s, e) for s, e in exps.items() if e))


@dataclass(frozen=True)
class RingPresentation:
    """A graded ring given by generators, rewrite rules and a basis rule.

    The rules (rewrites, torsion patterns, coefficient modulus) are the only
    statement of the ring's relations; the checked relations derive from them.
    """

    name: str
    generators: tuple  # ((symbol, degree), ...)
    invertible: frozenset
    coeff_modulus: int | None
    rewrites: tuple  # ((pattern, coeff, replacement), ...)
    torsion_patterns: tuple  # ((pattern, modulus), ...)

    def degree(self, m: Monomial) -> int:
        degs = dict(self.generators)
        return sum(degs[s] * e for s, e in m)

    def _coeff_reduce(self, m: Monomial, c: int) -> int:
        for pattern, modulus in self.torsion_patterns:
            if mono_divides(pattern, m):
                c %= modulus
        if self.coeff_modulus:
            c %= self.coeff_modulus
        return c

    def reduce(self, element: dict) -> dict:
        work = dict(element)
        while True:
            hit = None
            for m in work:
                exps = dict(m)  # mono_divides, with m unpacked once for all rules
                for pattern, coeff, repl in self.rewrites:
                    if all(exps.get(s, 0) >= e for s, e in pattern):
                        hit = (m, pattern, coeff, repl)
                        break
                if hit:
                    break
            if hit is None:
                break
            m, pattern, coeff, repl = hit
            c = work.pop(m)
            if coeff:
                new = mono_mul(mono_div(m, pattern), repl)
                work[new] = work.get(new, 0) + c * coeff
        out = {}
        for m, c in work.items():
            c = self._coeff_reduce(m, c)
            if c:
                out[m] = c
        return out

    def multiply(self, e1: dict, e2: dict) -> dict:
        out = {}
        for m1, c1 in e1.items():
            for m2, c2 in e2.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return self.reduce(out)

    def _relations(self) -> list:
        """The elements its rules declare zero: pattern - coeff*repl, d*pattern, m."""
        # a zero term would cost reduce one more scan of every rule
        rels = [{pattern: 1, repl: -coeff} if coeff else {pattern: 1}
                for pattern, coeff, repl in self.rewrites]
        rels += [{pattern: d} for pattern, d in self.torsion_patterns]
        if self.coeff_modulus:
            rels.append({ONE: self.coeff_modulus})
        return rels


# ---------------------------------------------------------------------------
# The built-in presentations
# ---------------------------------------------------------------------------

RING_NAMES = ("Ls", "Ln", "LR", "LC", "LCc", "Lgs", "scriptL")
MODULE_NAMES = ("Lq", "dR")
DERIVED_NAMES = ("Lgq", "lR", "KO")
TABLE_NAMES = RING_NAMES + MODULE_NAMES + DERIVED_NAMES

PERIODS = {
    "Ls": 4,
    "Lq": 4,
    "Ln": 4,
    "LR": 4,
    "LC": 4,
    "dR": 4,
    "LCc": 2,
    "KO": 8,
    "Lgs": None,
    "Lgq": None,
    "lR": None,
    "scriptL": None,
}


def _family_range(window) -> int:
    lo, hi = window
    return max(2, (max(abs(lo), abs(hi)) // 4) + 2)


def presentation(name: str, window=(-16, 16)) -> RingPresentation:
    if name == "Ls":
        return RingPresentation(
            name="Ls",
            generators=(("x", 4), ("e", 1)),
            invertible=frozenset({"x"}),
            coeff_modulus=None,
            rewrites=((mono(("e", 2)), 0, ONE),),
            torsion_patterns=((mono(("e", 1)), 2),),
        )
    if name == "Ln":
        return RingPresentation(
            name="Ln",
            generators=(("x", 4), ("e", 1), ("f", -1)),
            invertible=frozenset({"x"}),
            coeff_modulus=8,
            rewrites=(
                (mono(("e", 2)), 0, ONE),
                (mono(("f", 2)), 0, ONE),
                (mono(("e", 1), ("f", 1)), 4, ONE),
            ),
            torsion_patterns=((mono(("e", 1)), 2), (mono(("f", 1)), 2)),
        )
    if name == "LR":
        return RingPresentation("LR", (("x", 4),), frozenset({"x"}), None, (), ())
    if name == "LC":
        return RingPresentation("LC", (("x", 4),), frozenset({"x"}), 2, (), ())
    if name == "LCc":
        return RingPresentation("LCc", (("s", 2),), frozenset({"s"}), None, (), ())
    if name in ("Lgs", "scriptL"):
        n_fam = _family_range(window)
        gens = [("x", 4)]
        rewrites = []
        torsion = []
        if name == "Lgs":
            gens.append(("e", 1))
            rewrites.append((mono(("e", 2)), 0, ONE))
            torsion.append((mono(("e", 1)), 2))
        for i in range(1, n_fam + 1):
            gens.append((f"y{i}", -4 * i))
        if name == "Lgs":
            for i in range(1, n_fam + 1):
                gens.append((f"z{i}", -4 * i - 2))
        # x-transfer relations
        rewrites.append((mono(("x", 1), ("y1", 1)), 8, ONE))
        for i in range(1, n_fam):
            rewrites.append((mono(("x", 1), (f"y{i + 1}", 1)), 1, mono((f"y{i}", 1))))
        if name == "Lgs":
            rewrites.append((mono(("x", 1), ("z1", 1)), 0, ONE))
            for i in range(1, n_fam):
                rewrites.append((mono(("x", 1), (f"z{i + 1}", 1)), 1, mono((f"z{i}", 1))))
        # products within the families
        for i in range(1, n_fam + 1):
            for j in range(i, n_fam + 1):
                if i + j <= n_fam:
                    rewrites.append(
                        (mono((f"y{i}", 1), (f"y{j}", 1)), 8, mono((f"y{i + j}", 1)))
                    )
        if name == "Lgs":
            for i in range(1, n_fam + 1):
                rewrites.append((mono(("e", 1), (f"y{i}", 1)), 0, ONE))
                rewrites.append((mono(("e", 1), (f"z{i}", 1)), 0, ONE))
                torsion.append((mono((f"z{i}", 1)), 2))
                for j in range(i, n_fam + 1):
                    rewrites.append((mono((f"y{i}", 1), (f"z{j}", 1)), 0, ONE))
                    if j > i:  # z_i y_i is y_i z_i, stated just above
                        rewrites.append((mono((f"z{i}", 1), (f"y{j}", 1)), 0, ONE))
                    rewrites.append((mono((f"z{i}", 1), (f"z{j}", 1)), 0, ONE))
        return RingPresentation(
            name=name,
            generators=tuple(gens),
            invertible=frozenset(),
            coeff_modulus=None,
            rewrites=tuple(rewrites),
            torsion_patterns=tuple(torsion),
        )
    raise KeyError(f"unknown ring presentation {name!r}")


def ring_basis(name: str, degree: int):
    """Per-degree basis monomials with torsion orders (0 meaning free)."""
    d = degree
    if name == "Ls":
        if d % 4 == 0:
            return [(mono(("x", d // 4)), 0)]
        if d % 4 == 1:
            return [(mono(("e", 1), ("x", (d - 1) // 4)), 2)]
        return []
    if name == "Ln":
        if d % 4 == 0:
            return [(mono(("x", d // 4)), 8)]
        if d % 4 == 1:
            return [(mono(("e", 1), ("x", (d - 1) // 4)), 2)]
        if d % 4 == 3:
            return [(mono(("f", 1), ("x", (d + 1) // 4)), 2)]
        return []
    if name == "LR":
        return [(mono(("x", d // 4)), 0)] if d % 4 == 0 else []
    if name == "LC":
        return [(mono(("x", d // 4)), 2)] if d % 4 == 0 else []
    if name == "LCc":
        return [(mono(("s", d // 2)), 0)] if d % 2 == 0 else []
    if name == "Lgs":
        if d >= 0:
            if d % 4 == 0:
                return [(mono(("x", d // 4)), 0)]
            if d % 4 == 1:
                return [(mono(("e", 1), ("x", (d - 1) // 4)), 2)]
            return []
        if d % 4 == 0:
            return [(mono((f"y{-d // 4}", 1)), 0)]
        if (-d - 2) % 4 == 0 and (-d - 2) // 4 >= 1:
            return [(mono((f"z{(-d - 2) // 4}", 1)), 2)]
        return []
    if name == "scriptL":
        if d % 4 != 0:
            return []
        if d >= 0:
            return [(mono(("x", d // 4)), 0)]
        return [(mono((f"y{-d // 4}", 1)), 0)]
    raise KeyError(f"unknown ring {name!r}")


_MODULE_DEGREES = {"x": 4, "e": 1}


def module_basis(name: str, degree: int):
    """Basis labels with orders for the module presentations.

    An L^q label is a monomial of Z[t^±1, g]; the class is 8 times it.
    """
    d = degree
    if name == "Lq":
        if d % 4 == 0:
            return [(mono(("t", d // 4)), 0)]
        if d % 4 == 2:
            return [(mono(("t", (d + 2) // 4), ("g", 1)), 2)]
        return []
    if name == "dR":
        if d % 4 == 1:
            return [(f"u{(d - 1) // 4}", 2)]
        return []
    raise KeyError(f"unknown module {name!r}")


def module_action(name: str, sym: str, degree: int):
    """Matrix entries of a ring generator acting from ``degree``."""
    if sym not in _MODULE_DEGREES:
        raise KeyError(f"unknown generator {sym!r} for module {name}")
    src = module_basis(name, degree)
    tgt = module_basis(name, degree + _MODULE_DEGREES[sym])
    if sym == "e":
        return IntMatrix.zero(len(tgt), len(src))
    # x acts by the evident isomorphism wherever source and target are present
    if len(src) == 1 and len(tgt) == 1:
        return IntMatrix([[1]])
    return IntMatrix.zero(len(tgt), len(src))


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def _group_from_basis(basis) -> FgAbGroup:
    return FgAbGroup.from_divisors([o for _, o in basis])


def table(name: str, window=(-16, 16)) -> GradedGroup:
    """The homotopy-group table of a named theory over a window."""
    lo, hi = window
    if name == "Lgq":
        base = table("Lgs", (lo - 4, hi - 4))
        return restrict(shift_graded(base, 4), window)
    if name == "lR":
        groups = {n: FgAbGroup.free(1) if n % 4 == 0 and n >= 0 else FgAbGroup() for n in range(lo, hi + 1)}
        return GradedGroup(window, groups, None)
    if name == "KO":
        ko = [FgAbGroup.free(1), FgAbGroup.cyclic(2), FgAbGroup.cyclic(2), FgAbGroup(),
              FgAbGroup.free(1), FgAbGroup(), FgAbGroup(), FgAbGroup()]
        groups = {n: ko[n % 8] for n in range(lo, hi + 1)}
        period = 8 if hi - lo + 1 >= 8 else None
        return GradedGroup(window, groups, period)
    if name in MODULE_NAMES:
        groups = {n: _group_from_basis(module_basis(name, n)) for n in range(lo, hi + 1)}
    elif name in RING_NAMES:
        groups = {n: _group_from_basis(ring_basis(name, n)) for n in range(lo, hi + 1)}
    else:
        raise KeyError(f"unknown table name {name!r}")
    period = PERIODS.get(name)
    if period is not None and hi - lo + 1 < period + 1:
        period = None
    return GradedGroup(window, groups, period)


def golden_table(name: str) -> GradedGroup:
    """The hard-coded golden window shipped with the package."""
    path = resources.files("lspectra").joinpath(f"data/golden/{name}.json")
    return GradedGroup.from_json(json.loads(path.read_text()))


def mult_by(name: str, sym: str, window=(-16, 16)) -> GradedMap:
    """Degreewise matrices of multiplication by a generator."""
    tab = table(name, window)
    lo, hi = window
    comps = {}
    if name in MODULE_NAMES:
        if sym not in _MODULE_DEGREES:
            raise KeyError(f"unknown generator {sym!r} of {name}")
        shiftd = _MODULE_DEGREES[sym]
        for n in range(lo, hi + 1):
            if lo <= n + shiftd <= hi:
                comps[n] = module_action(name, sym, n)
        return GradedMap(tab, tab, shiftd, comps)
    pres = presentation(name, window)
    shiftd = dict(pres.generators).get(sym)
    if shiftd is None:
        raise KeyError(f"unknown generator {sym!r} of {name}")
    for n in range(lo, hi + 1):
        if not lo <= n + shiftd <= hi:
            continue
        src, tgt, m = _generator_products(pres, sym, shiftd, n)
        if m is None:
            raise ValueError(f"product leaves the stated basis at degree {n}")
        comps[n] = IntMatrix(m, shape=(len(tgt), len(src)))
    return GradedMap(tab, tab, shiftd, comps)


def _generator_products(pres: RingPresentation, sym: str, shiftd: int, n: int):
    """(source basis, target basis, matrix) of the generator ``sym`` on degree n.

    The matrix is None when a product leaves the target basis.
    """
    src = ring_basis(pres.name, n)
    tgt = ring_basis(pres.name, n + shiftd)
    rows = [tm for tm, _ in tgt]
    m = [[0] * len(src) for _ in rows]
    for j, (bm, _) in enumerate(src):
        for pm, c in pres.multiply({mono((sym, 1)): 1}, {bm: 1}).items():
            if pm not in rows:
                return src, tgt, None
            m[rows.index(pm)][j] = c
    return src, tgt, m


def boundary_map(window=(-16, 16)) -> GradedMap:
    """The boundary L^n_(4i-1) -> L^q_(4i-2), sending x^i f to 8 x^i g."""
    ln = table("Ln", window)
    lq = table("Lq", window)
    lo, hi = window
    comps = {}
    for n in range(lo, hi + 1):
        if not lo <= n - 1 <= hi:
            continue
        rows = lq[n - 1].gens()
        cols = ln[n].gens()
        if n % 4 == 3 and rows == 1 and cols == 1:
            comps[n] = IntMatrix([[1]])
        else:
            comps[n] = IntMatrix.zero(rows, cols)
    return GradedMap(ln, lq, -1, comps)


def symmetrisation_map(window=(-16, 16)) -> GradedMap:
    """L^q -> L^s: multiplication by 8 on free parts, zero on torsion."""
    lq = table("Lq", window)
    ls = table("Ls", window)
    comps = {}
    for n in lq.degrees():
        rows, cols = ls[n].gens(), lq[n].gens()
        if n % 4 == 0:
            comps[n] = IntMatrix([[8]])
        else:
            comps[n] = IntMatrix.zero(rows, cols)
    return GradedMap(lq, ls, 0, comps)


def projection_to_ln(window=(-16, 16)) -> GradedMap:
    """L^s -> L^n, the reduction in the symmetrisation fibre sequence."""
    ls = table("Ls", window)
    ln = table("Ln", window)
    comps = {}
    for n in ls.degrees():
        rows, cols = ln[n].gens(), ls[n].gens()
        if n % 4 in (0, 1) and rows == 1 and cols == 1:
            comps[n] = IntMatrix([[1]])
        else:
            comps[n] = IntMatrix.zero(rows, cols)
    return GradedMap(ls, ln, 0, comps)


# ---------------------------------------------------------------------------
# Presentation verification
# ---------------------------------------------------------------------------


def verify_presentation(name: str, window=(-16, 16), pres: RingPresentation | None = None) -> bool:
    """Relations reduce to zero and generator products stay in the basis.

    The relations are those of the rules of ``presentation(name, window)``;
    passing ``pres`` reduces them under a (possibly corrupted) presentation
    instead, which is how fault injection is tested.
    """
    if name in MODULE_NAMES:
        return _verify_module(name, window)
    trusted = presentation(name, window)
    pres = pres or trusted
    lo, hi = window
    for elem in trusted._relations():
        if pres.reduce(elem):
            return False
    for n in range(lo, hi + 1):
        for sym, sdeg in pres.generators:
            if not lo <= n + sdeg <= hi:
                continue
            src, tgt, m = _generator_products(pres, sym, sdeg, n)
            if m is None:
                return False
            # the product of a torsion class must respect its order
            for j, (_, order) in enumerate(src):
                for i, (_, to) in enumerate(tgt):
                    v = order * m[i][j]
                    if order and (v % to if to else v):
                        return False
    return _matches_golden(name)


def _matches_golden(name: str) -> bool:
    """The generated table equals the golden window shipped for it, if any."""
    try:
        gold = golden_table(name)
    except FileNotFoundError:
        return True
    win = gold.window
    return compare_graded(restrict(table(name, win), win, period=None),
                          restrict(gold, win, period=None))


def _verify_module(name: str, window) -> bool:
    lo, hi = window
    for n in range(lo, hi - 4):
        # e^2 = 0 and 2e = 0 act by zero; x commutes with e
        e1 = module_action(name, "e", n)
        e2 = module_action(name, "e", n + 1)
        if not (e2 @ e1).is_zero():
            return False
        if not e1.scale(2).is_zero():
            # 2e acts as zero only modulo the torsion orders of the target
            tgt = module_basis(name, n + 1)
            for j in range(e1.cols):
                for i, (_, o) in enumerate(tgt):
                    v = 2 * e1[i, j]
                    if o == 0 and v or (o and v % o):
                        return False
        xe = module_action(name, "x", n + 1) @ module_action(name, "e", n)
        ex = module_action(name, "e", n + 4) @ module_action(name, "x", n)
        if xe != ex:
            return False
    return _matches_golden(name)


def verify_lq_ring(window=(-16, 16)) -> bool:
    """Symmetrisation is multiplicative on the ring 8Z[t^±1, g]/(16g, 64g^2).

    The L^q class in degree d is 8 times the monomial of
    ``module_basis("Lq", d)``.  Each class of one period (degrees -4..3) is
    multiplied by each class in the window; the product, written in the
    L^q basis, goes through ``symmetrisation_map`` and must equal the
    product of the two images in L^s.
    """
    lq = RingPresentation("Lq", (("t", 4), ("g", -2)), frozenset({"t"}), None, (),
                          ((mono(("g", 1)), 16), (mono(("g", 2)), 64)))
    ls = presentation("Ls")
    lo, hi = window
    sym = symmetrisation_map((min(lo, 0) - 4, max(hi, 0) + 3))  # both factors and the product

    def image(n, coords):
        comp = sym.component(n)
        values = (sum(a * c for a, c in zip(row, coords)) for row in comp.entries)
        return ls.reduce({bm: v for (bm, _), v in zip(ring_basis("Ls", n), values)})

    def classes(lo, hi):
        return [(d, m) for d in range(lo, hi + 1) for m, _ in module_basis("Lq", d)]

    right = classes(lo, hi)
    for a, ma in classes(-4, 3):
        for b, mb in right:
            prod = lq.multiply({ma: 8}, {mb: 8})
            coords = [prod.pop(mc, 0) for mc, _ in module_basis("Lq", a + b)]
            if prod or any(c % 8 for c in coords):
                return False  # the product leaves the L^q classes
            if image(a + b, [c // 8 for c in coords]) != ls.multiply(image(a, [1]), image(b, [1])):
                return False
    return True


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _compare_item(name: str, A: GradedGroup, B: GradedGroup, detail: str) -> CheckResult:
    """Degreewise comparison reporting the first offending degree."""
    if A.window != B.window:
        return CheckResult(name, False, f"{detail}; window mismatch {A.window} vs {B.window}")
    for n in A.degrees():
        if A[n] != B[n]:
            return CheckResult(
                name, False,
                f"{detail}; mismatch at degree {n}: {A[n].render()} vs {B[n].render()}",
            )
    return CheckResult(name, True, detail)


def verify_presentations_report(window=(-16, 16)) -> list[CheckResult]:
    out = []
    for name in RING_NAMES + MODULE_NAMES:
        ok = verify_presentation(name, window)
        out.append(CheckResult(f"presentation-{name}", ok))
    out.append(CheckResult("lq-ring-structure", verify_lq_ring(window)))
    return out


# ---------------------------------------------------------------------------
# Theorem A
# ---------------------------------------------------------------------------


def _pad(window, margin=8):
    lo, hi = window
    return (lo - margin, hi + margin)


def verify_classical(window=(-12, 12)) -> list[CheckResult]:
    """Graded-level verification of the duality and splitting package.

    Items: the two displayed splittings, Anderson duality between L^q and
    L^s and the shift self-duality of L^n, the symmetrisation matrix with
    the full long exact sequence of the fibre sequence, the splitting of
    L^n induced by it, the torsor counts, and the multiplication-by-e
    kernel argument whose input is ef = 4.
    """
    W = window
    P = _pad(window)
    ls, lq, ln, lr = (table(n, P) for n in ("Ls", "Lq", "Ln", "LR"))
    out = []

    lr2 = mod_table(lr, 2)
    split_s = direct_sum_graded(restrict(lr, W), restrict(shift_graded(lr2, 1), W))
    out.append(_compare_item("splitting-Ls", restrict(ls, W), split_s,
                             "L^s = L(R) + (L(R)/2)[1]"))
    split_q = direct_sum_graded(restrict(lr, W), restrict(shift_graded(lr2, -2), W))
    out.append(_compare_item("splitting-Lq", restrict(lq, W), split_q,
                             "L^q = L(R) + (L(R)/2)[-2]"))

    dual_lq = restrict(anderson_dual(restrict(lq, P)), W)
    out.append(_compare_item("anderson-Lq-vs-Ls", dual_lq, restrict(ls, W),
                             "I(L^q) has the homotopy of L^s"))
    dual_ln = restrict(anderson_dual(restrict(ln, P)), W)
    out.append(_compare_item("anderson-Ln-shift", dual_ln, restrict(shift_graded(ln, -1), W),
                             "I(L^n) has the homotopy of L^n[-1]"))

    sym = symmetrisation_map(P)
    matrix_ok = all(
        (n % 4 == 0 and sym.component(n) == IntMatrix([[8]]))
        or (n % 4 != 0 and sym.component(n).is_zero())
        for n in range(W[0], W[1] + 1)
    )
    out.append(CheckResult("symmetrisation-matrix", matrix_ok, "8 on free parts, 0 on torsion"))

    proj = projection_to_ln(P)
    bdry = boundary_map(P)
    les_ok = check_exact(sym, proj) and check_exact(proj, bdry) and check_exact(bdry, sym)
    out.append(CheckResult("symmetrisation-les", les_ok,
                           "L^q -> L^s -> L^n long exact sequence"))

    lr8 = mod_table(lr, 8)
    split_n = direct_sum_graded(
        restrict(lr8, W),
        restrict(shift_graded(lr2, 1), W),
        restrict(shift_graded(lr2, -1), W),
    )
    out.append(_compare_item("splitting-Ln", restrict(ln, W), split_n,
                             "L^n = L(R)/8 + (L(R)/2)[1] + (L(R)/2)[-1]"))

    out.append(CheckResult("torsor-Ln", torsor_count(ln, 4) == FgAbGroup(0, (2, 2)),
                           "(Z/2)^2 of splittings"))
    indet = ls[1].direct_sum(ln[1])
    out.append(CheckResult("fibre-seq-indeterminacy", indet == FgAbGroup(0, (2, 2)),
                           "pi_1(L^s) + pi_1(L^n)"))

    out.append(CheckResult("double-dual", all(double_dual_check(t) for t in (ls, lq, ln)),
                           "I^2 = id on the three tables"))

    out.extend(_uct_items(lq, W))
    out.extend(e_multiplication_report(window))
    return out


def _uct_items(lq: GradedGroup, W) -> list[CheckResult]:
    """Exactness of 0 -> Ext(L^q_(-n-1)) -> I(L^q)_n -> Hom(L^q_(-n)) -> 0."""
    z1 = FgAbGroup.free(1)
    lo, hi = W
    ext_t = GradedGroup(W, {n: ext_group(lq[-n - 1], z1) for n in range(lo, hi + 1)})
    hom_t = GradedGroup(W, {n: hom_group(lq[-n], z1) for n in range(lo, hi + 1)})
    mid = GradedGroup(W, {n: hom_t[n].direct_sum(ext_t[n]) for n in range(lo, hi + 1)})
    zero_t = GradedGroup(W, {})
    incl = {}
    proj = {}
    for n in range(lo, hi + 1):
        h, e = hom_t[n].gens(), ext_t[n].gens()
        incl[n] = IntMatrix([[0] * e for _ in range(h)] + [[1 if i == j else 0 for j in range(e)] for i in range(e)],
                            shape=(h + e, e))
        proj[n] = IntMatrix([[1 if i == j else 0 for j in range(h + e)] for i in range(h)],
                            shape=(h, h + e))
    f_in = GradedMap(ext_t, mid, 0, incl)
    f_out = GradedMap(mid, hom_t, 0, proj)
    z_in = GradedMap(zero_t, ext_t, 0, {n: IntMatrix.zero(ext_t[n].gens(), 0) for n in range(lo, hi + 1)})
    z_out = GradedMap(hom_t, zero_t, 0, {n: IntMatrix.zero(0, hom_t[n].gens()) for n in range(lo, hi + 1)})
    ok = check_exact(z_in, f_in) and check_exact(f_in, f_out) and check_exact(f_out, z_out)
    return [CheckResult("uct-exactness", ok, "universal coefficient sequence for I(L^q)")]


def e_multiplication_report(window=(-12, 12), e_map: GradedMap | None = None) -> list[CheckResult]:
    """The proof chain for the Anderson self-pairing of L^q and L^s.

    With the genuine multiplication by e on L^n the kernel in degrees
    3 mod 4 vanishes because ef = 4; the cofibre bookkeeping then forces
    the ambiguous extension in degrees 0 mod 4 of L^q/e to be Z.  An
    injected e-map with ef = 0 must flip the kernel item and with it the
    resolution.
    """
    W = window
    P = _pad(window)
    ln = table("Ln", P)
    lq = table("Lq", P)
    e_ln = e_map or mult_by("Ln", "e", P)
    out = []

    deg3 = [n for n in range(W[0], W[1] + 1) if n % 4 == 3]
    ker_ok = all(e_ln.kernel_at(n).is_trivial() for n in deg3)
    out.append(CheckResult("mult-e-kernel", ker_ok, "ker(e) = 0 in degrees 3 mod 4"))

    e_lq = mult_by("Lq", "e", P)
    ses_q = cofibre_of_mult(lq, e_lq)
    cond_i = all(
        ses_q[n].sub.is_trivial() and ses_q[n].quotient.is_trivial()
        for n in range(W[0], W[1] + 1)
        if n % 4 == 1 and n in ses_q
    )
    out.append(CheckResult("mult-e-condition-i", cond_i, "pi_(4k+1)(L^q/e) is torsion (zero)"))

    ses_n = cofibre_of_mult(ln, e_ln)
    ln_e_vanish = all(
        ses_n[n].resolved is not None and ses_n[n].resolved.is_trivial()
        for n in range(W[0], W[1] + 1)
        if n % 4 == 1 and n in ses_n
    )
    out.append(CheckResult("mult-e-cofibre-vanishing", ln_e_vanish, "pi_(4k+1)(L^n/e) = 0"))

    # degrees 0 mod 4: the SES 0 -> Z -> M -> Z/2 -> 0 is ambiguous on its
    # own; the vanishing above embeds M into the torsionfree pi_(4k)(L^s/e)
    resolved_ok = True
    expected = frozenset({FgAbGroup.free(1), FgAbGroup(1, (2,))})
    for n in range(W[0], W[1] + 1):
        if n % 4 or n not in ses_q:
            continue
        datum = ses_q[n]
        candidates = extension_candidates(datum.sub, datum.quotient)
        if candidates != expected or datum.resolved is not None:
            resolved_ok = False
            break
        if not ln_e_vanish:
            resolved_ok = False
            break
        torsionfree = {E for E in candidates if E.is_free()}
        if torsionfree != {FgAbGroup.free(1)}:
            resolved_ok = False
            break
    out.append(CheckResult("mult-e-resolved-Z", resolved_ok,
                           "extension in degrees 0 mod 4 resolves to Z, not Z + Z/2"))
    return out


# ---------------------------------------------------------------------------
# Theorem B
# ---------------------------------------------------------------------------


def _coconnective_mod2_lr(window) -> GradedGroup:
    """The table of L(R)/(l(R), 2): Z/2 in degrees 4k <= -4."""
    lo, hi = window
    groups = {n: FgAbGroup.cyclic(2) if (n % 4 == 0 and n <= -4) else FgAbGroup()
              for n in range(lo, hi + 1)}
    return GradedGroup(window, groups, None)


def _truncate_below(G: GradedGroup, cut: int) -> GradedGroup:
    groups = {n: (G[n] if n >= cut else FgAbGroup()) for n in G.degrees()}
    return GradedGroup(G.window, groups, None)


def verify_genuine(window=(-16, 16)) -> list[CheckResult]:
    """Graded-level verification for the genuine theories.

    Items: Anderson duality I(L^gs) = L^gs[4] = L^gq, the three-part
    splitting of L^gs, Mayer-Vietoris exactness for the two defining
    squares, the comparison-map ranges, the multiplication-by-x claim in
    degree -4, and self-duality of the two-fold shift (the skew variant).
    """
    W = window
    # pad a window closed under n -> -n: the duals below reflect degrees
    P = _pad((min(W[0], -W[1]), max(W[1], -W[0])))
    lgs = table("Lgs", P)
    lgq = table("Lgq", P)
    ls = table("Ls", P)
    lq = table("Lq", P)
    ln = table("Ln", P)
    lr = table("LR", P)
    l_r = table("lR", P)
    script = table("scriptL", P)
    out = []

    dual_lgs = restrict(anderson_dual(lgs), W)
    first = _compare_item("anderson-Lgs", dual_lgs, restrict(shift_graded(lgs, 4), W),
                          "I(L^gs) has the homotopy of L^gs[4] = L^gq")
    if first.passed:
        first = _compare_item("anderson-Lgs", dual_lgs, restrict(lgq, W),
                              "I(L^gs) has the homotopy of L^gs[4] = L^gq")
    out.append(first)

    ko = table("KO", P)
    dual_ko = restrict(anderson_dual(ko), W)
    out.append(_compare_item("anderson-KO", dual_ko, restrict(shift_graded(ko, 4), W),
                             "I(KO) has the homotopy of KO[4]"))

    lr2_conn = mod_table(l_r, 2)
    split = direct_sum_graded(
        restrict(script, W),
        restrict(shift_graded(lr2_conn, 1), W),
        restrict(shift_graded(_coconnective_mod2_lr(_pad(P, 4)), -2), W),
    )
    out.append(_compare_item("splitting-Lgs", restrict(lgs, W), split,
                             "L^gs = scriptL + (l(R)/2)[1] + (L(R)/(l(R),2))[-2]"))

    out.append(_genuine_square_item(lgs, ls, ln, W, P))
    out.append(_script_square_item(script, lr, l_r, W, P))

    below2 = all(lq[n] == lgq[n] for n in range(W[0], 2))
    outside = all(lgq[n] == lgs[n] for n in range(W[0], W[1] + 1) if not -2 <= n <= 1)
    nonneg = all(lgs[n] == ls[n] for n in range(0, W[1] + 1))
    out.append(CheckResult("comparison-ranges", below2 and outside and nonneg,
                           "iso ranges of the comparison maps"))

    x_lgs = mult_by("Lgs", "x", P)
    out.append(CheckResult("mult-x-minus4", x_lgs.component(-4) == IntMatrix([[8]]),
                           "x: L^gs_(-4) -> L^gs_0 is multiplication by 8"))
    iso_elsewhere = all(
        x_lgs.component(n) == IntMatrix([[1]])
        for n in range(W[0], W[1] - 3)
        if n % 4 == 0 and n != -4
    )
    out.append(CheckResult("mult-x-iso", iso_elsewhere, "x is an isomorphism in the other free degrees"))

    skew = shift_graded(lgs, 2)
    dual_skew = restrict(anderson_dual(skew), W)
    out.append(_compare_item("skew-self-dual", dual_skew, restrict(skew, W),
                             "the two-fold shift is Anderson self-dual"))

    out.append(CheckResult("canonical-maps-torsor", ls[1] == FgAbGroup.cyclic(2),
                           "Z/2 of homotopies between the canonical maps"))
    return out


def _genuine_square_item(lgs, ls, ln, W, P) -> CheckResult:
    tau = _truncate_below(ln, -1)
    B = direct_sum_graded(ls, tau)
    lo, hi = P
    alpha = {}
    beta = {}
    bdry = {}
    for n in range(lo, hi + 1):
        sg, lg, tg = lgs[n].gens(), ls[n].gens(), tau[n].gens()
        a = [[0] * sg for _ in range(lg + tg)]
        if sg == 1:
            if lg:
                a[0][0] = 8 if (n % 4 == 0 and n < 0) else 1
            if tg:
                a[lg][0] = 1
        alpha[n] = IntMatrix(a, shape=(lg + tg, sg))
        ng = ln[n].gens()
        b = [[0] * (lg + tg) for _ in range(ng)]
        if ng == 1:
            if lg:
                b[0][0] = 1
            if tg:
                b[0][lg] = -1
        beta[n] = IntMatrix(b, shape=(ng, lg + tg))
        if lo <= n - 1 <= hi:
            tgt = lgs[n - 1].gens()
            d = [[0] * ng for _ in range(tgt)]
            if n % 4 == 3 and n <= -5 and ng == 1 and tgt == 1:
                d[0][0] = 1
            bdry[n] = IntMatrix(d, shape=(tgt, ng))
    f_a = GradedMap(lgs, B, 0, alpha)
    f_b = GradedMap(B, ln, 0, beta)
    f_d = GradedMap(ln, lgs, -1, bdry)
    ok = check_exact(f_a, f_b) and check_exact(f_b, f_d) and check_exact(f_d, f_a)
    return CheckResult("genuine-pullback-square", ok, "Mayer-Vietoris for L^gs -> L^s x_(L^n) tau L^n")


def _script_square_item(script, lr, l_r, W, P) -> CheckResult:
    lr8_conn = mod_table(l_r, 8)
    lr8 = mod_table(lr, 8)
    wlo = max(lr8_conn.window[0], lr8.window[0])
    Q = (wlo, P[1])
    script_q = restrict(script, Q)
    B = direct_sum_graded(restrict(lr, Q), restrict(lr8_conn, Q))
    C = restrict(lr8, Q)
    alpha = {}
    beta = {}
    for n in range(Q[0], Q[1] + 1):
        sg = script_q[n].gens()
        lg = lr[n].gens()
        tg = lr8_conn[n].gens() if lr8_conn.window[0] <= n else 0
        a = [[0] * sg for _ in range(lg + tg)]
        if sg == 1:
            if lg:
                a[0][0] = 8 if n < 0 else 1
            if tg:
                a[lg][0] = 1
        alpha[n] = IntMatrix(a, shape=(lg + tg, sg))
        cg = C[n].gens()
        b = [[0] * (lg + tg) for _ in range(cg)]
        if cg == 1:
            if lg:
                b[0][0] = 1
            if tg:
                b[0][lg] = -1
        beta[n] = IntMatrix(b, shape=(cg, lg + tg))
    f_a = GradedMap(script_q, B, 0, alpha)
    f_b = GradedMap(B, C, 0, beta)
    zero_t = GradedGroup(Q, {})
    z_in = GradedMap(zero_t, script_q, 0, {n: IntMatrix.zero(script_q[n].gens(), 0) for n in script_q.degrees()})
    z_out = GradedMap(C, zero_t, 0, {n: IntMatrix.zero(0, C[n].gens()) for n in C.degrees()})
    ok = check_exact(z_in, f_a) and check_exact(f_a, f_b) and check_exact(f_b, z_out)
    return CheckResult("scriptL-square", ok, "Mayer-Vietoris for scriptL -> L(R) x_(L(R)/8) l(R)/8")
