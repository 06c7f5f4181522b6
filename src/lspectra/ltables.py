"""Graded ring and module presentations for the integral L-theory tables.

Tables are read off small rewriting presentations (generators, rewrites,
torsion relations) and cross-checked against golden windows shipped as
data files: a ring's basis in a degree is its irreducible monomials there.
Every graded map is a coefficient rule passed to ``graded.scalar_map``,
stated once with its core and tails; multiplication on the rings reads its
coefficients off the same presentations on the degrees that decide it.
The verifiers replay every graded-level claim: splittings, Anderson duals,
exactness of the fibre sequences, and the kernel argument that hinges on
ef = 4.  Each report row is a claim record, and one evaluator decides them.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cache, lru_cache
from itertools import product
from math import gcd
from operator import itemgetter, le

from .abelian import (FgAbGroup, IntMatrix, _Record, _respects_order, ext_group, extension_candidates, hom_group,
                      map_kernel_group)
from .graded import (
    GradedGroup,
    GradedMap,
    MapError,
    OutOfWindowError,
    anderson_dual,
    check_exact,
    cofibre_of_mult,
    compare_graded,
    deciding_core,
    deciding_degrees,
    derive_table,
    direct_sum_graded,
    double_dual_check,
    mod_table,
    reflect_graded,
    scalar_map,
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


def _monomial(exps: dict) -> Monomial:
    """The monomial of a symbol -> exponent dict, its zero exponents dropped."""
    return tuple(sorted(filter(itemgetter(1), exps.items())))


def mono(*pairs) -> Monomial:
    d = {}
    for s, e in pairs:
        d[s] = d.get(s, 0) + e
    return _monomial(d)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a or not b:
        return a or b
    exps = dict(a)
    for s, e in b:
        exps[s] = exps.get(s, 0) + e
    return _monomial(exps)


def _times(m: Monomial, s: str, e: int = 1) -> Monomial:
    """``mono_mul(m, mono((s, e)))``, with the factor merged into the sorted tuple m."""
    k = bisect_left(m, (s,))
    if k < len(m) and m[k][0] == s:
        e += m[k][1]
        return m[:k] + ((s, e),) + m[k + 1:] if e else m[:k] + m[k + 1:]
    return m[:k] + ((s, e),) + m[k:] if e else m


def mono_div(m: Monomial, pattern: Monomial) -> Monomial:
    """m / pattern, the two sorted tuples merged."""
    out, k, n = [], 0, len(m)
    for s, e in pattern:
        while k < n and m[k][0] < s:
            out.append(m[k])
            k += 1
        if k < n and m[k][0] == s:
            e = m[k][1] - e
            k += 1
            if e:
                out.append((s, e))
        elif e:
            out.append((s, -e))
    return (*out, *m[k:])


@lru_cache(maxsize=1 << 16)  # bounded: every family member is a new symbol
def _split(symbol: str):
    """(family, index) of a family member such as y12, or (symbol, None)."""
    family = symbol.rstrip("0123456789")
    return family, int(symbol[len(family):]) if family != symbol else None


def _generator_degree(degrees: dict, symbol: str) -> int:
    """A plain generator's degree, or step * i + offset for member i >= 1 of a family."""
    d = degrees.get(symbol)
    if isinstance(d, int):
        return d
    family, i = _split(symbol)
    rule = degrees.get(family) if i else None
    if not isinstance(rule, tuple):
        raise KeyError(symbol)
    return rule[0] * i + rule[1]


@lru_cache(maxsize=1 << 16)
def _instance(factors, names: tuple, values: tuple) -> Monomial:
    """The monomial that a pattern or a replacement names when its index names take the values."""
    binding, m = dict(zip(names, values)), ONE
    for s, e in factors:
        m = _times(m, s if isinstance(s, str) else f"{s[0]}{sum(binding[n] for n in s[1]) + s[2]}", e)
    return m


@lru_cache(maxsize=1 << 16)
def _quotient(pattern, repl, names: tuple, values: tuple) -> Monomial:
    """The instance of pattern / repl at the index values: dividing by it rewrites the pattern to repl."""
    return _instance(pattern + tuple((s, -e) for s, e in repl), names, values)


def _compiled(pattern):
    """(needs, plain factors, index names, keys, indexed factors, shared) of a pattern.

    It needs the symbols of its plain factors and the families of its
    indexed factors of positive power.  The keys are, per name, the (family,
    offset) of the factors it indexes alone, and an indexed factor is
    (family, positions of its names, offset, power).  Where two factors may
    land on one member, ``shared`` lists the plain factors on members as
    (family, index, power); it is None otherwise.
    """
    names = tuple(sorted({n for s, _ in pattern if not isinstance(s, str) for n in s[1]}))
    keys = tuple(tuple((s[0], s[2]) for s, _ in pattern if not isinstance(s, str) and s[1] == (n,))
                 for n in names)
    plain = tuple((s, e) for s, e in pattern if isinstance(s, str))
    indexed = tuple((s[0], tuple(map(names.index, s[1])), s[2], e) for s, e in pattern if not isinstance(s, str))
    on_members = tuple((*_split(s), e) for s, e in plain if _split(s)[1] is not None)
    landing = [f for f, *_ in indexed + on_members]
    shared = on_members if len(set(landing)) < len(landing) else None
    needs = frozenset([s for s, e in plain if e > 0] + [f for f, _, _, e in indexed if e > 0])
    return needs, plain, names, keys, indexed, shared


def _matches(rules, m: Monomial):
    """(position, index values) of each instance of a compiled pattern that divides m.

    They come in rule order, then in ascending order of index tuples.  The
    index names bind in alphabetical order to values at least 1 that never
    decrease, and a name ranges over the values that put one of the factors
    it indexes alone on a family member in m.  The exponents and members of
    m are read once, and a rule is skipped at once where m lacks a symbol or
    family it needs.
    """
    if not rules:
        return
    exps, members = dict(m), {}  # family -> {index: exponent} of its members in m
    for s, e in m:
        family, i = _split(s)
        if i is not None:
            members.setdefault(family, {})[i] = e
    present = exps.keys() | members.keys()
    for position, (needs, plain, names, keys, indexed, shared) in enumerate(rules):
        if not needs <= present:
            continue
        for s, e in plain:
            if exps.get(s, 0) < e:
                break
        else:
            if not names:
                yield position, ()
                continue
            choices = []
            for key in keys:
                choice = sorted({i - offset for family, offset in key
                                 for i in members.get(family, ()) if i > offset})
                if not choice:
                    break
                choices.append(choice)
            else:
                for values in product(*choices):
                    if all(map(le, values, values[1:])) and _divides(indexed, shared, values, members):
                        yield position, values


def _divides(indexed, shared, values, members) -> bool:
    """The members the indexed factors name at the values have their powers in ``members``, shared ones summed."""
    need = {}  # (family, index) -> the power the factors so far put on that member
    for family, positions, i, e in indexed:
        for p in positions:
            i += values[p]
        if shared is not None:
            e = need[family, i] = need.get((family, i), 0) + e
        if members.get(family, {}).get(i, 0) < e:
            return False
    return shared is None or all(members.get(f, {}).get(i, 0) >= e + need.get((f, i), 0) for f, i, e in shared)


def _index_tuples(slopes, lo: int, hi: int, least: int = 1):
    """The non-decreasing tuples v >= least with lo <= sum(a * v) <= hi, for positive slopes a."""
    a, rest = slopes[0], slopes[1:]
    if not rest:
        yield from ((v,) for v in range(max(least, -(-lo // a)), hi // a + 1))
        return
    v = least
    while v * sum(slopes) <= hi:
        yield from ((v,) + tail for tail in _index_tuples(rest, lo - a * v, hi - a * v, v))
        v += 1


class RingPresentation(_Record):
    """A graded ring given by generators, rewrite rules and torsion relations.

    A generator is a symbol and its degree, or a family (y, (step, offset))
    whose members y1, y2, ... have degree step * i + offset.  A factor of a
    rule may name a member by an index expression (family, names, offset),
    the member at the sum of the named indices plus the offset; a rule with
    index names is a schema, one plain rule per index tuple.  Its names take
    values >= 1 that do not decrease in alphabetical order, and each indexes
    some factor of its pattern alone.

    The rewrites and torsion patterns are the only statement of the ring's
    relations; the checked relations and the bases (``ring_basis``) derive
    from them.  A modulus of every coefficient, such as 8 on L^n, is the
    torsion pattern 1, which divides every monomial.  A monomial is rewritten by the first instance, in rule
    order and then in ascending order of index tuples, whose pattern divides
    it.  So every monomial has exactly one normal form, a multiple of one
    monomial or 0, and rewriting is linear in the terms.  Each normal form is
    memoised per instance, and ``reduce`` sums c * NF(m) over the terms
    before it reduces the coefficients by the moduli of the torsion patterns
    dividing NF(m), in list order; a chain of rewrites that returns to a
    monomial raises ValueError.  The bases that ``ring_basis`` reads off the
    rules are memoised per instance too.  The compiled rules and the memos
    take no part in ``==``, ``hash`` or ``repr``.
    """

    _fields = ("name", "generators", "rewrites", "torsion_patterns")
    __slots__ = _fields + ("_rules", "_torsion", "_normal_forms", "_moduli", "_bases", "_parts")

    def __init__(self, name: str, generators: tuple, rewrites: tuple, torsion_patterns: tuple):
        # generators ((symbol, degree or (step, offset)), ...), rewrites ((pattern, coeff, replacement), ...),
        # torsion_patterns ((pattern, modulus), ...)
        self._set(name, generators, rewrites, torsion_patterns)
        object.__setattr__(self, "_rules", tuple(_compiled(p) for p, _, _ in rewrites))
        object.__setattr__(self, "_torsion", tuple(_compiled(p) for p, _ in torsion_patterns))
        object.__setattr__(self, "_normal_forms", {})  # m -> (coeff, monomial), or None for 0
        object.__setattr__(self, "_moduli", {})  # m -> moduli of the torsion patterns dividing it, in list order
        object.__setattr__(self, "_bases", {})  # degree -> its basis, as ``ring_basis`` returns it
        object.__setattr__(self, "_parts", None)  # set by ``_basis_parts``

    def degree(self, m: Monomial) -> int:
        degs = dict(self.generators)
        return sum(_generator_degree(degs, s) * e for s, e in m)

    def _moduli_of(self, m: Monomial) -> list:
        """The moduli of the torsion patterns dividing m; a modulus 0 is no relation (Z/0 = Z), so it is left out."""
        moduli = self._moduli.get(m)
        if moduli is None:
            moduli = self._moduli[m] = [d for i, _ in _matches(self._torsion, m) if (d := self.torsion_patterns[i][1])]
        return moduli

    def _normal_form(self, m: Monomial):
        """(coeff, monomial) that m rewrites to, or None when it rewrites to 0.

        The first-match rewrites are followed until a memoised monomial; then
        every monomial on the way is memoised with its accumulated coefficient.
        """
        forms = self._normal_forms
        if m in forms:
            return forms[m]
        chain = {}  # monomial -> coefficient of the rule that rewrote it
        while m not in forms:
            if m in chain:
                raise ValueError(f"rewriting in {self.name} returns to {m}")
            found = next(_matches(self._rules, m), None)
            if found is None:
                forms[m] = (1, m)
                break
            (pattern, coeff, repl), names = self.rewrites[found[0]], self._rules[found[0]][2]
            if not coeff:
                forms[m] = None
                break
            chain[m] = coeff
            m = mono_div(m, _quotient(pattern, repl, names, found[1]))
        form = forms[m]
        for link, coeff in reversed(chain.items()):
            if form is not None:
                form = (coeff * form[0], form[1])
            forms[link] = form
        return form

    def _reduce_term(self, m: Monomial, c: int):
        """(coeff, monomial) when ``reduce({m: c})`` is {monomial: coeff}, or None when it is {}.

        The moduli apply to c times the rewriting coefficient, as in ``reduce``.
        """
        form = self._normal_form(m)
        if form is None:
            return None
        k, nf = form
        c *= k
        for d in self._moduli_of(nf):
            c %= d
        return (c, nf) if c else None

    def reduce(self, element: dict) -> dict:
        work = {}  # normal form -> coefficient
        for m, c in element.items():
            form = self._normal_form(m)
            if form is not None:
                k, nf = form
                work[nf] = work.get(nf, 0) + c * k
        out = {}
        for m, c in work.items():
            for d in self._moduli_of(m):
                c %= d
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

    def _relations(self, window):
        """pattern - coeff*repl and d*pattern, one per instance of a degree in the window, made as they are read.

        Every rule's slopes are checked before the first relation is made.
        """
        rewrites = [(p, c, r, names, self._bindings_in(p, names, window))
                    for (p, c, r), (_, _, names, _, _, _) in zip(self.rewrites, self._rules)]
        torsion = [(p, d, names, self._bindings_in(p, names, window))
                   for (p, d), (_, _, names, _, _, _) in zip(self.torsion_patterns, self._torsion)]
        for p, c, r, names, bindings in rewrites:
            for v in bindings:
                yield {_instance(p, names, v): 1, _instance(r, names, v): -c}
        for p, d, names, bindings in torsion:
            for v in bindings:
                yield {_instance(p, names, v): d}

    def _bindings_in(self, pattern, names, window):
        """The values of the index names for which ``pattern`` has a degree in the window, made as they are read.

        The degree is affine in the indices, with slopes that must share a
        sign; that is checked at once.
        """
        ones = (1,) * len(names)
        base = self.degree(_instance(pattern, names, ones))
        a = [self.degree(_instance(pattern, names, ones[:k] + (2,) + ones[k + 1:])) - base
             for k in range(len(names))]
        lo, hi = window[0] - base + sum(a), window[1] - base + sum(a)
        if not names:
            return [()] if lo <= 0 <= hi else []
        if not (min(a) > 0 or max(a) < 0):
            raise ValueError(f"a degree holds infinitely many instances of {pattern}")
        if a[0] < 0:
            a, lo, hi = [-s for s in a], -hi, -lo
        return _index_tuples(a, lo, hi)

    def _generators_within(self, bound: int) -> list:
        """(symbol, degree) of each plain generator and family member of degree at most ``bound`` in size."""
        out = []
        for s, d in self.generators:
            out += [(s, d)] if isinstance(d, int) else [
                (f"{s}{i}", d[0] * i + d[1]) for i in range(1, (bound + abs(d[1])) // abs(d[0]) + 1)]
        return [(s, d) for s, d in out if abs(d) <= bound]


# ---------------------------------------------------------------------------
# The built-in presentations
# ---------------------------------------------------------------------------

RING_NAMES = ("Ls", "Ln", "LR", "LC", "LCc", "Lgs", "scriptL")
MODULE_NAMES = ("Lq", "dR")
DERIVED_NAMES = ("Lgq", "lR", "KO")
TABLE_NAMES = RING_NAMES + MODULE_NAMES + DERIVED_NAMES

PERIODS = {"Ls": 4, "Lq": 4, "Ln": 4, "LR": 4, "LC": 4, "dR": 4, "LCc": 2, "KO": 8}  # the others have none


def _member(family: str, *names: str, plus: int = 0):
    """The factor y_(i+j+plus) of a rule, for family y and index names i, j."""
    return (family, names, plus), 1


MEMO_BOUND = 1 << 14  # normal forms a shared presentation may hold and still be handed out again
BASIS_BOUND = 64  # irreducible monomials a ring may have in its plain generators besides x
_SHARED: dict = {}  # ring name -> its one presentation in this process


def presentation(name: str) -> RingPresentation:
    """The built-in presentation of a ring, whatever window it is read on.

    It is one instance per ring per process, so every caller reads and fills
    the same memos: a normal form depends only on the rules.  A call first
    drops each shared instance whose memo holds more than MEMO_BOUND normal
    forms, so the next call for that ring builds it afresh.
    """
    for ring, pres in list(_SHARED.items()):  # a copy: another thread may add a ring meanwhile
        if len(pres._normal_forms) > MEMO_BOUND:
            _SHARED.pop(ring, None)
    pres = _SHARED.get(name)
    if pres is None:
        pres = _SHARED[name] = _build_presentation(name)
    return pres


def _build_presentation(name: str) -> RingPresentation:
    """A new instance of the built-in presentation of a ring, with empty memos.

    L^gs has the families y_i in degree -4i and z_i in degree -4i-2, and
    scriptL the y_i; each family of relations is one rule schema.  The
    moduli of L^n and L(C), 8 and 2, are torsion relations on 1, listed last.
    """
    x, e, f = ("x", 1), ("e", 1), ("f", 1)
    e2 = (mono(("e", 2)), 0, ONE)
    if name == "Ls":
        return RingPresentation("Ls", (("x", 4), ("e", 1)), (e2,), ((mono(e), 2),))
    if name == "Ln":
        rewrites = (e2, (mono(("f", 2)), 0, ONE), (mono(e, f), 4, ONE))
        return RingPresentation("Ln", (("x", 4), ("e", 1), ("f", -1)), rewrites,
                                ((mono(e), 2), (mono(f), 2), (ONE, 8)))
    if name == "LR":
        return RingPresentation("LR", (("x", 4),), (), ())
    if name == "LC":
        return RingPresentation("LC", (("x", 4),), (), ((ONE, 2),))
    if name == "LCc":
        return RingPresentation("LCc", (("s", 2),), (), ())
    if name in ("Lgs", "scriptL"):
        y_i, y_j, z_i, z_j = _member("y", "i"), _member("y", "j"), _member("z", "i"), _member("z", "j")
        x_y = [(mono(x, ("y1", 1)), 8, ONE), ((x, _member("y", "i", plus=1)), 1, (y_i,))]
        y_y = [((y_i, y_j), 8, (_member("y", "i", "j"),))]
        if name == "scriptL":
            return RingPresentation(name, (("x", 4), ("y", (-4, 0))), tuple(x_y + y_y), ())
        x_z = [(mono(x, ("z1", 1)), 0, ONE), ((x, _member("z", "i", plus=1)), 1, (z_i,))]
        zero = [(p, 0, ONE)
                for p in ((e, y_i), (e, z_i), (y_i, z_j), (z_i, _member("y", "j", plus=1)), (z_i, z_j))]
        return RingPresentation(name, (("x", 4), ("e", 1), ("y", (-4, 0)), ("z", (-4, -2))),
                                tuple([e2] + x_y + x_z + y_y + zero), ((mono(e), 2), ((z_i,), 2)))
    raise KeyError(f"unknown ring presentation {name!r}")


def _basis_parts(pres: RingPresentation):
    """(x, [(m, degree of m)], families) of a ring, which ``ring_basis`` reads; worked out once per instance.

    x has the tail period's degree; the m are the irreducible monomials in the
    other plain generators.
    """
    if pres._parts is None:
        x = next(s for s, d in pres.generators if d == PERIODS.get(pres.name, 4))
        found = [ONE]
        for m in found:  # from 1 up, one generator at a time: a divisor of an irreducible monomial is one
            for n in (_times(m, s) for s, d in pres.generators if isinstance(d, int) and s != x):
                if n not in found and pres._normal_form(n) == (1, n):
                    if len(found) == BASIS_BOUND:
                        raise ValueError(f"{pres.name} has more than {BASIS_BOUND} irreducible monomials without {x}")
                    found.append(n)
        families = [g for g in pres.generators if isinstance(g[1], tuple)]
        object.__setattr__(pres, "_parts", (x, [(m, pres.degree(m)) for m in found], families))
    return pres._parts


def ring_basis(name: str, degree: int) -> list:
    """The (monomial, order) pairs of a ring's basis in a degree, 0 meaning free; callers only read the list.

    They are the irreducible monomials x^k m, k < 0 only where the ring declares
    a period, and m times the family member the degree fixes (``_basis_parts``).
    An order is the gcd of the moduli of the torsion patterns dividing it.  The
    basis is memoised on the ring's shared presentation, which a ring already
    in ``_SHARED`` is read from without the sweep of ``presentation``.
    """
    pres = _SHARED.get(name) or presentation(name)
    basis = pres._bases.get(degree)
    if basis is None:
        x, found, families = _basis_parts(pres)
        candidates = []
        for m, dm in found:
            k, r = divmod(degree - dm, PERIODS.get(name, 4))
            if not r and (k >= 0 or name in PERIODS):
                candidates.append(_times(m, x, k))
            for y, (a, b) in families:
                i, r = divmod(degree - dm - b, a)
                if not r and i >= 1:
                    candidates.append(_times(m, f"{y}{i}"))
        basis = pres._bases[degree] = [(m, gcd(*pres._moduli_of(m))) for m in candidates
                                       if pres._normal_form(m) == (1, m)]
    return basis


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


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


CORE = (-8, 7)  # the degrees a table is computed on; it repeats past them with period PERIODS.get(name, 4)


def table(name: str, window=(-16, 16)) -> GradedGroup:
    """The homotopy-group table of a named theory over a window.

    Only the CORE degrees are computed, whatever the window: past them each
    table repeats with its period, and L^gs, scriptL and l(R), which declare
    none, with period 4.
    """
    lo, hi = window
    if name == "Lgq":
        return shift_graded(table("Lgs", (lo - 4, hi - 4)), 4)
    if name == "lR":
        at = lambda n: FgAbGroup.free(1) if n % 4 == 0 and n >= 0 else FgAbGroup()
    elif name == "KO":
        ko = [FgAbGroup.free(1), FgAbGroup.cyclic(2), FgAbGroup.cyclic(2), FgAbGroup(),
              FgAbGroup.free(1), FgAbGroup(), FgAbGroup(), FgAbGroup()]
        at = lambda n: ko[n % len(ko)]
    elif name in MODULE_NAMES + RING_NAMES:
        basis = module_basis if name in MODULE_NAMES else ring_basis
        at = lambda n: FgAbGroup.from_divisors([o for _, o in basis(name, n)])
    else:
        raise KeyError(f"unknown table {name!r}; choose from {', '.join(TABLE_NAMES)}")
    period = PERIODS.get(name)
    # a window declares the period when it shows it: period + 1 degrees, and by KO's own rule one period
    if period is not None and hi - lo + 1 < period + (name != "KO"):
        period = None
    tail = PERIODS.get(name, 4)
    return GradedGroup.from_core(window, period, CORE, at, (tail, tail))


@cache
def golden_table(name: str) -> GradedGroup:
    """The hard-coded golden window shipped with the package, read once per process."""
    path = os.path.join(os.path.dirname(__file__), "data", "golden", f"{name}.json")
    return GradedGroup.from_json(json.loads(__spec__.loader.get_data(path)))


_CONSTANT = {"core": (0, 0), "tails": (1, 1)}  # a rule with one value in every degree
_EVERY_FOURTH = {"core": (0, 3), "tails": (4, 4)}  # a rule of n mod 4


def mult_by(name: str, sym: str, tab: GradedGroup) -> GradedMap:
    """Degreewise matrices of multiplication by a generator on the table ``tab`` of ``name``.

    It is a coefficient rule passed to ``scalar_map``.  On a ring, a basis
    holds at most one element per degree, and the coefficient is the product
    worked out in the presentation on the degrees that decide the map, as
    ``table`` reads the bases on CORE alone: the products repeat past them
    with the table's tails.  The modules are L^s-modules: on them e acts by
    zero and x by the evident isomorphism.
    """
    pres = presentation("Ls" if name in MODULE_NAMES else name)
    try:
        shiftd = pres.degree(mono((sym, 1)))
    except KeyError:
        raise KeyError(f"unknown generator {sym!r} of {name}") from None
    if name in MODULE_NAMES:
        return scalar_map([tab], [tab], shiftd, lambda n: [[int(sym == "x")]], **_CONSTANT)

    def coeffs(n):  # each basis holds at most one element; 0 where the source has none or the product vanishes
        src, tgt = ring_basis(name, n), ring_basis(name, n + shiftd)
        term = pres._reduce_term(_times(src[0][0], sym), 1) if src else None
        if term is None:
            return [[0]]
        if not tgt or tgt[0][0] != term[1]:
            raise MapError(f"product leaves the stated basis at degree {n}")
        return [[term[0]]]

    core, tails = deciding_core([(tab, (0, shiftd))])
    return scalar_map([tab], [tab], shiftd, coeffs, core=core, tails=tails)


def boundary_map(ln: GradedGroup, lq: GradedGroup) -> GradedMap:
    """The boundary L^n_(4i-1) -> L^q_(4i-2), sending x^i f to 8 x^i g, between the given tables."""
    return scalar_map([ln], [lq], -1, lambda n: [[int(n % 4 == 3)]], **_EVERY_FOURTH)


def symmetrisation_map(lq: GradedGroup, ls: GradedGroup) -> GradedMap:
    """L^q -> L^s between the given tables: multiplication by 8 on free parts, zero on torsion."""
    return scalar_map([lq], [ls], 0, lambda n: [[8 if n % 4 == 0 else 0]], **_EVERY_FOURTH)


def projection_to_ln(ls: GradedGroup, ln: GradedGroup) -> GradedMap:
    """L^s -> L^n between the given tables, the reduction in the symmetrisation fibre sequence."""
    return scalar_map([ls], [ln], 0, lambda n: [[int(n % 4 in (0, 1))]], **_EVERY_FOURTH)


# ---------------------------------------------------------------------------
# Presentation verification
# ---------------------------------------------------------------------------


def verify_presentation(name: str, window=(-16, 16), pres: RingPresentation | None = None) -> bool:
    """Relations reduce to zero and generator products stay in the basis.

    The window decides only what is checked: the instances of the rules of
    ``presentation(name)`` whose degree lies in it, and the products of each
    generator and family member of ``pres`` of degree at most its width in
    size with the basis elements it holds.  Passing ``pres`` reduces them
    under a (possibly corrupted) presentation and its own memos instead,
    which is how fault injection is tested; an instance outside the window
    is not examined.
    """
    if name == "Lq":
        read = _read_window(window)
        return _verify_lq_module(window, table("Lq", read), table("Ls", read))
    if name in MODULE_NAMES:
        return _matches_golden(name)
    trusted = presentation(name)
    pres = pres or trusted
    for elem in trusted._relations(window):
        if pres.reduce(elem):
            return False
    return _products_in_basis(pres, window) and _matches_golden(name)


def _products_in_basis(pres: RingPresentation, window) -> bool:
    """Each generator times each basis element of the window lands in ``ring_basis`` and respects the orders.

    ``ring_basis`` lists the irreducible monomials of two shapes, so this sees
    one of neither, such as y1^2 without its rule.  The generators are those
    of degree at most the window's width in size, and a product is checked
    when its degree lies in the window, whether the target has a basis or not.
    A basis holds at most one element, so each product is one term, reduced
    as ``_reduce_term`` reduces it.
    """
    lo, hi = window
    # degree -> (monomial, order) of the element of its basis
    firsts = {n: basis[0] for n in range(lo, hi + 1) if (basis := ring_basis(pres.name, n))}
    occupied = list(firsts)
    for sym, sdeg in pres._generators_within(hi - lo):
        for n in occupied[bisect_left(occupied, lo - sdeg):bisect_right(occupied, hi - sdeg)]:
            m, order = firsts[n]
            term = pres._reduce_term(_times(m, sym), 1)
            if term:  # a multiple of the target's element, and the product of a torsion class respects its order
                c, nf = term
                tgt = firsts.get(n + sdeg)
                if tgt is None or tgt[0] != nf or not _respects_order(c, order, tgt[1]):
                    return False
    return True


def _matches_golden(name: str) -> bool:
    """The generated table equals the golden window shipped for it."""
    gold = golden_table(name)
    return compare_graded(table(name, gold.window), gold)


def _verify_lq_module(window, lq: GradedGroup, ls: GradedGroup) -> bool:
    """sym(x a) = x sym(a) over the window, on the tables lq and ls, and L^q's golden window.

    Relations in e alone could not fail here: no two generators of L^q or dR
    are one degree apart, so e acts by empty matrices.  No map of the package
    reaches dR, so its row is its golden window alone.  The maps read lq and
    ls through their cores and tails, so any window serves:
    ``verify_presentation`` builds them on the read window, as the suites
    build theirs, and ``verify_presentations_report`` on CORE.
    """
    lo, hi = window
    sym = symmetrisation_map(lq, ls)
    xq, xs = mult_by("Lq", "x", lq), mult_by("Ls", "x", ls)
    squares = {(sym.component(n + 4), xq.component(n), xs.component(n), sym.component(n))
               for n in range(lo, hi - 3)}  # each distinct square is multiplied out once
    return all(sym_x @ x_q == x_s @ sym_n for sym_x, x_q, x_s, sym_n in squares) and _matches_golden("Lq")


def _lq_ring() -> RingPresentation:
    """Z[t^±1, g] with the coefficients of g reduced mod 16 and of g^2 mod 64.

    ``verify_lq_ring`` computes 8Z[t^±1, g]/(16g, 64g^2) in it: an L^q class
    is 8 times the monomial that labels it.
    """
    return RingPresentation("Lq", (("t", 4), ("g", -2)), (), ((mono(("g", 1)), 16), (mono(("g", 2)), 64)))


def verify_lq_ring(window=(-16, 16)) -> bool:
    """Symmetrisation is multiplicative on the ring 8Z[t^±1, g]/(16g, 64g^2).

    The L^q class in degree d is 8 times the monomial of
    ``module_basis("Lq", d)``.  Each class of one period (degrees -4..3) is
    multiplied by each class in the window; the product, written in the
    L^q basis, goes through ``symmetrisation_map`` and must equal the
    product of the two images in L^s.
    """
    lo, hi = window
    # the window widened by a period (right factors and products); the map answers the left ones too
    w = (lo - 4, hi + 3)
    return _verify_lq_ring(window, table("Lq", w), table("Ls", w))


def _verify_lq_ring(window, lq_table: GradedGroup, ls_table: GradedGroup) -> bool:
    """``verify_lq_ring`` through the symmetrisation between the given tables, read through their cores and tails."""
    lq, ls = _lq_ring(), presentation("Ls")
    lo, hi = window
    sym = symmetrisation_map(lq_table, ls_table)

    @cache
    def at(n):  # the L^s basis, the L^q labels and the symmetrisation's matrix in degree n
        return [bm for bm, _ in ring_basis("Ls", n)], [m for m, _ in module_basis("Lq", n)], sym.component(n).entries

    def image(n, m, k):  # the image in L^s of k times the class labelled m in degree n
        basis, labels, entries = at(n)
        j = labels.index(m)
        return ls.reduce({bm: k * row[j] for bm, row in zip(basis, entries)})

    def classes(lo, hi):
        return [(d, m) for d in range(lo, hi + 1) for m in at(d)[1]]

    left, right = classes(-4, 3), classes(lo, hi)
    unit = {n: image(n, m, 1) for n, m in left + right}  # the image of the class in degree n
    for a, ma in left:
        for b, mb in right:
            c, mc = lq._reduce_term(mono_mul(ma, mb), 64) or (0, ONE)  # (8 ma)(8 mb), reduced
            if c % 8 or c and mc not in at(a + b)[1]:
                return False  # the product leaves the L^q classes
            if (image(a + b, mc, c // 8) if c else {}) != ls.multiply(unit[a], unit[b]):
                return False
    return True


class CheckResult(_Record):
    __slots__ = _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self._set(name, passed, detail)

    def to_json(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


# ---------------------------------------------------------------------------
# Claims: each report row is a record, and one evaluator decides them all
# ---------------------------------------------------------------------------


# A report row: the claim ``name`` with its ``detail``, decided as kind(W, *reads()) over the report window W.
# The tables and maps are made when the claim is decided, so a map that cannot be built fails only its readers.
_Claim = namedtuple("_Claim", "name detail kind reads")


def _evaluate(W, claims) -> list[CheckResult]:
    """The row of each claim over W, in order.

    A kind returns True or False, or the text its failure appends to the
    detail; a map the claim reads that cannot be built fails it with the reason.
    """
    rows = []
    for name, detail, kind, reads in claims:
        try:
            verdict = kind(W, *reads())
        except MapError as exc:
            verdict = f"; {exc}"
        rows.append(CheckResult(name, verdict is True, detail + (verdict if isinstance(verdict, str) else "")))
    return rows


def _degreewise(W, *spans) -> bool:
    """test(n, *tables) for each span (window, tables, test) at each degree n of the window that decides the tables."""
    return all(test(n, *tables) for window, tables, test in spans for n in deciding_degrees(window, tables))


def _agree(n, A, B) -> bool:
    return A[n] == B[n]


def _tables_equal(W, A, B):
    """A[n] = B[n] in each degree n of W, read first where it is decided, whatever windows the tables were built on.

    A failure names the first degree where they differ, or where one of them has no group.
    """
    try:
        if _degreewise(W, (W, (A, B), _agree)):
            return True
    except OutOfWindowError:
        pass
    for n in range(W[0], W[1] + 1):
        try:
            a, b = A[n], B[n]
        except OutOfWindowError as exc:
            return f"; {exc.args[0]}"
        if a != b:
            return f"; mismatch at degree {n}: {a.render()} vs {b.render()}"
    return True


def _exact(W, *maps) -> bool:
    """Each map is exact at the next, and the last at the first: a long exact sequence, which repeats."""
    return all(check_exact(f, g) for f, g in zip(maps, maps[1:] + maps[:1]))


def _short_exact(W, f: GradedMap, g: GradedMap) -> bool:
    """0 -> A -> B -> C -> 0 is exact for f: A -> B and g: B -> C.

    The zero tables have period 1, so they answer every degree f and g are read at.
    """
    z_in = scalar_map([GradedGroup(f.source.window, {}, 1)], [f.source], 0, lambda n: [[0]], **_CONSTANT)
    z_out = scalar_map([g.target], [GradedGroup(g.target.window, {}, 1)], 0, lambda n: [[0]], **_CONSTANT)
    return all(check_exact(a, b) for a, b in ((z_in, f), (f, g), (g, z_out)))


def _matrix(W, f: GradedMap, window, entry) -> bool:
    """f is [[entry(n)]], or zero where entry(n) is 0, in each degree n of ``window`` that decides f.

    Degrees where entry(n) is None are not read.
    """
    def test(n, f):
        c = entry(n)
        return c is None or (f.component(n) == IntMatrix([[c]]) if c else f.component(n).is_zero())

    return _degreewise(W, (window, (f,), test))


def _group(W, G: FgAbGroup, H: FgAbGroup) -> bool:
    return G == H


def _predicate(W, verdict: bool) -> bool:
    return verdict


def verify_presentations_report(window=(-16, 16)) -> list[CheckResult]:
    """The row of each ring and module presentation, then multiplicativity of the symmetrisation, over the window.

    The L^q module row and the multiplicativity row share one L^q and one
    L^s table, built on CORE: the maps read them through their cores and
    tails, and CORE is no golden window, which the golden comparisons build
    on, so the report builds no (name, window) twice.
    """
    lq, ls = table("Lq", CORE), table("Ls", CORE)

    def row(name):
        return _verify_lq_module(window, lq, ls) if name == "Lq" else verify_presentation(name, window)

    return _evaluate(window, [
        *(_Claim(f"presentation-{name}", "", _predicate, lambda name=name: (row(name),))
          for name in RING_NAMES + MODULE_NAMES),
        _Claim("lq-ring-structure", "", _predicate, lambda: (_verify_lq_ring(window, lq, ls),)),
    ])


# ---------------------------------------------------------------------------
# Theorem A
# ---------------------------------------------------------------------------


def _read_window(window):
    """The window the suites build their tables on: W and one 8-degree period past each end.

    A table costs the same on any window, and the maps and checks read the
    cores and their tails, so this only sets the windows the tables report.
    """
    lo, hi = window
    return (lo - 8, hi + 8)


def verify_classical(window=(-12, 12)) -> list[CheckResult]:
    """The rows of Theorem A, the duality and splitting package of L^q, L^s and L^n, over W.

    Each table is built once on the read window P, every map is built from
    the tables it joins, and the rows read them over W.
    """
    W = window
    P = _read_window(window)
    ls, lq, ln, lr = (table(n, P) for n in ("Ls", "Lq", "Ln", "LR"))
    lr2, dual_lq, reflected = mod_table(lr, 2), anderson_dual(lq), reflect_graded(lq)
    sym = cache(lambda: symmetrisation_map(lq, ls))
    z = FgAbGroup.free(1)

    def uct(n, dual, reflected, _):  # the third table, L^q_(-n-1), only widens the degrees read
        return dual[n] in extension_candidates(ext_group(reflected[n + 1], z), hom_group(reflected[n], z))

    return _evaluate(W, [
        _Claim("splitting-Ls", "L^s = L(R) + (L(R)/2)[1]", _tables_equal,
               lambda: (ls, direct_sum_graded(lr, shift_graded(lr2, 1)))),
        _Claim("splitting-Lq", "L^q = L(R) + (L(R)/2)[-2]", _tables_equal,
               lambda: (lq, direct_sum_graded(lr, shift_graded(lr2, -2)))),
        _Claim("anderson-Lq-vs-Ls", "I(L^q) has the homotopy of L^s", _tables_equal, lambda: (dual_lq, ls)),
        _Claim("anderson-Ln-shift", "I(L^n) has the homotopy of L^n[-1]", _tables_equal,
               lambda: (anderson_dual(ln), shift_graded(ln, -1))),
        _Claim("symmetrisation-matrix", "8 on free parts, 0 on torsion", _matrix,
               lambda: (sym(), W, lambda n: 8 if n % 4 == 0 else 0)),
        # the sequence read from L^s on, which builds its maps in that order
        _Claim("symmetrisation-les", "L^q -> L^s -> L^n long exact sequence", _exact,
               lambda: (projection_to_ln(ls, ln), boundary_map(ln, lq), sym())),
        _Claim("splitting-Ln", "L^n = L(R)/8 + (L(R)/2)[1] + (L(R)/2)[-1]", _tables_equal,
               lambda: (ln, direct_sum_graded(mod_table(lr, 8), shift_graded(lr2, 1), shift_graded(lr2, -1)))),
        _Claim("torsor-Ln", "(Z/2)^2 of splittings", _group, lambda: (torsor_count(ln, 4), FgAbGroup(0, (2, 2)))),
        _Claim("fibre-seq-indeterminacy", "pi_1(L^s) + pi_1(L^n)", _group,
               lambda: (ls[1].direct_sum(ln[1]), FgAbGroup(0, (2, 2)))),
        _Claim("double-dual", "I^2 = id on the three tables", _predicate,
               lambda: (all(double_dual_check(t) for t in (ls, lq, ln)),)),
        # I(L^q)_n is a middle term of 0 -> Ext(L^q_(-n-1), Z) -> ? -> Hom(L^q_(-n), Z) -> 0
        _Claim("uct-exactness", "universal coefficient sequence for I(L^q)", _degreewise,
               lambda: ((W, (dual_lq, reflected, shift_graded(reflected, -1)), uct),)),
        *_e_claims(W, ls, lq, ln),
    ])


def e_multiplication_report(window=(-12, 12), e_map: GradedMap | None = None) -> list[CheckResult]:
    """The proof chain for the Anderson self-pairing of L^q and L^s.

    With the genuine multiplication by e on L^n the kernel in degrees
    3 mod 4 vanishes because ef = 4; the cofibre bookkeeping then forces
    the ambiguous extension in degrees 0 mod 4 of L^q/e to be Z.  An
    injected e-map with ef = 0 must flip the kernel item and with it the
    resolution.
    """
    ls, lq, ln = (table(n, _read_window(window)) for n in ("Ls", "Lq", "Ln"))
    return _evaluate(window, _e_claims(window, ls, lq, ln, e_map))


def _e_claims(W, ls, lq, ln, e_map=None) -> list[_Claim]:
    """The claims of ``e_multiplication_report`` over W, from the tables and the map e on L^n, e_map if given.

    Each reads the degrees of W that decide it, in the residue mod 4 it is
    about: every map on these tables repeats with a multiple of 4.
    """
    e_ln = (lambda: e_map) if e_map else cache(lambda: mult_by("Ln", "e", ln))
    ses_q = cache(lambda: cofibre_of_mult(lq, mult_by("Lq", "e", lq)))
    ses_n = cache(lambda: cofibre_of_mult(ln, e_ln()))
    trivial_kernel = cache(lambda *datum: map_kernel_group(*datum).is_trivial())  # each distinct datum once

    def kernel(n, e):
        return n % 4 != 3 or trivial_kernel(e.component(n), e.source[n], e.target[n + 1])

    def condition_i(n, q):
        return n % 4 != 1 or n not in q or q[n].sub.is_trivial() and q[n].quotient.is_trivial()

    def vanishing(n, c):
        return n % 4 != 1 or n not in c or c[n].resolved is not None and c[n].resolved.is_trivial()

    def resolved_z(n, q, s):
        # degrees 0 mod 4: the SES 0 -> Z -> M -> Z/2 -> 0 is ambiguous on its own; the vanishing
        # embeds M into pi_(4k)(L^s/e), which must be resolved and free
        return n % 4 != 0 or n not in q or (
            extension_candidates(q[n].sub, q[n].quotient) == {FgAbGroup.free(1), FgAbGroup(1, (2,))}
            and s[n].resolved is not None and s[n].resolved.is_free())

    return [
        _Claim("mult-e-kernel", "ker(e) = 0 in degrees 3 mod 4", _degreewise, lambda: ((W, (e_ln(),), kernel),)),
        _Claim("mult-e-condition-i", "pi_(4k+1)(L^q/e) is torsion (zero)", _degreewise,
               lambda: ((W, (ses_q(),), condition_i),)),
        _Claim("mult-e-cofibre-vanishing", "pi_(4k+1)(L^n/e) = 0", _degreewise, lambda: ((W, (ses_n(),), vanishing),)),
        _Claim("mult-e-resolved-Z", "extension in degrees 0 mod 4 resolves to Z, not Z + Z/2", _degreewise,
               lambda: ((W, (ses_q(), cofibre_of_mult(ls, mult_by("Ls", "e", ls))), resolved_z),
                        (W, (ses_n(),), vanishing))),
    ]


# ---------------------------------------------------------------------------
# Theorem B
# ---------------------------------------------------------------------------


def _coconnective_mod2_lr(window) -> GradedGroup:
    """The table of L(R)/(l(R), 2): Z/2 in degrees 4k <= -4."""
    z2 = FgAbGroup.cyclic(2)
    return GradedGroup.from_core(window, None, CORE, lambda n: z2 if n % 4 == 0 and n <= -4 else FgAbGroup(), (4, 4))


def _truncate_below(G: GradedGroup, cut: int) -> GradedGroup:
    return derive_table(G.window, None, [G], (0,), lambda n: G[n] if n >= cut else FgAbGroup(), fixed=(cut,))


def verify_genuine(window=(-16, 16)) -> list[CheckResult]:
    """The rows of Theorem B, on the genuine theories L^gs, L^gq and scriptL, over W, built as Theorem A's are."""
    W = window
    P = _read_window(W)  # the duals below reflect degrees, and answer them from their tails
    lgs, ls, lq, ln, lr, l_r, script, ko = (table(n, P)
                                             for n in ("Lgs", "Ls", "Lq", "Ln", "LR", "lR", "scriptL", "KO"))
    lgq, skew = shift_graded(lgs, 4), shift_graded(lgs, 2)
    x_lgs = cache(lambda: mult_by("Lgs", "x", lgs))
    return _evaluate(W, [
        # table("Lgq") is defined as L^gs[4], so one comparison covers both
        _Claim("anderson-Lgs", "I(L^gs) has the homotopy of L^gs[4] = L^gq", _tables_equal,
               lambda: (anderson_dual(lgs), lgq)),
        _Claim("anderson-KO", "I(KO) has the homotopy of KO[4]", _tables_equal,
               lambda: (anderson_dual(ko), shift_graded(ko, 4))),
        _Claim("splitting-Lgs", "L^gs = scriptL + (l(R)/2)[1] + (L(R)/(l(R),2))[-2]", _tables_equal,
               lambda: (lgs, direct_sum_graded(script, shift_graded(mod_table(l_r, 2), 1),
                                               shift_graded(_coconnective_mod2_lr(P), -2)))),
        _Claim("genuine-pullback-square", "Mayer-Vietoris for L^gs -> L^s x_(L^n) tau L^n", _exact,
               lambda: _genuine_square_item(lgs, ls, ln)),
        _Claim("scriptL-square", "Mayer-Vietoris for scriptL -> L(R) x_(L(R)/8) l(R)/8", _short_exact,
               lambda: _script_square_item(script, lr, l_r)),
        _Claim("comparison-ranges", "iso ranges of the comparison maps", _degreewise,
               lambda: (((W[0], 1), (lq, lgq), _agree), ((W[0], -3), (lgq, lgs), _agree),
                        ((2, W[1]), (lgq, lgs), _agree), ((0, W[1]), (lgs, ls), _agree))),
        _Claim("mult-x-minus4", "x: L^gs_(-4) -> L^gs_0 is multiplication by 8", _matrix,
               lambda: (x_lgs(), (-4, -4), lambda n: 8)),
        # x from degree n lands in W for n <= W[1] - 4
        _Claim("mult-x-iso", "x is an isomorphism in the other free degrees", _matrix,
               lambda: (x_lgs(), (W[0], W[1] - 4), lambda n: 1 if n % 4 == 0 and n != -4 else None)),
        _Claim("skew-self-dual", "the two-fold shift is Anderson self-dual", _tables_equal,
               lambda: (anderson_dual(skew), skew)),
        _Claim("canonical-maps-torsor", "Z/2 of homotopies between the canonical maps", _group,
               lambda: (ls[1], FgAbGroup.cyclic(2))),
    ])


def _genuine_square_item(lgs, ls, ln) -> tuple:
    """The maps of the ``genuine-pullback-square`` row: its Mayer-Vietoris sequence, which must be exact."""
    tau = _truncate_below(ln, -1)
    # 8 in degrees 4k < 0: the lower tail repeats -4..-1, the upper one degree 0
    alpha = scalar_map([lgs], [ls, tau], 0, lambda n: [[8 if n % 4 == 0 and n < 0 else 1], [1]],
                       core=(-4, 0), tails=(4, 1))
    beta = scalar_map([ls, tau], [ln], 0, lambda n: [[1, -1]], **_CONSTANT)
    bdry = scalar_map([ln], [lgs], -1, lambda n: [[int(n % 4 == 3 and n <= -5)]], core=(-8, -4), tails=(4, 1))
    return alpha, beta, bdry


def _script_square_item(script, lr, l_r) -> tuple:
    """The maps of the ``scriptL-square`` row: its Mayer-Vietoris sequence, which must be short exact.

    The middle term is summed over the window of its mod-8 summand, one
    shorter than the rest.
    """
    B = [lr, mod_table(l_r, 8)]
    alpha = scalar_map([script], B, 0, lambda n: [[8 if n < 0 else 1], [1]], core=(-1, 0), tails=(1, 1))
    beta = scalar_map(B, [mod_table(lr, 8)], 0, lambda n: [[1, -1]], **_CONSTANT)
    return alpha, beta
