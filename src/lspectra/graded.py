"""Graded abelian groups and graded maps, each stored on a finite core.

This is the bookkeeping layer for homotopy-group tables: Anderson duals at
the level of graded groups, exactness of long exact sequences, cofibres of
multiplication maps, splitting comparisons and torsor counts.

Every table of the package repeats outside a finite core, so a table is its
core and a periodic tail at each end, and answers any degree; its window
only says which degrees it reports.  The combinators derive the core and
tails of their result from those of their inputs, at a cost that does not
depend on the window.  What a check reads rests on one lemma:

    If every object of a check is periodic with period p outside [a, b],
    then the degrees a - p ... b + p decide every degree.

Below a, each degree n repeats at n + p, n + 2p, ... until it lands in
a - p ... a - 1, and likewise above b; so a check that holds there holds
everywhere.  A map is stored the same way: its components on a finite
core, repeating past it with a tail period at each end, and a lookup folds
a degree back into the core.  Its coefficient rule states its own core and
tails as data and is read on that core alone; ``deciding_core`` widens the
cores of the two ends and of the rule by one lcm period at each end, and
the components are built there and nowhere else.  Checks on maps pair their
data over those degrees, so a wrong coefficient in the core or in a tail
fails a check at any window.  Every map of ``ltables`` is a coefficient
rule passed to ``scalar_map``, and this module alone picks the degrees a
map is built on and keys its components.
"""

from __future__ import annotations

from math import lcm
from operator import index

from .abelian import (
    FgAbGroup,
    IntMatrix,
    _parse_int,
    _Record,
    ext_group,
    hom_group,
    hom_is_well_defined,
    map_cokernel_group,
    map_kernel_group,
    maps_exact,
    extension_candidates,
)

__all__ = [
    "GradedGroup",
    "GradedMap",
    "scalar_map",
    "SesDatum",
    "OutOfWindowError",
    "anderson_dual",
    "double_dual_check",
    "check_exact",
    "cofibre_of_mult",
    "torsor_count",
    "compare_graded",
    "deciding_degrees",
    "deciding_core",
    "MapError",
    "shift_graded",
    "reflect_graded",
    "direct_sum_graded",
    "derive_table",
    "mod_table",
]


class OutOfWindowError(KeyError):
    """A degree lookup left the core and no tail repeats it there."""


_ZERO = FgAbGroup()  # every degree a table leaves out

# Bounds on a window given from outside, each set from the slowest verb at it (the bounds table of
# README.md): verify presentations takes 7.6 s at -2048..-1048.  Tables, duals and verify A|B cost the
# same at any distance from 0 (verify B: 0.15 s at 2044..2048); the ends stay bounded as part of the
# input contract.
MAX_WIDTH = 1000  # degrees a window spans, and the longest period read
MAX_DEGREE = 2048  # size of a window's ends


def bounded_window(lo: int, hi: int) -> tuple[int, int]:
    """(lo, hi), if at most MAX_WIDTH apart and with no end past MAX_DEGREE in size."""
    if hi - lo > MAX_WIDTH or max(-lo, hi) > MAX_DEGREE:
        raise ValueError(f"window {lo}..{hi} exceeds the bounds: width {MAX_WIDTH}, "
                         f"ends -{MAX_DEGREE}..{MAX_DEGREE}")
    return lo, hi


class GradedGroup:
    """Degree-indexed finitely generated abelian groups: a core and two periodic tails.

    The groups are stored on the ``core`` degrees [a, b].  Below a the table
    repeats with the period ``tails[0]``, read off the core's first degrees,
    and above b with ``tails[1]``, read off its last; an end whose tail is
    None answers no degree past the core.  ``window`` is the degrees the
    table reports: ``degrees()``, ``to_json`` and ``==`` read it, and so do
    the rules that derive a window from it.  ``period`` is metadata: the
    constructor checks it on the window, and the combinators derive it.

    The constructor makes a finite table: its core is the window, or, where
    a period is declared and the window spans it, the window's first period
    with both tails that period, so every lookup is folded back into it.
    ``from_core`` makes a table that answers any degree from a core and
    its tails, whatever its window.
    """

    __slots__ = ("window", "period", "core", "tails", "_groups")

    def __init__(self, window, groups, period=None):
        lo, hi = int(window[0]), int(window[1])
        if lo > hi:
            raise ValueError("empty window")
        table = {}
        for n in range(lo, hi + 1):
            g = groups.get(n, _ZERO)
            if not isinstance(g, FgAbGroup):
                g = FgAbGroup.parse(str(g))
            table[n] = g
        for n in groups:
            if not lo <= int(n) <= hi:
                raise ValueError(f"degree {n} outside window {window}")
        if period is not None:
            period = index(period)
            if period <= 0:
                raise ValueError("period must be positive")
            for n in range(lo, hi + 1 - period):
                if table[n] != table[n + period]:
                    raise ValueError(
                        f"declared period {period} fails at degree {n}"
                    )
        if period is not None and hi - lo + 1 >= period:  # one period holds every group
            core = (lo, lo + period - 1)
            self._set((lo, hi), period, core, (period, period), {n: table[n] for n in range(lo, lo + period)})
        else:
            self._set((lo, hi), period, (lo, hi), (None, None), table)

    @classmethod
    def from_core(cls, window, period, core, at, tails) -> "GradedGroup":
        """The table on ``window`` with at(n) in each degree n of ``core``, repeating past it with ``tails``.

        Each tail that is not None must fit in the core.  Nothing is
        checked against ``period``: the caller derives it.
        """
        a, b = core
        if any(p is not None and p > b - a + 1 for p in tails):
            raise ValueError(f"core {core} is shorter than a tail period {tails}")
        G = object.__new__(cls)
        G._set(tuple(window), period, (a, b), tuple(tails), {n: at(n) for n in range(a, b + 1)})
        return G

    def _set(self, window, period, core, tails, groups):
        for name, value in zip(self.__slots__, (window, period, core, tails, groups)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("GradedGroup is immutable")

    def _slot(self, n: int):
        """The core degree that degree n reads its group from, or None where it has none."""
        (a, b), (below, above) = self.core, self.tails
        if n < a:
            return a + (n - a) % below if below else None
        if n > b:
            return b - (b - n) % above if above else None
        return n

    def __getitem__(self, n: int) -> FgAbGroup:
        m = self._slot(n)
        if m is None:
            raise OutOfWindowError(f"degree {n} outside window {self.window}")
        return self._groups[m]

    def degrees(self):
        lo, hi = self.window
        return range(lo, hi + 1)

    def __eq__(self, other):
        if not isinstance(other, GradedGroup):
            return NotImplemented
        return self.window == other.window and all(
            self[n] == other[n] for n in deciding_degrees(self.window, (self, other)))

    def __hash__(self):
        return hash(self.window)

    def __repr__(self):
        return f"GradedGroup(window={self.window}, period={self.period})"

    def rendered(self) -> list:
        """(n, self[n].render()) for each degree n of the window, each core group rendered once.

        Past the core the texts repeat with the tail periods, so one period of each tail is looked up.
        """
        (lo, hi), (a, b), (below, above) = self.window, self.core, self.tails
        text = {}

        def at(n):
            m = self._slot(n)
            if m not in text:
                text[m] = self[n].render()
            return text[m]

        def run(start, stop, period):  # the texts of degrees start..stop-1, repeating with period
            head = [at(n) for n in range(start, min(stop, start + (period or stop - start)))]
            return (head * ((stop - start) // len(head) + 1))[:stop - start] if head else head

        texts = run(lo, min(hi + 1, a), below) + run(max(lo, a), min(hi, b) + 1, None)
        return list(zip(self.degrees(), texts + run(max(lo, b + 1), hi + 1, above)))

    def to_json(self) -> dict:
        return {
            "window": list(self.window),
            "period": self.period,
            "groups": {str(n): text for n, text in self.rendered()},
        }

    @classmethod
    def from_json(cls, doc) -> "GradedGroup":
        window = bounded_window(*map(index, doc["window"]))
        groups = {_parse_int(n): FgAbGroup.parse(s) for n, s in doc.get("groups", {}).items()}
        return cls(window, groups, doc.get("period"))


def deciding_degrees(window, tables):
    """The degrees of ``window`` that decide a degreewise statement about ``tables``.

    This is the periodicity lemma of the module docstring: below every core
    the tables repeat with the lcm L of their lower tails, so the top L
    degrees of the window there decide the rest, and above every core the
    bottom L degrees there; the window's part inside the cores is read
    whole.  Where some table has no tail, every degree past the cores is read.
    """
    lo, hi = window
    a, b = min(t.core[0] for t in tables), max(t.core[1] for t in tables)
    below, above = (None if None in periods else lcm(*periods)
                    for periods in zip(*(t.tails for t in tables)))
    top_below, bottom_above = min(hi, a - 1), max(lo, b + 1)
    yield from range(lo if below is None else max(lo, top_below - below + 1), top_below + 1)
    yield from range(max(lo, a), min(hi, b) + 1)
    yield from range(bottom_above, (hi if above is None else min(hi, bottom_above + above - 1)) + 1)


def deciding_core(reads):
    """((a, b), (below, above)): the degrees that decide a datum reading each object of ``reads`` at n + o.

    ``reads`` holds (object, offsets) pairs, each object with a ``core`` and
    ``tails``.  Below every core the datum repeats with the lcm ``below`` of
    the lower tails wherever each degree it reads lies in a lower tail or a
    first core period, and likewise above; a..b is what lies between one
    such period at each end, so its first and last periods repeat.  An
    object whose core is one period of both its tails repeats everywhere,
    so only its period counts.  Where some object has no tail, both tails
    are None and a..b spans the cores of such objects: the datum is then
    given at the degrees there where every object answers.
    """
    bounded = [(t, o) for t, o in reads if None in t.tails]
    if bounded:
        return (min(t.core[0] - max(o) for t, o in bounded), max(t.core[1] - min(o) for t, o in bounded)), (None, None)
    below, above = (lcm(*periods) for periods in zip(*(t.tails for t, _ in reads)))
    ends = [(t.core[0] + t.tails[0] - max(o), t.core[1] - t.tails[1] - min(o)) for t, o in reads
            if not t.tails[0] == t.tails[1] == t.core[1] - t.core[0] + 1]
    if not ends:
        return (0, max(below, above) - 1), (below, above)
    return (min(lo for lo, _ in ends) - below, max(hi for _, hi in ends) + above), (below, above)


def derive_table(window, period, tables, offsets, at, fixed=()) -> GradedGroup:
    """The table on ``window`` whose degree n is at(n), read off ``tables`` in the degrees n + o, o in ``offsets``.

    ``at`` may single out the degrees in ``fixed``, and otherwise depends on
    n only through the tables.  When every table has both tails, only the
    core that ``deciding_core`` derives, widened to hold ``fixed``, is
    computed.  Otherwise the result is finite: at(n) is computed on the window.
    """
    (a, b), (below, above) = deciding_core([(t, offsets) for t in tables])
    if below is None:
        return GradedGroup.from_core(window, period, window, at, (None, None))
    if fixed:
        a, b = min(a, min(fixed) - below), max(b, max(fixed) + above)
    return GradedGroup.from_core(window, period, (a, b), at, (below, above))


class MapError(ValueError):
    """A graded map cannot be built: a component is no homomorphism, or the summands do not lay out the sum."""


class GradedMap:
    """Degreewise homomorphisms source_n -> target_{n + degree_shift}: a core and two periodic tails.

    Components are integer matrices on the presentation generators (free
    generators first, then torsion generators in invariant-factor order).
    They are stored on the ``core`` degrees and repeat past it with
    ``tails``, as a ``GradedGroup``'s groups do, through the same fold; a
    degree of the core without a component, or past an end whose tail is
    None, reads as the zero map.  Each distinct (matrix, source group,
    target group) datum is kept once and checked once to be well defined
    against the torsion orders, and the checks built on maps work once per
    datum.  The constructor makes a finite map from components given at
    some degrees; ``scalar_map``, the one builder from a coefficient rule,
    makes maps that repeat wherever their ends and rule do.
    """

    __slots__ = ("source", "target", "degree_shift", "core", "tails", "_which", "_data")
    _slot = GradedGroup._slot

    def __init__(self, source, target, degree_shift, components):
        given = {int(n): m for n, m in components.items()}
        shift = int(degree_shift)

        def matrix(n, key):
            m = given[n]
            return m if isinstance(m, IntMatrix) else IntMatrix(m, shape=(target[n + shift].gens(), source[n].gens()))

        # a given component is known by its identity, which ``given`` keeps alive
        self._fill(source, target, shift, (None, None), sorted(given), lambda n: id(given[n]), matrix)

    def _fill(self, source, target, shift, tails, degrees, key, matrix):
        """Set the map with the component matrix(n, key(n)) at each degree n of ``degrees``, in ascending order.

        Its core spans ``degrees``, and it repeats past them with ``tails``.
        ``matrix`` is called once per distinct key(n) and core degrees of n
        and n + shift in the two ends, which together must determine the
        component and the groups at both ends.
        """
        which, by_key, index, data = {}, {}, {}, []
        for n in degrees:
            k = key(n)
            known = (k, source._slot(n), target._slot(n + shift))
            i = by_key.get(known)
            if i is None:
                datum = (matrix(n, k), source[n], target[n + shift])
                i = index.get(datum)
                if i is None:
                    if not hom_is_well_defined(*datum):
                        raise MapError(f"component at degree {n} is not a homomorphism")
                    i = index[datum] = len(data)
                    data.append(datum)
                by_key[known] = i
            which[n] = i
        core = (degrees[0], degrees[-1]) if degrees else (0, -1)
        for name, value in zip(self.__slots__, (source, target, shift, core, tails, which, data)):
            object.__setattr__(self, name, value)  # _which: core degree -> index of its datum in _data

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("GradedMap is immutable")

    def _index(self, n: int):
        """The index in ``_data`` of the component at degree n, or None where it reads as the zero map."""
        m = self._slot(n)
        return None if m is None else self._which.get(m)

    @property
    def components(self) -> dict:
        """The components on the core, by degree."""
        return {n: self._data[k][0] for n, k in self._which.items()}

    def component(self, n: int) -> IntMatrix:
        i = self._index(n)
        if i is not None:
            return self._data[i][0]
        return IntMatrix.zero(self.target[n + self.degree_shift].gens(), self.source[n].gens())


def scalar_map(sources, targets, shift, coeffs, *, core, tails) -> GradedMap:
    """The graded map between the direct sums of two lists of summands.

    Each summand has at most one generator per degree.  ``coeffs(n)[i][j]``
    is the integer that takes the generator of ``sources[j]`` in degree n to
    that of ``targets[i]`` in degree n + shift; a block is zero where a
    summand has no generator.  The generators of a sum are those of its
    summands in order, which must be the sum's canonical order.  The rule is
    data: it is stated on the degrees of ``core`` and repeats past them with
    ``tails``, so ``coeffs`` is called once per degree of ``core`` that the
    map reads and never outside it.  The map is built on the degrees that
    decide it (``deciding_core`` of the two sums and the rule) where all
    three answer, and repeats past them, or reads as zero where one of the
    three has no tail.  A matrix is built once per distinct rule degree and
    core degrees of the two sums, which fix those of their summands: a sum
    repeats wherever all its summands do.
    """
    src = sources[0] if len(sources) == 1 else direct_sum_graded(*sources)
    tgt = targets[0] if len(targets) == 1 else direct_sum_graded(*targets)
    rule = GradedGroup.from_core(core, None, core, lambda n: _ZERO, tails)  # the degrees the rule is stated on
    values = {}

    def matrix(n, m):
        c = values.get(m)
        if c is None:
            c = values[m] = tuple(map(tuple, coeffs(m)))
        rows = _summands_present(targets, tgt, n + shift)
        cols = _summands_present(sources, src, n)
        return IntMatrix([[c[i][j] for j in cols] for i in rows], shape=(len(rows), len(cols)))

    (a, b), map_tails = deciding_core([(src, (0,)), (tgt, (shift,)), (rule, (0,))])
    degrees = [n for n in range(a, b + 1) if None not in (src._slot(n), tgt._slot(n + shift), rule._slot(n))]
    f = object.__new__(GradedMap)
    f._fill(src, tgt, shift, map_tails, degrees, rule._slot, matrix)
    return f


def _summands_present(summands, total: GradedGroup, n: int) -> list[int]:
    """Indices of the summands with a generator in degree n, in the layout of the sum."""
    orders = [s[n].gen_orders() for s in summands]
    if any(len(o) > 1 for o in orders) or sum(orders, ()) != total[n].gen_orders():
        raise MapError(f"summand generators at degree {n} are not those of their sum")
    return [i for i, o in enumerate(orders) if o]


class _Folded(dict):
    """Data on the degrees of a core, answering a degree past it with the datum its tail repeats there."""

    __slots__ = ("core", "tails")
    _slot = GradedGroup._slot

    def __missing__(self, n):
        m = self._slot(n)
        if m is None or m == n:
            raise KeyError(n)
        return self[m]

    def __contains__(self, n):
        m = self._slot(n)
        return m is not None and dict.__contains__(self, m)


class SesDatum(_Record):
    """A short exact sequence 0 -> sub -> ? -> quotient -> 0.

    ``resolved`` names the middle group only when it is forced, i.e. when
    the extension-candidate set is a singleton; an unresolved ambiguity is
    represented, never guessed.
    """

    __slots__ = _fields = ("sub", "quotient", "resolved")

    def __init__(self, sub: FgAbGroup, quotient: FgAbGroup, resolved: FgAbGroup | None = None):
        self._set(sub, quotient, resolved)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def anderson_dual(G: GradedGroup) -> GradedGroup:
    """Homotopy groups of the Anderson dual of a table.

    Degree n of the dual is Hom(G[-n], Z) (+) Ext(G[-n-1], Z); a universal
    coefficient sequence splits this way degree by degree.  The output
    window is the reflected one, shrunk by one at the bottom when no
    periodicity is available to resolve the Ext lookup.  The dual's tails
    are G's, reflected.
    """
    lo, hi = G.window
    window = (-hi, -lo) if G.period else (-hi, -lo - 1)
    wlo, whi = window
    if wlo > whi:
        raise OutOfWindowError(f"{lo}..{hi}: window too small to dualise")
    z = FgAbGroup.free(1)
    return derive_table(window, G.period, [reflect_graded(G)], (0, 1),
                        lambda n: hom_group(G[-n], z).direct_sum(ext_group(G[-n - 1], z)))


def double_dual_check(G: GradedGroup) -> bool:
    """Degreewise: the double Anderson dual reproduces the table."""
    d2 = anderson_dual(anderson_dual(G))
    return all(d2[n] == G[n] for n in deciding_degrees(d2.window, (d2, G)))


def compare_graded(A: GradedGroup, B: GradedGroup) -> bool:
    """Degreewise isomorphism test over identical windows."""
    if A.window != B.window:
        raise ValueError(f"window mismatch: {A.window} vs {B.window}")
    return A == B


def check_exact(f: GradedMap, g: GradedMap) -> bool:
    """image(f) = kernel(g) in every middle degree where both maps have a component.

    The pairs of components are read over the degrees that decide both
    maps (``deciding_core``); past them they repeat.  Each distinct (map,
    groups, map, groups) datum is tested once, in the order of its first degree.
    """
    if f.target != g.source:
        raise ValueError("target of f must be the source of g")
    s = f.degree_shift
    pairs = {}
    (a, b), _ = deciding_core([(f, (0,)), (g, (s,))])
    for n in range(a, b + 1):
        i, j = f._index(n), g._index(n + s)
        if i is not None and j is not None:
            pairs[i, j] = None
    if not pairs:
        raise ValueError("no common degree to check")
    return all(maps_exact(f._data[i][0], f._data[i][1:], g._data[j][0], g._data[j][1:]) for i, j in pairs)


def cofibre_of_mult(M: GradedGroup, mul: GradedMap) -> dict[int, SesDatum]:
    """Per-degree short exact sequence data of the cofibre of a self-map.

    For a multiplication-style map of degree shift s the long exact
    sequence collapses to 0 -> coker(mul)_n -> pi_n(cofibre) ->
    ker(mul at n-1-s) -> 0; the middle term is resolved only when the
    extension-candidate set is a singleton.  Degree n is given where the
    map has components at n - s and n - 1 - s.  The data are worked out on
    the degrees that decide them and repeat past them with the map's tails:
    the result answers every degree they repeat to, though it lists only
    its core.  Each kernel, cokernel and extension is worked out once per
    distinct datum.
    """
    s = mul.degree_shift
    data = mul._data
    (a, b), tails = deciding_core([(mul, (0, -1))])
    subs, quots, seqs = {}, {}, {}
    out = _Folded()
    for d in range(a, b + 1):  # d = n - s
        i, j = mul._index(d), mul._index(d - 1)
        if i is None or j is None:
            continue
        if (i, j) not in seqs:
            if i not in subs:
                subs[i] = map_cokernel_group(*data[i])
            if j not in quots:
                quots[j] = map_kernel_group(*data[j])
            candidates = extension_candidates(subs[i], quots[j])
            resolved = next(iter(candidates)) if len(candidates) == 1 else None
            seqs[i, j] = SesDatum(sub=subs[i], quotient=quots[j], resolved=resolved)
        out[d + s] = seqs[i, j]
    out.core = (min(out), max(out)) if out else (0, -1)
    out.tails = tails
    return out


def torsor_count(G: GradedGroup, period: int) -> FgAbGroup:
    """Product over one period, of at most MAX_WIDTH degrees, of Ext(G[i], G[i+1])."""
    if period <= 0:
        raise ValueError("period must be positive")
    if period > MAX_WIDTH:
        raise ValueError(f"period {period} exceeds the bound {MAX_WIDTH}")
    lo, hi = G.window
    if G.period is None:
        if (hi - lo + 1) % period:
            raise ValueError("period does not divide the window length")
        if hi < lo + period:
            raise ValueError(
                f"window {G.window} declares no period and does not contain {lo}..{lo + period}"
            )
    return FgAbGroup.from_divisors(
        [o for i in range(lo, lo + period) for o in ext_group(G[i], G[i + 1]).gen_orders()]
    )


# ---------------------------------------------------------------------------
# Table combinators
# ---------------------------------------------------------------------------


def shift_graded(G: GradedGroup, k: int) -> GradedGroup:
    """G[k] with (G[k])_n = G_{n-k}."""
    (lo, hi), (a, b) = G.window, G.core
    return GradedGroup.from_core((lo + k, hi + k), G.period, (a + k, b + k), lambda n: G[n - k], G.tails)


def reflect_graded(G: GradedGroup) -> GradedGroup:
    """The table n -> G_{-n}, on the reflected window and with the tails swapped."""
    (lo, hi), (a, b), (below, above) = G.window, G.core, G.tails
    return GradedGroup.from_core((-hi, -lo), None, (-b, -a), lambda n: G[-n], (above, below))


def direct_sum_graded(*tables: GradedGroup) -> GradedGroup:
    """The degreewise direct sum over the window all the summands share.

    Summands may have different windows; the sum covers their common part,
    and summands with no degree in common raise ValueError.
    """
    if not tables:
        raise ValueError("empty sum")
    lo = max(t.window[0] for t in tables)
    hi = min(t.window[1] for t in tables)
    if lo > hi:
        raise ValueError("summands share no degree in direct sum")
    return derive_table((lo, hi), None, tables, (0,),
                    lambda n: FgAbGroup.from_divisors([o for t in tables for o in t[n].gen_orders()]))


def mod_table(G: GradedGroup, m: int) -> GradedGroup:
    """Homotopy of the Moore quotient G/m: the cofibre of multiplication by m on a table.

    The universal coefficient sequence 0 -> G_n (x) Z/m -> (G/m)_n ->
    Tor(G_{n-1}, Z/m) -> 0 makes degree n the extension of Hom(Z/m, G_{n-1})
    by Ext(Z/m, G_n); for m = 0, Z/0 = Z and the cokernel is G_n itself.
    Every degree must resolve to a unique extension; that holds whenever the
    two ends are never both nontrivial in adjacent degrees, which is the
    case for all tables this library builds it from.
    """
    zm = FgAbGroup.cyclic(abs(m))

    def at(n):
        candidates = extension_candidates(G[n] if m == 0 else ext_group(zm, G[n]), hom_group(zm, G[n - 1]))
        if len(candidates) != 1:
            raise ValueError(f"mod-{m} table ambiguous at degree {n}")
        return next(iter(candidates))

    lo, hi = G.window
    p = G.period if (G.period and hi - lo - 1 >= G.period) else None
    return derive_table((lo + 1, hi), p, [G], (0, -1), at)
