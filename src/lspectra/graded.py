"""Graded abelian groups over a finite degree window, and graded maps.

This is the bookkeeping layer for homotopy-group tables: Anderson duals at
the level of graded groups, exactness of long exact sequences, cofibres of
multiplication maps, splitting comparisons and torsor counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import (
    FgAbGroup,
    IntMatrix,
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
    "shift_graded",
    "direct_sum_graded",
    "mult_by_int",
    "mod_table",
]


class OutOfWindowError(KeyError):
    """A degree lookup left the window and periodicity cannot recover it."""


_ZERO = FgAbGroup()  # every degree a table leaves out

# Bounds on a window given from outside: verify presentations takes 17 s at -2048..-1048, and
# verify B, which pads the window reflected through 0, 1.4 s at 2044..2048.
MAX_WIDTH = 1000  # degrees a window spans, and the longest period read
MAX_DEGREE = 2048  # size of a window's ends


def bounded_window(lo: int, hi: int) -> tuple[int, int]:
    """(lo, hi), if at most MAX_WIDTH apart and with no end past MAX_DEGREE in size."""
    if hi - lo > MAX_WIDTH or max(-lo, hi) > MAX_DEGREE:
        raise ValueError(f"window {lo}..{hi} exceeds the bounds: width {MAX_WIDTH}, "
                         f"ends -{MAX_DEGREE}..{MAX_DEGREE}")
    return lo, hi


class GradedGroup:
    """Degree-indexed finitely generated abelian groups on [d_min, d_max].

    ``period`` is checked metadata: declaring it asserts the table repeats
    with that period inside the window, and lookups outside the window are
    folded back in using it.
    """

    __slots__ = ("window", "_groups", "period")

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
            period = int(period)
            if period <= 0:
                raise ValueError("period must be positive")
            for n in range(lo, hi + 1 - period):
                if table[n] != table[n + period]:
                    raise ValueError(
                        f"declared period {period} fails at degree {n}"
                    )
        object.__setattr__(self, "window", (lo, hi))
        object.__setattr__(self, "_groups", table)
        object.__setattr__(self, "period", period)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("GradedGroup is immutable")

    def __getitem__(self, n: int) -> FgAbGroup:
        lo, hi = self.window
        if lo <= n <= hi:
            return self._groups[n]
        if self.period:
            m = lo + (n - lo) % self.period
            if lo <= m <= hi:
                return self._groups[m]
        raise OutOfWindowError(f"degree {n} outside window {self.window}")

    def degrees(self):
        lo, hi = self.window
        return range(lo, hi + 1)

    def groups(self):
        return dict(self._groups)

    def __eq__(self, other):
        if not isinstance(other, GradedGroup):
            return NotImplemented
        return self.window == other.window and self._groups == other._groups

    def __hash__(self):
        return hash((self.window, tuple(sorted((k, v) for k, v in self._groups.items()))))

    def __repr__(self):
        return f"GradedGroup(window={self.window}, period={self.period})"

    def to_json(self) -> dict:
        return {
            "window": list(self.window),
            "period": self.period,
            "groups": {str(n): self._groups[n].render() for n in self.degrees()},
        }

    @classmethod
    def from_json(cls, doc) -> "GradedGroup":
        window = bounded_window(*map(int, doc["window"]))
        groups = {int(n): FgAbGroup.parse(s) for n, s in doc.get("groups", {}).items()}
        return cls(window, groups, doc.get("period"))


class GradedMap:
    """Degreewise homomorphisms source_n -> target_{n + degree_shift}.

    Components are integer matrices on the presentation generators (free
    generators first, then torsion generators in invariant-factor order);
    well-definedness against torsion orders is checked on construction.
    """

    __slots__ = ("source", "target", "degree_shift", "components")

    def __init__(self, source, target, degree_shift, components):
        comps = {}
        for n, m in components.items():
            n = int(n)
            src = source[n]
            tgt = target[n + degree_shift]
            m = m if isinstance(m, IntMatrix) else IntMatrix(m, shape=(tgt.gens(), src.gens()))
            if not hom_is_well_defined(m, src, tgt):
                raise ValueError(f"component at degree {n} is not a homomorphism")
            comps[n] = m
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "degree_shift", int(degree_shift))
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("GradedMap is immutable")

    def component(self, n: int) -> IntMatrix:
        m = self.components.get(n)
        if m is None:
            return IntMatrix.zero(self.target[n + self.degree_shift].gens(), self.source[n].gens())
        return m

    def _datum(self, n: int) -> tuple:
        """(component, source group, target group) at degree n: all its kernel and cokernel read."""
        return self.component(n), self.source[n], self.target[n + self.degree_shift]


def scalar_map(sources, targets, shift, coeffs) -> GradedMap:
    """The graded map between the direct sums of two lists of summands.

    Each summand has at most one generator per degree.  ``coeffs(n)[i][j]``
    is the integer that takes the generator of ``sources[j]`` in degree n to
    that of ``targets[i]`` in degree n + shift; a block is zero where a
    summand has no generator.  The generators of a sum are those of its
    summands in order, which must be the sum's canonical order.
    """
    src = sources[0] if len(sources) == 1 else direct_sum_graded(*sources)
    tgt = targets[0] if len(targets) == 1 else direct_sum_graded(*targets)
    lo, hi = tgt.window
    comps = {}
    for n in src.degrees():
        if lo <= n + shift <= hi:
            rows = _summands_present(targets, tgt, n + shift)
            cols = _summands_present(sources, src, n)
            c = coeffs(n)
            comps[n] = IntMatrix([[c[i][j] for j in cols] for i in rows], shape=(len(rows), len(cols)))
    return GradedMap(src, tgt, shift, comps)


def _summands_present(summands, total: GradedGroup, n: int) -> list[int]:
    """Indices of the summands with a generator in degree n, in the layout of the sum."""
    orders = [s[n].gen_orders() for s in summands]
    if any(len(o) > 1 for o in orders) or sum(orders, ()) != total[n].gen_orders():
        raise ValueError(f"summand generators at degree {n} are not those of their sum")
    return [i for i, o in enumerate(orders) if o]


@dataclass(frozen=True)
class SesDatum:
    """A short exact sequence 0 -> sub -> ? -> quotient -> 0.

    ``resolved`` names the middle group only when it is forced, i.e. when
    the extension-candidate set is a singleton; an unresolved ambiguity is
    represented, never guessed.
    """

    sub: FgAbGroup
    quotient: FgAbGroup
    resolved: FgAbGroup | None = None


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def anderson_dual(G: GradedGroup) -> GradedGroup:
    """Homotopy groups of the Anderson dual of a table.

    Degree n of the dual is Hom(G[-n], Z) (+) Ext(G[-n-1], Z); a universal
    coefficient sequence splits this way degree by degree.  The output
    window is the reflected one, shrunk by one at the bottom when no
    periodicity is available to resolve the Ext lookup.
    """
    lo, hi = G.window
    window = (-hi, -lo) if G.period else (-hi, -lo - 1)
    wlo, whi = window
    if wlo > whi:
        raise OutOfWindowError(f"{lo}..{hi}: window too small to dualise")
    z = FgAbGroup.free(1)
    groups = {n: hom_group(G[-n], z).direct_sum(ext_group(G[-n - 1], z)) for n in range(wlo, whi + 1)}
    return GradedGroup(window, groups, G.period)


def double_dual_check(G: GradedGroup) -> bool:
    """Degreewise: the double Anderson dual reproduces the table."""
    d1 = anderson_dual(G)
    d2 = anderson_dual(d1)
    lo, hi = d2.window
    for n in range(lo, hi + 1):
        if d2[n] != G[n]:
            return False
    return True


def compare_graded(A: GradedGroup, B: GradedGroup) -> bool:
    """Degreewise isomorphism test over identical windows."""
    if A.window != B.window:
        raise ValueError(f"window mismatch: {A.window} vs {B.window}")
    return all(A[n] == B[n] for n in A.degrees())


def check_exact(f: GradedMap, g: GradedMap) -> bool:
    """image(f) = kernel(g) in every middle degree both maps reach.

    A periodic map repeats its data, so each distinct (map, groups, map,
    groups) datum is tested once, in the order of its first degree.
    """
    if f.target != g.source:
        raise ValueError("target of f must be the source of g")
    mid = f.target
    data = {}
    for m in mid.degrees():
        n_f = m - f.degree_shift
        if not (f.source.window[0] <= n_f <= f.source.window[1]):
            continue
        if not (g.target.window[0] <= m + g.degree_shift <= g.target.window[1]):
            continue
        groups_f, groups_g = (f.source[n_f], mid[m]), (mid[m], g.target[m + g.degree_shift])
        data[(f.component(n_f), groups_f, g.component(m), groups_g)] = None
    if not data:
        raise ValueError("no common degree to check")
    return all(maps_exact(*datum) for datum in data)


def cofibre_of_mult(M: GradedGroup, mul: GradedMap) -> dict[int, SesDatum]:
    """Per-degree short exact sequence data of the cofibre of a self-map.

    For a multiplication-style map of degree shift s the long exact
    sequence collapses to 0 -> coker(mul)_n -> pi_n(cofibre) ->
    ker(mul at n-1-s) -> 0; the middle term is resolved only when the
    extension-candidate set is a singleton.  A periodic map repeats its
    data, so each kernel and cokernel is computed once per distinct datum.
    """
    s = mul.degree_shift
    memo = {}

    def once(fn, *args):
        if (fn, args) not in memo:
            memo[fn, args] = fn(*args)
        return memo[fn, args]

    out = {}
    lo, hi = M.window
    for n in range(lo, hi + 1):
        if not (lo <= n - s <= hi and lo <= n - 1 - s <= hi):
            continue
        sub = once(map_cokernel_group, *mul._datum(n - s))
        quot = once(map_kernel_group, *mul._datum(n - 1 - s))
        candidates = extension_candidates(sub, quot)
        resolved = next(iter(candidates)) if len(candidates) == 1 else None
        out[n] = SesDatum(sub=sub, quotient=quot, resolved=resolved)
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
    lo, hi = G.window
    return GradedGroup(
        (lo + k, hi + k),
        {n + k: G[n] for n in G.degrees()},
        G.period,
    )


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
    groups = {
        n: FgAbGroup.from_divisors([o for t in tables for o in t[n].gen_orders()])
        for n in range(lo, hi + 1)
    }
    return GradedGroup((lo, hi), groups, None)


def mult_by_int(G: GradedGroup, m: int) -> GradedMap:
    """The degree-0 self-map multiplying every group by the integer m."""
    comps = {}
    for n in G.degrees():
        g = G[n].gens()
        comps[n] = IntMatrix.diagonal([m] * g, rows=g, cols=g)
    return GradedMap(G, G, 0, comps)


def mod_table(G: GradedGroup, m: int) -> GradedGroup:
    """Homotopy of the cofibre of multiplication by m on a table.

    Every degree must resolve to a unique extension; that holds whenever
    coker and ker are never both nontrivial in adjacent degrees, which is
    the case for all tables this library builds it from.
    """
    ses = cofibre_of_mult(G, mult_by_int(G, m))
    groups = {}
    for n, datum in ses.items():
        if datum.resolved is None:
            raise ValueError(f"mod-{m} table ambiguous at degree {n}")
        groups[n] = datum.resolved
    lo, hi = G.window
    wlo = lo + 1
    p = G.period if (G.period and hi - wlo >= G.period) else None
    return GradedGroup((wlo, hi), groups, p)
