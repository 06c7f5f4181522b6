"""Invariants of integral symmetric forms, F2 quadratic forms and
quadratic linking forms on finite abelian 2-groups.

The Brown-Kervaire invariant is computed from the Gauss sum
``sum_x exp(2 pi i q(x)) = |G|^(1/2) exp(2 pi i beta / 8)``, both sides
compared exactly as integer coordinates in the power basis of a 2-power
cyclotomic ring; no floating point enters any invariant.  The Arf
invariant of an F2 quadratic form q is beta of the linking form q/2,
divided by 4, so every value is enumerated by one routine.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from .abelian import (
    DEFAULT_ENUMERATION_BOUND,
    EnumerationBoundError,
    FgAbGroup,
    IntMatrix,
    _parse_int,
    _Record,
    _Slotted,
    _restore,
    map_cokernel_group,
)

__all__ = [
    "SymForm",
    "F2QuadForm",
    "LinkingForm",
    "SingularFormError",
    "DegenerateFormError",
    "signature",
    "arf",
    "brown_kervaire",
    "gauss_sum",
    "nondegenerate",
    "E8_GRAM",
]


class SingularFormError(ValueError):
    """Symmetric form with vanishing determinant."""


class DegenerateFormError(ValueError):
    """Quadratic or linking form whose polarization is degenerate."""


# ---------------------------------------------------------------------------
# Integral symmetric forms
# ---------------------------------------------------------------------------


class SymForm(_Record):
    __slots__ = _fields = ("gram",)

    def __init__(self, gram: IntMatrix):
        if gram.rows != gram.cols:
            raise ValueError("gram matrix must be square")
        if gram != gram.transpose():
            raise ValueError("gram matrix must be symmetric")
        self._set(gram)

    @property
    def dim(self):
        return self.gram.rows


# the fractions grow with the dimension and the entries: a dense 64 x 64 Gram matrix takes 0.7 s with 4-bit
# entries, 3.7 s with 64-bit and 34 s with 256-bit ones, and no bound limits the entry size yet
MAX_SIGNATURE_DIM = 64


def signature(f: SymForm) -> int:
    """Signature p - q computed by exact rational congruence diagonalisation.

    Zero pivots with a nonzero off-diagonal partner are handled by the
    standard hyperbolic row+column addition, which never changes the
    signature; a wholly zero remaining block means the form is singular.
    """
    n = f.dim
    if n > MAX_SIGNATURE_DIM:
        raise ValueError(f"dimension {n} exceeds the bound {MAX_SIGNATURE_DIM}")
    m = [[Fraction(x) for x in row] for row in f.gram.entries]
    sig = 0
    i = 0
    while i < n:
        if m[i][i] == 0:
            j = next((k for k in range(i + 1, n) if m[k][k] != 0), None)
            if j is not None:
                m[i], m[j] = m[j], m[i]
                for row in m:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((k for k in range(i + 1, n) if m[i][k] != 0), None)
                if j is None:
                    raise SingularFormError("degenerate symmetric form")
                for k in range(n):
                    m[i][k] += m[j][k]
                for k in range(n):
                    m[k][i] += m[k][j]
        pivot = m[i][i]
        sig += 1 if pivot > 0 else -1
        for k in range(i + 1, n):
            c = m[k][i] / pivot
            if c:
                for l in range(i, n):
                    m[k][l] -= c * m[i][l]
                for l in range(i, n):
                    m[l][k] -= c * m[l][i]
        i += 1
    return sig


# Gram matrix of the E8 root lattice (Dynkin chain 0-1-2-3-4-5-6 with node 7
# attached to node 4); even, positive definite, determinant 1.
E8_GRAM = IntMatrix(
    [
        [2, -1, 0, 0, 0, 0, 0, 0],
        [-1, 2, -1, 0, 0, 0, 0, 0],
        [0, -1, 2, -1, 0, 0, 0, 0],
        [0, 0, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, -1],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, 0],
        [0, 0, 0, 0, -1, 0, 0, 2],
    ]
)


# ---------------------------------------------------------------------------
# Quadratic forms over F2
# ---------------------------------------------------------------------------


class F2QuadForm(_Record):
    """q(v) = v^T M v mod 2 with M upper triangular over F2."""

    __slots__ = _fields = ("matrix",)

    def __init__(self, matrix: IntMatrix):
        if matrix.rows != matrix.cols:
            raise ValueError("form matrix must be square")
        for i in range(matrix.rows):
            for j in range(i):
                if matrix[i, j] % 2:
                    raise ValueError("form matrix must be upper triangular mod 2")
        self._set(matrix)

    @property
    def dim(self):
        return self.matrix.rows

    def linking_form(self) -> "LinkingForm":
        """q/2 on (Z/2)^dim: a_i = M_ii / 2 and b_ij = M_ij / 2, i < j."""
        m, n = self.matrix, self.dim
        pairs = {(i, j): m[i, j] for i in range(n) for j in range(i + 1, n)}
        return LinkingForm._over(FgAbGroup(0, (2,) * n), 2, [m[i, i] for i in range(n)], pairs)


def arf(f: F2QuadForm) -> int:
    """The Arf invariant: beta of q/2 is 4 Arf(q) (Brown, Ann. Math. 95, 1972).

    The bound on the 2^dim values is checked before q/2 is built.  beta
    carries the degeneracy test: an odd-dimensional or degenerate q fails
    the Gauss-sum norm identity.
    """
    _check_enumerable(1 << f.dim)
    return brown_kervaire(f.linking_form()) // 4


# ---------------------------------------------------------------------------
# Quadratic linking forms on finite 2-groups
# ---------------------------------------------------------------------------

class LinkingForm(_Slotted):
    """A quadratic linking form on a finite 2-group, stored as its generator data in integers over one den.

    q(g_i) = a[i] / den and b(g_i, g_j) = pairs[(i, j)] / den mod 1 (i < j, 0 if left out, den least) for
    the invariant-factor generators g_i of orders d_i, which give elements their coordinates.  q(x) =
    sum_i x_i^2 a_i + sum_{i<j} x_i x_j b_ij mod 1 is a function on the group exactly when it descends:
    gcd(d_i, 2) d_i a_i and gcd(d_i, d_j) b_ij vanish mod 1, so den is a power of two.
    """

    __slots__ = ("group", "den", "a", "pairs", "_values")

    def __init__(self, group: FgAbGroup, a, b):
        a, b = [Fraction(v) for v in a], {ij: Fraction(v) for ij, v in b.items()}
        den = lcm(*(v.denominator for v in [*a, *b.values()]))
        self._set(*_checked(group, den, [int(v * den) for v in a], {ij: int(v * den) for ij, v in b.items()}))

    @classmethod
    def _over(cls, group: FgAbGroup, den: int, a, pairs) -> "LinkingForm":
        """The form whose a and pairs are the integers given, over den, as ``_checked`` reduces them."""
        return _restore(cls, _checked(group, den, a, pairs))

    # -- evaluation -----------------------------------------------------------

    def q(self, x) -> Fraction:
        v = sum(xi * xi * ai for xi, ai in zip(x, self.a))
        v += sum(x[i] * x[j] * bij for (i, j), bij in self.pairs.items())
        return Fraction(v % self.den, self.den)

    def b(self, x, y) -> Fraction:
        """Polarization b(x, y) = q(x+y) - q(x) - q(y) mod 1."""
        return (self.q([s + t for s, t in zip(x, y)]) - self.q(x) - self.q(y)) % 1

    def _numerators(self) -> list:
        """den q(x) mod den for the n-th x of ``group.elements()``: the one enumeration, kept, and its bound check."""
        if self._values is None:
            _check_enumerable(self.group.order())
            d = self.group.torsion
            values = [0]  # den q(x) for x on the first m generators, in product order
            for m, am in enumerate(self.a):
                # q(x + t g_m) = q(x) + t^2 a_m + t b(x, g_m), b(x, g_m) = sum_i x_i b_im
                linear = [0]
                for i in range(m):
                    c = self.pairs.get((i, m), 0)
                    linear = [u + t * c for u in linear for t in range(d[i])]
                values = [v + t * (t * am + u) for v, u in zip(values, linear) for t in range(d[m])]
            object.__setattr__(self, "_values", [v % self.den for v in values])
        return self._values

    @property
    def qvals(self) -> dict:
        """The value table {coordinates: q(x)}."""
        return {x: Fraction(v, self.den) for x, v in zip(self.group.elements(), self._numerators())}

    def direct_sum(self, other: "LinkingForm") -> "LinkingForm":
        """The orthogonal sum, its generators permuted into ascending order."""
        k, den, d = len(self.group.torsion), lcm(self.den, other.den), self.group.torsion + other.group.torsion
        order = sorted(range(len(d)), key=d.__getitem__)
        position = {old: new for new, old in enumerate(order)}
        a = [v * den // self.den for v in self.a] + [v * den // other.den for v in other.a]
        pairs = [(ij, v * den // self.den) for ij, v in self.pairs.items()]
        pairs += [((i + k, j + k), v * den // other.den) for (i, j), v in other.pairs.items()]
        return LinkingForm._over(FgAbGroup(0, tuple(d[i] for i in order)), den, [a[i] for i in order],
                                 {tuple(sorted((position[i], position[j]))): v for (i, j), v in pairs})

    # -- builders ----------------------------------------------------------------

    @classmethod
    def cyclic(cls, k: int, a: int) -> "LinkingForm":
        """q(x) = a x^2 / 2^(k+1) on Z/2^k; nondegenerate for odd a."""
        return cls._over(FgAbGroup(0, (1 << k,)), 2 << k, [a], {})

    @classmethod
    def hyperbolic(cls, k: int) -> "LinkingForm":
        """q(x, y) = x y / 2^k on (Z/2^k)^2."""
        return cls._over(FgAbGroup(0, (1 << k, 1 << k)), 1 << k, [0, 0], {(0, 1): 1})

    @classmethod
    def _from_values(cls, group: FgAbGroup, distinct, index) -> "LinkingForm":
        """The form whose value at the n-th of ``group.elements()`` is distinct[index[n]], none where index[n] is None.

        a_i and b_ij are read at the positions of g_i and g_i + g_j.  Each distinct value p / r maps once to its
        residue p den / r mod den, none where r does not divide den, and one list comparison with the form's
        numerators decides the table; only a table that differs is walked, to name the first element where it does.
        The form keeps its numerators, so ``gauss_sum`` counts this list and enumerates nothing again.
        """
        d, k = group.torsion, len(group.torsion)
        pairs = list(itertools.combinations(range(k), 2))
        values = []
        for gens in [(i,) for i in range(k)] + pairs:  # g_i, then g_i + g_j
            x = tuple(int(i in gens) for i in range(k))
            n = index[_position(x, d)]
            if n is None:
                raise ValueError(f"table has no value for the element {x}")
            values.append(distinct[n])
        den = lcm(*(v.denominator for v in values))
        a = [v.numerator * (den // v.denominator) for v in values]
        form = cls._over(group, den, a[:k], {(i, j): n - a[i] - a[j] for (i, j), n in zip(pairs, a[k:])})
        den, numerators = form.den, form._numerators()
        residue = {i: v.numerator * (den // v.denominator) % den
                   for i, v in enumerate(distinct) if den % v.denominator == 0}
        if list(map(residue.get, index)) != numerators:
            for x, i, n in zip(group.elements(), index, numerators):
                if i is None:
                    raise ValueError(f"table has no value for the element {x}")
                if residue.get(i) != n:
                    raise ValueError(f"table is not quadratic: q{x} = {distinct[i]}, not {Fraction(n, den)}")
        return form

    # -- serialisation -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "factors": list(self.group.torsion),
            "q": {key: str(v) for key, v in zip(_key_texts(self.group.torsion), self.qvals.values())},
        }

    @classmethod
    def from_json(cls, doc) -> "LinkingForm":
        """The form of a ``to_json`` document, its values placed by element position.

        The keys ``to_json`` writes, in its order, are placed by one list comparison; otherwise each such key
        by one lookup, any other through ``_parse_key``.  The key texts are listed only when the file holds one
        key per element, so a large group with a short table is refused before it is enumerated.  Each distinct
        value is parsed once, in document order.
        """
        group = FgAbGroup.from_divisors(doc["factors"])
        if list(doc["factors"]) != list(group.torsion):
            raise ValueError(f"factors {doc['factors']} must be the ascending invariant "
                             f"factors {list(group.torsion)} that the keys are written in")
        items = doc["q"].items()
        d, order = group.torsion, group.order()
        texts = _key_texts(d) if len(items) == order else None
        parsed, distinct = {}, []  # value in the file -> its index in distinct, the values parsed
        if list(doc["q"]) == texts:
            return cls._from_values(group, distinct, [_parse_once(parsed, distinct, val) for val in doc["q"].values()])
        index = dict(zip(texts or (), range(order)))
        named = {}  # element position, or coordinates naming no element -> index of its value
        for key, val in items:
            n = index[key] if key in index else _position(_parse_key(key), d)
            named[n] = _parse_once(parsed, distinct, val)
        if len(named) != len(items):
            raise ValueError("two keys name the same element")
        if len(named) != order:
            raise ValueError(f"table holds {len(named)} values for {order} elements")
        return cls._from_values(group, distinct, [named.get(n) for n in range(order)])

    def __eq__(self, other):
        if not isinstance(other, LinkingForm):
            return NotImplemented
        return (self.group, self.den, self.a, self.pairs) == (other.group, other.den, other.a, other.pairs)

    def __repr__(self):
        return f"LinkingForm(group={self.group.render()!r})"


def _checked(group, den, a, pairs) -> tuple:
    """The slots of the form q(g_i) = a[i] / den, b(g_i, g_j) = pairs[(i, j)] / den, checked, over the least den."""
    if group.free_rank:
        raise ValueError("linking forms live on finite groups")
    if not group.is_two_primary():
        raise ValueError("linking forms live on 2-groups")
    d, k = group.torsion, len(group.torsion)
    if len(a) != k or not all(0 <= i < j < k for i, j in pairs):
        raise ValueError(f"generator data must be {k} values and pairs (i, j) with 0 <= i < j < {k}")
    if any(gcd(di, 2) * di * ai % den for di, ai in zip(d, a)) or any(
            gcd(d[i], d[j]) * v % den for (i, j), v in pairs.items()):
        raise ValueError("generator data does not descend to a quadratic function")
    g = gcd(den, *a, *pairs.values())
    return (group, den // g, tuple(v // g % (den // g) for v in a),
            {ij: v // g % (den // g) for ij, v in pairs.items() if v % den}, None)


def _check_enumerable(order: int):
    """Refuse a group of more elements than the desk-scale bound lets a form enumerate."""
    if order > DEFAULT_ENUMERATION_BOUND:
        raise EnumerationBoundError("group order exceeds the desk-scale bound")


def _parse_value(val) -> Fraction:
    """Fraction(val): the documented strings p/q and p, in ASCII digits, are split and read with int.

    Every other value goes to Fraction, so the values accepted, and the
    error raised for the others, are Fraction's.
    """
    if type(val) is str:
        num, slash, den = val.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit() and int(den)):
            return Fraction(int(num), int(den) if slash else 1)
    return Fraction(val)


def _parse_once(parsed, distinct, val) -> int:
    """The index in ``distinct`` of _parse_value(val), appended on first sight and memoised in ``parsed``."""
    try:
        return parsed[val]
    except KeyError:
        n = parsed[val] = len(distinct)
    except TypeError:  # unhashable, such as a list: no number, so _parse_value raises
        n = len(distinct)
    distinct.append(_parse_value(val))
    return n


def _parse_key(key) -> tuple:
    """The coordinates a form key such as "(1,0)" spells, each read by ``_parse_int``."""
    return tuple(map(_parse_int, filter(None, key.strip("()").split(","))))


def _key_texts(d) -> list:
    """The key ``to_json`` writes for each element of the group with invariant factors d, in ``elements()`` order."""
    texts = ["("]
    for i, di in enumerate(d):
        digits = [f"{c}," for c in range(di)] if i + 1 < len(d) else [f"{c})" for c in range(di)]
        texts = [t + s for t in texts for s in digits]
    return texts if d else ["()"]


def _position(x, d):
    """The index of the element x in ``elements()`` order, or x itself when it names no element."""
    if len(x) != len(d) or not all(0 <= xi < di for xi, di in zip(x, d)):
        return x
    n = 0
    for xi, di in zip(x, d):
        n = n * di + xi
    return n


def nondegenerate(L: LinkingForm) -> bool:
    """x -> b(x, .) is injective into the character group.

    Characters chi are identified with the group through
    chi -> (d_j chi(g_j))_j, so the adjoint is M[j][i] = d_j b(g_i, g_j),
    with b(g_i, g_i) = 2 q(g_i); the group being finite, M is injective
    exactly when it is onto.
    """
    d, k = L.group.torsion, len(L.group.torsion)
    b = {**{(i, i): 2 * a for i, a in enumerate(L.a)}, **L.pairs}  # over L.den, by which d_j b divides exactly
    M = [[d[j] * b.get((min(i, j), max(i, j)), 0) // L.den for i in range(k)] for j in range(k)]
    return map_cokernel_group(IntMatrix(M, shape=(k, k)), L.group, L.group).is_trivial()


def gauss_sum(L: LinkingForm) -> tuple:
    """Exact Gauss sum of the linking form: its coordinates in the power basis 1, zeta, ..., zeta^(N/2 - 1) of Z[zeta_N].

    N = 8 den for the form's denominator den, and zeta^(N/2) = -1,
    so q(x) = v / den adds 1 at position 8 v, or -1 at 8 v - N/2 when 8 v >= N/2.
    """
    half = 4 * L.den
    s = [0] * half
    for v, count in Counter(L._numerators()).items():
        if 8 * v < half:
            s[8 * v] += count
        else:
            s[8 * v - half] -= count
    return tuple(s)


def brown_kervaire(L: LinkingForm) -> int:
    """The Z/8-valued Gauss-sum invariant beta.

    Solves sum_x exp(2 pi i q(x)) = |G|^(1/2) zeta_8^beta exactly in Z[zeta_N].
    The power basis is a Z-basis of the ring, so the two sides agree exactly
    when their coordinates do: with |G| = 2^t the right side is
    2^(t/2) zeta_8^beta, or 2^((t-1)/2) (zeta_8^(beta+1) + zeta_8^(beta-1))
    for odd t, since sqrt(2) = zeta_8 + zeta_8^(-1), and each power of
    zeta_8 = zeta^(N/8) is +-1 at one position.  Where the polarisation has
    radical R, |sum|^2 is |G| |R| when q vanishes on R and 0 otherwise, so
    the Milgram norm identity |sum|^2 = |G| holds exactly when the form is
    nondegenerate, and then Milgram's formula gives a beta; where no beta
    satisfies it the form is degenerate and an error is raised.
    """
    s = gauss_sum(L)
    half, t = len(s), L.group.order().bit_length() - 1
    nonzero = {k: c for k, c in enumerate(s) if c}

    def root(e, c):
        """c zeta_8^e as (position, coordinate)."""
        p = e % 8 * half // 4
        return (p, c) if p < half else (p - half, -c)

    shifts = (1, -1) if t % 2 else (0,)
    for beta in range(8):
        if dict(root(beta + e, 1 << t // 2) for e in shifts) == nonzero:
            return beta
    raise DegenerateFormError("Gauss-sum norm identity fails; form is degenerate")
