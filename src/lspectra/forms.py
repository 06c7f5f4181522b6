"""Invariants of integral symmetric forms, F2 quadratic forms and
quadratic linking forms on finite abelian 2-groups.

The Brown-Kervaire invariant is computed from the Gauss sum
``sum_x exp(2 pi i q(x)) = |G|^(1/2) exp(2 pi i beta / 8)`` evaluated
exactly in a ring of 2-power cyclotomic integers; no floating point enters
any invariant.  The Arf invariant of an F2 quadratic form q is beta of the
linking form q/2, divided by 4, so every value is enumerated by one routine.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .abelian import (
    DEFAULT_ENUMERATION_BOUND,
    EnumerationBoundError,
    FgAbGroup,
    IntMatrix,
    _parse_int,
    _Record,
    map_cokernel_group,
)

__all__ = [
    "SymForm",
    "F2QuadForm",
    "LinkingForm",
    "CycEight",
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
        """q/2 on (Z/2)^dim: a_i = M_ii / 2, and b_ij = 1/2 for each odd M_ij, i < j."""
        m, n = self.matrix, self.dim
        odd = {(i, j): Fraction(1, 2) for i in range(n) for j in range(i + 1, n) if m[i, j] % 2}
        return LinkingForm(FgAbGroup(0, (2,) * n), [Fraction(m[i, i], 2) for i in range(n)], odd)


def arf(f: F2QuadForm) -> int:
    """The Arf invariant: beta of q/2 is 4 Arf(q) (Brown, Ann. Math. 95, 1972).

    The bound on the 2^dim values is checked before q/2 is built.  beta
    carries the degeneracy test: an odd-dimensional or degenerate q fails
    the Gauss-sum norm identity.
    """
    _check_enumerable(1 << f.dim)
    return brown_kervaire(f.linking_form()) // 4


# ---------------------------------------------------------------------------
# Cyclotomic integers of 2-power conductor
# ---------------------------------------------------------------------------


class CycEight:
    """Element of Z[zeta_N] for a 2-power conductor N (N = 8 by default).

    Coordinates are taken in the power basis 1, zeta, ..., zeta^(N/2 - 1)
    with zeta^(N/2) = -1; sums and products are exact integer arithmetic
    and stay inside the ring.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, coeffs, conductor=8):
        if conductor < 2 or conductor & (conductor - 1):
            raise ValueError("conductor must be a power of two >= 2")
        dim = conductor // 2
        cs = [int(c) for c in coeffs]
        if len(cs) > dim:
            raise ValueError("too many coordinates")
        cs += [0] * (dim - len(cs))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("CycEight is immutable")

    @classmethod
    def zero(cls, conductor=8):
        return cls([], conductor)

    @classmethod
    def one(cls, conductor=8):
        return cls([1], conductor)

    @classmethod
    def root_power(cls, k, conductor=8):
        """zeta_N^k, reduced into the power basis."""
        dim = conductor // 2
        k %= conductor
        sign = 1
        if k >= dim:
            k -= dim
            sign = -1
        coeffs = [0] * dim
        coeffs[k] = sign
        return cls(coeffs, conductor)

    def _check(self, other):
        if self.conductor != other.conductor:
            raise ValueError("conductor mismatch")

    def __add__(self, other):
        self._check(other)
        return CycEight([a + b for a, b in zip(self.coeffs, other.coeffs)], self.conductor)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycEight([other * a for a in self.coeffs], self.conductor)
        self._check(other)
        dim = self.conductor // 2
        out = [0] * dim
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                k = i + j
                if k < dim:
                    out[k] += a * b
                else:
                    out[k - dim] -= a * b
        return CycEight(out, self.conductor)

    __rmul__ = __mul__

    def is_integer(self):
        return all(c == 0 for c in self.coeffs[1:])

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_integer() and self.coeffs[0] == other
        if not isinstance(other, CycEight):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

    def __repr__(self):
        return f"CycEight({list(self.coeffs)!r}, conductor={self.conductor})"


# ---------------------------------------------------------------------------
# Quadratic linking forms on finite 2-groups
# ---------------------------------------------------------------------------

class LinkingForm:
    """A quadratic linking form on a finite 2-group, stored as its generator data.

    ``a[i] = q(g_i)`` and ``pairs[(i, j)] = b(g_i, g_j)`` (i < j, 0 if left
    out) mod 1, for the invariant-factor generators g_i of orders d_i, which
    also give elements their coordinates.  q(x) = sum_i x_i^2 a_i +
    sum_{i<j} x_i x_j b_ij mod 1 is a function on the group exactly when it
    descends: d_i^2 a_i, 2 d_i a_i, d_i b_ij and d_j b_ij vanish mod 1, that
    is, gcd(d_i, 2) d_i a_i and gcd(d_i, d_j) b_ij do.
    """

    __slots__ = ("group", "a", "pairs")

    def __init__(self, group: FgAbGroup, a, b):
        if group.free_rank:
            raise ValueError("linking forms live on finite groups")
        if not group.is_two_primary():
            raise ValueError("linking forms live on 2-groups")
        d = group.torsion
        a = tuple(Fraction(v) % 1 for v in a)
        pairs = {(i, j): Fraction(v) % 1 for (i, j), v in b.items()}
        if any((gcd(di, 2) * di * ai) % 1 for di, ai in zip(d, a)) or any(
            (gcd(d[i], d[j]) * v) % 1 for (i, j), v in pairs.items()
        ):
            raise ValueError("generator data does not descend to a quadratic function")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "pairs", {ij: v for ij, v in pairs.items() if v})

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("LinkingForm is immutable")

    # -- evaluation -----------------------------------------------------------

    def q(self, x) -> Fraction:
        v = sum(xi * xi * ai for xi, ai in zip(x, self.a))
        v += sum(x[i] * x[j] * bij for (i, j), bij in self.pairs.items())
        return Fraction(v) % 1

    def b(self, x, y) -> Fraction:
        """Polarization b(x, y) = q(x+y) - q(x) - q(y) mod 1."""
        return (self.q([s + t for s, t in zip(x, y)]) - self.q(x) - self.q(y)) % 1

    def _numerators(self):
        """(den, values) with q(x) = values[n] / den for the n-th of ``group.elements()``.

        den, the common denominator of the data, is also the largest denominator
        of a value.  This is the one enumeration of the values, so the one place
        the desk-scale bound is checked.
        """
        _check_enumerable(self.group.order())
        d = self.group.torsion
        den = lcm(*(v.denominator for v in self.a), *(v.denominator for v in self.pairs.values()))
        values = [0]  # den q(x) for x on the first m generators, in product order
        for m, am in enumerate(self.a):
            # q(x + t g_m) = q(x) + t^2 a_m + t b(x, g_m), b(x, g_m) = sum_i x_i b_im
            linear = [0]
            for i in range(m):
                c = int(self.pairs.get((i, m), 0) * den)
                linear = [u + t * c for u in linear for t in range(d[i])]
            s = int(am * den)
            values = [v + t * (t * s + u) for v, u in zip(values, linear) for t in range(d[m])]
        return den, [v % den for v in values]

    @property
    def qvals(self) -> dict:
        """The value table {coordinates: q(x)}."""
        den, values = self._numerators()
        return {x: Fraction(v, den) for x, v in zip(self.group.elements(), values)}

    def direct_sum(self, other: "LinkingForm") -> "LinkingForm":
        """The orthogonal sum, its generators permuted into ascending order."""
        k = len(self.group.torsion)
        d = self.group.torsion + other.group.torsion
        order = sorted(range(len(d)), key=d.__getitem__)
        position = {old: new for new, old in enumerate(order)}
        a = self.a + other.a
        pairs = list(self.pairs.items()) + [((i + k, j + k), v) for (i, j), v in other.pairs.items()]
        return LinkingForm(FgAbGroup(0, tuple(d[i] for i in order)), [a[i] for i in order],
                           {tuple(sorted((position[i], position[j]))): v for (i, j), v in pairs})

    # -- builders ----------------------------------------------------------------

    @classmethod
    def cyclic(cls, k: int, a: int) -> "LinkingForm":
        """q(x) = a x^2 / 2^(k+1) on Z/2^k; nondegenerate for odd a."""
        d = 1 << k
        return cls(FgAbGroup(0, (d,)), [Fraction(a, 2 * d)], {})

    @classmethod
    def hyperbolic(cls, k: int) -> "LinkingForm":
        """q(x, y) = x y / 2^k on (Z/2^k)^2."""
        d = 1 << k
        return cls(FgAbGroup(0, (d, d)), [0, 0], {(0, 1): Fraction(1, d)})

    @classmethod
    def from_table(cls, group: FgAbGroup, qvals) -> "LinkingForm":
        """The form whose value table is ``qvals`` ({coordinates: value}).

        A ValueError is raised unless the table holds one value per element,
        and names the first element missing from it or where it is not the
        polynomial of its generator data (``_from_values``).
        """
        if len(qvals) != group.order():
            raise ValueError(f"table holds {len(qvals)} values for {group.order()} elements")
        return cls._from_values(group, [qvals.get(x) for x in group.elements()])

    @classmethod
    def _from_values(cls, group: FgAbGroup, values) -> "LinkingForm":
        """The form whose value at the n-th of ``group.elements()`` is values[n], None where the table has none.

        a_i and b_ij are read at the positions of g_i and g_i + g_j, and every
        value p / r is then compared in integers with the polynomial's n / den:
        p / r = n / den mod 1 is tested as r den dividing p den - n r.  A
        Fraction's (p, r) is two attributes, read per element: a memo keyed
        by Fraction would hash each one, which costs more than the test.
        """
        d, k = group.torsion, len(group.torsion)

        def q(*gens):
            x = tuple(int(i in gens) for i in range(k))
            v = values[_position(x, d)]
            if v is None:
                raise ValueError(f"table has no value for the element {x}")
            return Fraction(v)

        a = [q(i) for i in range(k)]
        b = {(i, j): q(i, j) - a[i] - a[j] for i, j in itertools.combinations(range(k), 2)}
        form = cls(group, a, b)
        den, numerators = form._numerators()
        for x, v, n in zip(group.elements(), values, numerators):
            if v is None:
                raise ValueError(f"table has no value for the element {x}")
            p, r = v.as_integer_ratio()
            if (p * den - n * r) % (r * den):
                raise ValueError(f"table is not quadratic: q{x} = {v}, not {Fraction(n, den)}")
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

        A key ``to_json`` writes is placed by one lookup, any other through
        ``_parse_key``; each distinct value is parsed once, in document order.
        The key texts are listed only when the file holds one key per element,
        so a large group with a short table is refused before it is enumerated.
        """
        group = FgAbGroup.from_divisors(doc["factors"])
        if list(doc["factors"]) != list(group.torsion):
            raise ValueError(f"factors {doc['factors']} must be the ascending invariant "
                             f"factors {list(group.torsion)} that the keys are written in")
        items = doc["q"].items()
        d, order = group.torsion, group.order()
        index = dict(zip(_key_texts(d), range(order))) if len(items) == order else {}
        parsed = {}  # value in the file -> its Fraction
        named = {}  # element position, or coordinates naming no element -> value
        for key, val in items:
            n = index.get(key)
            if n is None:
                n = _position(_parse_key(key), d)
            named[n] = _parse_once(parsed, val)
        if len(named) != len(items):
            raise ValueError("two keys name the same element")
        if len(named) != order:
            raise ValueError(f"table holds {len(named)} values for {order} elements")
        return cls._from_values(group, [named.get(n) for n in range(order)])

    def __eq__(self, other):
        if not isinstance(other, LinkingForm):
            return NotImplemented
        return (self.group, self.a, self.pairs) == (other.group, other.a, other.pairs)

    def __repr__(self):
        return f"LinkingForm(group={self.group.render()!r})"


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


def _parse_once(parsed, val) -> Fraction:
    """_parse_value(val), memoised in ``parsed`` for a hashable val."""
    try:
        return parsed[val]
    except KeyError:
        value = parsed[val] = _parse_value(val)
        return value
    except TypeError:  # unhashable, such as a list: no number, so _parse_value raises
        return _parse_value(val)


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
    b = {**{(i, i): 2 * a for i, a in enumerate(L.a)}, **L.pairs}
    M = [[int(d[j] * b.get((min(i, j), max(i, j)), 0)) for i in range(k)] for j in range(k)]
    return map_cokernel_group(IntMatrix(M, shape=(k, k)), L.group, L.group).is_trivial()


def gauss_sum(L: LinkingForm, conductor=None) -> CycEight:
    """Exact Gauss sum of the linking form in Z[zeta_N]."""
    den, values = L._numerators()
    N = conductor or 8 * den
    if N % (2 * den) or N % 8:
        raise ValueError("conductor too small for the value table")
    # count the exponents of zeta_N, then fold with zeta^(k + N/2) = -zeta^k
    counts = [0] * N
    step = N // den
    for v in values:
        counts[v * step] += 1
    half = N // 2
    return CycEight([counts[k] - counts[k + half] for k in range(half)], N)


def brown_kervaire(L: LinkingForm) -> int:
    """The Z/8-valued Gauss-sum invariant beta.

    Solves sum_x exp(2 pi i q(x)) = |G|^(1/2) zeta_8^beta exactly in the
    cyclotomic ring.  Where the polarisation has radical R, |sum|^2 is
    |G| |R| when q vanishes on R and 0 otherwise, so the Milgram norm
    identity |sum|^2 = |G| holds exactly when the form is nondegenerate,
    and then Milgram's formula gives a beta; where no beta satisfies it the
    form is degenerate and an error is raised.
    """
    order = L.group.order()
    if order == 1:
        return 0
    s = gauss_sum(L)
    t = order.bit_length() - 1
    n = s.conductor
    if t % 2 == 0:
        magnitude = CycEight([1 << (t // 2)], n)
    else:
        # sqrt(2) = zeta_8 + zeta_8^(-1) lies in the ring
        sqrt2 = CycEight.root_power(n // 8, n) + CycEight.root_power(-(n // 8), n)
        magnitude = (1 << ((t - 1) // 2)) * sqrt2
    for beta in range(8):
        if magnitude * CycEight.root_power(beta * (n // 8), n) == s:
            return beta
    raise DegenerateFormError("Gauss-sum norm identity fails; form is degenerate")
