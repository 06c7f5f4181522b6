"""Invariants of integral symmetric forms, F2 quadratic forms and
quadratic linking forms on finite abelian 2-groups.

The Brown-Kervaire invariant is computed from the Gauss sum
``sum_x exp(2 pi i q(x)) = |G|^(1/2) exp(2 pi i beta / 8)`` evaluated
exactly in a ring of 2-power cyclotomic integers; no floating point enters
any invariant.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .abelian import FgAbGroup, IntMatrix

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
    "check_quadratic",
    "nondegenerate",
    "two_rank_parity",
    "E8_GRAM",
]


class SingularFormError(ValueError):
    """Symmetric form with vanishing determinant."""


class DegenerateFormError(ValueError):
    """Quadratic or linking form whose polarization is degenerate."""


# ---------------------------------------------------------------------------
# Integral symmetric forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymForm:
    gram: IntMatrix

    def __post_init__(self):
        g = self.gram
        if g.rows != g.cols:
            raise ValueError("gram matrix must be square")
        if g != g.transpose():
            raise ValueError("gram matrix must be symmetric")

    @property
    def dim(self):
        return self.gram.rows

    def block_sum(self, other: "SymForm") -> "SymForm":
        n, m = self.dim, other.dim
        rows = []
        for i in range(n):
            rows.append(list(self.gram.entries[i]) + [0] * m)
        for i in range(m):
            rows.append([0] * n + list(other.gram.entries[i]))
        return SymForm(IntMatrix(rows, shape=(n + m, n + m)))


def signature(f: SymForm) -> int:
    """Signature p - q computed by exact rational congruence diagonalisation.

    Zero pivots with a nonzero off-diagonal partner are handled by the
    standard hyperbolic row+column addition, which never changes the
    signature; a wholly zero remaining block means the form is singular.
    """
    n = f.dim
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


@dataclass(frozen=True)
class F2QuadForm:
    """q(v) = v^T M v mod 2 with M upper triangular over F2."""

    matrix: IntMatrix

    def __post_init__(self):
        m = self.matrix
        if m.rows != m.cols:
            raise ValueError("form matrix must be square")
        for i in range(m.rows):
            for j in range(i):
                if m[i, j] % 2:
                    raise ValueError("form matrix must be upper triangular mod 2")

    @property
    def dim(self):
        return self.matrix.rows

    def value(self, v) -> int:
        m = self.matrix
        total = 0
        for i in range(self.dim):
            if v[i] % 2 == 0:
                continue
            for j in range(i, self.dim):
                if v[j] % 2:
                    total += m[i, j]
        return total % 2

    def polarization(self) -> IntMatrix:
        m = self.matrix
        t = m.transpose()
        return IntMatrix(
            [[(m[i, j] + t[i, j]) % 2 for j in range(self.dim)] for i in range(self.dim)]
        )

    def polarization_nondegenerate(self) -> bool:
        b = [list(r) for r in self.polarization().entries]
        n = self.dim
        rank = 0
        for c in range(n):
            piv = next((r for r in range(rank, n) if b[r][c] % 2), None)
            if piv is None:
                continue
            b[rank], b[piv] = b[piv], b[rank]
            for r in range(n):
                if r != rank and b[r][c] % 2:
                    b[r] = [(x + y) % 2 for x, y in zip(b[r], b[rank])]
            rank += 1
        return rank == n

    def orthogonal_sum(self, other: "F2QuadForm") -> "F2QuadForm":
        n, m = self.dim, other.dim
        rows = []
        for i in range(n):
            rows.append(list(self.matrix.entries[i]) + [0] * m)
        for i in range(m):
            rows.append([0] * n + list(other.matrix.entries[i]))
        return F2QuadForm(IntMatrix(rows, shape=(n + m, n + m)))


def arf(f: F2QuadForm) -> int:
    """Democratic Arf invariant: the majority value of q over F2^dim."""
    if f.dim % 2:
        raise DegenerateFormError("odd dimension")
    if not f.polarization_nondegenerate():
        raise DegenerateFormError("degenerate polarization")
    zeros = 0
    for v in _bits(f.dim):
        if f.value(v) == 0:
            zeros += 1
    half = 1 << (f.dim - 1)
    if zeros == half + (1 << (f.dim // 2 - 1)):
        return 0
    if zeros == half - (1 << (f.dim // 2 - 1)):
        return 1
    raise DegenerateFormError("value distribution is not that of a nondegenerate form")


def _bits(n):
    for k in range(1 << n):
        yield [(k >> i) & 1 for i in range(n)]


# ---------------------------------------------------------------------------
# Cyclotomic integers of 2-power conductor
# ---------------------------------------------------------------------------


class CycEight:
    """Element of Z[zeta_N] for a 2-power conductor N (N = 8 by default).

    Coordinates are taken in the power basis 1, zeta, ..., zeta^(N/2 - 1)
    with zeta^(N/2) = -1; all arithmetic is exact integer arithmetic, and
    conjugation and |.|^2 stay inside the ring.
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

    def __sub__(self, other):
        self._check(other)
        return CycEight([a - b for a, b in zip(self.coeffs, other.coeffs)], self.conductor)

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

    def conjugate(self) -> "CycEight":
        """Complex conjugation zeta -> zeta^(-1)."""
        dim = self.conductor // 2
        out = [0] * dim
        out[0] = self.coeffs[0]
        for i in range(1, dim):
            # zeta^(-i) = -zeta^(dim - i)
            out[dim - i] -= self.coeffs[i]
        return CycEight(out, self.conductor)

    def norm_squared(self) -> "CycEight":
        return self * self.conjugate()

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

LINKING_ORDER_BOUND = 1 << 12


class LinkingForm:
    """A dyadic-rational-mod-1-valued function on a finite abelian 2-group.

    The full value table is stored: the group is desk scale by design.
    Keys are coordinate tuples against the invariant-factor generators.
    """

    __slots__ = ("group", "qvals")

    def __init__(self, group: FgAbGroup, qvals):
        if group.free_rank:
            raise ValueError("linking forms live on finite groups")
        if not group.is_two_primary():
            raise ValueError("linking forms live on 2-groups")
        if group.order() > LINKING_ORDER_BOUND:
            raise ValueError("group order exceeds the desk-scale bound")
        table = {}
        for x in group.elements():
            v = qvals[tuple(x)]
            v = Fraction(v) % 1
            d = v.denominator
            if d & (d - 1):
                raise ValueError("linking form values must be dyadic")
            table[tuple(x)] = v
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "qvals", table)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("LinkingForm is immutable")

    # -- evaluation -----------------------------------------------------------

    def q(self, x) -> Fraction:
        return self.qvals[self._reduce(x)]

    def _reduce(self, x):
        return tuple(a % d for a, d in zip(x, self.group.torsion))

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.group.torsion))

    def b(self, x, y) -> Fraction:
        """Polarization b(x, y) = q(x+y) - q(x) - q(y) mod 1."""
        return (self.q(self.add(x, y)) - self.q(x) - self.q(y)) % 1

    def elements(self):
        return self.group.elements()

    def direct_sum(self, other: "LinkingForm") -> "LinkingForm":
        divisors = list(self.group.torsion) + list(other.group.torsion)
        group = FgAbGroup.from_divisors(divisors)
        # from_divisors may reorder; rebuild against the canonical order
        order_map = sorted(range(len(divisors)), key=lambda i: (divisors[i], i))
        qvals = {}
        k1 = len(self.group.torsion)
        for x in group.elements():
            orig = [0] * len(divisors)
            for pos, i in enumerate(order_map):
                orig[i] = x[pos]
            left = tuple(orig[:k1])
            right = tuple(orig[k1:])
            qvals[x] = (self.q(left) + other.q(right)) % 1
        return LinkingForm(group, qvals)

    # -- builders ----------------------------------------------------------------

    @classmethod
    def cyclic(cls, k: int, a: int) -> "LinkingForm":
        """q(x) = a x^2 / 2^(k+1) on Z/2^k; nondegenerate for odd a."""
        d = 1 << k
        return cls(FgAbGroup(0, (d,)), _quadratic_table((d,), [Fraction(a, 2 * d)], {}))

    @classmethod
    def hyperbolic(cls, k: int) -> "LinkingForm":
        """q(x, y) = x y / 2^k on (Z/2^k)^2."""
        d = 1 << k
        return cls(FgAbGroup(0, (d, d)), _quadratic_table((d, d), [0, 0], {(0, 1): Fraction(1, d)}))

    @classmethod
    def skew_unit(cls, k: int) -> "LinkingForm":
        """q(x, y) = (x^2 + x y + y^2) / 2^k on (Z/2^k)^2."""
        d = 1 << k
        a = [Fraction(1, d)] * 2
        return cls(FgAbGroup(0, (d, d)), _quadratic_table((d, d), a, {(0, 1): Fraction(1, d)}))

    # -- serialisation -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "factors": list(self.group.torsion),
            "q": {
                "(" + ",".join(map(str, x)) + ")": str(self.qvals[x])
                for x in sorted(self.qvals)
            },
        }

    @classmethod
    def from_json(cls, doc) -> "LinkingForm":
        if isinstance(doc, str):
            doc = json.loads(doc)
        group = FgAbGroup.from_divisors(doc["factors"])
        qvals = {}
        for key, val in doc["q"].items():
            coords = tuple(int(t) for t in key.strip("()").split(",") if t != "")
            qvals[coords] = Fraction(val)
        return cls(group, qvals)

    def __eq__(self, other):
        if not isinstance(other, LinkingForm):
            return NotImplemented
        return self.group == other.group and self.qvals == other.qvals

    def __repr__(self):
        return f"LinkingForm(group={self.group.render()!r})"


def _quadratic_table(torsion, a, b):
    """Values of q(x) = sum_i x_i^2 a_i + sum_{i<j} x_i x_j b_ij mod 1, or None.

    The one statement of a linking form through its generators g_i:
    a_i = q(g_i) and b = {(i, j): b(g_i, g_j)} for i < j, missing pairs 0.
    The polynomial is a function on Z/d_1 + ... + Z/d_k exactly when it
    descends: d_i^2 a_i, 2 d_i a_i, d_i b_ij and d_j b_ij vanish mod 1, that
    is, gcd(d_i, 2) d_i a_i and gcd(d_i, d_j) b_ij do; else None is returned.
    """
    a = [Fraction(v) for v in a]
    b = {ij: Fraction(v) for ij, v in b.items() if v}
    if any((gcd(d, 2) * d * ai) % 1 for d, ai in zip(torsion, a)):
        return None
    if any((gcd(torsion[i], torsion[j]) * v) % 1 for (i, j), v in b.items()):
        return None
    # exact integer evaluation over the common denominator
    den = lcm(*(v.denominator for v in a), *(v.denominator for v in b.values()))
    squares = [int(v * den) for v in a]
    cross = [(i, j, int(v * den)) for (i, j), v in b.items()]
    table = {}
    for x in itertools.product(*(range(d) for d in torsion)):
        val = sum(xi * xi * c for xi, c in zip(x, squares))
        val += sum(x[i] * x[j] * c for i, j, c in cross)
        table[x] = Fraction(val % den, den)
    return table


def _generators(k: int):
    return [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]


def check_quadratic(L: LinkingForm) -> bool:
    """q is the descending polynomial of a_i = q(g_i) and b_ij = b(g_i, g_j).

    That holds exactly when q(r x) = r^2 q(x) and b is bilinear.
    """
    gens = _generators(len(L.group.torsion))
    a = [L.q(g) for g in gens]
    b = {(i, j): L.b(gens[i], gens[j]) for i, j in itertools.combinations(range(len(gens)), 2)}
    return _quadratic_table(L.group.torsion, a, b) == L.qvals


def nondegenerate(L: LinkingForm) -> bool:
    """x -> b(x, .) is injective into the character group."""
    gens = _generators(len(L.group.torsion))
    for x in L.elements():
        if any(x):
            if all(L.b(x, g) == 0 for g in gens):
                return False
    return True


def two_rank_parity(L: LinkingForm) -> int:
    """log2 |G| mod 2, the second detecting invariant of the Witt class.

    This implements the reading "2-adic logarithm of the size of the
    domain" as the parity of log2 |G|; see the package docs for the caveat
    on normalisation.
    """
    order = L.group.order()
    return (order.bit_length() - 1) % 2


def gauss_sum(L: LinkingForm, conductor=None) -> CycEight:
    """Exact Gauss sum of the linking form in Z[zeta_N]."""
    maxden = max((v.denominator for v in L.qvals.values()), default=1)
    N = conductor or 8 * maxden
    if N % (2 * maxden) or N % 8:
        raise ValueError("conductor too small for the value table")
    # count the exponents of zeta_N, then fold with zeta^(k + N/2) = -zeta^k
    counts = [0] * N
    for v in L.qvals.values():
        counts[v.numerator * (N // v.denominator) % N] += 1
    half = N // 2
    return CycEight([counts[k] - counts[k + half] for k in range(half)], N)


def brown_kervaire(L: LinkingForm) -> int:
    """The Z/8-valued Gauss-sum invariant beta.

    Solves sum_x exp(2 pi i q(x)) = |G|^(1/2) zeta_8^beta exactly in the
    cyclotomic ring; if no beta satisfies it (equivalently the Milgram norm
    identity |sum|^2 = |G| fails) the form is degenerate and an error is
    raised.
    """
    order = L.group.order()
    if order == 1:
        return 0
    s = gauss_sum(L)
    if s.norm_squared() != order:
        raise DegenerateFormError("Gauss-sum norm identity fails; form is degenerate")
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
    raise DegenerateFormError("Gauss sum is not |G|^(1/2) times an 8th root of unity")
