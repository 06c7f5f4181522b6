"""Exact structure theory of finitely generated abelian groups.

Everything is integer arithmetic on arbitrary-precision ints: Smith normal
form with unimodular transforms, invariant-factor canonical forms, and the
functors Hom and Ext.  A group is always recorded by its isomorphism class
``Z^r + Z/d1 + ... + Z/dk`` with ``d1 | d2 | ... | dk``, so equality of
values is isomorphism of groups.  Canonical groups are interned, and Hom,
Ext and extension candidates are memoised by value, so each distinct group
computation runs once per process.  Kernels of maps, exactness and chain
homology all ask one question of a lattice N inside a lattice with basis L:
``_lattice_coordinates`` solves L·X = N through one Smith factorisation of
L, X is None exactly when N is not inside, and L/N is ``cokernel(X)``.
"""

from __future__ import annotations

import itertools
from bisect import insort
from functools import cache
from math import gcd, prod
from operator import add, index, mul, sub

__all__ = [
    "IntMatrix",
    "SnfResult",
    "FgAbGroup",
    "smith_normal_form",
    "cokernel",
    "cokernel_with_gens",
    "kernel_basis",
    "hom_group",
    "ext_group",
    "extension_candidates",
    "EnumerationBoundError",
]


class EnumerationBoundError(ValueError):
    """Raised when an exhaustive enumeration would exceed the desk-scale bound."""


class _Slotted:
    """An immutable value held in its ``__slots__``, which ``_set`` fills in order; assignment raises.

    pickle and deepcopy rebuild it slot by slot through ``_restore``, with no constructor run.
    """

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _restore, (type(self), [getattr(self, name) for name in self.__slots__])


def _restore(cls, values):
    """The instance of cls whose slots hold the values, as ``_Slotted.__reduce__`` gives them."""
    obj = object.__new__(cls)
    obj._set(*values)
    return obj


class _Record(_Slotted):
    """An immutable value whose fields are the names in ``_fields``.

    A subclass lists its fields in ``_fields`` and first in ``__slots__`` and
    sets them in ``__init__`` (``_set``).  ``==``, ``hash`` and ``repr`` read
    the fields alone, so further slots may hold memos; assignment raises.  The
    repr is ``Name(field=value, ...)``, and pickle and copy call the constructor.
    """

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __reduce__(self):
        return type(self), self._values()


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------


class IntMatrix(_Slotted):
    """Immutable integer matrix, row major.

    Zero-row or zero-column shapes are legal; they occur constantly as
    differentials in and out of trivial chain groups.  The constructor
    checks the shape of outside data and reads entries with ``operator.index``,
    refusing floats and strings; the class's own results skip both (``_matrix``).
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, shape=None):
        data = tuple(tuple(map(index, row)) for row in entries)
        if shape is not None:
            rows, cols = shape
            if len(data) == 0 and rows > 0:
                if cols:
                    raise ValueError("missing entries for nonempty shape")
                data = ((),) * rows
            elif len(data) != rows:
                raise ValueError("row count does not match shape")
        else:
            rows = len(data)
            cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != cols:
                raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", data)

    @classmethod
    def zero(cls, rows, cols):
        return _matrix(((0,) * cols,) * rows, rows, cols)

    @classmethod
    def from_columns(cls, cols, rows):
        """The rows x len(cols) matrix whose j-th column is ``cols[j]``, a sequence of ints."""
        if any(len(c) != rows for c in cols):
            raise ValueError(f"a column's length is not {rows}")
        return _matrix(tuple(zip(*cols)) if cols else ((),) * rows, rows, len(cols))

    @classmethod
    def identity(cls, n):
        return cls.diagonal((1,) * n)

    @classmethod
    def diagonal(cls, diag, rows=None, cols=None):
        rows = len(diag) if rows is None else rows
        cols = len(diag) if cols is None else cols
        m = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(diag):
            m[i][i] = index(d)
        return _matrix(tuple(map(tuple, m)), rows, cols)

    @classmethod
    def from_blocks(cls, rows, cols, blocks):
        """The rows x cols sum of ``blocks``, each (row offset, column offset, matrix).

        Overlapping blocks add.  This is the one place a matrix is assembled
        block by block.
        """
        m = [[0] * cols for _ in range(rows)]
        for top, left, b in blocks:
            if top < 0 or left < 0 or top + b.rows > rows or left + b.cols > cols:
                raise ValueError(f"block at ({top}, {left}) outside the {rows}x{cols} matrix")
            right = left + b.cols
            for target, row in zip(m[top:], b.entries):
                target[left:right] = map(add, target[left:right], row)
        return _matrix(tuple(map(tuple, m)), rows, cols)

    def kron(self, other, sign=1):
        """The signed Kronecker product: sign·self[i, j]·other[r, s] at
        (i·other.rows + r, j·other.cols + s)."""
        return _matrix(
            tuple(tuple([sign * a * b for a in row for b in o_row])
                  for row in self.entries for o_row in other.entries),
            self.rows * other.rows, self.cols * other.cols,
        )

    def tolist(self):
        return [list(row) for row in self.entries]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({self.tolist()!r})"

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def _entrywise(self, other, op):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return _matrix(tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
                       self.rows, self.cols)

    def __add__(self, other):
        return self._entrywise(other, add)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    def scale(self, c):
        if c == 1:
            return self
        return _matrix(tuple(tuple(map(mul, row, itertools.repeat(c))) for row in self.entries), self.rows, self.cols)

    def __neg__(self):
        return self.scale(-1)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        cols = other.transpose().entries
        return _matrix(tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in self.entries),
                       self.rows, other.cols)

    def transpose(self):
        return _matrix(tuple(zip(*self.entries)) if self.rows else ((),) * self.cols, self.cols, self.rows)

    def columns(self):
        return list(map(list, self.transpose().entries))

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return _matrix(tuple(map(add, self.entries, other.entries)), self.rows, self.cols + other.cols)

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)

    def det(self):
        """Exact determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.tolist()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


def _matrix(data, rows, cols) -> IntMatrix:
    """The IntMatrix of ``data``, ``rows`` tuples of ``cols`` ints, unchecked: for results computed here."""
    m = object.__new__(IntMatrix)
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "entries", data)
    return m


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


class SnfResult(_Record):
    """U·A·V = D with U, V unimodular and D in invariant-factor form.

    One factorisation serves every solve and kernel query against A; the
    kernel equals that of the module-level ``kernel_basis``.
    """

    __slots__ = _fields = ("U", "D", "V")

    def __init__(self, U: IntMatrix, D: IntMatrix, V: IntMatrix):
        self._set(U, D, V)

    def diagonal(self):
        return [self.D[i, i] for i in range(min(self.D.rows, self.D.cols))]

    def solve(self, b) -> list[int] | None:
        """One integer solution of A·x = b, or None if there is none."""
        return _back_substitute(self.U.entries, self.diagonal(), self.V.entries, b)

    def kernel_basis(self) -> IntMatrix:
        """Basis of the integer kernel lattice of A, columns of the result."""
        return _kernel_columns(self.diagonal(), self.V.entries)


def _gcdex(a, b):
    """(g, s, t) with g = gcd(a, b) = s·a + t·b and g >= 0, by Euclid's algorithm."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _eliminator(h, b):
    """The unimodular (p, q, r, s) taking (h, b) to (h', 0) by (p·h + q·b, r·h + s·b).

    A subtraction, h' = h, when h divides b; else the gcdex move, h' = gcd(h, b).
    """
    if b % h:
        g, s, t = _gcdex(h, b)
        return s, t, -b // g, h // g
    return 1, 0, -(b // h), 1


def _mix(vecs, i, j, p, q, r, s):
    """vecs[i], vecs[j] <- p·vecs[i] + q·vecs[j], r·vecs[i] + s·vecs[j]."""
    x, y = vecs[i], vecs[j]
    if p != 1:
        vecs[i] = [p * a + q * b for a, b in zip(x, y)]
    elif q:
        vecs[i] = [a + q * b for a, b in zip(x, y)]
    if s != 1:
        vecs[j] = [r * a + s * b for a, b in zip(x, y)]
    elif r:
        vecs[j] = [b + r * a for a, b in zip(x, y)]


def _identity_rows(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _smith(a, m, n, u=False, uinv=False, v=False):
    """Smith normal form of the m x n matrix with rows ``a``: (diag, U, Uinv, V).

    U·A·V is the m x n matrix with ``diag`` down its diagonal and zeros
    elsewhere; ``diag`` holds the r = rank(A) invariant factors, positive
    and each dividing the next.  U and V are returned as their rows and
    Uinv = U^-1 as its columns, each only when its flag is set (None
    otherwise); no flag changes another output.  Every move is a 2 x 2 unimodular one
    on two rows or two columns, mirrored on Uinv as the inverse column move.

    1. Hermite rows (Kannan-Bachem).  The rows of A enter one at a time
       into a row echelon basis.  A row whose leading column holds a pivot
       h loses its entry x there: by subtracting (x/h)·pivot row when h
       divides x, or else by the gcdex move, which leaves gcd(h, x) as the
       pivot.  Either way its leading column moves right, so a row settles
       after at most n moves, as a new pivot or as a left-kernel row of U.
       After each row every entry above a pivot is reduced into
       [0, pivot), so the basis is the reduced Hermite form of the rows
       entered so far: unique, and bounded by their minors.
    2. Smith of the r x n Hermite matrix, pivot columns first.  Position t
       clears its row by column moves, then its column by row moves, each
       a subtraction when the pivot divides the entry and a gcdex move
       otherwise, so the pivot never leaves (t, t).  Only a gcdex move in
       the column pass can refill row t, and it strictly lowers the
       positive pivot, so the loop ends.  Last, ``_divisibility_chain``
       makes each diagonal entry divide the next; each of its diag(x, y)
       -> diag(gcd, lcm) steps is one 2 x 2 gcdex move on U, Uinv and V.

    So the transforms stay small: 19 bits on the dense 11 x 11 matrix with
    9-bit entries in the tests, and a few hundred on dense 40 x 40 with
    entries in [-9, 9], about the size of det A.  Phase 2 reduces nothing,
    so wide inputs grow more (about 1 900 bits on dense 40 x 80).
    """
    rows = [list(row) for row in a]
    U = _identity_rows(m) if u else None
    Ui = _identity_rows(m) if uinv else None

    def row_move(W, i, j, p, q, r, s):
        if W is not None:
            _mix(W, i, j, p, q, r, s)
        if U is not None:
            _mix(U, i, j, p, q, r, s)
        if Ui is not None:
            _mix(Ui, i, j, s, -r, -q, p)

    # 1. Hermite rows; a row keeps its index in ``rows`` until phase 2
    piv: dict[int, int] = {}  # pivot column -> row index
    cols: list[int] = []  # the pivot columns, ascending
    kernel = []
    for i in range(m):
        row, low, c = rows[i], n, 0
        while c < n and not row[c]:
            c += 1
        while c < n:
            p = piv.get(c)
            if p is None:
                piv[c] = i
                insort(cols, c)
                low = min(low, c)
                if row[c] < 0:
                    rows[i] = [-x for x in row]
                    if U is not None:
                        U[i] = [-x for x in U[i]]
                    if Ui is not None:
                        Ui[i] = [-x for x in Ui[i]]
                break
            if row[c] % rows[p][c]:
                low = min(low, c)
            row_move(rows, p, i, *_eliminator(rows[p][c], row[c]))
            row = rows[i]
            c += 1
            while c < n and not row[c]:
                c += 1
        else:
            kernel.append(i)
        if low < n:  # reduce above the pivots, bottom row first, from column low on
            for k in range(len(cols) - 2, -1, -1):
                i2 = piv[cols[k]]
                for c2 in cols[k + 1:]:
                    if c2 >= low:
                        q = rows[i2][c2] // rows[piv[c2]][c2]
                        if q:
                            row_move(rows, piv[c2], i2, 1, 0, -q, 1)

    # 2. Smith of the Hermite matrix, its pivot columns moved to the front
    r = len(cols)
    order = [piv[c] for c in cols] + kernel
    if U is not None:
        U = [U[k] for k in order]
    if Ui is not None:
        Ui = [Ui[k] for k in order]
    perm = None if cols == list(range(r)) else cols + [c for c in range(n) if c not in piv]
    M = [[rows[k][c] for c in perm] if perm else rows[k] for k in order[:r]]
    VT = _identity_rows(n) if v else None  # V's columns
    if VT is not None and perm:
        VT = [VT[c] for c in perm]

    def col_move(t, i, j, p, q, r, s):
        for row in M[t:]:  # rows above t are zero from column t on
            x, y = row[i], row[j]
            row[i], row[j] = p * x + q * y, r * x + s * y
        if VT is not None:
            _mix(VT, i, j, p, q, r, s)

    for t in range(r):
        shrank = True
        while shrank:
            for j in range(t + 1, n):
                if M[t][j]:
                    col_move(t, t, j, *_eliminator(M[t][t], M[t][j]))
            shrank = False
            for i in range(t + 1, r):
                if M[i][t]:
                    shrank = shrank or M[i][t] % M[t][t] != 0
                    row_move(M, t, i, *_eliminator(M[t][t], M[i][t]))

    def gcd_lcm_move(i, j, x, y):
        g, s, w = _gcdex(x, y)
        row_move(None, i, j, s, w, -y // g, x // g)
        if VT is not None:
            _mix(VT, i, j, 1, 1, -w * y // g, s * x // g)

    diag = [M[t][t] for t in range(r)]
    _divisibility_chain(diag, gcd_lcm_move)
    return diag, U, Ui, None if VT is None else list(zip(*VT))


def _divisibility_chain(d, move=None):
    """Make the positive integers ``d`` a divisibility chain in place.

    Each pair i < j with d[i] not dividing d[j] becomes (gcd, lcm), which
    presents the same group (Newman, *Integral Matrices*, 1972); ``move(i,
    j, x, y)`` is told of each change.  Once position i has met every j > i
    it divides them all, so the result ascends, each entry dividing the next.
    This one step canonicalises every ``FgAbGroup`` and ends the Smith kernel.
    """
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            x, y = d[i], d[j]
            if y % x:
                g = gcd(x, y)
                d[i], d[j] = g, x // g * y
                if move is not None:
                    move(i, j, x, y)


def smith_normal_form(A: IntMatrix) -> SnfResult:
    """Smith normal form with transforms; total on all integer matrices."""
    diag, U, _, V = _smith(A.entries, A.rows, A.cols, u=True, v=True)
    return SnfResult(
        U=_matrix(tuple(map(tuple, U)), A.rows, A.rows),
        D=IntMatrix.diagonal(diag, A.rows, A.cols),
        V=_matrix(tuple(V), A.cols, A.cols),
    )


def _kernel_columns(diag, V) -> IntMatrix:
    """Kernel basis from one factorisation: the columns of V past the rank."""
    rank, n = sum(1 for d in diag if d), len(V)
    return _matrix(tuple(row[rank:] for row in V), n, n - rank)


def _back_substitute(U, diag, V, b) -> list[int] | None:
    """Solve A·x = b through U·A·V = D: x = V·y with D·y = U·b."""
    m, n = len(U), len(V)
    if len(b) != m:
        raise ValueError("right-hand side length does not match the row count")
    y = [0] * n
    for i, row in enumerate(U):
        ub = sum(map(mul, row, b))
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if ub != 0:
                return None
        else:
            if ub % d:
                return None
            y[i] = ub // d
    return [sum(map(mul, row, y)) for row in V]


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel lattice, columns of the result."""
    diag, _, _, V = _smith(A.entries, A.rows, A.cols, v=True)
    return _kernel_columns(diag, V)


def _lattice_coordinates(L: IntMatrix, N: IntMatrix) -> IntMatrix | None:
    """The matrix X with L·X = N, or None if a column of N lies outside the lattice L.

    The columns of L must be independent, so they are a basis of the lattice
    they span and X holds the unique coordinates of N's columns in it; then
    the lattice L/N is ``cokernel(X)``.
    """
    snf = smith_normal_form(L) if N.cols else None
    cols = []
    for c in N.columns():
        x = snf.solve(c)
        if x is None:
            return None
        cols.append(x)
    return IntMatrix.from_columns(cols, L.cols)


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------


def _parse_int(text: str) -> int:
    """The integer that ``text`` spells in ASCII digits with an optional leading minus.

    It reads the integers of the CLI's text options, table degrees, group
    strings, complex keys and linking-form keys.  int() would also take
    surrounding space, underscores, a plus sign and any Unicode decimal
    digit; such text is refused with the error int() gives for a non-number.
    """
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r:.200}")
    return int(text)


class FgAbGroup(_Record):
    """Isomorphism class of a finitely generated abelian group.

    ``torsion`` is the ascending chain of invariant factors, each dividing
    the next, so two values are equal exactly when the groups are
    isomorphic:

    >>> FgAbGroup.from_divisors([2, 3]) == FgAbGroup.cyclic(6)
    True
    >>> print(FgAbGroup.from_divisors([0, 6, 4]))
    Z + Z/2 + Z/12
    """

    __slots__ = ("free_rank", "torsion", "_hash")
    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = ()):
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)
        self.__post_init__()

    def __post_init__(self):
        """Validate, and hash once: groups are hashed and compared in every memo of Hom, Ext and the tables.

        A method of its own, which ``perfbench/layers.py`` wraps to count the groups made.
        """
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion is not an invariant-factor chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("invariant factors must be >= 2")
        object.__setattr__(self, "_hash", hash((self.free_rank, self.torsion)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.torsion == other.torsion and self.free_rank == other.free_rank

    def __hash__(self):
        return self._hash

    # -- construction ------------------------------------------------------

    @classmethod
    def from_divisors(cls, divisors) -> "FgAbGroup":
        """Canonicalise an unordered list of cyclic orders (0 meaning Z).

        Groups are interned: each normalised list is canonicalised once per
        process, and equal groups come back as one object.
        """
        key = tuple(abs(int(d)) for d in divisors)
        group = _INTERNED.get(key)
        if group is None:
            if len(key) > MAX_SUMMANDS:  # the chain step is quadratic in them
                raise ValueError(f"{len(key)} cyclic summands exceed the bound {MAX_SUMMANDS}")
            chain = [d for d in key if d > 1]
            _divisibility_chain(chain)
            group = cls(key.count(0), tuple(d for d in chain if d > 1))  # a gcd step can leave 1s
            group = _INTERNED[key] = _INTERNED.setdefault(group.gen_orders(), group)
        return group

    @classmethod
    def free(cls, rank):
        return cls(rank, ())

    @classmethod
    def cyclic(cls, d):
        return cls.from_divisors([d])

    # -- basic structure -----------------------------------------------------

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def is_free(self) -> bool:
        return not self.torsion

    def is_two_primary(self) -> bool:
        return all(d & (d - 1) == 0 for d in self.torsion)

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return prod(self.torsion) if self.torsion else 1

    def exponent(self):
        if self.free_rank:
            return None
        return self.torsion[-1] if self.torsion else 1

    def gens(self) -> int:
        return self.free_rank + len(self.torsion)

    def gen_orders(self) -> tuple[int, ...]:
        """Orders of the presentation generators, free parts first as 0."""
        return (0,) * self.free_rank + self.torsion

    def relation_matrix(self) -> IntMatrix:
        """Columns generate the relation lattice of the presentation."""
        g = self.gens()
        cols = []
        for i, d in enumerate(self.torsion):
            col = [0] * g
            col[self.free_rank + i] = d
            cols.append(col)
        return IntMatrix.from_columns(cols, g)

    def direct_sum(self, other: "FgAbGroup") -> "FgAbGroup":
        return FgAbGroup.from_divisors(
            [0] * (self.free_rank + other.free_rank) + list(self.torsion) + list(other.torsion)
        )

    __add__ = direct_sum

    def elements(self):
        """All elements of a finite group as coordinate tuples."""
        if self.free_rank:
            raise ValueError("infinite group")
        return itertools.product(*(range(d) for d in self.torsion))

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        if self.is_trivial():
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts)

    __str__ = render

    @classmethod
    def parse(cls, text: str) -> "FgAbGroup":
        """The group a rendered string names; one of more than MAX_PARSED_GENERATORS is refused."""
        text = text.strip()
        if text in ("0", ""):
            return cls()
        divisors = []
        for part in text.split("+"):
            part = part.strip()
            if part == "Z":
                divisors.append(0)
            elif part[:2] in ("Z^", "Z/") and part[2:3] != "-":  # a rank or an order is never negative
                k = _parse_int(part[2:])
                divisors.extend([0] * min(k, MAX_PARSED_GENERATORS + 1) if part[1] == "^" else [k])  # enough to refuse
            else:
                raise ValueError(f"cannot parse group term {part!r}")
            if len(divisors) > MAX_PARSED_GENERATORS:
                raise ValueError(f"a group string exceeds the bound of {MAX_PARSED_GENERATORS} generators")
        return cls.from_divisors(divisors)


_INTERNED: dict[tuple[int, ...], FgAbGroup] = {}  # normalised divisor list -> canonical group
MAX_PARSED_GENERATORS = 16  # per degree of a table read: Ext of two has the product of their sizes
MAX_SUMMANDS = 1 << 12  # canonicalising 4 096 cyclic summands takes 0.9 s


# ---------------------------------------------------------------------------
# Cokernels, kernels of presented maps
# ---------------------------------------------------------------------------


def cokernel(A: IntMatrix) -> FgAbGroup:
    """Isomorphism class of coker(A : Z^cols -> Z^rows)."""
    diag = _smith(A.entries, A.rows, A.cols)[0]  # already an invariant-factor chain
    return FgAbGroup(A.rows - len(diag), tuple(d for d in diag if d > 1))


def cokernel_with_gens(A: IntMatrix):
    """Cokernel plus explicit generator representatives in Z^rows.

    Returns ``(group, gens, orders)`` where ``gens[i]`` is an integer vector
    whose class generates the i-th cyclic summand and ``orders`` follows the
    group's generator convention (free parts first, order 0).
    """
    diag, _, Uinv, _ = _smith(A.entries, A.rows, A.cols, uinv=True)
    free = A.rows - len(diag)
    tors = [(d, gen) for d, gen in zip(diag, Uinv) if d > 1]  # ascending, as diag is
    gens = Uinv[len(diag):] + [gen for _, gen in tors]
    orders = [0] * free + [d for d, _ in tors]
    return FgAbGroup(free, tuple(orders[free:])), gens, orders


def hom_is_well_defined(M: IntMatrix, src: FgAbGroup, tgt: FgAbGroup) -> bool:
    """Does the matrix on presentation generators give a homomorphism?"""
    if M.rows != tgt.gens() or M.cols != src.gens():
        return False
    src_orders = src.gen_orders()
    return all(_respects_order(m, o, t) for row, t in zip(M.entries, tgt.gen_orders())
               for m, o in zip(row, src_orders))


def _respects_order(m: int, o: int, t: int) -> bool:
    """o * m = 0 mod t for the entry m from a source generator of order o to a target one of order t.

    An order 0 means free: a free source generator imposes nothing, and a
    free target generator needs o * m = 0 exactly.
    """
    v = o * m
    return not (v % t if t else v)


def _kernel_lattice(M: IntMatrix, src: FgAbGroup, tgt: FgAbGroup) -> IntMatrix:
    """Basis, as columns, of {x in Z^gens(src) : M x = 0 in tgt}.

    It is the kernel basis of [M | R_tgt] cut to its first gens(src) rows:
    the columns d_i e_i of R_tgt are independent, so the cut keeps the
    columns independent.
    """
    R = tgt.relation_matrix()
    K = kernel_basis(M.hstack(R) if R.cols else M)
    return _matrix(K.entries[: src.gens()], src.gens(), K.cols)


def _image_lattice(M: IntMatrix, src: FgAbGroup, tgt: FgAbGroup) -> IntMatrix:
    return IntMatrix.from_columns(M.columns() + tgt.relation_matrix().columns(), tgt.gens())


def map_kernel_group(M: IntMatrix, src: FgAbGroup, tgt: FgAbGroup) -> FgAbGroup:
    """Kernel of a homomorphism given on presentation generators."""
    X = _lattice_coordinates(_kernel_lattice(M, src, tgt), src.relation_matrix())
    if X is None:
        raise ValueError("matrix is not a homomorphism between the presented groups")
    return cokernel(X)


def map_cokernel_group(M: IntMatrix, src: FgAbGroup, tgt: FgAbGroup) -> FgAbGroup:
    return cokernel(_image_lattice(M, src, tgt))


def maps_exact(M1: IntMatrix, groups1, M2: IntMatrix, groups2) -> bool:
    """image(M1) = kernel(M2) inside the shared middle group.

    ``groups1 = (A, B)`` presents M1 : A -> B and ``groups2 = (B, C)``
    presents M2 : B -> C; both must be well defined.  The image lies in the
    kernel when its lattice has coordinates in the kernel's basis, and then
    the two agree when those coordinates present the trivial group.
    """
    a, b = groups1
    b2, c = groups2
    if b != b2:
        raise ValueError("middle groups differ")
    X = _lattice_coordinates(_kernel_lattice(M2, b, c), _image_lattice(M1, a, b))
    return X is not None and cokernel(X).is_trivial()


# ---------------------------------------------------------------------------
# Hom, Ext, tensor, Tor
# ---------------------------------------------------------------------------


@cache
def hom_group(A: FgAbGroup, B: FgAbGroup) -> FgAbGroup:
    """Hom(A, B) up to isomorphism.

    >>> print(hom_group(FgAbGroup.cyclic(4), FgAbGroup.cyclic(6)))
    Z/2
    >>> print(hom_group(FgAbGroup.cyclic(2), FgAbGroup.free(1)))
    0
    """
    divisors = [0] * (A.free_rank * B.free_rank)
    divisors += [e for e in B.torsion for _ in range(A.free_rank)]
    divisors += [gcd(d, e) for d in A.torsion for e in B.torsion]
    return FgAbGroup.from_divisors(divisors)


@cache
def ext_group(A: FgAbGroup, B: FgAbGroup) -> FgAbGroup:
    """Ext^1(A, B); Ext(free, anything) vanishes.

    >>> print(ext_group(FgAbGroup.cyclic(2), FgAbGroup.free(1)))
    Z/2
    """
    divisors = [d for d in A.torsion for _ in range(B.free_rank)]
    divisors += [gcd(d, e) for d in A.torsion for e in B.torsion]
    return FgAbGroup.from_divisors(divisors)


# ---------------------------------------------------------------------------
# Extensions
# ---------------------------------------------------------------------------


DEFAULT_ENUMERATION_BOUND = 1 << 12


@cache
def extension_candidates(A: FgAbGroup, B: FgAbGroup) -> frozenset:
    """Isomorphism classes of middle terms of 0 -> A -> E -> B -> 0.

    Extensions are classified by Ext(B, A); each class is enumerated by
    choosing, for every torsion generator of B of order b, an element of
    A/bA, and the middle term is read off an explicit presentation.  Inputs
    whose enumeration exceeds ``DEFAULT_ENUMERATION_BOUND`` are rejected.
    """
    b_tors = B.torsion
    if not b_tors:
        return frozenset({A.direct_sum(B)})
    # representatives of A/bA for each torsion order b of B
    rep_ranges = []
    total = 1
    for b in b_tors:
        ranges = [range(b)] * A.free_rank + [range(gcd(d, b)) for d in A.torsion]
        size = prod(len(r) for r in ranges) if ranges else 1
        total *= size
        rep_ranges.append(ranges)
    if total > DEFAULT_ENUMERATION_BOUND:
        raise EnumerationBoundError(
            f"extension enumeration size {total} exceeds bound {DEFAULT_ENUMERATION_BOUND}"
        )
    gA = A.gens()
    n_gens = gA + len(b_tors)
    results = set()
    for choice in itertools.product(*(itertools.product(*r) for r in rep_ranges)):
        cols = []
        for i, d in enumerate(A.torsion):
            col = [0] * n_gens
            col[A.free_rank + i] = d
            cols.append(col)
        for j, (b, lift) in enumerate(zip(b_tors, choice)):
            col = [0] * n_gens
            col[gA + j] = b
            for i, a in enumerate(lift):
                col[i] = -a
            cols.append(col)
        P = IntMatrix.from_columns(cols, n_gens)
        results.add(cokernel(P).direct_sum(FgAbGroup.free(B.free_rank)))
    return frozenset(results)
