"""Exact structure theory of finitely generated abelian groups.

Everything is integer arithmetic on arbitrary-precision ints: Smith normal
form with unimodular transforms, Hermite form for lattice comparisons,
invariant-factor canonical forms, and the functors Hom and Ext.  A group is
always recorded by its isomorphism class ``Z^r + Z/d1 + ... + Z/dk`` with
``d1 | d2 | ... | dk``, so equality of values is isomorphism of groups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod

__all__ = [
    "IntMatrix",
    "SnfResult",
    "FgAbGroup",
    "smith_normal_form",
    "cokernel",
    "cokernel_with_gens",
    "kernel_basis",
    "solve",
    "lattice_canonical",
    "lattice_eq",
    "hom_group",
    "ext_group",
    "tensor_group",
    "tor_group",
    "extension_candidates",
    "EnumerationBoundError",
]


class EnumerationBoundError(ValueError):
    """Raised when an exhaustive enumeration would exceed the desk-scale bound."""


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------


class IntMatrix:
    """Immutable integer matrix, row major.

    Zero-row or zero-column shapes are legal; they occur constantly as
    differentials in and out of trivial chain groups.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, shape=None):
        data = tuple(tuple(int(x) for x in row) for row in entries)
        if shape is not None:
            rows, cols = shape
            if len(data) == 0 and rows > 0:
                if cols:
                    raise ValueError("missing entries for nonempty shape")
                data = tuple(() for _ in range(rows))
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

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def zero(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], shape=(rows, cols))

    @classmethod
    def from_columns(cls, cols, rows):
        """The rows x len(cols) matrix whose j-th column is ``cols[j]``."""
        return cls([[c[i] for c in cols] for i in range(rows)], shape=(rows, len(cols)))

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, diag, rows=None, cols=None):
        rows = len(diag) if rows is None else rows
        cols = len(diag) if cols is None else cols
        m = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(diag):
            m[i][i] = int(d)
        return cls(m, shape=(rows, cols))

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

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            shape=(self.rows, self.cols),
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return IntMatrix([[c * x for x in row] for row in self.entries], shape=(self.rows, self.cols))

    def __neg__(self):
        return self.scale(-1)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        ot = other.transpose().entries
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.entries],
            shape=(self.rows, other.cols),
        )

    def transpose(self):
        return IntMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            shape=(self.cols, self.rows),
        )

    def column(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix(
            [list(r1) + list(r2) for r1, r2 in zip(self.entries, other.entries)],
            shape=(self.rows, self.cols + other.cols),
        )

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


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnfResult:
    """U·A·V = D with U, V unimodular and D in invariant-factor form.

    One factorisation serves every solve and kernel query against A; the
    answers equal those of the module-level ``solve`` and ``kernel_basis``.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self):
        return [self.D[i, i] for i in range(min(self.D.rows, self.D.cols))]

    def solve(self, b) -> list[int] | None:
        """One integer solution of A·x = b, or None if there is none."""
        return _back_substitute(self.U.entries, self.D.entries, self.V.entries, b)

    def kernel_basis(self) -> IntMatrix:
        """Basis of the integer kernel lattice of A, columns of the result."""
        return _kernel_columns(self.D.entries, self.V.entries)


def _snf_raw(a, m, n, track_uinv=False):
    """Return (U, Uinv, D, V) as lists with U·A·V = D.

    Pivot choice is the smallest nonzero absolute value of the remaining
    block, scanned row-major, which makes the output deterministic.  It does
    not bound coefficient growth: the transforms are never reduced, and a
    dense 11x11 input with 9-bit entries can give transforms with entries of
    some 86 000 bits.  So factor a matrix once with ``smith_normal_form``
    and put every solve or kernel query against it through the returned
    ``SnfResult``.  ``Uinv`` is tracked only when ``track_uinv`` is set (it
    is None otherwise); U, D and V do not depend on it.
    """
    M = [list(row) for row in a]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    Uinv = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if track_uinv else None
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            M[i], M[j] = M[j], M[i]
            U[i], U[j] = U[j], U[i]
            if Uinv is not None:
                for r in range(m):
                    Uinv[r][i], Uinv[r][j] = Uinv[r][j], Uinv[r][i]

    def swap_cols(i, j):
        if i != j:
            for r in range(m):
                M[r][i], M[r][j] = M[r][j], M[r][i]
            for r in range(n):
                V[r][i], V[r][j] = V[r][j], V[r][i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        for k in range(n):
            M[dst][k] += c * M[src][k]
        for k in range(m):
            U[dst][k] += c * U[src][k]
        if Uinv is not None:
            for r in range(m):
                Uinv[r][src] -= c * Uinv[r][dst]

    def add_col(src, dst, c):
        for r in range(m):
            M[r][dst] += c * M[r][src]
        for r in range(n):
            V[r][dst] += c * V[r][src]

    def negate_row(i):
        for k in range(n):
            M[i][k] = -M[i][k]
        for k in range(m):
            U[i][k] = -U[i][k]
        if Uinv is not None:
            for r in range(m):
                Uinv[r][i] = -Uinv[r][i]

    t = 0
    while t < m and t < n:
        # locate smallest-magnitude nonzero pivot in the remaining block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(M[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if M[i][t]:
                    q = M[i][t] // M[t][t]
                    add_row(t, i, -q)
                    if M[i][t]:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                if M[t][j]:
                    q = M[t][j] // M[t][t]
                    add_col(t, j, -q)
                    if M[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the remaining block by the pivot
            d = M[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if M[i][j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if M[t][t] < 0:
            negate_row(t)
        t += 1
    return U, Uinv, M, V


def smith_normal_form(A: IntMatrix) -> SnfResult:
    """Smith normal form with transforms; total on all integer matrices."""
    U, _, D, V = _snf_raw(A.entries, A.rows, A.cols)
    return SnfResult(
        U=IntMatrix(U, shape=(A.rows, A.rows)),
        D=IntMatrix(D, shape=(A.rows, A.cols)),
        V=IntMatrix(V, shape=(A.cols, A.cols)),
    )


def _kernel_columns(D, V) -> IntMatrix:
    """Kernel basis read off the rows of D and V from one factorisation."""
    m, n = len(D), len(V)
    cols = [j for j in range(n) if j >= m or D[j][j] == 0]
    return IntMatrix([[row[j] for j in cols] for row in V], shape=(n, len(cols)))


def _back_substitute(U, D, V, b) -> list[int] | None:
    """Solve A·x = b through U·A·V = D: x = V·y with D·y = U·b."""
    m, n = len(U), len(V)
    if len(b) != m:
        raise ValueError("right-hand side length does not match the row count")
    y = [0] * n
    for i, row in enumerate(U):
        ub = sum(u * x for u, x in zip(row, b))
        d = D[i][i] if i < n else 0
        if d == 0:
            if ub != 0:
                return None
        else:
            if ub % d:
                return None
            y[i] = ub // d
    return [sum(v * yk for v, yk in zip(row, y)) for row in V]


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel lattice, columns of the result."""
    _, _, D, V = _snf_raw(A.entries, A.rows, A.cols)
    return _kernel_columns(D, V)


def solve(A: IntMatrix, b) -> list[int] | None:
    """One integer solution of A·x = b, or None if there is none."""
    U, _, D, V = _snf_raw(A.entries, A.rows, A.cols)
    return _back_substitute(U, D, V, b)


def lattice_canonical(gens: IntMatrix) -> tuple:
    """Canonical form (row-style Hermite) of the column lattice of ``gens``.

    Two generating matrices span the same sublattice of Z^n iff their
    canonical forms agree.
    """
    rows = [list(r) for r in gens.transpose().entries]
    rows = [r for r in rows if any(r)]
    n = gens.rows
    out = []
    r = 0
    for c in range(n):
        # pick pivot via gcd elimination in column c
        while True:
            live = [i for i in range(r, len(rows)) if rows[i][c]]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(rows[i][c]))
            rows[r], rows[i0] = rows[i0], rows[r]
            done = True
            for i in range(r + 1, len(rows)):
                if rows[i][c]:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if rows[i][c]:
                        done = False
            if done:
                break
        if r < len(rows) and rows[r][c]:
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
            for i in range(r):
                q = rows[i][c] // rows[r][c]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
            r += 1
    return tuple(tuple(row) for row in rows[:r])


def lattice_eq(a: IntMatrix, b: IntMatrix) -> bool:
    return lattice_canonical(a) == lattice_canonical(b)


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------


def _factorint(n: int) -> dict[int, int]:
    fac: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


@dataclass(frozen=True)
class FgAbGroup:
    """Isomorphism class of a finitely generated abelian group.

    ``torsion`` is the ascending chain of invariant factors, each dividing
    the next, so two values are equal exactly when the groups are
    isomorphic:

    >>> FgAbGroup.from_divisors([2, 3]) == FgAbGroup.cyclic(6)
    True
    >>> print(FgAbGroup.from_divisors([0, 6, 4]))
    Z + Z/2 + Z/12
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion is not an invariant-factor chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("invariant factors must be >= 2")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_divisors(cls, divisors) -> "FgAbGroup":
        """Canonicalise an unordered list of cyclic orders (0 meaning Z)."""
        rank = 0
        by_prime: dict[int, list[int]] = {}
        for d in divisors:
            d = abs(int(d))
            if d == 0:
                rank += 1
            elif d > 1:
                for p, e in _factorint(d).items():
                    by_prime.setdefault(p, []).append(e)
        width = max((len(v) for v in by_prime.values()), default=0)
        factors = []
        for i in range(width):
            f = 1
            for p, exps in by_prime.items():
                exps_sorted = sorted(exps, reverse=True)
                if i < len(exps_sorted):
                    f *= p ** exps_sorted[i]
            factors.append(f)
        return cls(rank, tuple(sorted(factors)))

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

    def is_torsion(self) -> bool:
        return self.free_rank == 0

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

    def torsion_subgroup(self) -> "FgAbGroup":
        return FgAbGroup(0, self.torsion)

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
        text = text.strip()
        if text in ("0", ""):
            return cls()
        divisors = []
        for part in text.split("+"):
            part = part.strip()
            if part == "Z":
                divisors.append(0)
            elif part.startswith("Z^"):
                divisors.extend([0] * int(part[2:]))
            elif part.startswith("Z/"):
                divisors.append(int(part[2:]))
            else:
                raise ValueError(f"cannot parse group term {part!r}")
        return cls.from_divisors(divisors)


# ---------------------------------------------------------------------------
# Cokernels, kernels of presented maps
# ---------------------------------------------------------------------------


def cokernel(A: IntMatrix) -> FgAbGroup:
    """Isomorphism class of coker(A : Z^cols -> Z^rows)."""
    _, _, D, _ = _snf_raw(A.entries, A.rows, A.cols)
    nonzero = [D[i][i] for i in range(min(A.rows, A.cols)) if D[i][i]]
    return FgAbGroup.from_divisors(
        [d for d in nonzero if d > 1] + [0] * (A.rows - len(nonzero))
    )


def cokernel_with_gens(A: IntMatrix):
    """Cokernel plus explicit generator representatives in Z^rows.

    Returns ``(group, gens, orders)`` where ``gens[i]`` is an integer vector
    whose class generates the i-th cyclic summand and ``orders`` follows the
    group's generator convention (free parts first, order 0).
    """
    U, Uinv, D, _ = _snf_raw(A.entries, A.rows, A.cols, track_uinv=True)
    m = A.rows
    free, tors = [], []
    for i in range(m):
        d = D[i][i] if i < A.cols else 0
        gen = [Uinv[r][i] for r in range(m)]
        if d == 0:
            free.append(gen)
        elif d > 1:
            tors.append((d, gen))
    tors.sort(key=lambda t: t[0])
    gens = free + [g for _, g in tors]
    orders = [0] * len(free) + [d for d, _ in tors]
    group = FgAbGroup(len(free), tuple(d for d, _ in tors))
    return group, gens, orders


def hom_is_well_defined(M: IntMatrix, src: FgAbGroup, tgt: FgAbGroup) -> bool:
    """Does the matrix on presentation generators give a homomorphism?"""
    if M.rows != tgt.gens() or M.cols != src.gens():
        return False
    src_orders = src.gen_orders()
    tgt_orders = tgt.gen_orders()
    for j, o in enumerate(src_orders):
        if o == 0:
            continue
        for i, t in enumerate(tgt_orders):
            v = o * M[i, j]
            if t == 0:
                if v != 0:
                    return False
            elif v % t:
                return False
    return True


def _kernel_lattice(M: IntMatrix, src: FgAbGroup, tgt: FgAbGroup) -> IntMatrix:
    """Generators of {x in Z^gens(src) : M x = 0 in tgt} as columns."""
    R = tgt.relation_matrix()
    block = M.hstack(R) if R.cols else M
    K = kernel_basis(block)
    cols = [[K[i, j] for i in range(src.gens())] for j in range(K.cols)]
    cols += src.relation_matrix().columns()
    return IntMatrix.from_columns(cols, src.gens())


def _image_lattice(M: IntMatrix, src: FgAbGroup, tgt: FgAbGroup) -> IntMatrix:
    return IntMatrix.from_columns(M.columns() + tgt.relation_matrix().columns(), tgt.gens())


def _lattice_quotient(L: IntMatrix, N: IntMatrix) -> FgAbGroup:
    """The group L/N for sublattices N <= L of the same ambient Z^n."""
    basis = lattice_canonical(L)
    B = IntMatrix.from_columns(basis, L.rows)
    snf = smith_normal_form(B) if N.cols else None
    cols = []
    for c in N.columns():
        x = snf.solve(c)
        if x is None:
            raise ValueError("N is not contained in L")
        cols.append(x)
    return cokernel(IntMatrix.from_columns(cols, B.cols))


def map_kernel_group(M: IntMatrix, src: FgAbGroup, tgt: FgAbGroup) -> FgAbGroup:
    """Kernel of a homomorphism given on presentation generators."""
    return _lattice_quotient(_kernel_lattice(M, src, tgt), src.relation_matrix())


def map_cokernel_group(M: IntMatrix, src: FgAbGroup, tgt: FgAbGroup) -> FgAbGroup:
    return cokernel(_image_lattice(M, src, tgt))


def maps_exact(M1: IntMatrix, groups1, M2: IntMatrix, groups2) -> bool:
    """image(M1) = kernel(M2) inside the shared middle group.

    ``groups1 = (A, B)`` presents M1 : A -> B and ``groups2 = (B, C)``
    presents M2 : B -> C; both must be well defined.
    """
    a, b = groups1
    b2, c = groups2
    if b != b2:
        raise ValueError("middle groups differ")
    return lattice_eq(_image_lattice(M1, a, b), _kernel_lattice(M2, b, c))


# ---------------------------------------------------------------------------
# Hom, Ext, tensor, Tor
# ---------------------------------------------------------------------------


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


def ext_group(A: FgAbGroup, B: FgAbGroup) -> FgAbGroup:
    """Ext^1(A, B); Ext(free, anything) vanishes.

    >>> print(ext_group(FgAbGroup.cyclic(2), FgAbGroup.free(1)))
    Z/2
    """
    divisors = [d for d in A.torsion for _ in range(B.free_rank)]
    divisors += [gcd(d, e) for d in A.torsion for e in B.torsion]
    return FgAbGroup.from_divisors(divisors)


def tensor_group(A: FgAbGroup, B: FgAbGroup) -> FgAbGroup:
    divisors = [0] * (A.free_rank * B.free_rank)
    divisors += [d for d in A.torsion for _ in range(B.free_rank)]
    divisors += [e for e in B.torsion for _ in range(A.free_rank)]
    divisors += [gcd(d, e) for d in A.torsion for e in B.torsion]
    return FgAbGroup.from_divisors(divisors)


def tor_group(A: FgAbGroup, B: FgAbGroup) -> FgAbGroup:
    return FgAbGroup.from_divisors([gcd(d, e) for d in A.torsion for e in B.torsion])


# ---------------------------------------------------------------------------
# Extensions
# ---------------------------------------------------------------------------


DEFAULT_ENUMERATION_BOUND = 1 << 12


def extension_candidates(A: FgAbGroup, B: FgAbGroup, bound: int = DEFAULT_ENUMERATION_BOUND) -> frozenset:
    """Isomorphism classes of middle terms of 0 -> A -> E -> B -> 0.

    Extensions are classified by Ext(B, A); each class is enumerated by
    choosing, for every torsion generator of B of order b, an element of
    A/bA, and the middle term is read off an explicit presentation.  Inputs
    whose enumeration exceeds ``bound`` are rejected.
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
    if total > bound:
        raise EnumerationBoundError(
            f"extension enumeration size {total} exceeds bound {bound}"
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
