"""Bounded chain complexes of finitely generated free Z-modules.

Homological grading throughout: the differential lowers degree by one,
``d[n] : C_n -> C_{n-1}``.  Tensor products follow the Koszul rule
``d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy``.  The n-dual has
``D_k = Hom(C_{n-k}, Z)`` with ``d^D_k = (-1)^{k+1} (d_{n-k+1})^T``; this
is the one place the dualisation sign lives.
"""

from __future__ import annotations

import json

from .abelian import (
    FgAbGroup,
    IntMatrix,
    _lattice_coordinates,
    cokernel_with_gens,
    kernel_basis,
)

__all__ = ["IntComplex", "tensor", "dual", "cone"]


class IntComplex:
    """Bounded complex of free Z-modules with integer differentials."""

    __slots__ = ("_ranks", "_diffs")

    def __init__(self, ranks, differentials=None, check=True):
        rk = {int(n): int(r) for n, r in dict(ranks).items() if int(r) > 0}
        diffs = {}
        for n, m in dict(differentials or {}).items():
            n = int(n)
            m = m if isinstance(m, IntMatrix) else IntMatrix(m)
            expected = (rk.get(n - 1, 0), rk.get(n, 0))
            if (m.rows, m.cols) != expected:
                raise ValueError(
                    f"differential at degree {n} has shape {(m.rows, m.cols)}, expected {expected}"
                )
            if not m.is_zero():
                diffs[n] = m
        self._ranks = rk
        self._diffs = diffs
        if check:
            for n in diffs:
                if n - 1 in diffs:
                    if not (diffs[n - 1] @ diffs[n]).is_zero():
                        raise ValueError(f"d.d != 0 at degree {n}")

    # -- structural access ---------------------------------------------------

    @property
    def ranks(self):
        return dict(self._ranks)

    def rank(self, n: int) -> int:
        return self._ranks.get(n, 0)

    def degrees(self):
        return sorted(self._ranks)

    def window(self):
        if not self._ranks:
            return (0, 0)
        ds = self.degrees()
        return (ds[0], ds[-1])

    def diff(self, n: int) -> IntMatrix:
        m = self._diffs.get(n)
        if m is None:
            return IntMatrix.zero(self.rank(n - 1), self.rank(n))
        return m

    def is_zero(self) -> bool:
        return not self._ranks

    def __eq__(self, other):
        if not isinstance(other, IntComplex):
            return NotImplemented
        return self._ranks == other._ranks and self._diffs == other._diffs

    def __hash__(self):
        return hash((tuple(sorted(self._ranks.items())), tuple(sorted(self._diffs.items()))))

    def __repr__(self):
        return f"IntComplex(ranks={self._ranks!r})"

    # -- operations ------------------------------------------------------------

    def homology_with_gens(self, n: int):
        """(H_n, generator representatives in C_n, generator orders)."""
        if self.rank(n) == 0:
            return FgAbGroup(), [], []
        K = kernel_basis(self.diff(n))
        if K.cols == 0:
            return FgAbGroup(), [], []
        X = _lattice_coordinates(K, self.diff(n + 1))
        if X is None:
            raise ValueError("boundary not contained in cycles; not a complex")
        group, gens, orders = cokernel_with_gens(X)
        lifted = []
        for g in gens:
            lifted.append([sum(K[i, j] * g[j] for j in range(K.cols)) for i in range(K.rows)])
        return group, lifted, orders

    def homology(self, n: int) -> FgAbGroup:
        return self.homology_with_gens(n)[0]

    def acyclic_after_inverting_two(self) -> bool:
        """True iff every homology group is finite of 2-power order."""
        lo, hi = self.window()
        for n in range(lo, hi + 1):
            h = self.homology(n)
            if h.free_rank or not h.is_two_primary():
                return False
        return True

    # -- serialisation -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "ranks": {str(n): r for n, r in sorted(self._ranks.items())},
            "differentials": {str(n): m.tolist() for n, m in sorted(self._diffs.items())},
        }

    @classmethod
    def from_json(cls, doc) -> "IntComplex":
        if isinstance(doc, str):
            doc = json.loads(doc)
        return cls(
            {int(n): r for n, r in doc.get("ranks", {}).items()},
            {int(n): IntMatrix(m) for n, m in doc.get("differentials", {}).items()},
        )


# ---------------------------------------------------------------------------
# Tensor product
# ---------------------------------------------------------------------------


def tensor_segments(C: IntComplex, D: IntComplex, g: int):
    """Basis layout of (C (x) D)_g: list of (p, rank C_p, rank D_{g-p})."""
    segs = []
    for p in C.degrees():
        rc = C.rank(p)
        rd = D.rank(g - p)
        if rc and rd:
            segs.append((p, rc, rd))
    return segs


def tensor(C: IntComplex, D: IntComplex) -> IntComplex:
    """Graded tensor product with Koszul signs in the differential."""
    degrees = set()
    for p in C.degrees():
        for q in D.degrees():
            degrees.add(p + q)
    ranks = {}
    for g in degrees:
        ranks[g] = sum(rc * rd for _, rc, rd in tensor_segments(C, D, g))
    diffs = {}
    for g in sorted(degrees):
        src = tensor_segments(C, D, g)
        tgt = tensor_segments(C, D, g - 1)
        if not src or not tgt:
            continue
        tgt_offset = {}
        off = 0
        for p, rc, rd in tgt:
            tgt_offset[p] = off
            off += rc * rd
        m = [[0] * ranks[g] for _ in range(off)]
        col = 0
        for p, rc, rd in src:
            dc = C.diff(p)
            dd = D.diff(g - p)
            for i in range(rc):
                for j in range(rd):
                    # d(x (x) y) = dx (x) y + (-1)^p x (x) dy
                    if p - 1 in tgt_offset and dc.rows:
                        base = tgt_offset[p - 1]
                        for i2 in range(dc.rows):
                            v = dc[i2, i]
                            if v:
                                m[base + i2 * rd + j][col] += v
                    if p in tgt_offset and dd.rows:
                        base = tgt_offset[p]
                        sign = -1 if p % 2 else 1
                        for j2 in range(dd.rows):
                            v = dd[j2, j]
                            if v:
                                m[base + i * dd.rows + j2][col] += sign * v
                    col += 1
        diffs[g] = IntMatrix(m, shape=(off, ranks[g]))
    return IntComplex(ranks, diffs)


def dual(C: IntComplex, n: int) -> IntComplex:
    """The n-dual: degree k holds the linear dual of C at degree n-k."""
    ranks = {n - k: r for k, r in C.ranks.items()}
    diffs = {}
    for k in list(ranks):
        src = C.rank(n - k + 1)
        if C.rank(n - k) and src and not C.diff(n - k + 1).is_zero():
            sign = -1 if k % 2 == 0 else 1  # (-1)^{k+1}
            diffs[k] = C.diff(n - k + 1).transpose().scale(sign)
    return IntComplex(ranks, diffs)


def cone(f_components, C: IntComplex, D: IntComplex) -> IntComplex:
    """Mapping cone of a chain map f : C -> D given by degreewise matrices.

    cone_k = C_{k-1} (+) D_k with d(c, e) = (-d c, f(c) + d e).
    """
    degrees = set(d + 1 for d in C.degrees()) | set(D.degrees())
    ranks = {k: C.rank(k - 1) + D.rank(k) for k in degrees}
    ranks = {k: r for k, r in ranks.items() if r}
    diffs = {}
    for k in sorted(ranks):
        rows = ranks.get(k - 1, 0)
        cols = ranks[k]
        if not rows or not cols:
            continue
        m = [[0] * cols for _ in range(rows)]
        c_src, d_src = C.rank(k - 1), D.rank(k)
        c_tgt, _d_tgt = C.rank(k - 2), D.rank(k - 1)
        dc = C.diff(k - 1)
        dd = D.diff(k)
        fk = f_components.get(k - 1)
        for j in range(c_src):
            for i in range(c_tgt):
                m[i][j] = -dc[i, j]
            if fk is not None:
                for i in range(fk.rows):
                    m[c_tgt + i][j] = fk[i, j]
        for j in range(d_src):
            for i in range(dd.rows):
                m[c_tgt + i][c_src + j] = dd[i, j]
        diffs[k] = IntMatrix(m, shape=(rows, cols))
    return IntComplex(ranks, diffs)
