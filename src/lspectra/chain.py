"""Bounded chain complexes of finitely generated free Z-modules.

Homological grading throughout: the differential lowers degree by one,
``d[n] : C_n -> C_{n-1}``.  Tensor products follow the Koszul rule
``d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy``.  The basis of
``(C (x) D)_g`` is stated once, by ``tensor_layout``: one block per p in
ascending order, ``x_i (x) y_j`` (x_i in C_p, y_j in D_{g-p}) at the
block's offset plus ``i * rank D_{g-p} + j``, so that a Kronecker product
of a C-matrix with a D-matrix is a block at those offsets.  The n-dual has
``D_k = Hom(C_{n-k}, Z)`` with ``d^D_k = (-1)^{k+1} (d_{n-k+1})^T``; this
is the one place the dualisation sign lives.
"""

from __future__ import annotations

from operator import index, mul

from .abelian import (
    FgAbGroup,
    IntMatrix,
    _lattice_coordinates,
    _parse_int,
    cokernel_with_gens,
    kernel_basis,
)

__all__ = ["IntComplex", "tensor", "dual", "cone"]

MAX_RANK = 128  # of a complex read: beta takes 0.35 s on one Z^128, 0.45 s on a dense 64 x 64 differential
MAX_SPAN = 1000  # its degrees: the structure relations are checked at each degree of each level


class IntComplex:
    """Bounded complex of free Z-modules with integer differentials."""

    __slots__ = ("_ranks", "_diffs")

    def __init__(self, ranks, differentials=None):
        rk = {int(n): int(r) for n, r in dict(ranks).items() if int(r)}  # a zero rank is an empty degree
        for n in (n for n, r in rk.items() if r < 0):
            raise ValueError(f"negative rank {rk[n]} at degree {n}")
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
        return group, [[sum(map(mul, row, g)) for row in K.entries] for g in gens], orders

    def homology(self, n: int) -> FgAbGroup:
        return self.homology_with_gens(n)[0]

    # -- serialisation -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "ranks": {str(n): r for n, r in sorted(self._ranks.items())},
            "differentials": {str(n): m.tolist() for n, m in sorted(self._diffs.items())},
        }

    @classmethod
    def from_json(cls, doc) -> "IntComplex":
        """The complex of a document, refused before any matrix is read if it exceeds the bounds."""
        ranks = cls({_parse_int(n): index(r) for n, r in doc.get("ranks", {}).items()}).ranks
        if sum(ranks.values()) > MAX_RANK or ranks and max(ranks) - min(ranks) > MAX_SPAN:
            raise ValueError(f"a complex exceeds the bounds: total rank {MAX_RANK}, degrees {MAX_SPAN} apart")
        return cls(ranks, {_parse_int(n): IntMatrix(m) for n, m in doc.get("differentials", {}).items()})


# ---------------------------------------------------------------------------
# Tensor product
# ---------------------------------------------------------------------------


def tensor_layout(C: IntComplex, D: IntComplex, g: int):
    """The basis of (C (x) D)_g: {p: (offset, rank C_p, rank D_{g-p})}, p ascending."""
    layout, offset = {}, 0
    for p in C.degrees():
        if D.rank(g - p):
            layout[p] = (offset, C.rank(p), D.rank(g - p))
            offset += C.rank(p) * D.rank(g - p)
    return layout


def tensor(C: IntComplex, D: IntComplex) -> IntComplex:
    """Graded tensor product with Koszul signs in the differential."""
    degrees = {p + q for p in C.degrees() for q in D.degrees()}
    layouts = {g: tensor_layout(C, D, g) for g in degrees}
    ranks = {g: sum(rc * rd for _, rc, rd in lay.values()) for g, lay in layouts.items()}
    diffs = {}
    for g, src in layouts.items():
        tgt = layouts.get(g - 1, {})
        blocks = []
        for p, (col, rc, rd) in src.items():
            # d(x (x) y) = dx (x) y + (-1)^p x (x) dy
            if p - 1 in tgt:
                blocks.append((tgt[p - 1][0], col, C.diff(p).kron(IntMatrix.identity(rd))))
            if p in tgt:
                sign = -1 if p % 2 else 1
                blocks.append((tgt[p][0], col, IntMatrix.identity(rc).kron(D.diff(g - p), sign)))
        diffs[g] = IntMatrix.from_blocks(ranks.get(g - 1, 0), ranks[g], blocks)
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
    for k in ranks:
        blocks = [(0, 0, -C.diff(k - 1)), (C.rank(k - 2), C.rank(k - 1), D.diff(k))]
        if k - 1 in f_components:
            blocks.append((C.rank(k - 2), 0, f_components[k - 1]))
        diffs[k] = IntMatrix.from_blocks(ranks.get(k - 1, 0), ranks[k], blocks)
    return IntComplex(ranks, diffs)
