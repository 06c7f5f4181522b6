"""Chain complexes with quadratic or symmetric structure data.

A structure of dimension n on a complex C is a family of integer pairing
matrices indexed by (level, source degree): quadratic level i pairs
C_k against C_{n+i-k}, symmetric level i pairs C_k against C_{n-i-k}.
The structure relations below are the coboundary/symmetrisation equations
making the family a cycle for the standard C2-resolution; the flip acts by

    (T f)(x, y) = t(n) * (-1)^(|x||y|) f(y, x),   t(n) = -1 iff n = 1 mod 4.

The extra twist t(n) is the skew-suspension sign; it is the single free
sign choice of the theory and is pinned end to end by the linking-form
oracles (the (a^2+b^2+ab)/2 table and beta = 4, plus the odd/2^(k+1)
values of the cyclic examples).

The linking form of a 1-dimensional quadratic complex lives on its carrier
homology H_0; its values divide by 2^(K+1) with K = log2 of the exponent of
that group, read off the homology rather than searched for.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import index

from .abelian import IntMatrix, _parse_int, _Slotted, smith_normal_form
from .chain import IntComplex, cone, dual, tensor, tensor_layout
from .forms import DegenerateFormError, LinkingForm, brown_kervaire, nondegenerate

__all__ = [
    "StructuredComplex",
    "InvalidStructureError",
    "poincare_check",
    "tensor_structured",
    "linking_form",
    "certify_ef",
    "representative",
]


class InvalidStructureError(ValueError):
    """Structure data violating the relations or the expected shapes."""


MAX_LEVEL = 1000  # of a structure read: beta takes 0.5 s at level 1000 over 1000 degrees, half in the relations


def _flipped(S: "StructuredComplex", level: int, k: int) -> IntMatrix:
    """T psi_{level, k'} = t(n) (-1)^(k k') psi_{level, k'}^T, k' the partner degree.

    This is the one place the C2 flip sign is applied.
    """
    kp = S.partner_degree(level, k)
    t = -1 if S.dimension % 4 == 1 else 1
    return S.psi_matrix(level, kp).transpose().scale(t * (-1 if (k * kp) % 2 else 1))


class StructuredComplex(_Slotted):
    """A bounded free complex with a validated structure: kind 'quadratic' or
    'symmetric', duality dimension, and pairing matrices by (level, degree)."""

    __slots__ = ("complex", "kind", "dimension", "psi")

    def __init__(self, complex: IntComplex, kind, dimension, psi):
        if kind not in ("quadratic", "symmetric"):
            raise InvalidStructureError(f"unknown kind {kind!r}")
        self._set(complex, kind, index(dimension))  # psi is set once it is checked
        table = {}
        for (level, k), m in psi.items():
            level, k = int(level), int(k)
            if level < 0:
                raise InvalidStructureError("levels are indexed from 0")
            m = m if isinstance(m, IntMatrix) else IntMatrix(m)
            if not m.is_zero():
                table[(level, k)] = m
        for (level, k), m in table.items():
            expected = (complex.rank(k), complex.rank(self.partner_degree(level, k)))
            if (m.rows, m.cols) != expected:
                raise InvalidStructureError(
                    f"matrix at level {level}, degree {k} has shape {(m.rows, m.cols)},"
                    f" expected {expected}"
                )
        object.__setattr__(self, "psi", table)
        bad = structure_relation_failures(self)
        if bad:
            raise InvalidStructureError(f"structure relations fail at {bad[:3]}")

    def partner_degree(self, level: int, k: int) -> int:
        if self.kind == "quadratic":
            return self.dimension + level - k
        return self.dimension - level - k

    def max_level(self) -> int:
        return max((lv for lv, _ in self.psi), default=0)

    def psi_matrix(self, level, k) -> IntMatrix:
        m = self.psi.get((level, k))
        if m is None:
            return IntMatrix.zero(self.complex.rank(k), self.complex.rank(self.partner_degree(level, k)))
        return m

    def to_json(self) -> dict:
        doc = self.complex.to_json()
        doc["kind"] = self.kind
        doc["dimension"] = self.dimension
        doc["psi"] = {
            f"{lv},{k}": m.tolist() for (lv, k), m in sorted(self.psi.items())
        }
        return doc

    @classmethod
    def from_json(cls, doc) -> "StructuredComplex":
        cx = IntComplex.from_json(doc)
        psi = {}
        for key, m in doc.get("psi", {}).items():
            lv, k = map(_parse_int, key.split(","))
            if lv > MAX_LEVEL:
                raise InvalidStructureError(f"structure level {lv} exceeds the bound {MAX_LEVEL}")
            psi[(lv, k)] = IntMatrix(m)
        return cls(cx, doc["kind"], doc["dimension"], psi)


# ---------------------------------------------------------------------------
# Structure relations
# ---------------------------------------------------------------------------


def structure_relation_failures(S: StructuredComplex):
    """Slots where the coboundary relations fail; empty means valid.

    Quadratic, level j >= 0, on x in C_k, y in C_{n+j+1-k}:
        -(-1)^j [ d^T psi_{j,k-1} + (-1)^k psi_{j,k} d ]
            = (-1)^(j+1) psi_{j+1,k} + eps(k, n+j+1-k) psi_{j+1,*}^T
    Symmetric, level i >= 0, on x in C_k, y in C_{n-i+1-k}:
        -(-1)^i [ d^T phi_{i,k-1} + (-1)^k phi_{i,k} d ]
            = phi_{i-1,k} + (-1)^i eps(k, n-i+1-k) phi_{i-1,*}^T
    with eps(p, q) = t(n) (-1)^(pq).
    """
    C = S.complex
    n = S.dimension
    degrees = C.degrees()  # the slots of nonzero rank, in the order of lo..hi+1
    failures = []
    max_level = S.max_level() + 1
    for level in range(0, max_level + 1):
        for k in degrees:
            if S.kind == "quadratic":
                kp = n + level + 1 - k  # degree of y
                if C.rank(kp) == 0:
                    continue
                lhs = _lhs(S, level, k, kp)
                sgn = -1 if (level + 1) % 2 else 1
                rhs = S.psi_matrix(level + 1, k).scale(sgn) + _flipped(S, level + 1, k)
            else:
                kp = n - level + 1 - k
                if C.rank(kp) == 0:
                    continue
                lhs = _lhs(S, level, k, kp)
                sgn = -1 if level % 2 else 1
                if level == 0:
                    rhs = IntMatrix.zero(C.rank(k), C.rank(kp))
                else:
                    rhs = S.psi_matrix(level - 1, k) + _flipped(S, level - 1, k).scale(sgn)
            if lhs != rhs:
                failures.append((level, k))
    return failures


def _lhs(S: StructuredComplex, level, k, kp) -> IntMatrix:
    """-(-1)^level [d_k^T psi_{level,k-1} + (-1)^k psi_{level,k} d_kp]; an absent psi block adds nothing."""
    C = S.complex
    outer = -1 if level % 2 == 0 else 1  # -(-1)^level
    lhs = IntMatrix.zero(C.rank(k), C.rank(kp))
    if (level, k - 1) in S.psi:
        lhs = lhs + (C.diff(k).transpose() @ S.psi[level, k - 1]).scale(outer)
    if (level, k) in S.psi:
        lhs = lhs + (S.psi[level, k] @ C.diff(kp)).scale(-outer if k % 2 else outer)
    return lhs


# ---------------------------------------------------------------------------
# Poincare duality check
# ---------------------------------------------------------------------------


def duality_matrices(S: StructuredComplex) -> dict[int, IntMatrix]:
    """The symmetrised level-0 pairing: for quadratic, (1+T) psi_0."""
    C = S.complex
    n = S.dimension
    lo, hi = C.window()
    out = {}
    for k in range(lo, hi + 1):
        if C.rank(k) == 0 or C.rank(n - k) == 0:
            continue
        m = S.psi_matrix(0, k)
        if S.kind == "quadratic":
            m = m + _flipped(S, 0, k)
        out[k] = m
    return out


def poincare_check(S: StructuredComplex) -> bool:
    """Does the symmetrised structure induce isomorphisms on homology?

    The adjoint of the pairing is a chain map C -> dual(C, n); the check
    verifies the chain-map identity and then that the mapping cone is
    acyclic.
    """
    C = S.complex
    n = S.dimension
    D = dual(C, n)
    lam = duality_matrices(S)
    comps = {k: m.transpose() for k, m in lam.items()}
    lo, hi = C.window()
    for k in range(lo, hi + 1):
        src = comps.get(k, IntMatrix.zero(D.rank(k), C.rank(k)))
        prev = comps.get(k - 1, IntMatrix.zero(D.rank(k - 1), C.rank(k - 1)))
        if D.diff(k) @ src != prev @ C.diff(k):
            return False
    mc = cone(comps, C, D)
    wlo, whi = mc.window()
    return all(mc.homology(k).is_trivial() for k in range(wlo, whi + 1))


# ---------------------------------------------------------------------------
# Tensor of structures
# ---------------------------------------------------------------------------


def tensor_structured(S: StructuredComplex, T: StructuredComplex) -> StructuredComplex:
    """Product of a symmetric structure with a quadratic one.

    The underlying complex is the graded tensor product; structure level p
    collects phi_q against psi_{p+q} across the coproduct of the
    C2-resolution, with the interchange Koszul sign
    (-1)^(|u||y| + (p+q)(|x|+|y|)) for x (x) u paired against y (x) v, and
    a T-twist of phi for odd p.  Dimensions add.

    The output relations are re-validated, so an invalid combination fails
    loudly.  Quadratic factors concentrated in level 0 (every representative
    this library ships) are always valid; the one exception is the unit,
    which is exact at every level.
    """
    if S.kind != "symmetric" or T.kind != "quadratic":
        raise InvalidStructureError("tensor takes (symmetric, quadratic)")
    C, D = S.complex, T.complex
    nC = S.dimension
    N = nC + T.dimension
    G = tensor(C, D)
    psi = {}
    for p in range(T.max_level() + 1):
        for g in G.degrees():
            gp = N + p - g  # level p pairs G_g with G_gp
            rows, cols = tensor_layout(C, D, g), tensor_layout(C, D, gp)
            blocks = []
            for a, (top, _, _) in rows.items():
                for q in range(S.max_level() + 1):
                    ya = nC - q - a  # phi_q pairs x in C_a with y in C_ya, u in D_(g-a) with v
                    if ya in cols:
                        phi = _flipped(S, q, a) if p % 2 else S.psi_matrix(q, a)
                        sign = -1 if ((g - a) * ya + (p + q) * (a + ya)) % 2 else 1
                        quad = T.psi_matrix(p + q, g - a)
                        blocks.append((top, cols[ya][0], phi.kron(quad, sign)))
            psi[(p, g)] = IntMatrix.from_blocks(G.rank(g), G.rank(gp), blocks)
    return StructuredComplex(G, "quadratic", N, psi)


# ---------------------------------------------------------------------------
# Linking forms from 2-torsion quadratic complexes
# ---------------------------------------------------------------------------


def linking_form(S: StructuredComplex) -> LinkingForm:
    """Extract the quadratic linking form on the carrier homology H = H_0(C).

    For a quadratic structure of dimension 1 whose carrier homology is a
    finite 2-group, the value on a class [y] is

        (psi_1(z, z) + psi_0(dz, z)) / 2^(K+1),   d z = 2^K y,

    evaluated with one uniform exponent K = log2 of the exponent of H (a
    class of order 2^j has 2^k y a boundary exactly when k >= j) and with
    lifts extended linearly from a fixed solution z_i per generator, so it
    is the quadratic polynomial with a_i = M_ii / 2^(K+1) and
    b_ij = (M_ij + M_ji) / 2^(K+1), M_ij = psi_1(z_i, z_j) + psi_0(dz_i, z_j).
    """
    if S.kind != "quadratic":
        raise InvalidStructureError("linking forms need a quadratic structure")
    n = S.dimension
    if n != 1:
        raise InvalidStructureError(f"dimension {n} does not match carrier degree 0 (need 1)")
    C = S.complex
    H, gens, _ = C.homology_with_gens(0)
    if H.free_rank or not H.is_two_primary():
        raise DegenerateFormError("carrier homology is not a finite 2-group")
    d = C.diff(1)
    snf = smith_normal_form(d)  # one factorisation serves every lift below
    K = H.exponent().bit_length() - 1
    Z = IntMatrix.from_columns([snf.solve([(1 << K) * v for v in g]) for g in gens], d.cols)
    M = (d @ Z).transpose() @ S.psi_matrix(0, 0) @ Z
    if (1, 1) in S.psi:  # an absent psi_1 adds nothing
        M = Z.transpose() @ S.psi[1, 1] @ Z + M
    denom = 1 << (K + 1)
    a = [Fraction(M[i, i], denom) for i in range(M.rows)]
    b = {(i, j): Fraction(M[i, j] + M[j, i], denom) for i, j in combinations(range(M.rows), 2)}
    try:
        form = LinkingForm(H, a, b)
    except ValueError:
        raise InvalidStructureError("extracted values are not a quadratic function") from None
    if not nondegenerate(form):
        raise DegenerateFormError("extracted linking form is degenerate")
    return form


def certify_ef(S_e: StructuredComplex, S_f: StructuredComplex) -> int | None:
    """beta of the linking form of the tensor product; 4 for the built-ins.

    The two factors and their product must pass ``poincare_check``; where
    one does not there is no class to certify, and the result is None.
    A tensor of even duality dimension carries no linking form; its class
    is declared zero exactly when the homology of the product contains no
    2-torsion (as for the tensor unit), and is an error otherwise.
    """
    if not (poincare_check(S_e) and poincare_check(S_f) and poincare_check(T := tensor_structured(S_e, S_f))):
        return None
    if T.dimension % 2 == 0:
        lo, hi = T.complex.window()
        for k in range(lo, hi + 1):
            h = T.complex.homology(k)
            if any(d % 2 == 0 for d in h.torsion):
                raise DegenerateFormError(
                    "even-dimensional product with 2-torsion homology has no linking form"
                )
        return 0
    return brown_kervaire(linking_form(T))


# ---------------------------------------------------------------------------
# Built-in representatives
# ---------------------------------------------------------------------------


def representative(name: str) -> StructuredComplex:
    """Named chain-level representatives used by the verification pipeline.

    E: Z --2--> Z in degrees 0 -> -1 with its (-1)-dimensional symmetric
       structure (the nontrivial symmetric form on Z/2 placed in degree -1).
    F: Z^2 in degree 1 with the Arf-1 quadratic refinement of the standard
       skew hyperbolic form, as a 2-dimensional quadratic complex.  The
       underlying symmetrised form here is [[0,1],[-1,0]]; the description
       of it as ((a,b),(c,d)) -> ac - bd in the literature is recorded in
       the README as a known normalisation discrepancy.
    hyperbolic: same complex with the Arf-0 refinement q(a,b) = ab.
    unit: Z in degree 0 with the identity symmetric form.
    """
    if name == "E":
        cx = IntComplex({0: 1, -1: 1}, {0: [[2]]})
        return StructuredComplex(cx, "symmetric", -1, {(0, 0): [[1]], (0, -1): [[-1]], (1, -1): [[1]]})
    if name == "F":
        return StructuredComplex(IntComplex({1: 2}), "quadratic", 2, {(0, 1): [[1, 1], [0, 1]]})
    if name == "hyperbolic":
        return StructuredComplex(IntComplex({1: 2}), "quadratic", 2, {(0, 1): [[0, 1], [0, 0]]})
    if name == "unit":
        return StructuredComplex(IntComplex({0: 1}), "symmetric", 0, {(0, 0): [[1]]})
    raise KeyError(f"unknown representative {name!r}")
