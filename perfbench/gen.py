"""Seeded input files for the `linking` and `dense` workloads.

Everything here is built from first principles, not through the program's
own constructors, and is checked before it is written, so a generator bug
cannot pass for a program failure:

* structured complexes are block sums of E (x) plane, where a plane is the
  Arf-1 quadratic plane F or the hyperbolic plane H; every file is parsed back
  through ``StructuredComplex`` with validation on, and the unhidden complex
  passes ``poincare_check``;
* a hiding change of basis uses unimodular matrices whose product with their
  stated inverse is checked to be the identity;
* linking forms are orthogonal sums of cyclic, hyperbolic and skew pieces with
  closed-form Brown-Kervaire values, cross-checked by a floating-point Gauss
  sum over the whole group.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from fractions import Fraction

# The quadratic refinements of the two planes on Z^2 (see poincare.representative).
PLANES = {"F": ((1, 1), (0, 1)), "H": ((0, 1), (0, 0))}
PLANE_BETA = {"F": 4, "H": 0}


class GeneratorError(AssertionError):
    """A generated input failed its own self-check."""


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def unimodular(n, rng, mult, steps):
    """(A, A^-1) from `steps` random row additions with multipliers up to `mult`."""
    a, ainv = identity(n), identity(n)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([s * m for m in range(1, mult + 1) for s in (1, -1)])
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in ainv:
            row[j] -= c * row[i]
    if matmul(a, ainv) != identity(n):
        raise GeneratorError("unimodular matrix and its inverse do not multiply to I")
    return a, ainv


def signed_permutation(n, rng):
    """A random signed permutation matrix; its inverse is its transpose."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Structured complexes: E (x) (F^a + H^b), optionally with contractible summands
# ---------------------------------------------------------------------------


def block_sum_complex(planes, contractible=(0, 0, 0)):
    """The quadratic 1-dimensional complex E (x) (sum of planes) as a dict.

    ``contractible = (c0, c1, c2)`` adds c0 copies of Z --1--> Z in degrees
    0 -> -1, c1 in degrees 1 -> 0 and c2 in degrees 2 -> 1, with zero structure.
    Layout: degree 0 is [planes | c1 targets | c0 sources], degree 1 is
    [planes | c1 sources | c2 targets].  Returned as {"ranks", "d", "psi"}
    with d[k] : C_k -> C_(k-1) and psi[(level, k)] pairing C_k with C_(1-k).
    """
    c0, c1, c2 = contractible
    n = 2 * len(planes)
    ranks = {-1: c0, 0: n + c1 + c0, 1: n + c1 + c2, 2: c2}
    d = {k: [[0] * ranks[k] for _ in range(ranks[k - 1])] for k in (0, 1, 2)}
    for i in range(n):
        d[1][i][i] = 2
    for i in range(c1):
        d[1][n + i][n + i] = 1
    for i in range(c0):
        d[0][i][n + c1 + i] = 1
    for i in range(c2):
        d[2][n + c1 + i][i] = 1
    psi0 = [[0] * ranks[1] for _ in range(ranks[0])]
    psi1 = [[0] * ranks[0] for _ in range(ranks[1])]
    for b, name in enumerate(planes):
        for i in range(2):
            for j in range(2):
                psi0[2 * b + i][2 * b + j] = -PLANES[name][i][j]
                psi1[2 * b + i][2 * b + j] = -PLANES[name][i][j]
    return {"ranks": ranks, "d": d, "psi": {(0, 0): psi0, (0, 1): psi1}}


def change_basis(cx, bases):
    """Transport a complex along x' = A_k x in each degree k.

    ``bases[k] = (A_k, A_k^-1)``; degrees not listed keep their basis.  Then
    d'_k = A_(k-1) d_k A_k^-1 and psi'_(l,k) = A_k^-T psi_(l,k) A_(1+l-k)^-1,
    a chain isomorphism carrying the structure, so every invariant survives.
    """
    def a(k):
        return bases[k][0] if k in bases else identity(cx["ranks"][k])

    def ainv(k):
        return bases[k][1] if k in bases else identity(cx["ranks"][k])

    d = {k: matmul(matmul(a(k - 1), m), ainv(k)) for k, m in cx["d"].items()}
    psi = {(lv, k): matmul(matmul(transpose(ainv(k)), m), ainv(1 + lv - k))
           for (lv, k), m in cx["psi"].items()}
    return {"ranks": cx["ranks"], "d": d, "psi": psi}


def complex_doc(cx):
    """The structured-complex JSON document the CLI reads."""
    ranks = cx["ranks"]
    return {
        "ranks": {str(k): r for k, r in sorted(ranks.items()) if r},
        "differentials": {
            str(k): m for k, m in sorted(cx["d"].items()) if ranks[k] and ranks[k - 1]
        },
        "kind": "quadratic",
        "dimension": 1,
        "psi": {f"{lv},{k}": m for (lv, k), m in sorted(cx["psi"].items())},
    }


def check_complex(doc, poincare=True):
    """Validate a document through the program's own parser and checks."""
    from lspectra.poincare import StructuredComplex, poincare_check

    try:
        sc = StructuredComplex.from_json(doc)
    except ValueError as exc:
        raise GeneratorError(f"generated complex rejected: {exc}") from exc
    if poincare and not poincare_check(sc):
        raise GeneratorError("generated complex is not Poincare")


def planes_beta(planes):
    return sum(PLANE_BETA[p] for p in planes) % 8


def plane_shuffle(cx, planes, rng, flip_d=False):
    """Apply one seeded signed permutation to the plane coordinates of degrees 0 and 1.

    The same signed permutation in both degrees leaves d = 2I on the planes
    unchanged, so only psi moves.  With ``flip_d`` degree 1 also gets its own
    seeded signs, and d on the planes becomes diag(+-2).
    """
    n = 2 * len(planes)
    p = signed_permutation(n, rng)
    per_degree = {0: p, 1: p}
    if flip_d:
        per_degree[1] = [[rng.choice((1, -1)) * x for x in row] for row in p]
    bases = {}
    for k, pk in per_degree.items():
        a = identity(cx["ranks"][k])
        for i in range(n):
            a[i][:n] = pk[i]
        bases[k] = (a, transpose(a))  # a signed permutation is orthogonal
    return change_basis(cx, bases)


# ---------------------------------------------------------------------------
# Linking forms: orthogonal sums of cyclic, hyperbolic and skew pieces
# ---------------------------------------------------------------------------


def piece_beta(piece):
    """Closed-form Brown-Kervaire value of one piece.

    cyclic (k, a): q(x) = a x^2 / 2^(k+1) on Z/2^k; the quadratic Gauss sum
    gives beta = (1 if a = 1 mod 4 else 7) + 4 [a = +-3 mod 8 and k even].
    hyperbolic (k): q(x, y) = x y / 2^k, beta = 0.
    skew (k): q(x, y) = (x^2 + x y + y^2) / 2^k, beta = 4 k mod 8.
    """
    kind, k = piece[0], piece[1]
    if kind == "cyclic":
        a = piece[2]
        return ((1 if a % 4 == 1 else 7) + (4 if a % 8 in (3, 5) and k % 2 == 0 else 0)) % 8
    if kind == "hyperbolic":
        return 0
    return (4 * k) % 8


def _piece_q(piece, coords):
    kind, k = piece[0], piece[1]
    d = 1 << k
    if kind == "cyclic":
        (x,) = coords
        return Fraction(piece[2] * x * x, 2 * d)
    x, y = coords
    if kind == "hyperbolic":
        return Fraction(x * y, d)
    return Fraction(x * x + x * y + y * y, d)


def form_doc(pieces):
    """Linking-form JSON for the orthogonal sum of ``pieces``.

    Generators are ordered by ascending cyclic order (stable in piece order),
    which is the invariant-factor order the program uses for coordinates.
    """
    slots = []  # (divisor, piece index, local coordinate index)
    for idx, piece in enumerate(pieces):
        size = 1 if piece[0] == "cyclic" else 2
        for c in range(size):
            slots.append((1 << piece[1], idx, c))
    slots.sort(key=lambda s: s[0])
    factors = [s[0] for s in slots]
    q = {}
    for x in itertools.product(*(range(f) for f in factors)):
        local = [[0] * (1 if p[0] == "cyclic" else 2) for p in pieces]
        for v, (_, idx, c) in zip(x, slots):
            local[idx][c] = v
        val = sum((_piece_q(p, loc) for p, loc in zip(pieces, local)), Fraction(0)) % 1
        q["(" + ",".join(map(str, x)) + ")"] = str(val)
    return {"factors": factors, "q": q}


def float_beta(doc):
    """Brown-Kervaire value from a floating-point Gauss sum over a form file."""
    order = math.prod(doc["factors"])
    total = sum(cmath.exp(2j * math.pi * float(Fraction(v))) for v in doc["q"].values())
    if abs(abs(total) ** 2 - order) > 1e-6 * order:
        raise GeneratorError("Gauss sum of a generated form has the wrong norm")
    return round(cmath.phase(total) / (math.pi / 4)) % 8


def random_pieces(rng, log_order):
    """Seeded pieces whose orders multiply to 2^log_order."""
    pieces = []
    left = log_order
    while left:
        kind = rng.choice(("cyclic", "hyperbolic", "skew") if left >= 2 else ("cyclic",))
        if kind == "cyclic":
            k = rng.randint(1, min(left, 3))
            pieces.append(("cyclic", k, rng.choice((1, 3, 5, 7))))
            left -= k
        else:
            k = rng.randint(1, min(left // 2, 2))
            pieces.append((kind, k))
            left -= 2 * k
    return pieces


def checked_form(pieces):
    """(document, expected beta) after the float cross-check."""
    doc = form_doc(pieces)
    beta = sum(piece_beta(p) for p in pieces) % 8
    if float_beta(doc) != beta:
        raise GeneratorError(f"closed-form beta {beta} disagrees with the Gauss sum for {pieces}")
    return doc, beta


def shuffled(rng, items):
    out = list(items)
    rng.shuffle(out)
    return out


def new_rng(*parts):
    """A generator seeded from a tuple of ints and strings, stable across runs."""
    return random.Random(":".join(map(str, parts)))
