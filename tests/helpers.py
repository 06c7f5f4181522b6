"""Independent oracles used by the test suite.

Each oracle recomputes an expected value along a different route from the
implementation it checks: canonical groups from elementary divisors found
by trial division, invariant factors from gcds of minors, lattice
equality by Hermite reduction, rewriting by a scan of every rule of a
presentation whose families are expanded into plain rules, the
generator-product check at every degree through ``reduce``, Hom/Ext by
exhaustive enumeration, Ext by an explicit free resolution, Kunneth groups
from closed formulas, Gauss sums in floating point and one root of unity
at a time, quadratic functions by checking homogeneity and
bilinearity over all pairs of elements, and nondegeneracy and orthogonal
sums of linking forms element by element, and a linking-form file through
a table keyed by coordinates; the Arf invariant by counting
the zeros of q; the lift exponent of a linking form by a search over
2-powers per generator; the text of a table by rendering each degree;
the integer-matrix kernels (products, transposes, sums, Kronecker products,
blocks, solves, kernels, homology lifts) and the structure relations entry
by entry, and at every degree of the window; the ring bases as written out
by hand, ring by ring; and a complex's acyclicity after inverting 2, read
off its homology degree by degree.
"""

from __future__ import annotations

import cmath
import inspect
import itertools
from fractions import Fraction
from math import gcd

from lspectra import ltables
from lspectra.abelian import FgAbGroup, IntMatrix, _parse_int, _respects_order, cokernel, smith_normal_form
from lspectra.chain import IntComplex
from lspectra.forms import CycEight, DegenerateFormError, F2QuadForm, LinkingForm, SymForm, _parse_value
from lspectra.graded import GradedGroup
from lspectra.ltables import ONE, RingPresentation, mono, mono_mul, presentation
from lspectra.poincare import StructuredComplex, representative, tensor_structured


def replaced(pres: RingPresentation, **changes) -> RingPresentation:
    """A new presentation of the constructor's fields of ``pres``, those named in ``changes`` replaced.

    It is built afresh, so its memos start empty.
    """
    fields = {name: getattr(pres, name) for name in inspect.signature(RingPresentation).parameters}
    return RingPresentation(**{**fields, **changes})


# -- canonical form by prime-power regrouping ---------------------------------------


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


def canonical_by_primes(divisors) -> FgAbGroup:
    """The group of an unordered list of cyclic orders (0 meaning Z), through
    the elementary divisors: factor each order by trial division and multiply
    the i-th largest power of every prime into the i-th invariant factor."""
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
    return FgAbGroup(rank, tuple(sorted(factors)))


# -- invariant factors via determinantal divisors ---------------------------------


def minors_gcd_invariant_factors(A: IntMatrix):
    """d_k = gcd(k x k minors); invariant factor k is d_k / d_(k-1)."""
    n = min(A.rows, A.cols)
    gcds = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(A.rows), k):
            for cols in itertools.combinations(range(A.cols), k):
                sub = IntMatrix([[A[i, j] for j in cols] for i in rows])
                g = gcd(g, sub.det())
                if g == 1:
                    break
            if g == 1:
                break
        gcds.append(g)
        if g == 0:
            break
    factors = []
    for k in range(1, len(gcds)):
        if gcds[k] == 0:
            break
        factors.append(gcds[k] // gcds[k - 1])
    return factors


# -- rewriting by a scan of every rule ------------------------------------------------


def _family_range(window) -> int:
    lo, hi = window
    return max(2, (max(abs(lo), abs(hi)) // 4) + 2)


def expanded_presentation(name: str, window=(-16, 16)) -> RingPresentation:
    """``presentation(name)`` with each family expanded into plain rules up to a window's range.

    L^gs and scriptL get the members y_i, z_i for i up to n = max|W|/4 + 2
    and one plain rule per instance of each schema whose members all lie in
    that range, in the order in which the schemata list them: rule by rule,
    then ascending index tuples (the last block, all of whose rules send
    their pattern to 0, interleaves its families by i).  The other rings
    have no families.
    """
    if name not in ("Lgs", "scriptL"):
        return presentation(name)
    n_fam = _family_range(window)
    gens = [("x", 4)]
    rewrites = []
    torsion = []
    if name == "Lgs":
        gens.append(("e", 1))
        rewrites.append((mono(("e", 2)), 0, ONE))
        torsion.append((mono(("e", 1)), 2))
    for i in range(1, n_fam + 1):
        gens.append((f"y{i}", -4 * i))
    if name == "Lgs":
        for i in range(1, n_fam + 1):
            gens.append((f"z{i}", -4 * i - 2))
    # x-transfer relations
    rewrites.append((mono(("x", 1), ("y1", 1)), 8, ONE))
    for i in range(1, n_fam):
        rewrites.append((mono(("x", 1), (f"y{i + 1}", 1)), 1, mono((f"y{i}", 1))))
    if name == "Lgs":
        rewrites.append((mono(("x", 1), ("z1", 1)), 0, ONE))
        for i in range(1, n_fam):
            rewrites.append((mono(("x", 1), (f"z{i + 1}", 1)), 1, mono((f"z{i}", 1))))
    # products within the families
    for i in range(1, n_fam + 1):
        for j in range(i, n_fam + 1):
            if i + j <= n_fam:
                rewrites.append(
                    (mono((f"y{i}", 1), (f"y{j}", 1)), 8, mono((f"y{i + j}", 1)))
                )
    if name == "Lgs":
        for i in range(1, n_fam + 1):
            rewrites.append((mono(("e", 1), (f"y{i}", 1)), 0, ONE))
            rewrites.append((mono(("e", 1), (f"z{i}", 1)), 0, ONE))
            torsion.append((mono((f"z{i}", 1)), 2))
            for j in range(i, n_fam + 1):
                rewrites.append((mono((f"y{i}", 1), (f"z{j}", 1)), 0, ONE))
                if j > i:  # z_i y_i is y_i z_i, stated just above
                    rewrites.append((mono((f"z{i}", 1), (f"y{j}", 1)), 0, ONE))
                rewrites.append((mono((f"z{i}", 1), (f"z{j}", 1)), 0, ONE))
    return RingPresentation(
        name=name,
        generators=tuple(gens),
        rewrites=tuple(rewrites),
        torsion_patterns=tuple(torsion),
    )


def expand_schemata(pres: RingPresentation, n_fam: int) -> RingPresentation:
    """``pres`` with the members 1..n_fam of each family as plain generators and each schema expanded.

    Each rule with index names is replaced, where it stands in the list, by
    its instances whose pattern names members 1..n_fam alone, in ascending
    order of index tuples (non-decreasing, each value at least 1), so a
    scan meets them in the order the first match takes them.  Plain rules
    stay as they are.  The instances are built here by string arithmetic on
    the index names.
    """
    def instances(factors, names, values):
        binding = dict(zip(names, values))
        return mono(*((s if isinstance(s, str) else f"{s[0]}{sum(binding[n] for n in s[1]) + s[2]}", e)
                      for s, e in factors))

    def expanded(rules):
        out = []
        for pattern, *rest in rules:
            names = sorted({n for s, _ in pattern if not isinstance(s, str) for n in s[1]})
            for values in itertools.combinations_with_replacement(range(1, n_fam + 1), len(names)):
                if all(sum(values[names.index(n)] for n in s[1]) + s[2] <= n_fam
                       for s, _ in pattern if not isinstance(s, str)):
                    out.append((instances(pattern, names, values),
                                *(instances(r, names, values) if isinstance(r, tuple) else r for r in rest)))
        return tuple(out)

    gens = [(s, d) if isinstance(d, int) else (f"{s}{i}", d[0] * i + d[1])
            for s, d in pres.generators for i in ([None] if isinstance(d, int) else range(1, n_fam + 1))]
    return RingPresentation(pres.name, tuple(gens), expanded(pres.rewrites), expanded(pres.torsion_patterns))


def mono_div_by_dict(m, pattern):
    """m / pattern through a symbol -> exponent dict, sorted back into a monomial."""
    return mono(*m, *((s, -e) for s, e in pattern))


def mono_divides(pattern, m) -> bool:
    exps = dict(m)
    return all(exps.get(s, 0) >= e for s, e in pattern)


def reduce_by_scan(pres, element: dict, memo=None) -> dict:
    """``RingPresentation.reduce`` with every rule scanned for every monomial.

    A monomial is rewritten by the first rule, in list order, whose pattern
    divides it; a coefficient is reduced by every torsion pattern dividing
    its monomial, in list order, a modulus 0 being no relation.  ``memo``,
    when given, keeps each monomial's scan result (its first rule, or None)
    across calls; it belongs to the rule list of one presentation.
    """
    memo = {} if memo is None else memo
    work = dict(element)
    while True:
        hit = None
        for m in work:
            if m not in memo:
                memo[m] = _first_rule(pres.rewrites, m)
            if memo[m] is not None:
                hit = (m, *memo[m])
                break
        if hit is None:
            break
        m, pattern, coeff, repl = hit
        c = work.pop(m)
        if coeff:
            new = mono_mul(mono_div_by_dict(m, pattern), repl)
            work[new] = work.get(new, 0) + c * coeff
    out = {}
    for m, c in work.items():
        for pattern, modulus in pres.torsion_patterns:
            if modulus and mono_divides(pattern, m):  # a modulus 0 is no relation
                c %= modulus
        if c:
            out[m] = c
    return out


def _first_rule(rewrites, m):
    """The first (pattern, coeff, repl) in list order whose pattern divides m, or None."""
    exps = dict(m)  # mono_divides, with m unpacked once for all rules
    for pattern, coeff, repl in rewrites:
        for s, e in pattern:
            if exps.get(s, 0) < e:
                break
        else:
            return pattern, coeff, repl
    return None


def products_in_basis_by_scan(pres, window) -> bool:
    """The generator-product check of ``verify_presentation``, at every source degree of the window.

    Each generator and family member of degree at most the window's width in
    size times each basis element of every degree d, with d and the
    product's degree in the window, is reduced by ``reduce`` and must land in
    ``ltables.ring_basis``; the matrix of each (generator, d) must respect
    the orders.  Empty source degrees are visited too, and the target row is
    found by a list search.
    """
    lo, hi = window
    for sym, sdeg in pres._generators_within(hi - lo):
        for n in range(max(lo, lo - sdeg), min(hi, hi - sdeg) + 1):
            src, tgt = ltables.ring_basis(pres.name, n), ltables.ring_basis(pres.name, n + sdeg)
            rows = [tm for tm, _ in tgt]
            m = [[0] * len(src) for _ in rows]
            for j, (bm, _) in enumerate(src):
                for pm, c in pres.reduce({mono_mul(mono((sym, 1)), bm): 1}).items():
                    if pm not in rows:
                        return False
                    m[rows.index(pm)][j] = c
            if not all(_respects_order(x, o, t) for row, (_, t) in zip(m, tgt) for x, (_, o) in zip(row, src)):
                return False
    return True


def random_ring_element(rng, symbols) -> dict:
    """1-4 terms, each a product of 1-3 powers (exponents 0-3) with a coefficient in [-9, 9]."""
    element = {}
    for _ in range(rng.randint(1, 4)):
        m = mono(*((rng.choice(symbols), rng.randint(0, 3)) for _ in range(rng.randint(1, 3))))
        element[m] = element.get(m, 0) + rng.randint(-9, 9)
    return element


# -- lattices by Hermite reduction ----------------------------------------------------


def lattice_canonical(gens: IntMatrix) -> tuple:
    """Canonical form (row-style Hermite) of the column lattice of ``gens``.

    Two generating matrices span the same sublattice of Z^n iff their
    canonical forms agree.
    """
    rows = [list(r) for r in gens.transpose().entries]
    rows = [r for r in rows if any(r)]
    n = gens.rows
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


# -- finite abelian groups by exhaustive enumeration --------------------------------


def elements_of(group: FgAbGroup):
    return list(itertools.product(*(range(d) for d in group.torsion)))


def add_in(group: FgAbGroup, x, y):
    return tuple((a + b) % d for a, b, d in zip(x, y, group.torsion))


def scale_in(group: FgAbGroup, r, x):
    return tuple((r * a) % d for a, d in zip(x, group.torsion))


def group_from_annihilator_counts(elements, add, scale, order):
    """Reconstruct the isomorphism class of a finite abelian group.

    ``elements`` is the full element list; f(m) = #{x : m x = 0} determines
    the group, prime by prime.
    """

    def is_zero(t):
        if isinstance(t, tuple):
            return all(is_zero(i) for i in t)
        return t == 0

    def count_killed(m):
        return sum(1 for x in elements if is_zero(scale(m, x)))

    n = order
    divisors = []
    p = 2
    rest = n
    primes = []
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    for p in primes:
        prev = 1
        j = 1
        counts = []
        while True:
            c = count_killed(p**j)
            counts.append((j, c))
            if c == prev:
                break
            prev = c
            j += 1
        # a_j = number of cyclic p-factors of order >= p^j
        a = []
        last = 1
        for j, c in counts:
            ratio = c // last
            exp = 0
            while ratio > 1:
                ratio //= p
                exp += 1
            a.append(exp)
            last = c
        for j in range(len(a)):
            exactly = a[j] - (a[j + 1] if j + 1 < len(a) else 0)
            divisors.extend([p ** (j + 1)] * exactly)
    return canonical_by_primes(divisors)


def hom_by_enumeration(A: FgAbGroup, B: FgAbGroup, cap=1 << 15):
    """Hom(A, B) for finite groups, as the group of all homomorphisms."""
    assert A.free_rank == 0 and B.free_rank == 0
    b_elems = elements_of(B)
    choices = []
    for d in A.torsion:
        valid = [b for b in b_elems if not any(scale_in(B, d, b))]
        choices.append(valid)
    total = 1
    for c in choices:
        total *= len(c)
    if total > cap:
        raise ValueError("enumeration too large")
    homs = list(itertools.product(*choices))

    def add(h1, h2):
        return tuple(add_in(B, x, y) for x, y in zip(h1, h2))

    def scale(r, h):
        return tuple(scale_in(B, r, x) for x in h)

    return group_from_annihilator_counts(homs, add, scale, len(homs))


def ext_by_resolution(A: FgAbGroup, B: FgAbGroup):
    """Ext(A, B) as the direct sum of B/dB over the torsion of A."""
    out = FgAbGroup()
    for d in A.torsion:
        g = B.gens()
        m = IntMatrix.diagonal([d] * g, rows=g, cols=g)
        rel = B.relation_matrix()
        out = out.direct_sum(cokernel(m.hstack(rel) if rel.cols else m))
    return out


# -- Kunneth -----------------------------------------------------------------------


def tensor_closed_form(A: FgAbGroup, B: FgAbGroup):
    divisors = [0] * (A.free_rank * B.free_rank)
    divisors += [d for d in A.torsion for _ in range(B.free_rank)]
    divisors += [e for e in B.torsion for _ in range(A.free_rank)]
    divisors += [gcd(d, e) for d in A.torsion for e in B.torsion]
    return canonical_by_primes(divisors)


def tor_closed_form(A: FgAbGroup, B: FgAbGroup):
    return canonical_by_primes([gcd(d, e) for d in A.torsion for e in B.torsion])


def kunneth_parts(C, D, n):
    """(tensor part, Tor part) of H_n(C (x) D) from the factors' homology."""
    lo_c, hi_c = C.window()
    lo_d, hi_d = D.window()
    tens = FgAbGroup()
    tor = FgAbGroup()
    for p in range(lo_c, hi_c + 1):
        hp = C.homology(p)
        tens = tens.direct_sum(tensor_closed_form(hp, D.homology(n - p)))
        tor = tor.direct_sum(tor_closed_form(hp, D.homology(n - 1 - p)))
    return tens, tor


# -- matrices and forms built only by the tests ------------------------------------


def block_diagonal(*blocks: IntMatrix) -> IntMatrix:
    """The matrix with ``blocks`` down its diagonal and zeros elsewhere."""
    placed, top, left = [], 0, 0
    for b in blocks:
        placed.append((top, left, b))
        top, left = top + b.rows, left + b.cols
    return IntMatrix.from_blocks(top, left, placed)


def block_sum(f: SymForm, g: SymForm) -> SymForm:
    return SymForm(block_diagonal(f.gram, g.gram))


def orthogonal_sum(f: F2QuadForm, g: F2QuadForm) -> F2QuadForm:
    return F2QuadForm(block_diagonal(f.matrix, g.matrix))


def skew_unit(k: int) -> LinkingForm:
    """q(x, y) = (x^2 + x y + y^2) / 2^k on (Z/2^k)^2."""
    d = 1 << k
    return LinkingForm(FgAbGroup(0, (d, d)), [Fraction(1, d)] * 2, {(0, 1): Fraction(1, d)})


def two_rank_parity(L: LinkingForm) -> int:
    """log2 |G| mod 2, the second detecting invariant of the Witt class.

    This implements the reading "2-adic logarithm of the size of the
    domain" as the parity of log2 |G|; see the package docs for the caveat
    on normalisation.
    """
    order = L.group.order()
    return (order.bit_length() - 1) % 2


# -- floating point Gauss sum --------------------------------------------------------


def gauss_sum_float(L):
    return sum(cmath.exp(2j * cmath.pi * float(L.q(x))) for x in L.group.elements())


def random_linking_form(rng, max_order=256):
    """Random nondegenerate form as an orthogonal sum of standard pieces."""
    pieces = []
    order = 1
    while True:
        kind = rng.choice(["cyclic", "hyperbolic", "skew"])
        k = rng.randint(1, 3)
        size = (1 << k) if kind == "cyclic" else (1 << (2 * k))
        if order * size > max_order:
            break
        if kind == "cyclic":
            pieces.append(LinkingForm.cyclic(k, rng.choice([1, 3, 5, 7])))
        elif kind == "hyperbolic":
            pieces.append(LinkingForm.hyperbolic(k))
        else:
            pieces.append(skew_unit(k))
        order *= size
        if rng.random() < 0.3:
            break
    if not pieces:
        pieces = [LinkingForm.cyclic(1, 1)]
    form = pieces[0]
    for p in pieces[1:]:
        form = form.direct_sum(p)
    return form


def random_matrix(rng, rows, cols, lo=-50, hi=50):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_group(rng, max_order=64):
    divisors = []
    if rng.random() < 0.4:
        divisors += [0] * rng.randint(1, 2)
    order = 1
    while rng.random() < 0.6:
        d = rng.choice([2, 2, 3, 4, 5, 8, 9, 12])
        if order * d > max_order:
            break
        divisors.append(d)
        order *= d
    return FgAbGroup.from_divisors(divisors)


# -- quadratic functions by exhaustive pairing -------------------------------------


def polarization_by_elements(group, table, x, y):
    """b(x, y) = q(x+y) - q(x) - q(y) mod 1, read off a value table."""
    return (table[add_in(group, x, y)] - table[x] - table[y]) % 1


def check_quadratic_by_pairs(group, table, scalars):
    """q(r x) = r^2 q(x) for the listed scalars, and bilinear polarization.

    Bilinearity is verified by comparing b against the bilinear extension of
    its values on generator pairs over the whole group: O(|G|^2 k^2).
    """
    elements = elements_of(group)
    for r in scalars:
        for x in elements:
            if table[scale_in(group, r, x)] != (r * r * table[x]) % 1:
                return False
    k = len(group.torsion)
    gens = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
    pairings = [[polarization_by_elements(group, table, gi, gj) for gj in gens] for gi in gens]
    for x in elements:
        for y in elements:
            expected = sum(
                (x[i] * y[j] * pairings[i][j] for i in range(len(x)) for j in range(len(y))),
                Fraction(0),
            ) % 1
            if polarization_by_elements(group, table, x, y) != expected:
                return False
    return True


def nondegenerate_by_elements(group, table):
    """No nonzero x has b(x, g_i) = 0 for every generator g_i."""
    k = len(group.torsion)
    gens = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
    return not any(
        all(polarization_by_elements(group, table, x, g) == 0 for g in gens)
        for x in elements_of(group) if any(x)
    )


def direct_sum_by_elements(L, M):
    """The value table of the orthogonal sum on the canonically ordered group."""
    divisors = list(L.group.torsion) + list(M.group.torsion)
    group = FgAbGroup.from_divisors(divisors)
    order_map = sorted(range(len(divisors)), key=lambda i: (divisors[i], i))
    left, right = L.qvals, M.qvals
    k = len(L.group.torsion)
    table = {}
    for x in elements_of(group):
        orig = [0] * len(divisors)
        for pos, i in enumerate(order_map):
            orig[i] = x[pos]
        table[x] = (left[tuple(orig[:k])] + right[tuple(orig[k:])]) % 1
    return group, table


def f2_nondegenerate_by_elimination(matrix: IntMatrix):
    """Full rank over GF(2) of the polarization M + M^T, by Gaussian elimination."""
    n = matrix.rows
    b = [[(matrix[i, j] + matrix[j, i]) % 2 for j in range(n)] for i in range(n)]
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


def arf_by_counting(f: F2QuadForm) -> int:
    """Democratic Arf invariant: the majority value of q over all 2^dim vectors, 0 at dimension 0.

    A nondegenerate q of dimension n = 2h vanishes on 2^(n-1) + 2^(h-1) vectors
    when its Arf invariant is 0, and on 2^(n-1) - 2^(h-1) when it is 1.  With a
    radical of rank r > 0 the count is 2^(n-1) or 2^(n-1) +- 2^((n+r)/2 - 1),
    so the count alone rejects a degenerate q.
    """
    n, m = f.dim, f.matrix
    if n % 2:
        raise DegenerateFormError("odd dimension")
    if n == 0:
        return 0
    zeros = 0
    for v in itertools.product((0, 1), repeat=n):
        zeros += sum(m[i, j] for i in range(n) if v[i] for j in range(i, n) if v[j]) % 2 == 0
    half, excess = 1 << (n - 1), 1 << (n // 2 - 1)
    if zeros == half + excess:
        return 0
    if zeros == half - excess:
        return 1
    raise DegenerateFormError("value distribution is not that of a nondegenerate form")


def random_generator_data(rng, max_order):
    """(group, a, b): random descending generator data, degenerate forms included.

    a_i has denominator dividing 2 d_i and b_ij denominator dividing
    gcd(d_i, d_j), which is exactly what descent allows on 2-groups.
    """
    divisors = []
    while rng.random() < 0.75:
        d = rng.choice([2, 2, 4, 8])
        if FgAbGroup.from_divisors(divisors + [d]).order() > max_order:
            break
        divisors.append(d)
    group = FgAbGroup.from_divisors(divisors)
    t = group.torsion
    a = [Fraction(rng.randrange(2 * d), 2 * d) for d in t]
    b = {(i, j): Fraction(rng.randrange(gcd(t[i], t[j])), gcd(t[i], t[j]))
         for i in range(len(t)) for j in range(i + 1, len(t))}
    return group, a, b


def form_from_json_by_dict(doc) -> LinkingForm:
    """``LinkingForm.from_json`` through a table {coordinates: Fraction}, every key parsed.

    Each key is split and read by ``_parse_int``, each value is a Fraction
    of its own, and every element, generators first, is looked up by its
    coordinates; the checks run in the order the reader documents.
    """
    group = FgAbGroup.from_divisors(doc["factors"])
    if list(doc["factors"]) != list(group.torsion):
        raise ValueError(f"factors {doc['factors']} must be the ascending invariant "
                         f"factors {list(group.torsion)} that the keys are written in")
    qvals = {tuple(map(_parse_int, filter(None, key.strip("()").split(",")))): _parse_value(val)
             for key, val in doc["q"].items()}
    if len(qvals) != len(doc["q"]):
        raise ValueError("two keys name the same element")
    if len(qvals) != group.order():
        raise ValueError(f"table holds {len(qvals)} values for {group.order()} elements")
    k = len(group.torsion)

    def value(x):
        if x not in qvals:
            raise ValueError(f"table has no value for the element {x}")
        return qvals[x]

    def q(*gens):
        return Fraction(value(tuple(int(i in gens) for i in range(k))))

    a = [q(i) for i in range(k)]
    b = {(i, j): q(i, j) - a[i] - a[j] for i, j in itertools.combinations(range(k), 2)}
    form = LinkingForm(group, a, b)
    den, values = form._numerators()
    for x, n in zip(group.elements(), values):
        p, r = value(x).as_integer_ratio()
        if (p * den - n * r) % (r * den):
            raise ValueError(f"table is not quadratic: q{x} = {qvals[x]}, not {Fraction(n, den)}")
    return form


def gauss_sum_by_elements(group, table, conductor):
    """The Gauss sum accumulated one root of unity per element."""
    from lspectra.forms import CycEight

    total = CycEight.zero(conductor)
    for x in elements_of(group):
        v = table[x]
        total = total + CycEight.root_power(v.numerator * (conductor // v.denominator), conductor)
    return total


# -- a structured complex whose homology hides behind unimodular bases -------------


def hidden_e_tensor_f_plus_h(rng):
    """E (x) (F + hyperbolic) plus contractible Z --1--> Z summands in degrees
    1 -> 0 and 0 -> -1, transported along random unimodular bases."""
    f_plus_h = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    plane = StructuredComplex(
        IntComplex({1: 4}), "quadratic", 2, {(0, 1): f_plus_h}
    )
    T = tensor_structured(representative("E"), plane)
    C = T.complex
    # block sums: degree 1 gains one generator, degree 0 two, degree -1 one
    extra = {1: 1, 0: 2, -1: 1}
    ranks = {k: C.rank(k) + extra.get(k, 0) for k in (1, 0, -1)}

    def grow(m, rows, cols, placements=()):
        out = [[0] * cols for _ in range(rows)]
        for i in range(m.rows):
            for j in range(m.cols):
                out[i][j] = m[i, j]
        for i, j in placements:
            out[i][j] = 1
        return IntMatrix(out, shape=(rows, cols))

    d = {
        1: grow(C.diff(1), ranks[0], ranks[1], [(C.rank(0), C.rank(1))]),
        0: grow(C.diff(0), ranks[-1], ranks[0], [(C.rank(-1), C.rank(0) + 1)]),
    }
    psi = {
        (lv, k): grow(m, ranks[k], ranks[1 + lv - k])
        for (lv, k), m in T.psi.items()
    }

    def unimodular(n):
        a, ainv = IntMatrix.identity(n), IntMatrix.identity(n)
        for _ in range(3 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            e = [[int(r == s) for s in range(n)] for r in range(n)]
            einv = [row[:] for row in e]
            e[i][j], einv[i][j] = c, -c
            a, ainv = IntMatrix(e) @ a, ainv @ IntMatrix(einv)
        return a, ainv

    bases = {k: unimodular(r) for k, r in ranks.items()}
    d = {k: bases[k - 1][0] @ m @ bases[k][1] for k, m in d.items()}
    psi = {
        (lv, k): bases[k][1].transpose() @ m @ bases[1 + lv - k][1]
        for (lv, k), m in psi.items()
    }
    return StructuredComplex(IntComplex(ranks, d), "quadratic", 1, psi)


# -- integer-matrix kernels entry by entry ------------------------------------------
#
# Each reference reads its operands through ``m[i, j]`` and the shape alone and
# returns (rows, cols, list of rows), the value ``shaped`` gives for a result.


def shaped(m: IntMatrix):
    return m.rows, m.cols, m.tolist()


def by_entry(rows, cols, entry):
    """The (rows, cols, list of rows) of the matrix with ``entry(i, j)`` at (i, j)."""
    return rows, cols, [[entry(i, j) for j in range(cols)] for i in range(rows)]


def product_by_entry(a, b):
    return by_entry(a.rows, b.cols, lambda i, j: sum(a[i, k] * b[k, j] for k in range(a.cols)))


def transpose_by_entry(a):
    return by_entry(a.cols, a.rows, lambda i, j: a[j, i])


def combination_by_entry(a, b, x, y):
    """x·a + y·b."""
    return by_entry(a.rows, a.cols, lambda i, j: x * a[i, j] + y * b[i, j])


def hstack_by_entry(a, b):
    return by_entry(a.rows, a.cols + b.cols, lambda i, j: a[i, j] if j < a.cols else b[i, j - a.cols])


def kron_by_entry(a, b, sign):
    return by_entry(a.rows * b.rows, a.cols * b.cols,
                    lambda i, j: sign * a[i // b.rows, j // b.cols] * b[i % b.rows, j % b.cols])


def from_columns_by_entry(cols, rows):
    return by_entry(rows, len(cols), lambda i, j: cols[j][i])


def from_blocks_by_entry(rows, cols, blocks):
    return by_entry(rows, cols, lambda i, j: sum(b[i - top, j - left] for top, left, b in blocks
                                                 if 0 <= i - top < b.rows and 0 <= j - left < b.cols))


def solve_by_entry(snf, b):
    """SnfResult.solve read off U, D and V entry by entry: x = V·y where D·y = U·b."""
    U, D, V = snf.U, snf.D, snf.V
    y = [0] * V.rows
    for i in range(U.rows):
        ub = sum(U[i, k] * b[k] for k in range(U.cols))
        d = D[i, i] if i < min(D.rows, D.cols) else 0
        if ub % d if d else ub:
            return None
        if d:
            y[i] = ub // d
    return [sum(V[i, k] * y[k] for k in range(V.cols)) for i in range(V.rows)]


def kernel_by_entry(snf):
    """The columns of V past the rank of D."""
    V, D = snf.V, snf.D
    rank = sum(1 for i in range(min(D.rows, D.cols)) if D[i, i])
    return by_entry(V.rows, V.cols - rank, lambda i, j: V[i, rank + j])


def acyclic_after_inverting_two(C: IntComplex) -> bool:
    """True iff every homology group of C is finite of 2-power order."""
    lo, hi = C.window()
    return all(not h.free_rank and h.is_two_primary() for h in map(C.homology, range(lo, hi + 1)))


def homology_lifts_by_entry(C: IntComplex, n: int):
    """The generator representatives of H_n(C) in C_n: each coordinate vector
    of a homology generator times the cycle basis K, entry by entry."""
    from lspectra.abelian import _lattice_coordinates, cokernel_with_gens, kernel_basis

    if C.rank(n) == 0:
        return []
    K = kernel_basis(C.diff(n))
    if K.cols == 0:
        return []
    _, gens, _ = cokernel_with_gens(_lattice_coordinates(K, C.diff(n + 1)))
    return [[sum(K[i, j] * g[j] for j in range(K.cols)) for i in range(K.rows)] for g in gens]


def structure_failures_by_entry(S: StructuredComplex):
    """The slots where S's structure relations fail, every psi block read
    through ``psi_matrix`` (zeros where absent) and every product entry by
    entry; the relations are those of ``structure_relation_failures``."""
    C, n = S.complex, S.dimension
    t = -1 if n % 4 == 1 else 1
    lo, hi = C.window()
    failures = []
    for level in range(S.max_level() + 2):
        for k in range(lo, hi + 2):
            kp = n + level + 1 - k if S.kind == "quadratic" else n - level + 1 - k
            if C.rank(k) == 0 or C.rank(kp) == 0:
                continue
            d_k, d_y = C.diff(k), C.diff(kp)
            first, second = S.psi_matrix(level, k - 1), S.psi_matrix(level, k)
            outer = -(-1) ** level
            eps = t * (-1) ** (k * kp)
            if S.kind == "quadratic":
                top, flip, own = S.psi_matrix(level + 1, k), S.psi_matrix(level + 1, kp), (-1) ** (level + 1)
            elif level:
                top, flip, own, eps = S.psi_matrix(level - 1, k), S.psi_matrix(level - 1, kp), 1, eps * (-1) ** level
            else:
                top = flip = None
            for x in range(C.rank(k)):
                for y in range(C.rank(kp)):
                    lhs = outer * (sum(d_k[a, x] * first[a, y] for a in range(d_k.rows))
                                   + (-1) ** k * sum(second[x, b] * d_y[b, y] for b in range(d_y.rows)))
                    rhs = 0 if top is None else own * top[x, y] + eps * flip[y, x]
                    if lhs != rhs:
                        break
                else:
                    continue
                failures.append((level, k))
                break
    return failures


def structure_failures_by_range(S: StructuredComplex):
    """The slots where S's structure relations fail, visiting every degree of
    lo..hi+1 at every level and skipping those where either rank is 0: the
    loop ``structure_relation_failures`` ran before it visited the degrees of
    nonzero rank alone."""
    from lspectra.poincare import _flipped, _lhs

    C, n = S.complex, S.dimension
    lo, hi = C.window()
    failures = []
    for level in range(S.max_level() + 2):
        for k in range(lo, hi + 2):
            kp = n + level + 1 - k if S.kind == "quadratic" else n - level + 1 - k
            if C.rank(k) == 0 or C.rank(kp) == 0:
                continue
            lhs = _lhs(S, level, k, kp)
            if S.kind == "quadratic":
                sgn = -1 if (level + 1) % 2 else 1
                rhs = S.psi_matrix(level + 1, k).scale(sgn) + _flipped(S, level + 1, k)
            elif level == 0:
                rhs = IntMatrix.zero(C.rank(k), C.rank(kp))
            else:
                sgn = -1 if level % 2 else 1
                rhs = S.psi_matrix(level - 1, k) + _flipped(S, level - 1, k).scale(sgn)
            if lhs != rhs:
                failures.append((level, k))
    return failures


# -- the lift exponent of a linking form by search ---------------------------------


def lift_exponent_by_search(S: StructuredComplex) -> int:
    """The least K with 2^K g a boundary for every carrier generator g of S,
    found per generator by trying 2^0, 2^1, ... up to twice the group order."""
    H, gens, _ = S.complex.homology_with_gens(0)
    snf = smith_normal_form(S.complex.diff(1))
    K = 0
    for g in gens:
        k = 0
        while snf.solve([(1 << k) * v for v in g]) is None:
            k += 1
            assert 1 << k <= 2 * H.order(), "no 2-power lift found"
        K = max(K, k)
    return K


# -- the Milgram norm: |x|^2 in Z[zeta_N] -------------------------------------------


def conjugate(x: CycEight) -> CycEight:
    """Complex conjugation zeta -> zeta^(-1) of a cyclotomic integer."""
    dim = x.conductor // 2
    out = [0] * dim
    out[0] = x.coeffs[0]
    for i in range(1, dim):
        # zeta^(-i) = -zeta^(dim - i)
        out[dim - i] -= x.coeffs[i]
    return CycEight(out, x.conductor)


def norm_squared(x: CycEight) -> CycEight:
    """|x|^2 = x times its conjugate; Milgram's theorem makes it |G| for the Gauss sum of a nondegenerate form."""
    return x * conjugate(x)


# -- graded tables on another window -----------------------------------------------


def restrict(G: GradedGroup, window) -> GradedGroup:
    """A copy of G on another window, read through G's lookup.

    The copy keeps G's period when the window spans it.  The verifiers need
    no copy: they read their tables over the report window in place.
    """
    lo, hi = window
    groups = {n: G[n] for n in range(lo, hi + 1)}
    p = G.period if G.period is not None and hi - lo >= G.period else None
    return GradedGroup(window, groups, p)


def component_read_at(sources, targets, shift, coeffs, n) -> IntMatrix:
    """The component at n of ``scalar_map(sources, targets, shift, coeffs, ...)``, with the rule read at n itself.

    This is how maps were once read, at every degree and with no core or
    tails: coeffs(n)[i][j] on the summands with a generator at n and n + shift.
    """
    c = coeffs(n)
    rows = [i for i, t in enumerate(targets) if t[n + shift].gens()]
    cols = [j for j, s in enumerate(sources) if s[n].gens()]
    return IntMatrix([[c[i][j] for j in cols] for i in rows], shape=(len(rows), len(cols)))


def rendered_by_degree(G: GradedGroup) -> list:
    """(n, G[n].render()) for each degree n of G's window, each rendered on its own."""
    return [(n, G[n].render()) for n in G.degrees()]


# -- ring bases by hand ----------------------------------------------------------------


def ring_basis_by_hand(name: str, degree: int):
    """Per-degree basis monomials with torsion orders (0 meaning free), written out ring by ring.

    It is the oracle of ``ltables.ring_basis``, which reads them off the presentations.
    """
    d = degree
    if name == "Ls":
        if d % 4 == 0:
            return [(mono(("x", d // 4)), 0)]
        if d % 4 == 1:
            return [(mono(("e", 1), ("x", (d - 1) // 4)), 2)]
        return []
    if name == "Ln":
        if d % 4 == 0:
            return [(mono(("x", d // 4)), 8)]
        if d % 4 == 1:
            return [(mono(("e", 1), ("x", (d - 1) // 4)), 2)]
        if d % 4 == 3:
            return [(mono(("f", 1), ("x", (d + 1) // 4)), 2)]
        return []
    if name == "LR":
        return [(mono(("x", d // 4)), 0)] if d % 4 == 0 else []
    if name == "LC":
        return [(mono(("x", d // 4)), 2)] if d % 4 == 0 else []
    if name == "LCc":
        return [(mono(("s", d // 2)), 0)] if d % 2 == 0 else []
    if name == "Lgs":
        if d >= 0:
            if d % 4 == 0:
                return [(mono(("x", d // 4)), 0)]
            if d % 4 == 1:
                return [(mono(("e", 1), ("x", (d - 1) // 4)), 2)]
            return []
        if d % 4 == 0:
            return [(mono((f"y{-d // 4}", 1)), 0)]
        if (-d - 2) % 4 == 0 and (-d - 2) // 4 >= 1:
            return [(mono((f"z{(-d - 2) // 4}", 1)), 2)]
        return []
    if name == "scriptL":
        if d % 4 != 0:
            return []
        if d >= 0:
            return [(mono(("x", d // 4)), 0)]
        return [(mono((f"y{-d // 4}", 1)), 0)]
    raise KeyError(f"unknown ring {name!r}")


# -- graded tables degree by degree ---------------------------------------------------


class TableByDegree:
    """A table as a dict over its window, every degree computed on its own.

    A degree outside the window is folded into it by the period, if one is
    declared, and is otherwise missing (KeyError).
    """

    def __init__(self, window, groups, period=None):
        self.window, self.groups, self.period = tuple(window), groups, period

    def __getitem__(self, n):
        lo, hi = self.window
        if not lo <= n <= hi and self.period:
            n = lo + (n - lo) % self.period
        return self.groups[n]

    def matches(self, G: GradedGroup) -> bool:
        """G has this window and period, and this group in every degree of the window."""
        lo, hi = self.window
        return (G.window, G.period) == (self.window, self.period) and all(
            G[n] == self.groups[n] for n in range(lo, hi + 1))


def table_by_degree(name: str, window) -> TableByDegree:
    """table(name, window), each degree of the window read off the bases written by hand."""
    from lspectra.ltables import MODULE_NAMES, PERIODS, module_basis

    lo, hi = window
    if name == "Lgq":
        return shift_by_degree(table_by_degree("Lgs", (lo - 4, hi - 4)), 4)
    if name == "lR":
        return TableByDegree(window, {n: FgAbGroup.free(1) if n % 4 == 0 and n >= 0 else FgAbGroup()
                                      for n in range(lo, hi + 1)})
    if name == "KO":
        ko = [FgAbGroup.free(1), FgAbGroup.cyclic(2), FgAbGroup.cyclic(2), FgAbGroup(),
              FgAbGroup.free(1), FgAbGroup(), FgAbGroup(), FgAbGroup()]
        return TableByDegree(window, {n: ko[n % 8] for n in range(lo, hi + 1)}, 8 if hi - lo + 1 >= 8 else None)
    basis = module_basis if name in MODULE_NAMES else ring_basis_by_hand
    groups = {n: FgAbGroup.from_divisors([o for _, o in basis(name, n)]) for n in range(lo, hi + 1)}
    period = PERIODS.get(name)
    return TableByDegree(window, groups, period if period is not None and hi - lo >= period else None)


def dual_by_degree(T: TableByDegree) -> TableByDegree:
    """The Anderson dual, Hom(T[-n], Z) + Ext(T[-n-1], Z) in each degree n of the reflected window."""
    from lspectra.abelian import ext_group, hom_group

    lo, hi = T.window
    window = (-hi, -lo) if T.period else (-hi, -lo - 1)
    z = FgAbGroup.free(1)
    return TableByDegree(window, {n: hom_group(T[-n], z).direct_sum(ext_group(T[-n - 1], z))
                                  for n in range(window[0], window[1] + 1)}, T.period)


def shift_by_degree(T: TableByDegree, k: int) -> TableByDegree:
    lo, hi = T.window
    return TableByDegree((lo + k, hi + k), {n + k: T[n] for n in range(lo, hi + 1)}, T.period)


def sum_by_degree(*tables: TableByDegree) -> TableByDegree:
    lo, hi = max(t.window[0] for t in tables), min(t.window[1] for t in tables)
    return TableByDegree((lo, hi), {n: FgAbGroup.from_divisors([o for t in tables for o in t[n].gen_orders()])
                                    for n in range(lo, hi + 1)})


def mod_by_degree(T: TableByDegree, m: int) -> TableByDegree:
    """The cofibre of multiplication by m: the one extension of ker(m) in degree n - 1 by coker(m) in degree n."""
    from lspectra.abelian import extension_candidates, map_cokernel_group, map_kernel_group

    def times_m(g):
        return IntMatrix.diagonal([m] * g.gens()), g, g

    lo, hi = T.window
    groups = {}
    for n in range(lo + 1, hi + 1):
        (middle,) = extension_candidates(map_cokernel_group(*times_m(T[n])), map_kernel_group(*times_m(T[n - 1])))
        groups[n] = middle
    return TableByDegree((lo + 1, hi), groups, T.period if T.period and hi - lo - 1 >= T.period else None)
