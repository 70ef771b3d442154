"""Symmetric generating sets, generation decisions and Smith normal form.

A ``GenSet`` is a formal alphabet: each letter has a symbol id (its index),
carries a group element, and the involution permutation pairs every letter
with the letter carrying its inverse (self-paired exactly for involutions).
Cardinality counts distinct group elements, so {+1, -1} in Z has cardinality
two.

``generates`` decides generation exactly on every family whose
``Group.lattice_split`` presents it as Z^k x| F with F finite: one Schreier
walk over F and the index of the translation kernel in Z^k.  That method is
all a virtually abelian family implements to be decided.  The Heisenberg
group is decided by its abelianization, free groups by Stallings folding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod
from typing import Callable

from . import groups as gr
from .errors import DomainError, EmptyGenSetError, UnsupportedFamilyError
from .metric import _Budget, _check_alphabet, _decode, _encode, _split


@dataclass(frozen=True)
class GenSet:
    """Symmetric generating alphabet over a group.

    Build with :func:`make_symmetric`, or with :meth:`from_classes` from
    classes of :func:`inverse_pair_classes`.  Every construction path ends
    in the check of ``__post_init__``, so a GenSet is valid where it is
    built and no search checks its letters again.
    """

    group: gr.Group
    letters: tuple
    involution: tuple

    def __post_init__(self):
        """Raise DomainError unless this is an alphabet over ``group``.

        ``letters`` and ``involution`` are tuples, every letter is an
        element of the group and no element is a letter twice.  The
        involution maps each symbol id, an int in ``range(len(letters))``, to
        the symbol id of its letter's inverse: it is its own inverse, and
        each pair it makes multiplies to the identity.  That costs one
        ``contains`` pass, one set and one ``_mul`` per inverse pair, since
        the exhaustive table and the zxd8 sampler build alphabets in bulk.
        The raises are explicit, so they hold under ``python -O``.
        """
        G, letters, involution = self.group, self.letters, self.involution
        if type(letters) is not tuple or type(involution) is not tuple:
            raise DomainError("an alphabet's letters and involution must be tuples")
        for x in letters:
            G.check(x)
        n = len(letters)
        if len(set(letters)) != n:
            raise DomainError("alphabet carries duplicate elements")
        if len(involution) != n:
            raise DomainError(f"involution {involution!r} does not have {n} entries")
        e = G.identity()
        for i, j in enumerate(involution):
            if type(j) is not int or not 0 <= j < n or involution[j] != i:
                raise DomainError(
                    f"involution {involution!r} is not a self-inverse map of the symbol ids")
            if i <= j and G._mul(letters[i], letters[j]) != e:
                raise DomainError(
                    f"the involution pairs letters {i} and {j}, which are not inverses")

    @property
    def cardinality(self):
        return len(self.letters)

    def symbols(self):
        return range(len(self.letters))

    def element(self, sym):
        return self.letters[sym]

    def inv_symbol(self, sym):
        return self.involution[sym]

    def symbol_of(self, element):
        return self.letters.index(element)

    def check_word(self, word):
        """The word as a tuple, read once from any iterable of symbol ids.

        Raises DomainError unless every symbol id is an int in
        ``range(len(letters))``; a bool is not one, and a negative id would
        index from the end.  Callers use the tuple it returns, so a one-shot
        iterator is not used up by the check.
        """
        word = tuple(word)
        n = len(self.letters)
        for sym in word:
            if type(sym) is not int or not 0 <= sym < n:
                raise DomainError(f"unknown symbol id {sym!r}")
        return word

    def eval_word(self, word):
        """Multiply out an iterable of symbol ids."""
        g = self.group.identity()
        for sym in self.check_word(word):
            g = self.group.mul(g, self.letters[sym])
        return g

    @classmethod
    def from_classes(cls, G, classes):
        """The alphabet laid out from inverse-pair classes: each class's
        element, then its inverse unless the class is an involution alone.
        The constructor checks the result like any other alphabet."""
        letters = []
        involution = []
        for c in classes:
            a = len(letters)
            letters += c
            involution += (a,) if len(c) == 1 else (a + 1, a)
        return cls(group=G, letters=tuple(letters), involution=tuple(involution))


def inverse_pair_classes(G, elements, inv=None):
    """The inverse-pair classes of ``elements``, in order of first appearance.

    Skips the identity and each element of an earlier class; a new element x
    gives the class (x, x^-1), or (x,) when x is an involution.  ``inv`` maps
    an element to its inverse and defaults to ``G.inv``.
    """
    inv = inv or G.inv
    seen = {G.identity()}
    classes = []
    for x in elements:
        if x not in seen:
            xi = inv(x)
            seen.update((x, xi))
            classes.append((x,) if xi == x else (x, xi))
    return classes


def make_symmetric(G, elements):
    """Canonicalize elements into a symmetric generating alphabet.

    Checks every element, drops identities, merges duplicates, and inserts
    missing inverses right after the letter they invert.  Idempotent on
    already-symmetric input.  EmptyGenSetError when no letter is left,
    with its own message when no element was proposed at all.
    """
    proposed = False

    # One pass: ``elements`` may be an iterator.
    def checked():
        nonlocal proposed
        for x in elements:
            G.check(x)
            proposed = True
            yield x

    classes = inverse_pair_classes(G, checked())
    if not classes:
        raise EmptyGenSetError("all proposed generators were the identity" if proposed
                               else "no generators were proposed")
    return GenSet.from_classes(G, classes)


# -- Smith normal form ---------------------------------------------------


def smith_normal_form(M):
    """Exact Smith normal form with transforms: returns (D, U, V).

    ``U * M * V == D`` with U, V unimodular and the diagonal of D nonnegative
    with each entry dividing the next.  Pivots are chosen by least absolute
    value to keep intermediate entries small.  Everything is Python-int exact.
    """
    D, U, V = _smith(M, transforms=True)
    return D, tuple(tuple(row) for row in U), tuple(tuple(row) for row in V)


def invariant_factors(M):
    """Nonzero diagonal entries of the Smith normal form, in order.

    The same elimination as :func:`smith_normal_form` without the transforms,
    except on one row: the Smith normal form of a 1 x n matrix is the gcd of
    its entries, so that is returned, or [] when they are all zero.
    """
    if len(M) == 1 and len(M[0]):
        # A list, not map(): on CPython 3.11, unpacking a map into the call
        # grew the resident set by 1.7 MB over 12,000 zxd8 sampler draws,
        # though no object stayed alive.
        g = gcd(*[int(v) for v in M[0]])
        return [g] if g else []
    D, _, _ = _smith(M, transforms=False)
    n = min(len(D), len(D[0]))
    return [D[i][i] for i in range(n) if D[i][i]]


def _ext_gcd(a, b):
    """(g, x, y) with a*x + b*y == g, a gcd of a and b up to sign."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def _smith(M, transforms):
    """Smith normal form D of M, and U, V as lists of rows if ``transforms``.

    Without transforms U has empty rows and V no rows, so every update of
    them below is a no-op and D comes out the same.

    An entry the pivot does not divide is cleared in one step by a
    unimodular 2 x 2 combination of its line with the pivot's, from the
    extended gcd, after which the pivot is that gcd.  Dividing instead and
    swapping the remainder in as the pivot lets the other entries grow
    doubly exponentially: on a 2 x 4 matrix of entries near 10^30 that did
    not finish.
    """
    A = [[int(v) for v in row] for row in M]
    if not A or not A[0]:
        raise ValueError("matrix must be nonempty")
    r, c = len(A), len(A[0])
    if any(len(row) != c for row in A):
        raise ValueError("matrix must be rectangular")
    U = [[int(i == j) for j in range(r if transforms else 0)] for i in range(r)]
    V = [[int(i == j) for j in range(c)] for i in range(c if transforms else 0)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst -= q * row_src
        for k in range(c):
            A[dst][k] -= q * A[src][k]
        U[dst] = [x - q * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in A:
            row[dst] -= q * row[src]
        for row in V:
            row[dst] -= q * row[src]

    def mix_rows(t, i):
        # (row t, row i) <- (x row t + y row i, v row i - u row t), determinant 1
        a, b = A[t][t], A[i][t]
        g, x, y = _ext_gcd(a, b)
        u, v = b // g, a // g
        for W in (A, U):
            W[t], W[i] = ([x * p + y * q for p, q in zip(W[t], W[i])],
                          [v * q - u * p for p, q in zip(W[t], W[i])])

    def mix_cols(t, j):
        # the same combination of columns t and j
        a, b = A[t][t], A[t][j]
        g, x, y = _ext_gcd(a, b)
        u, v = b // g, a // g
        for row in A + V:
            row[t], row[j] = x * row[t] + y * row[j], v * row[j] - u * row[t]

    t = 0
    while t < min(r, c):
        # locate the smallest-magnitude nonzero pivot in the trailing block
        pivot = None
        for i in range(t, r):
            for j in range(t, c):
                v = abs(A[i][j])
                if v and (pivot is None or v < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        while True:
            # Clear column t below the pivot, then row t to its right; a
            # column combination can refill column t, and then it goes again
            # with a smaller pivot.
            for i in range(t + 1, r):
                if A[i][t] % A[t][t]:
                    mix_rows(t, i)
                elif A[i][t]:
                    add_row(i, t, A[i][t] // A[t][t])
            dirty = False
            for j in range(t + 1, c):
                if A[t][j] % A[t][t]:
                    mix_cols(t, j)
                    dirty = True
                elif A[t][j]:
                    add_col(j, t, A[t][j] // A[t][t])
            if dirty:
                continue
            # pivot must divide the whole trailing block
            offender = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if A[i][j] % A[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, -1)  # pull the offending row into play
        if A[t][t] < 0:
            for k in range(c):
                A[t][k] = -A[t][k]
            U[t] = [-x for x in U[t]]
        t += 1

    return tuple(tuple(row) for row in A), U, V


# -- generation decision -------------------------------------------------


@dataclass(frozen=True)
class GenerationResult:
    """Outcome of a generation check and the figures it rests on.

    The Schreier decision reports ``closure_size`` (elements of F the
    F-parts reach), ``finite_group_size``, ``lattice_rank`` k, the
    ``invariant_factors`` of the translation kernel, its ``kernel_index``
    in Z^k (0 when its rank is below k; ``translation_gcd`` too when k = 1)
    and, when the F-parts miss part of F, a ``missing`` element of F.  The
    Stallings fold reports its graph's ``vertices`` and ``folded_vertices``.
    "inconclusive" only for a family with no decision procedure.
    """

    status: str  # "yes" | "no" | "inconclusive"
    reason: str
    evidence: dict = field(default_factory=dict)

    @property
    def is_yes(self):
        return self.status == "yes"

    @property
    def is_no(self):
        return self.status == "no"


def generates(G, S):
    """Decide whether the alphabet S generates G: exactly, by Schreier's
    lemma on every family with a ``lattice_split`` (finite groups, lattices,
    the infinite dihedral group and their products), by the abelianization
    on the Heisenberg group and by Stallings folding on free groups; any
    other family is "inconclusive".  Both walks are charged to the memory
    budget and raise ResourceLimitExceeded past it.  ``_check_alphabet``
    tests that S is over G; S checked its letters when it was built.
    """
    _check_alphabet(G, S)
    if isinstance(G, gr.Heisenberg):
        return _generates_heisenberg(G, S)
    if isinstance(G, gr.Free):
        return _generates_free(G, S)
    split = _split(G)
    if split is None:
        return GenerationResult("inconclusive", f"no decision procedure for {G}")
    # One representative of each inverse pair: its first letter.
    part = split.part
    parts = [part(x) for sym, x in enumerate(S.letters) if S.involution[sym] >= sym]
    return _generates_split(parts, split)


def _generates_split(parts, split):
    """Exact decision on G = Z^k x| F by Schreier's lemma (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005), for the alphabet
    whose inverse-pair classes have representatives with the split parts
    ``parts``, pairs (translation, element of F), and G's record ``split``
    (``metric._split``).

    The alphabet generates G iff the F-parts of its letters generate F and
    the Schreier generators, which generate the intersection of the subgroup
    with Z^k, span a lattice of index 1 in Z^k.  The walk over F keeps, for
    each f reached, the translation of one word ending at f; an edge from f
    by a letter (a, u) into an f' reached before closes the Schreier
    generator with translation rep[f] + act(f, a) - rep[f'].  F is finite,
    so the monoid the F-parts generate is already a subgroup and one letter
    of each inverse pair suffices.  The walk stores one entry per element of
    F it reaches and up to one kernel vector per (element, class) edge.
    Each is charged to its own memory budget like a search node, the
    identity of F like a search root: an element of F by ``_Budget.cost``,
    a kernel vector by the cost of a k-tuple, whose shallow size is the same
    for every k-tuple.  The charges run in a local counter that is written
    back to the budget before a refusal, as in ``metric._expand``.

    The walk runs on ints.  An F of at most ``metric.TABULATED_MAX_ORDER``
    elements is walked by index, reading each product from its right-regular
    table (``metric._regular``, kept in the record) and charging each index
    its element's cost.
    A larger F is walked on its elements, one ``_mul`` per edge; for k <= 1
    it is never enumerated beyond the elements the walk reaches, each of
    which meets the action on its first visit, while for k >= 2 the action
    is applied to every element of F up front, in the steps of
    :func:`_translation_code`.  Translations are ints, by
    :func:`_translation_code`; for k >= 2 they are decoded only for
    ``invariant_factors``, and a k = 1 code is its own coordinate.

    Taking parts, not a ``GenSet``, lets the zxd8 sampler decide a draw
    before it builds the alphabet.
    """
    k, F, _, act, T, _ = split
    if T is None:
        e, cost = F.identity(), _Budget.cost
    else:
        e, cost = T.index[F.identity()], T.costs.__getitem__
    mem = _Budget(e, cost=cost)
    limit, used = mem.limit, mem.used
    vector_cost = _Budget.cost((0,) * k)
    steps, base = _translation_code(parts, k, F, act, T)
    rep = {e: 0}
    frontier = [e]
    kernel = set()
    radius = 0
    while frontier:
        nxt = []
        for f in frontier:
            t = rep[f]
            for a, column in (steps if act is None else steps[f]):
                f2 = column[f]
                if f2 in rep:
                    v = t + a - rep[f2]
                    if v in kernel:
                        continue
                    used += vector_cost
                    if used > limit:
                        mem.used, mem.nodes = used, len(rep) + len(kernel)
                        raise mem.exhausted(radius, mem.nodes)
                    kernel.add(v)
                else:
                    used += cost(f2)
                    if used > limit:
                        mem.used, mem.nodes = used, len(rep) + len(kernel)
                        raise mem.exhausted(radius, mem.nodes)
                    rep[f2] = t + a
                    nxt.append(f2)
        frontier = nxt
        radius += 1
    kernel.discard(0)
    # The kernel vectors as the columns of a k-row matrix, unpacked from a
    # list: unpacking a generator grew the resident set with every zxd8 run
    # on CPython 3.11, though no object stayed alive.  A k = 1 code is its
    # own coordinate, so that matrix is the one row of codes.
    rows = [list(kernel)] if k == 1 else list(zip(*[_decode(v, k, base) for v in kernel]))
    factors = invariant_factors(rows) if kernel else []
    index = prod(factors) if len(factors) == k else 0
    evidence = {"closure_size": len(rep), "finite_group_size": F.size,
                "lattice_rank": k, "invariant_factors": factors,
                "kernel_index": index}
    if k == 1:
        evidence["translation_gcd"] = index
    if len(rep) != F.size:
        missing = next(f for f in (F.elements() if T is None else range(F.size)) if f not in rep)
        evidence["missing"] = missing if T is None else T.elements[missing]
        return GenerationResult(
            "no", f"the finite parts generate a proper subgroup of {F}", evidence)
    if index != 1:
        return GenerationResult(
            "no", f"the translation kernel has index {index or 'infinity'} in Z^{k}",
            evidence)
    return GenerationResult(
        "yes", f"the finite parts generate {F} and the translation kernel is Z^{k}",
        evidence)


class _Products:
    """Right multiplication by ``u`` in an F too large to tabulate, read
    like a column of its table: ``column[f]`` is f·u, one ``_mul``."""

    __slots__ = ("mul", "u")

    def __init__(self, mul, u):
        self.mul, self.u = mul, u

    def __getitem__(self, f):
        return self.mul(f, self.u)


class _ActedSteps(dict):
    """The Schreier walk's steps by element of an F too large to tabulate,
    for k <= 1, where codes need no base: ``steps[f]`` applies the action
    of f to each letter's translation when the walk first reads it, so the
    action runs once per element reached and class."""

    __slots__ = ("parts", "act", "columns")

    def __init__(self, parts, act, columns):
        super().__init__()
        self.parts, self.act, self.columns = parts, act, columns

    def __missing__(self, f):
        steps = self[f] = [(_encode(self.act(f, a), 0), c) for (a, _), c in zip(self.parts, self.columns)]
        return steps


def _translation_code(parts, k, F, act, T):
    """The Schreier walk's steps on integer translations, and the base of
    their code.

    A translation v in Z^k is the int enc(v) = v_0 + v_1*B + ... +
    v_(k-1)*B^(k-1) (``metric._encode``).  That is linear for any B, so the
    walk adds and subtracts the ints exactly as it would the vectors.
    ``metric._decode`` reads the k - 1 low coordinates as balanced base-B
    digits and the top one as the quotient left over, which is exact for
    every v whose low coordinates are at most B/2 - 1 in magnitude; on those
    vectors enc is one to one.  With k = 0 every translation is 0 and with
    k = 1 it is v_0 itself, so neither needs a base, and B is 0.

    For k >= 2 the base covers every vector the walk compares.  Let M be
    the largest coordinate magnitude of the acted translations act(f, a),
    over every f in F and letter (a, u), or of the letters' own
    translations when ``act`` is None.  A walk translation is a sum of at
    most |F| of them, one per edge of a path from the identity, and a
    stored one of at most |F| - 1, so every kernel vector's coordinates are
    at most (2|F| - 1)M in magnitude.  B = 2(2|F| - 1)M + 2 therefore
    decodes, and tells apart, every kernel vector exactly.

    A step is (enc(act(f, a)), column), the column of right multiplication
    by u: ``T.right``'s, by index, for F's table T, and :class:`_Products`
    when T is None.  The steps are one list when ``act`` is None, else one
    list per f in F, by index or, when T is None, by element.  With no
    table and k <= 1 the lists are :class:`_ActedSteps`, made for each
    element the walk reaches, when it first reads them.  For k >= 2 the
    base needs M over every element of F, so the lists of all of them are
    made here, even when F is too large to tabulate.
    """
    if T is None:
        columns = [_Products(F._mul, u) for _, u in parts]
    else:
        columns = [T.right[T.index[u]] for _, u in parts]
    if act is None:
        if k < 2:
            return [(a[0] if k else 0, c) for (a, _), c in zip(parts, columns)], 0
        acted = [a for a, _ in parts]
    elif T is None and k < 2:
        return _ActedSteps(parts, act, columns), 0
    else:
        elements = list(F.elements()) if T is None else T.elements
        acted = [act(f, a) for f in elements for a, _ in parts]
    base = 0
    if k >= 2:
        base = 2 * (2 * F.size - 1) * max((abs(c) for a in acted for c in a), default=0) + 2
    codes = [_encode(a, base) for a in acted]
    if act is None:
        return list(zip(codes, columns)), base
    n = len(columns)
    per_f = [list(zip(codes[i * n:(i + 1) * n], columns)) for i in range(len(elements))]
    return (per_f if T is not None else dict(zip(elements, per_f))), base


def _generates_heisenberg(G, S):
    """Exact: S generates iff its abelianized letters generate Z^2.

    The commutator of two letters is c to the 2x2 minor of their images, and
    the minors of a generating set of Z^2 have gcd 1, so the subgroup then
    contains c and with it the whole center.
    """
    images = [[x[0] for x in S.letters], [x[1] for x in S.letters]]
    factors = invariant_factors(images)
    if not (len(factors) == 2 and all(f == 1 for f in factors)):
        return GenerationResult(
            "no", "abelianized letters do not generate Z^2",
            {"abelianization_factors": factors},
        )
    central = {G.commutator(x, y)[2] for x in S.letters for y in S.letters} - {0}
    return GenerationResult(
        "yes", "abelianization surjects and the center is reached",
        {"abelianization_factors": factors, "central_exponents": sorted(central)},
    )


def _generates_free(G, S):
    """Exact decision on F_k by Stallings folding (Stallings, Invent. Math.
    71, 1983; Kapovich and Myasnikov, J. Algebra 248, 2002).  Glue at a base
    vertex one loop per inverse pair, spelling its first letter, and merge
    the far ends of any two edges that leave a vertex with one label.  The
    result reads from the base exactly the subgroup's reduced words, so S
    generates iff one vertex is left with all 2k labels.  The base is
    charged to the memory budget like a search root, every later vertex
    like a node at radius 0, in a local counter that is written back to the
    budget before a refusal, as in ``metric._expand``."""
    mem = _Budget(0)
    limit, used, cost = mem.limit, mem.used, mem.cost
    parent = [0]  # union-find over the vertices
    out = [{}]  # out[v]: label -> far end, for each root v
    edges = []  # (u, label, v), still to attach
    for sym, word in enumerate(S.letters):
        if S.involution[sym] >= sym and word:
            path = [0, *range(len(parent), len(parent) + len(word) - 1), 0]
            for v in path[1:-1]:
                used += cost(v)
                if used > limit:
                    mem.used, mem.nodes = used, len(parent)
                    raise mem.exhausted(0, mem.nodes)
                parent.append(v)
                out.append({})
            edges += zip(path, word, path[1:])
            edges += zip(path[1:], [-x for x in word], path)

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]  # path halving
        return v

    folded = len(parent)
    while edges:
        u, x, v = edges.pop()
        v = find(v)
        w = find(out[find(u)].setdefault(x, v))
        if w != v:  # fold: the vertex with fewer labels moves its edges over
            if len(out[w]) > len(out[v]):
                v, w = w, v
            parent[w] = v
            folded -= 1
            edges += ((v, y, t) for y, t in out[w].items())
            out[w] = None
    base = out[find(0)]
    evidence = {"vertices": len(parent), "folded_vertices": folded}
    if folded == 1 and len(base) == 2 * G.k:
        return GenerationResult("yes", f"the folded graph is one vertex with all {2 * G.k} labels", evidence)
    return GenerationResult("no", f"the folded graph has {folded} vertices and {len(base)} "
                            f"of the {2 * G.k} labels at its base", evidence)


# -- quotient maps -------------------------------------------------------


@dataclass(frozen=True)
class QuotientMap:
    """A family-specific surjection used to push generating sets forward.

    ``image_of`` maps a normal form of ``source`` to one of ``target``.
    """

    source: gr.Group
    target: gr.Group
    image_of: Callable

    def apply(self, g):
        self.source.check(g)
        return self.image_of(g)


def project_left(G):
    if not isinstance(G, gr.Product):
        raise UnsupportedFamilyError("project_left needs a product group")
    return QuotientMap(G, G.left, lambda g: g[0])


def project_right(G):
    if not isinstance(G, gr.Product):
        raise UnsupportedFamilyError("project_right needs a product group")
    return QuotientMap(G, G.right, lambda g: g[1])


def heisenberg_abelianization():
    return QuotientMap(gr.Heisenberg(), gr.IntVector(2), lambda g: (g[0], g[1]))


def dihedral_mod(p):
    return QuotientMap(gr.DihedralInfinite(), gr.DihedralFinite(p), lambda g: (g[0] % p, g[1]))


def int_mod(q):
    return QuotientMap(gr.IntVector(1), gr.FiniteCyclic(q), lambda g: g[0] % q)


def project_genset(pi, S):
    """Push an alphabet through a quotient map: ``make_symmetric`` of the
    letters' images, which drops those that map to the identity.

    The image of a generating set generates the target, so the result is a
    genuine generating alphabet whenever S was one.  When every letter maps
    to the identity, ``make_symmetric`` raises EmptyGenSetError.
    """
    if S.group != pi.source:
        raise DomainError("alphabet is not over the source of the quotient")
    images = [pi.image_of(x) for x in S.letters]  # S checked its letters
    return make_symmetric(pi.target, images)
