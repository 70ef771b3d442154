"""Exact arithmetic and canonical normal forms for the shipped group families.

Elements are plain hashable Python values (ints and nested tuples of ints) in
a canonical normal form, so value equality and hashing coincide with equality
of group elements.  All integers are arbitrary precision; there is no floating
point anywhere.

Normal forms by family:

* ``FiniteCyclic(q)``     -- residue ``0 <= k < q``
* ``IntVector(d)``        -- tuple of ``d`` integers
* ``DihedralFinite(n)``   -- pair ``(k, eps)`` meaning ``r^k s^eps``, ``0 <= k < n``
* ``DihedralInfinite()``  -- pair ``(k, eps)`` meaning ``t^k s^eps``, ``k`` in Z
* ``Heisenberg()``        -- triple ``(i, j, l)`` meaning ``a^i b^j c^l``
* ``Free(k)``             -- reduced tuple of nonzero ints, ``+i`` is the i-th
  basis letter and ``-i`` its inverse
* ``Product(left, right)`` -- pair of component normal forms
* ``CayleyTableGroup``    -- index into an explicitly validated table

Each family is a frozen dataclass subclass of :class:`Group` with its own
``family`` string, and its constructor is the one way to build it in Python.
A new family implements the group law (``_mul``, ``mul``, ``inv``,
``identity``, ``contains``), ``element_order`` unless it is finite,
``standard_generators`` unless every non-identity element of a finite family
is meant, and, for a flat CLI encoding, ``flat_arity`` and ``from_flat``.  A
virtually abelian family of the form Z^k x| F (a semidirect product with F
finite) implements ``lattice_split``, which is all ``gensets.generates``
needs to decide generation exactly; finite families inherit it.  An
element's JSON form in reports (``element_to_obj``) turns tuples into lists;
it checks the element once and hands it to the unchecked ``_obj``, split
as ``mul`` is from ``_mul``.  A report row of an alphabet's letters, which
the alphabet checked, calls ``_obj`` directly.

``_mul`` is the arithmetic with no membership check.  Each family's ``mul``
tests both operands with ``contains``, raises the ``DomainError`` that
``check`` would and otherwise returns ``self._mul(g, h)``; it is defined in
the family's own class body, because perfbench traces ``mul`` class by
class.  ``_mul`` is only called on operands that were already checked.
``closure`` and the generator check of ``experiments.Automorphism`` check
their inputs once where they come in and then multiply unchecked.  A
``gensets.GenSet`` checks its letters once where it is built, so the
Schreier walk of ``gensets.generates``, ``metric.ball`` and the scan of
``girth.girth`` multiply its letters unchecked, and so does the
constructor's own test that each inverse pair multiplies to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import add, neg

from .errors import DomainError, UnsupportedFamilyError


class _Infinite:
    """Singleton outcome of ``element_order`` for non-torsion elements."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinite"


INFINITE = _Infinite()


def _check_int(name, value, least=None):
    """Raise ValueError unless value is an int, and one >= ``least`` unless
    that is None; a bool is not one.  An explicit raise, not an assert, so
    it holds under ``python -O``."""
    if type(value) is not int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


class Group:
    """Base interface for a concrete group family (see the module docstring)."""

    family = "abstract"
    flat_arity = None  # integers in the flat CLI encoding; None if there is none

    # -- group law -------------------------------------------------------

    def mul(self, g, h):
        """The product gh; raises DomainError unless both are elements."""
        raise NotImplementedError

    def _mul(self, g, h):
        """The product gh with no membership check, for operands already
        checked: garbage in, garbage out."""
        raise NotImplementedError

    def inv(self, g):
        raise NotImplementedError

    def identity(self):
        raise NotImplementedError

    def contains(self, g):
        """Whether ``g`` is an element in this family's normal form.

        A pure predicate: it never raises, never mutates ``g`` and answers
        the same on every call.  "Integer" means ``isinstance(x, int)``:
        ``True``, ``False`` and other ``int`` subclasses count as integers,
        while ``1.0`` does not.  ``check`` runs it on every operand of the
        checked ``mul`` and ``inv``, so it is one pass of plain loops, with
        no ``map``, ``all`` or generator chain.
        """
        raise NotImplementedError

    def check(self, g):
        if not self.contains(g):
            raise self._foreign(g)

    def _foreign(self, *operands):
        """The DomainError naming the first of ``operands`` that is not an
        element, for a law that tested them all with ``contains``."""
        bad = next(g for g in operands if not self.contains(g))
        return DomainError(f"{bad!r} is not an element of {self}")

    def power(self, g, n):
        """n-th power by repeated squaring, ``n`` any integer (ValueError
        otherwise, a bool included)."""
        _check_int("exponent", n)
        self.check(g)
        if n < 0:
            g = self.inv(g)
            n = -n
        acc = self.identity()
        while n:
            if n & 1:
                acc = self.mul(acc, g)
            n >>= 1
            if n:
                g = self.mul(g, g)
        return acc

    def commutator(self, g, h):
        """g h g^-1 h^-1 in normal form."""
        return self.mul(self.mul(g, h), self.mul(self.inv(g), self.inv(h)))

    # -- finiteness ------------------------------------------------------

    @property
    def size(self):
        """Number of elements, or None for infinite families."""
        return None

    @property
    def is_finite(self):
        return self.size is not None

    def elements(self):
        """Iterate all elements exactly once (finite families only)."""
        raise UnsupportedFamilyError(f"{self} is infinite; cannot enumerate")

    def element_order(self, g):
        """Least n >= 1 with g^n = e, or INFINITE.

        Finite families iterate powers; infinite families answer analytically
        from the normal form.
        """
        self.check(g)
        if not self.is_finite:
            raise UnsupportedFamilyError(f"no order search in the infinite group {self}")
        e = self.identity()
        n, x = 1, g
        while x != e:
            x = self.mul(x, g)
            n += 1
        return n

    def standard_generators(self):
        """The conventional generating elements of the family; by default
        every non-identity element of a finite group."""
        e = self.identity()
        return [x for x in self.elements() if x != e]

    def lattice_split(self):
        """The group as Z^k x| F with F finite: ``(k, F, split, act)``, or None.

        ``split(g)`` is the pair (translation as a k-tuple of ints, element of
        F), and ``act(f, v)`` is F's action on translations, None when F acts
        trivially.  It is a homomorphism onto the semidirect product: if
        split(g) = (a, f) and split(h) = (b, u) then split(gh) is
        (a + act(f, b), fu).  A finite group is Z^0 x| itself; an infinite
        family without such a split (Heisenberg, Free) answers None.
        """
        if not self.is_finite:
            return None
        return 0, self, lambda g: ((), g), None

    # -- encodings -------------------------------------------------------

    def element_to_obj(self, g):
        """JSON-able form of an element: tuples become lists.  Raises
        DomainError unless g is an element."""
        self.check(g)
        return self._obj(g)

    def _obj(self, g):
        """``element_to_obj`` with no membership check, for an element
        already checked, such as a letter of a ``GenSet``."""
        return list(g) if isinstance(g, tuple) else g

    def from_flat(self, values):
        """The element a tuple of ``flat_arity`` integers encodes, modular
        slots reduced; :func:`element_from_flat` checks arity and result."""
        return values


@dataclass(frozen=True)
class FiniteCyclic(Group):
    q: int

    family = "finite-cyclic"
    flat_arity = 1

    def __post_init__(self):
        _check_int("modulus", self.q, 1)

    def mul(self, g, h):
        if self.contains(g) and self.contains(h):
            return self._mul(g, h)
        raise self._foreign(g, h)

    def _mul(self, g, h):
        return (g + h) % self.q

    def inv(self, g):
        self.check(g)
        return (-g) % self.q

    def identity(self):
        return 0

    def contains(self, g):
        return isinstance(g, int) and 0 <= g < self.q

    @property
    def size(self):
        return self.q

    def elements(self):
        return iter(range(self.q))

    def element_order(self, g):
        self.check(g)
        return self.q // gcd(self.q, g)

    def standard_generators(self):
        return [1] if self.q > 1 else []

    def from_flat(self, values):
        return values[0] % self.q

    def __str__(self):
        return f"Z/{self.q}"


@dataclass(frozen=True)
class IntVector(Group):
    d: int

    family = "int-vector"

    def __post_init__(self):
        _check_int("dimension", self.d, 1)

    def mul(self, g, h):
        if self.contains(g) and self.contains(h):
            return self._mul(g, h)
        raise self._foreign(g, h)

    def _mul(self, g, h):
        return tuple(map(add, g, h))

    def inv(self, g):
        self.check(g)
        return tuple(map(neg, g))

    def identity(self):
        return (0,) * self.d

    def contains(self, g):
        if not isinstance(g, tuple) or len(g) != self.d:
            return False
        for x in g:
            if not isinstance(x, int):
                return False
        return True

    def element_order(self, g):
        self.check(g)
        return 1 if g == self.identity() else INFINITE

    def standard_generators(self):
        return [tuple(1 if i == j else 0 for j in range(self.d)) for i in range(self.d)]

    def lattice_split(self):
        return self.d, FiniteCyclic(1), lambda g: (g, 0), None

    @property
    def flat_arity(self):
        return self.d

    def __str__(self):
        return "Z" if self.d == 1 else f"Z^{self.d}"


@dataclass(frozen=True)
class DihedralFinite(Group):
    """Dihedral group of order 2n: r^k s^eps with s r s = r^-1."""

    n: int

    family = "dihedral-finite"
    flat_arity = 2

    def __post_init__(self):
        _check_int("rotation order", self.n, 1)

    def mul(self, g, h):
        if self.contains(g) and self.contains(h):
            return self._mul(g, h)
        raise self._foreign(g, h)

    def _mul(self, g, h):
        k, e = g
        k2, e2 = h
        return ((k + k2) % self.n if e == 0 else (k - k2) % self.n, e ^ e2)

    def inv(self, g):
        self.check(g)
        k, e = g
        return ((-k) % self.n, 0) if e == 0 else g

    def identity(self):
        return (0, 0)

    def contains(self, g):
        return (
            isinstance(g, tuple)
            and len(g) == 2
            and isinstance(g[0], int)
            and isinstance(g[1], int)
            and g[1] in (0, 1)
            and 0 <= g[0] < self.n
        )

    @property
    def size(self):
        return 2 * self.n

    def elements(self):
        return iter([(k, e) for e in (0, 1) for k in range(self.n)])

    def element_order(self, g):
        self.check(g)
        k, e = g
        if e == 1:
            return 2
        return self.n // gcd(self.n, k)

    def standard_generators(self):
        return [(1, 0), (0, 1)] if self.n > 1 else [(0, 1)]

    def from_flat(self, values):
        return (values[0] % self.n, values[1] % 2)

    def __str__(self):
        return f"D{2 * self.n}"


@dataclass(frozen=True)
class DihedralInfinite(Group):
    """Infinite dihedral group: t^k s^eps with s t s = t^-1."""

    family = "dihedral-infinite"
    flat_arity = 2

    def mul(self, g, h):
        if self.contains(g) and self.contains(h):
            return self._mul(g, h)
        raise self._foreign(g, h)

    def _mul(self, g, h):
        k, e = g
        k2, e2 = h
        return (k + k2 if e == 0 else k - k2, e ^ e2)

    def inv(self, g):
        self.check(g)
        k, e = g
        return (-k, 0) if e == 0 else g

    def identity(self):
        return (0, 0)

    def contains(self, g):
        return (
            isinstance(g, tuple)
            and len(g) == 2
            and isinstance(g[0], int)
            and isinstance(g[1], int)
            and g[1] in (0, 1)
        )

    def element_order(self, g):
        self.check(g)
        k, e = g
        if e == 1:
            return 2
        return 1 if k == 0 else INFINITE

    def standard_generators(self):
        return [(1, 0), (0, 1)]

    def lattice_split(self):
        # t^k s^eps is (k, eps) in Z x| Z/2, where s negates translations.
        return 1, FiniteCyclic(2), lambda g: ((g[0],), g[1]), lambda f, v: (-v[0],) if f else v

    def from_flat(self, values):
        return (values[0], values[1] % 2)

    def __str__(self):
        return "Dinf"


@dataclass(frozen=True)
class Heisenberg(Group):
    """Discrete Heisenberg group <a,b,c | [a,b]=c, [a,c]=[b,c]=e>.

    Normal form (i, j, l) = a^i b^j c^l, multiplied by
    (i,j,l)*(i',j',l') = (i+i', j+j', l+l'-j*i').
    """

    family = "heisenberg"
    flat_arity = 3

    def mul(self, g, h):
        if self.contains(g) and self.contains(h):
            return self._mul(g, h)
        raise self._foreign(g, h)

    def _mul(self, g, h):
        i, j, l = g
        i2, j2, l2 = h
        return (i + i2, j + j2, l + l2 - j * i2)

    def inv(self, g):
        self.check(g)
        i, j, l = g
        return (-i, -j, -l - i * j)

    def identity(self):
        return (0, 0, 0)

    def contains(self, g):
        return (
            isinstance(g, tuple)
            and len(g) == 3
            and isinstance(g[0], int)
            and isinstance(g[1], int)
            and isinstance(g[2], int)
        )

    def element_order(self, g):
        self.check(g)
        return 1 if g == (0, 0, 0) else INFINITE

    def standard_generators(self):
        return [(1, 0, 0), (0, 1, 0)]

    def __str__(self):
        return "H3"


@dataclass(frozen=True)
class Free(Group):
    """Free group of rank k on formal letters x_1 .. x_k."""

    k: int

    family = "free"

    def __post_init__(self):
        _check_int("rank", self.k, 1)

    def mul(self, g, h):
        if self.contains(g) and self.contains(h):
            return self._mul(g, h)
        raise self._foreign(g, h)

    def _mul(self, g, h):
        i = len(g)
        j = 0
        while i > 0 and j < len(h) and g[i - 1] == -h[j]:
            i -= 1
            j += 1
        return g[:i] + h[j:]

    def inv(self, g):
        self.check(g)
        return tuple(map(neg, reversed(g)))

    def identity(self):
        return ()

    def contains(self, g):
        # One pass: each letter is a nonzero int of rank at most k that does
        # not cancel the one before it (the first is held against 0).
        if not isinstance(g, tuple):
            return False
        k = self.k
        prev = 0
        for x in g:
            if not isinstance(x, int) or x == 0 or x == -prev or not -k <= x <= k:
                return False
            prev = x
        return True

    def element_order(self, g):
        self.check(g)
        return 1 if g == () else INFINITE

    def standard_generators(self):
        return [(i,) for i in range(1, self.k + 1)]

    def generator(self, i):
        """The i-th basis letter (1-based) as an element."""
        if not 1 <= i <= self.k:
            raise ValueError(f"basis index {i} out of range")
        return (i,)

    def __str__(self):
        return f"F{self.k}"


@dataclass(frozen=True)
class Product(Group):
    left: Group
    right: Group

    family = "product"

    def _check_pair(self, g):
        if not (isinstance(g, tuple) and len(g) == 2):
            raise DomainError(f"{g!r} is not an element of {self}")

    def mul(self, g, h):
        """The checked product in one pass: the pair shape of both operands,
        then each component with its factor's ``contains``, then the
        factors' ``_mul``.  It accepts exactly what ``contains`` accepts."""
        L, R = self.left, self.right
        if (isinstance(g, tuple) and isinstance(h, tuple) and len(g) == 2 and len(h) == 2
                and L.contains(g[0]) and R.contains(g[1])
                and L.contains(h[0]) and R.contains(h[1])):
            return (L._mul(g[0], h[0]), R._mul(g[1], h[1]))
        raise self._foreign(g, h)

    def _mul(self, g, h):
        return (self.left._mul(g[0], h[0]), self.right._mul(g[1], h[1]))

    def inv(self, g):
        # The factors' checked inv validates the components.
        self._check_pair(g)
        return (self.left.inv(g[0]), self.right.inv(g[1]))

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def contains(self, g):
        return (
            isinstance(g, tuple)
            and len(g) == 2
            and self.left.contains(g[0])
            and self.right.contains(g[1])
        )

    @property
    def size(self):
        a, b = self.left.size, self.right.size
        return None if a is None or b is None else a * b

    def elements(self):
        if not self.is_finite:
            raise UnsupportedFamilyError(f"{self} is infinite; cannot enumerate")
        return (
            (a, b)
            for a in self.left.elements()
            for b in self.right.elements()
        )

    def element_order(self, g):
        self.check(g)
        a = self.left.element_order(g[0])
        b = self.right.element_order(g[1])
        if a is INFINITE or b is INFINITE:
            return INFINITE
        return a * b // gcd(a, b)

    def standard_generators(self):
        el, er = self.left.identity(), self.right.identity()
        return ([(x, er) for x in self.left.standard_generators()]
                + [(el, y) for y in self.right.standard_generators()])

    def lattice_split(self):
        """Z^(k1+k2) x| (F1 x F2) from the factors' splits, translations of
        the left factor first.  A finite factor of size 1 is dropped: Z x D8
        splits over D8, not Z/1 x D8.  Its one element acts trivially, so
        the other factor's action is the whole action."""
        halves = (self.left.lattice_split(), self.right.lattice_split())
        if None in halves:
            return None
        (k1, F1, s1, a1), (k2, F2, s2, a2) = halves
        if F1.size == 1:
            def split(g):
                (t, _), (u, f2) = s1(g[0]), s2(g[1])
                return t + u, f2

            act = None if a2 is None else lambda f, v: v[:k1] + a2(f, v[k1:])
            return k1 + k2, F2, split, act
        if F2.size == 1:
            def split(g):
                (t, f1), (u, _) = s1(g[0]), s2(g[1])
                return t + u, f1

            act = None if a1 is None else lambda f, v: a1(f, v[:k1]) + v[k1:]
            return k1 + k2, F1, split, act

        def split(g):
            (t, f1), (u, f2) = s1(g[0]), s2(g[1])
            return t + u, (f1, f2)

        def act(f, v):
            return ((v[:k1] if a1 is None else a1(f[0], v[:k1]))
                    + (v[k1:] if a2 is None else a2(f[1], v[k1:])))

        return k1 + k2, Product(F1, F2), split, None if a1 is None and a2 is None else act

    def _obj(self, g):
        return [self.left._obj(g[0]), self.right._obj(g[1])]

    @property
    def flat_arity(self):
        a, b = self.left.flat_arity, self.right.flat_arity
        return None if a is None or b is None else a + b

    def from_flat(self, values):
        a = self.left.flat_arity
        return (self.left.from_flat(values[:a]), self.right.from_flat(values[a:]))

    def __str__(self):
        return f"{self.left} x {self.right}"


@dataclass(frozen=True)
class CayleyTableGroup(Group):
    """Finite group given by an explicit multiplication table.

    Index 0 is the identity.  The table is validated eagerly at construction:
    totality, identity, two-sided inverses and associativity (O(m^3), tables
    are small).  ``names``, ``table`` and each row must be tuples, so no
    caller can change a table after it was validated.
    """

    names: tuple
    table: tuple

    family = "cayley-table"
    flat_arity = 1

    def __post_init__(self):
        if (type(self.names) is not tuple or type(self.table) is not tuple
                or any(type(row) is not tuple for row in self.table)):
            raise ValueError("a table group's names, table and rows must be tuples")
        m = len(self.names)
        if m < 1:
            raise ValueError("table must be nonempty")
        if len(self.table) != m or any(len(row) != m for row in self.table):
            raise ValueError("table must be square and match the element list")
        for row in self.table:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < m:
                    raise ValueError("table entries must be element indices")
        for i in range(m):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise ValueError("index 0 must be a two-sided identity")
        for i in range(m):
            if all(self.table[i][j] != 0 for j in range(m)):
                raise ValueError(f"element {i} has no inverse")
        t = self.table
        for i in range(m):
            for j in range(m):
                tij = t[i][j]
                for k in range(m):
                    if t[tij][k] != t[i][t[j][k]]:
                        raise ValueError("table is not associative")

    def mul(self, g, h):
        if self.contains(g) and self.contains(h):
            return self._mul(g, h)
        raise self._foreign(g, h)

    def _mul(self, g, h):
        return self.table[g][h]

    def inv(self, g):
        self.check(g)
        for h in range(len(self.names)):
            if self.table[g][h] == 0:
                return h
        raise AssertionError("validated table lost an inverse")

    def identity(self):
        return 0

    def contains(self, g):
        return isinstance(g, int) and 0 <= g < len(self.names)

    @property
    def size(self):
        return len(self.names)

    def elements(self):
        return iter(range(len(self.names)))

    def from_flat(self, values):
        return values[0]

    def __str__(self):
        return f"CayleyTable({len(self.names)})"


def element_from_flat(G, values):
    """Build an element of G from its flat integer encoding (the CLI element
    grammar), reducing modular slots.  The one place that checks the
    encoding's arity and the element it yields."""
    values = tuple(values)
    if G.flat_arity is None:
        raise UnsupportedFamilyError(f"{G} has no flat encoding")
    if len(values) != G.flat_arity or not all(isinstance(v, int) for v in values):
        raise DomainError(f"expected {G.flat_arity} integer coordinates for {G}, got {values!r}")
    g = G.from_flat(values)
    G.check(g)
    return g


def closure(G, elements):
    """The subgroup generated by ``elements`` in a finite group, as a set.

    Returns right after the insertion that makes the set all of G: every
    later product is already in it, so the full walk would return the same
    set.
    """
    if not G.is_finite:
        raise UnsupportedFamilyError("closure needs a finite group")
    # Every element of a finite group has finite order, so x^-1 is a
    # positive power of x: the monoid the elements generate is already the
    # subgroup, and walking their inverses too would double the products.
    gens = list(elements)
    for s in gens:
        G.check(s)
    mul = G._mul
    # A plain set walk, not metric._expand: storing (depth, label) per element
    # made perfbench's finite workload 10% slower per pass and 17% slower in
    # its median operation.
    full = G.size
    seen = {G.identity()}
    frontier = [G.identity()]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = mul(g, s)
                if h not in seen:
                    seen.add(h)
                    if len(seen) == full:
                        return seen
                    nxt.append(h)
        frontier = nxt
    return seen
