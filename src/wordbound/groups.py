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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from .errors import DomainError, UnsupportedFamilyError


class _Infinite:
    """Singleton outcome of ``element_order`` for non-torsion elements.

    Also returned when a table-driven order search exceeds its cap; for the
    shipped families the answer is always analytic and exact.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinite"


INFINITE = _Infinite()


class Group:
    """Base interface for a concrete group family."""

    family = "abstract"

    # -- group law -------------------------------------------------------

    def mul(self, g, h):
        raise NotImplementedError

    def inv(self, g):
        raise NotImplementedError

    def identity(self):
        raise NotImplementedError

    def contains(self, g):
        raise NotImplementedError

    def check(self, g):
        if not self.contains(g):
            raise DomainError(f"{g!r} is not an element of {self}")

    def power(self, g, n):
        """n-th power by repeated squaring, ``n`` any integer."""
        self.check(g)
        if n < 0:
            g = self.inv(g)
            n = -n
        acc = self.identity()
        while n:
            if n & 1:
                acc = self.mul(acc, g)
            g = self.mul(g, g)
            n >>= 1
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

    def element_order(self, g, cap=None):
        """Least n >= 1 with g^n = e, or INFINITE.

        Finite families iterate powers; infinite families answer analytically
        from the normal form.  ``cap`` bounds the iteration where one happens.
        """
        self.check(g)
        limit = cap if cap is not None else self.size
        if limit is None:
            raise UnsupportedFamilyError(f"need a cap for order search in {self}")
        e = self.identity()
        x = g
        for n in range(1, limit + 1):
            if x == e:
                return n
            x = self.mul(x, g)
        return INFINITE


@dataclass(frozen=True)
class FiniteCyclic(Group):
    q: int

    family = "finite-cyclic"

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("modulus must be >= 1")

    def mul(self, g, h):
        self.check(g)
        self.check(h)
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

    def element_order(self, g, cap=None):
        self.check(g)
        return self.q // gcd(self.q, g)

    def __str__(self):
        return f"Z/{self.q}"


@dataclass(frozen=True)
class IntVector(Group):
    d: int

    family = "int-vector"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")

    def mul(self, g, h):
        self.check(g)
        self.check(h)
        return tuple(a + b for a, b in zip(g, h))

    def inv(self, g):
        self.check(g)
        return tuple(-a for a in g)

    def identity(self):
        return (0,) * self.d

    def contains(self, g):
        return (
            isinstance(g, tuple)
            and len(g) == self.d
            and all(isinstance(a, int) for a in g)
        )

    def element_order(self, g, cap=None):
        self.check(g)
        return 1 if g == self.identity() else INFINITE

    def __str__(self):
        return "Z" if self.d == 1 else f"Z^{self.d}"


def _dihedral_contains(g):
    return (
        isinstance(g, tuple)
        and len(g) == 2
        and isinstance(g[0], int)
        and g[1] in (0, 1)
    )


@dataclass(frozen=True)
class DihedralFinite(Group):
    """Dihedral group of order 2n: r^k s^eps with s r s = r^-1."""

    n: int

    family = "dihedral-finite"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("rotation order must be >= 1")

    def mul(self, g, h):
        self.check(g)
        self.check(h)
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
        return _dihedral_contains(g) and 0 <= g[0] < self.n

    @property
    def size(self):
        return 2 * self.n

    def elements(self):
        return iter([(k, e) for e in (0, 1) for k in range(self.n)])

    def element_order(self, g, cap=None):
        self.check(g)
        k, e = g
        if e == 1:
            return 2
        return self.n // gcd(self.n, k)

    def __str__(self):
        return f"D{2 * self.n}"


@dataclass(frozen=True)
class DihedralInfinite(Group):
    """Infinite dihedral group: t^k s^eps with s t s = t^-1."""

    family = "dihedral-infinite"

    def mul(self, g, h):
        self.check(g)
        self.check(h)
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
        return _dihedral_contains(g)

    def element_order(self, g, cap=None):
        self.check(g)
        k, e = g
        if e == 1:
            return 2
        return 1 if k == 0 else INFINITE

    def __str__(self):
        return "Dinf"


@dataclass(frozen=True)
class Heisenberg(Group):
    """Discrete Heisenberg group <a,b,c | [a,b]=c, [a,c]=[b,c]=e>.

    Normal form (i, j, l) = a^i b^j c^l, multiplied by
    (i,j,l)*(i',j',l') = (i+i', j+j', l+l'-j*i').
    """

    family = "heisenberg"

    def mul(self, g, h):
        self.check(g)
        self.check(h)
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
            and all(isinstance(a, int) for a in g)
        )

    def element_order(self, g, cap=None):
        self.check(g)
        return 1 if g == (0, 0, 0) else INFINITE

    def __str__(self):
        return "H3"


def reduce_letters(seq):
    """Freely reduce a sequence of signed basis letters."""
    out = []
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class Free(Group):
    """Free group of rank k on formal letters x_1 .. x_k."""

    k: int

    family = "free"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("rank must be >= 1")

    def mul(self, g, h):
        self.check(g)
        self.check(h)
        i = len(g)
        j = 0
        while i > 0 and j < len(h) and g[i - 1] == -h[j]:
            i -= 1
            j += 1
        return g[:i] + h[j:]

    def inv(self, g):
        self.check(g)
        return tuple(-x for x in reversed(g))

    def identity(self):
        return ()

    def contains(self, g):
        if not isinstance(g, tuple):
            return False
        for x in g:
            if not isinstance(x, int) or x == 0 or abs(x) > self.k:
                return False
        return all(g[i] != -g[i + 1] for i in range(len(g) - 1))

    def element_order(self, g, cap=None):
        self.check(g)
        return 1 if g == () else INFINITE

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

    # The factors' checked mul/inv validate the components, so the group
    # law checks only the pair shape: each component is validated once.

    def _check_pair(self, g):
        if not (isinstance(g, tuple) and len(g) == 2):
            raise DomainError(f"{g!r} is not an element of {self}")

    def mul(self, g, h):
        self._check_pair(g)
        self._check_pair(h)
        return (self.left.mul(g[0], h[0]), self.right.mul(g[1], h[1]))

    def inv(self, g):
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

    def element_order(self, g, cap=None):
        self.check(g)
        a = self.left.element_order(g[0], cap)
        b = self.right.element_order(g[1], cap)
        if a is INFINITE or b is INFINITE:
            return INFINITE
        return a * b // gcd(a, b)

    def __str__(self):
        return f"{self.left} x {self.right}"


@dataclass(frozen=True)
class CayleyTableGroup(Group):
    """Finite group given by an explicit multiplication table.

    Index 0 is the identity.  The table is validated eagerly at construction:
    totality, identity, two-sided inverses and associativity (O(m^3), tables
    are small).
    """

    names: tuple
    table: tuple

    family = "cayley-table"

    def __post_init__(self):
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

    @classmethod
    def from_json(cls, source):
        """Load from a dict or a JSON file path.

        Schema: ``{"elements": ["e", "r", ...], "table": [[0,1,...], ...]}``
        with index 0 the identity.
        """
        if isinstance(source, dict):
            obj = source
        else:
            with open(source, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        return cls(
            names=tuple(obj["elements"]),
            table=tuple(tuple(row) for row in obj["table"]),
        )

    def mul(self, g, h):
        self.check(g)
        self.check(h)
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

    def __str__(self):
        return f"CayleyTable({len(self.names)})"


# -- descriptor (de)serialization ----------------------------------------


def group_to_obj(G):
    """JSON-able descriptor of a group."""
    if isinstance(G, FiniteCyclic):
        return {"family": G.family, "q": G.q}
    if isinstance(G, IntVector):
        return {"family": G.family, "d": G.d}
    if isinstance(G, DihedralFinite):
        return {"family": G.family, "n": G.n}
    if isinstance(G, (DihedralInfinite, Heisenberg)):
        return {"family": G.family}
    if isinstance(G, Free):
        return {"family": G.family, "k": G.k}
    if isinstance(G, Product):
        return {
            "family": G.family,
            "left": group_to_obj(G.left),
            "right": group_to_obj(G.right),
        }
    if isinstance(G, CayleyTableGroup):
        return {
            "family": G.family,
            "elements": list(G.names),
            "table": [list(row) for row in G.table],
        }
    raise UnsupportedFamilyError(f"cannot serialize {G!r}")


def group_from_obj(obj):
    fam = obj["family"]
    if fam == "finite-cyclic":
        return FiniteCyclic(obj["q"])
    if fam == "int-vector":
        return IntVector(obj["d"])
    if fam == "dihedral-finite":
        return DihedralFinite(obj["n"])
    if fam == "dihedral-infinite":
        return DihedralInfinite()
    if fam == "heisenberg":
        return Heisenberg()
    if fam == "free":
        return Free(obj["k"])
    if fam == "product":
        return Product(group_from_obj(obj["left"]), group_from_obj(obj["right"]))
    if fam == "cayley-table":
        return CayleyTableGroup.from_json({"elements": obj["elements"], "table": obj["table"]})
    raise UnsupportedFamilyError(f"unknown family {fam!r}")


def element_to_obj(G, g):
    """JSON-able form of an element of G."""
    G.check(g)
    if isinstance(G, Product):
        return [element_to_obj(G.left, g[0]), element_to_obj(G.right, g[1])]
    if isinstance(g, tuple):
        return list(g)
    return g


def element_from_obj(G, obj):
    if isinstance(G, Product):
        g = (element_from_obj(G.left, obj[0]), element_from_obj(G.right, obj[1]))
    elif isinstance(obj, list):
        g = tuple(obj)
    else:
        g = obj
    G.check(g)
    return g


# -- flat coordinates (CLI element grammar) ------------------------------


def flat_arity(G):
    """Number of integers in the flat tuple encoding of an element of G."""
    if isinstance(G, (FiniteCyclic, CayleyTableGroup)):
        return 1
    if isinstance(G, IntVector):
        return G.d
    if isinstance(G, (DihedralFinite, DihedralInfinite)):
        return 2
    if isinstance(G, Heisenberg):
        return 3
    if isinstance(G, Product):
        return flat_arity(G.left) + flat_arity(G.right)
    raise UnsupportedFamilyError(f"{G} has no flat encoding")


def element_from_flat(G, values):
    """Build an element from a flat integer tuple, reducing modular slots."""
    values = tuple(values)
    if len(values) != flat_arity(G):
        raise DomainError(f"expected {flat_arity(G)} coordinates for {G}, got {len(values)}")
    return _from_flat(G, list(values))


def _from_flat(G, vals):
    if isinstance(G, FiniteCyclic):
        return vals.pop(0) % G.q
    if isinstance(G, CayleyTableGroup):
        v = vals.pop(0)
        G.check(v)
        return v
    if isinstance(G, IntVector):
        return tuple(vals.pop(0) for _ in range(G.d))
    if isinstance(G, DihedralFinite):
        k, e = vals.pop(0), vals.pop(0)
        return (k % G.n, e % 2)
    if isinstance(G, DihedralInfinite):
        k, e = vals.pop(0), vals.pop(0)
        return (k, e % 2)
    if isinstance(G, Heisenberg):
        return (vals.pop(0), vals.pop(0), vals.pop(0))
    if isinstance(G, Product):
        left = _from_flat(G.left, vals)
        right = _from_flat(G.right, vals)
        return (left, right)
    raise UnsupportedFamilyError(f"{G} has no flat encoding")


# -- misc helpers --------------------------------------------------------


def standard_generators(G):
    """The conventional generating elements for a family.

    Z^d: unit vectors; dihedral: rotation/translation and reflection;
    Heisenberg: a, b; free: basis letters; products: componentwise lifts;
    finite table groups: every non-identity element.
    """
    if isinstance(G, FiniteCyclic):
        return [1 % G.q] if G.q > 1 else []
    if isinstance(G, IntVector):
        return [
            tuple(1 if i == j else 0 for j in range(G.d)) for i in range(G.d)
        ]
    if isinstance(G, DihedralFinite):
        gens = [(0, 1)]
        if G.n > 1:
            gens.insert(0, (1, 0))
        return gens
    if isinstance(G, DihedralInfinite):
        return [(1, 0), (0, 1)]
    if isinstance(G, Heisenberg):
        return [(1, 0, 0), (0, 1, 0)]
    if isinstance(G, Free):
        return [(i,) for i in range(1, G.k + 1)]
    if isinstance(G, Product):
        el = G.left.identity()
        er = G.right.identity()
        return [(x, er) for x in standard_generators(G.left)] + [
            (el, y) for y in standard_generators(G.right)
        ]
    if isinstance(G, CayleyTableGroup):
        return [i for i in range(1, len(G.names))]
    raise UnsupportedFamilyError(f"no standard generators for {G}")


def random_element(G, rng, size=10):
    """A pseudorandom element with coordinates bounded by ``size``."""
    if isinstance(G, FiniteCyclic):
        return rng.randrange(G.q)
    if isinstance(G, IntVector):
        return tuple(rng.randint(-size, size) for _ in range(G.d))
    if isinstance(G, DihedralFinite):
        return (rng.randrange(G.n), rng.randrange(2))
    if isinstance(G, DihedralInfinite):
        return (rng.randint(-size, size), rng.randrange(2))
    if isinstance(G, Heisenberg):
        return tuple(rng.randint(-size, size) for _ in range(3))
    if isinstance(G, Free):
        word = []
        for _ in range(rng.randrange(size + 1)):
            x = rng.choice([s * i for i in range(1, G.k + 1) for s in (1, -1)])
            if word and word[-1] == -x:
                continue
            word.append(x)
        return tuple(word)
    if isinstance(G, Product):
        return (
            random_element(G.left, rng, size),
            random_element(G.right, rng, size),
        )
    if isinstance(G, CayleyTableGroup):
        return rng.randrange(len(G.names))
    raise UnsupportedFamilyError(f"cannot sample from {G}")


def closure(G, elements):
    """The subgroup generated by ``elements`` in a finite group, as a set."""
    if not G.is_finite:
        raise UnsupportedFamilyError("closure needs a finite group")
    gens = list(elements) + [G.inv(x) for x in elements]
    # A plain set walk, not metric._expand: storing (depth, label) per element
    # made perfbench's finite workload 10% slower per pass and 17% slower in
    # its median operation.
    seen = {G.identity()}
    frontier = [G.identity()]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = G.mul(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen
