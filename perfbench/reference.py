"""Independent group laws and searches that the benchmark checks answers with.

Nothing here calls wordbound's arithmetic or searches.  Each program group
is modelled by a law of its own:

* Z^d and Z x Z/q        -- plain (modular) vector sums
* Heisenberg group       -- integer unitriangular matrices [[1,x,z],[0,1,y],[0,0,1]]
* infinite dihedral      -- affine maps x -> a*x + b of the integers, a = +-1
* finite dihedral D_2n   -- permutations of the n corners of a regular n-gon
* free group F_k         -- strings over a/A, b/B, ... with free reduction
* Q8                     -- unit quaternions with integer coordinates

``law_for`` also returns the map from a program element (its normal form) to
the law's element; that map is the only place program conventions appear.
"""

from __future__ import annotations

import itertools
import math
import string


class Law:
    """A group law on plain hashable values."""

    def __init__(self, identity, mul, inv, to_ref, elements=None):
        self.identity = identity
        self.mul = mul
        self.inv = inv
        self.to_ref = to_ref
        self.elements = elements  # list of all elements for finite groups

    def eval(self, letters, word):
        g = self.identity
        for sym in word:
            g = self.mul(g, letters[sym])
        return g


# -- laws ----------------------------------------------------------------


def _vector_law(d):
    return Law(
        (0,) * d,
        lambda g, h: tuple(a + b for a, b in zip(g, h)),
        lambda g: tuple(-a for a in g),
        tuple,
    )


def _cyclic_law(q):
    return Law(0, lambda g, h: (g + h) % q, lambda g: (-g) % q, int, list(range(q)))


def _matrix_mul(g, h):
    x, y, z = g
    x2, y2, z2 = h
    # [[1,x,z],[0,1,y],[0,0,1]] @ [[1,x2,z2],[0,1,y2],[0,0,1]]
    return (x + x2, y + y2, z2 + x * y2 + z)


def heisenberg_law():
    # a^i b^j c^l with a = E12, b = E23, c = [a, b] = E13 is the matrix (i, j, ij + l)
    return Law(
        (0, 0, 0),
        _matrix_mul,
        lambda g: (-g[0], -g[1], g[0] * g[1] - g[2]),
        lambda g: (g[0], g[1], g[0] * g[1] + g[2]),
    )


def _affine_law():
    # t^k s^e is x -> (-1)^e x + k; the product g h applies h first
    return Law(
        (1, 0),
        lambda g, h: (g[0] * h[0], g[0] * h[1] + g[1]),
        lambda g: (g[0], -g[0] * g[1]),
        lambda g: (-1 if g[1] else 1, g[0]),
    )


def _perm_mul(g, h):
    return tuple(g[i] for i in h)


def _perm_inv(g):
    out = [0] * len(g)
    for i, v in enumerate(g):
        out[v] = i
    return tuple(out)


def dihedral_perm(n, k, e):
    """r^k s^e acting on corners 0..n-1: i -> (-1)^e i + k mod n."""
    return tuple(((-i if e else i) + k) % n for i in range(n))


def _dihedral_law(n):
    elements = [dihedral_perm(n, k, e) for e in (0, 1) for k in range(n)]
    return Law(
        tuple(range(n)), _perm_mul, _perm_inv,
        lambda g: dihedral_perm(n, g[0], g[1]), elements,
    )


def _free_reduce(word):
    out = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _free_law():
    letters = string.ascii_lowercase
    return Law(
        "",
        lambda g, h: _free_reduce(g + h),
        lambda g: g[::-1].swapcase(),
        lambda g: "".join(letters[x - 1] if x > 0 else letters[-x - 1].upper() for x in g),
    )


def qmul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


Q8_UNITS = {
    "1": (1, 0, 0, 0), "-1": (-1, 0, 0, 0),
    "i": (0, 1, 0, 0), "-i": (0, -1, 0, 0),
    "j": (0, 0, 1, 0), "-j": (0, 0, -1, 0),
    "k": (0, 0, 0, 1), "-k": (0, 0, 0, -1),
}


def _quaternion_law(names):
    return Law(
        (1, 0, 0, 0), qmul,
        lambda g: (g[0], -g[1], -g[2], -g[3]),
        lambda g: Q8_UNITS[names[g]],
        [Q8_UNITS[n] for n in names],
    )


def _product_law(left, right):
    elements = None
    if left.elements is not None and right.elements is not None:
        elements = [(a, b) for a in left.elements for b in right.elements]
    return Law(
        (left.identity, right.identity),
        lambda g, h: (left.mul(g[0], h[0]), right.mul(g[1], h[1])),
        lambda g: (left.inv(g[0]), right.inv(g[1])),
        lambda g: (left.to_ref(g[0]), right.to_ref(g[1])),
        elements,
    )


def law_for(G):
    """The independent law modelling a program group, keyed by its family."""
    fam = G.family
    if fam == "int-vector":
        return _vector_law(G.d)
    if fam == "finite-cyclic":
        return _cyclic_law(G.q)
    if fam == "heisenberg":
        return heisenberg_law()
    if fam == "dihedral-infinite":
        return _affine_law()
    if fam == "dihedral-finite":
        return _dihedral_law(G.n)
    if fam == "free":
        return _free_law()
    if fam == "cayley-table":
        return _quaternion_law(G.names)
    if fam == "product":
        return _product_law(law_for(G.left), law_for(G.right))
    raise ValueError(f"no reference law for {fam}")


# -- searches ------------------------------------------------------------


def distances(law, letters, radius):
    """Plain BFS: element -> distance from the identity, out to ``radius``."""
    dist = {law.identity: 0}
    frontier = [law.identity]
    for depth in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for s in letters:
                h = law.mul(g, s)
                if h not in dist:
                    dist[h] = depth
                    nxt.append(h)
        frontier = nxt
    return dist


def girth(law, letters, cap):
    """Shortest cycle of the Cayley graph (it is vertex-transitive), or None.

    Classic BFS bound: a vertex at distance d with two neighbours at distance
    d-1 closes a cycle of length 2d, an edge inside level d one of 2d+1; both
    are exact for a vertex on a shortest cycle.
    """
    dist = distances(law, letters, cap // 2)
    best = None
    for g, d in dist.items():
        nbrs = {law.mul(g, s) for s in letters}
        down = sum(1 for h in nbrs if dist.get(h) == d - 1)
        if down >= 2 and 2 * d <= cap:
            best = 2 * d if best is None else min(best, 2 * d)
        if any(dist.get(h) == d for h in nbrs) and 2 * d + 1 <= cap:
            best = 2 * d + 1 if best is None else min(best, 2 * d + 1)
    return best


def closure(law, gens):
    seen = {law.identity}
    stack = [law.identity]
    gens = list(gens) + [law.inv(x) for x in gens]
    while stack:
        g = stack.pop()
        for s in gens:
            h = law.mul(g, s)
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return seen


def is_simple_loop(law, letters, word):
    """Nonempty, cyclically reduced, pairwise-distinct vertices, closes at e."""
    if not word:
        return False
    inverse = [letters.index(law.inv(s)) for s in letters]
    n = len(word)
    if n >= 2 and any(word[(i + 1) % n] == inverse[word[i]] for i in range(n)):
        return False
    seen = set()
    g = law.identity
    for sym in word:
        if g in seen:
            return False
        seen.add(g)
        g = law.mul(g, letters[sym])
    return g == law.identity


def uniform_lengths(law):
    """Max word length of every element over every symmetric generating subset.

    Brute force: each subset of the inverse-pair classes of G minus e, kept
    when its closure is the whole group.
    """
    elements = law.elements
    classes = []
    seen = set()
    for x in elements:
        if x == law.identity or x in seen:
            continue
        xi = law.inv(x)
        seen.update((x, xi))
        classes.append({x, xi})
    best = {g: 0 for g in elements}
    for r in range(1, len(classes) + 1):
        for combo in itertools.combinations(classes, r):
            letters = sorted(set().union(*combo))
            if len(closure(law, letters)) != len(elements):
                continue
            dist = distances(law, letters, len(elements))
            for g in elements:
                best[g] = max(best[g], dist[g])
    return best


def aut_order(label):
    """|Aut| of the finite workload's groups from the known closed forms."""
    kind, _, arg = label.partition(":")
    n = int(arg) if arg else 0
    phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1) if n else 0
    return {
        "dihedral": n * phi,  # D_2n for n >= 3
        "Q8": 24,
        "Z2^3": 168,
        "Z2xZ4": 8,
        "Z2xZ6": 12,
    }[kind]


def is_automorphism(law, mapping):
    elems = law.elements
    if sorted(mapping) != sorted(elems) or len(set(mapping.values())) != len(elems):
        return False
    return all(
        mapping[law.mul(a, b)] == law.mul(mapping[a], mapping[b])
        for a in elems for b in elems
    )
