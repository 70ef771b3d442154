"""Samplers and slow, obviously correct reference implementations that the
tests compare the library against."""

import itertools
import json
import os
import subprocess
import sys
from math import prod
from operator import add, sub
from pathlib import Path

import wordbound
from wordbound import groups as gr
from wordbound.errors import DomainError, EmptyGenSetError, NotGeneratingError, UnsupportedFamilyError
from wordbound.experiments import Automorphism
from wordbound.gensets import (
    GenerationResult, GenSet, generates, invariant_factors, inverse_pair_classes, make_symmetric,
    smith_normal_form)
from wordbound.girth import GirthResult, _validate_witness
from wordbound.metric import _Budget, certify_length, word_length
from wordbound.reports import ExperimentReport, Verdict


def quaternion_table():
    """Q8 as a CayleyTableGroup, from unit quaternions as integer 4-tuples."""
    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    elems = units + [tuple(-c for c in u) for u in units]
    index = {x: i for i, x in enumerate(elems)}

    def qmul(p, q):
        a, b, c, d = p
        w, x, y, z = q
        return (a * w - b * x - c * y - d * z, a * x + b * w + c * z - d * y,
                a * y - b * z + c * w + d * x, a * z + b * y - c * x + d * w)

    return gr.CayleyTableGroup(
        names=("1", "i", "j", "k", "-1", "-i", "-j", "-k"),
        table=tuple(tuple(index[qmul(p, q)] for q in elems) for p in elems),
    )


def concrete_families():
    """Every concrete ``Group`` subclass that ``wordbound.groups`` defines."""
    return [cls for cls in vars(gr).values()
            if isinstance(cls, type) and issubclass(cls, gr.Group) and cls is not gr.Group]


_C2, _C4, _C6 = gr.FiniteCyclic(2), gr.FiniteCyclic(4), gr.FiniteCyclic(6)
# The eight groups of perfbench's finite workload.
FINITE_GROUPS = [
    gr.DihedralFinite(4), gr.DihedralFinite(5), gr.DihedralFinite(6), gr.DihedralFinite(8),
    gr.Product(_C2, _C4), gr.Product(_C2, _C6), gr.Product(gr.Product(_C2, _C2), _C2),
    quaternion_table(),
]


Z3_TABLE = gr.CayleyTableGroup(names=("e", "g", "g2"), table=((0, 1, 2), (1, 2, 0), (2, 0, 1)))
# One or more groups of every concrete family, finite and infinite.
FAMILIES = [
    gr.FiniteCyclic(1),
    gr.FiniteCyclic(5),
    gr.FiniteCyclic(8),
    gr.IntVector(1),
    gr.IntVector(3),
    gr.DihedralFinite(1),
    gr.DihedralFinite(4),
    gr.DihedralInfinite(),
    gr.Heisenberg(),
    gr.Free(1),
    gr.Free(2),
    gr.Product(gr.IntVector(1), gr.FiniteCyclic(2)),
    gr.Product(gr.DihedralFinite(4), gr.FiniteCyclic(3)),
    gr.Product(gr.IntVector(1), gr.DihedralFinite(4)),
    Z3_TABLE,
]


def foreign_alphabets():
    """Hand-built alphabets, each with one letter outside its group after a
    class of real letters: (name, group, letters, involution), laid out as
    ``GenSet.from_classes`` lays out the classes ``letters[:-1]`` and
    ``letters[-1:]``."""
    Z2, D8 = gr.IntVector(2), gr.DihedralFinite(4)
    cases = [
        ("Z^2 float coordinate", Z2, (1.5, 0)),
        ("F2 unreduced word", gr.Free(2), (1, -1, 2)),
        ("D8 rotation out of range", D8, (5, 0)),
        ("Z x D8 bad component", gr.Product(gr.IntVector(1), D8), ((0,), (0, 2))),
        ("Cayley table index out of range", quaternion_table(), 8),
        ("list letter", Z2, [1, 0]),
    ]
    out = []
    for name, G, bad in cases:
        [good] = inverse_pair_classes(G, G.standard_generators()[:1])
        a = len(good)
        involution = (0,) if a == 1 else (1, 0)
        out.append((name, G, (*good, bad), involution + (a,)))
    return out


def with_memory_limit(value, call):
    """``call()`` with ``WORDBOUND_MEM_LIMIT`` set to ``value``, the
    variable restored afterwards: the one way to give a search another
    budget, also in a script run under ``python -O``, where pytest's
    ``monkeypatch`` is not at hand."""
    old = os.environ.get("WORDBOUND_MEM_LIMIT")
    os.environ["WORDBOUND_MEM_LIMIT"] = value
    try:
        return call()
    finally:
        if old is None:
            del os.environ["WORDBOUND_MEM_LIMIT"]
        else:
            os.environ["WORDBOUND_MEM_LIMIT"] = old


def certify_refusals():
    """Calls of ``certify_length`` that must be refused: (name, call, the
    error it raises).  Each fails before any search starts."""
    Z = gr.IntVector(2)
    S = make_symmetric(Z, [(1, 0), (0, 1)])
    x = S.symbol_of((1, 0))
    return [
        ("word spells another element", lambda: certify_length(Z, S, (2, 0), (x,)), DomainError),
        ("word spells a non-identity", lambda: certify_length(Z, S, (0, 0), (x,)), DomainError),
        ("longer word spells another", lambda: certify_length(Z, S, (1, 0), (x, x, x)), DomainError),
        ("symbol id past the end", lambda: certify_length(Z, S, (1, 0), (x, 4)), DomainError),
        ("negative symbol id", lambda: certify_length(Z, S, (1, 0), (-1,)), DomainError),
        ("bool symbol id", lambda: certify_length(Z, S, (1, 0), (True,)), DomainError),
        ("target not an element", lambda: certify_length(Z, S, (1, 0, 0), (x,)), DomainError),
        ("alphabet over another group", lambda: certify_length(gr.IntVector(1), S, (1,), (x,)), DomainError),
        ("memory limit not positive",
         lambda: with_memory_limit("0", lambda: certify_length(Z, S, (1, 0), (x,))), ValueError),
    ]


# Groups whose alphabets the construction check is held to the oracle on.
MUTATION_GROUPS = FINITE_GROUPS + [
    gr.IntVector(2), gr.Heisenberg(), gr.DihedralInfinite(), gr.Free(2),
    gr.Product(gr.IntVector(1), gr.DihedralFinite(4)),
]


def genset_is_valid_reference(G, letters, involution):
    """Whether ``GenSet(G, letters, involution)`` is an alphabet, straight
    from the definition: two tuples, letters that are pairwise different
    elements of G, and an involution whose entries are ints naming letters,
    which sends each letter to one that multiplies with it to the identity
    and is its own inverse."""
    if type(letters) is not tuple or type(involution) is not tuple:
        return False
    n = len(letters)
    if not all(contains_reference(G, x) for x in letters):
        return False
    if any(letters[a] == letters[b] for a in range(n) for b in range(a + 1, n)):
        return False
    if len(involution) != n or not all(type(j) is int and j in range(n) for j in involution):
        return False
    return all(involution[involution[i]] == i
               and G.mul(letters[i], letters[involution[i]]) == G.identity()
               for i in range(n))


def _near_miss(x):
    """x with its first integer made a float, so no longer an element."""
    return float(x) if isinstance(x, int) else (_near_miss(x[0]), *x[1:])


def _without(letters, involution, gone):
    """The alphabet without the symbol ids in ``gone``, renumbered; an id
    whose partner is gone is paired with itself."""
    keep = [k for k in range(len(letters)) if k not in gone]
    new = {k: a for a, k in enumerate(keep)}
    return tuple(letters[k] for k in keep), tuple(new.get(involution[k], new[k]) for k in keep)


def alphabet_mutations(S):
    """Copies of the alphabet S, each altered in one way, as (name, letters,
    involution): two involution entries swapped, an entry sent to another
    letter, an inverse letter dropped (its partner left paired with
    itself), a class repeated, a letter made a non-element or a list, an
    involution entry made a float, a bool, out of range or negative, the
    involution one entry short, and letters or involution given as a list.
    The one change that keeps an alphabet valid, a whole class dropped, is
    there too."""
    letters, inv = S.letters, S.involution
    n = len(letters)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            swapped = list(inv)
            swapped[i], swapped[j] = inv[j], inv[i]
            out.append((f"entries {i} and {j} swapped", letters, tuple(swapped)))
        j = inv[i]
        for k in range(n):
            if k != j:
                out.append((f"entry {i} sent to {k}", letters, inv[:i] + (k,) + inv[i + 1:]))
        out.append((f"class of {i} dropped", *_without(letters, inv, {i, j})))
        if j != i:
            out.append((f"inverse of {i} dropped", *_without(letters, inv, {j})))
        copy = (i,) if j == i else (i, j)
        out.append((f"class of {i} repeated", letters + tuple(letters[k] for k in copy),
                    inv + ((n,) if j == i else (n + 1, n))))
        for name, bad in (("a non-element", _near_miss(letters[i])),
                          ("a list", list(letters[i]) if isinstance(letters[i], tuple)
                           else [letters[i]])):
            out.append((f"letter {i} made {name}", letters[:i] + (bad,) + letters[i + 1:], inv))
        for name, bad in (("a float", float(j)), ("a bool", j == 1), ("out of range", n),
                          ("negative", j - n)):
            out.append((f"entry {i} made {name}", letters, inv[:i] + (bad,) + inv[i + 1:]))
    out.append(("involution one short", letters, inv[:-1]))
    out.append(("letters as a list", list(letters), inv))
    out.append(("involution as a list", letters, list(inv)))
    return out


def random_element(G, rng, size=10):
    """A pseudorandom element with coordinates bounded by ``size``."""
    if isinstance(G, gr.FiniteCyclic):
        return rng.randrange(G.q)
    if isinstance(G, gr.IntVector):
        return tuple(rng.randint(-size, size) for _ in range(G.d))
    if isinstance(G, gr.DihedralFinite):
        return (rng.randrange(G.n), rng.randrange(2))
    if isinstance(G, gr.DihedralInfinite):
        return (rng.randint(-size, size), rng.randrange(2))
    if isinstance(G, gr.Heisenberg):
        return tuple(rng.randint(-size, size) for _ in range(3))
    if isinstance(G, gr.Free):
        word = []
        for _ in range(rng.randrange(size + 1)):
            x = rng.choice([s * i for i in range(1, G.k + 1) for s in (1, -1)])
            if word and word[-1] == -x:
                continue
            word.append(x)
        return tuple(word)
    if isinstance(G, gr.Product):
        return (
            random_element(G.left, rng, size),
            random_element(G.right, rng, size),
        )
    if isinstance(G, gr.CayleyTableGroup):
        return rng.randrange(len(G.names))
    raise UnsupportedFamilyError(f"cannot sample from {G}")


_COORDINATES = (0, 1, -1, 7, -12, 10**30, -10**30, 10**30 + 1, -3 * 10**29 + 5, 2**64)


_EXPONENTS = (1, 2, 3, 41, 1009)


def mixed_magnitude_element(G, rng):
    """An element of G whose translation coordinates, or all three
    coordinates of a Heisenberg element, are drawn from ``_COORDINATES``:
    small, around 10^30 and mixed within one vector, of either sign; a
    finite factor's part is any of its elements.  A free element is a
    reduced word of 1 to 4 syllables x_g^e, each on a generator other than
    the last one's, with e drawn from ``_EXPONENTS`` and either sign."""
    if isinstance(G, gr.Free):
        word, last = (), None
        for _ in range(rng.randint(1, 4) if G.k > 1 else 1):
            last = rng.choice([i for i in range(1, G.k + 1) if i != last])
            word += (rng.choice((last, -last)),) * rng.choice(_EXPONENTS)
        return word
    if isinstance(G, gr.Product):
        return (mixed_magnitude_element(G.left, rng), mixed_magnitude_element(G.right, rng))
    if isinstance(G, gr.IntVector):
        return tuple(rng.choice(_COORDINATES) for _ in range(G.d))
    if isinstance(G, gr.DihedralInfinite):
        return (rng.choice(_COORDINATES), rng.randrange(2))
    if isinstance(G, gr.Heisenberg):
        return tuple(rng.choice(_COORDINATES) for _ in range(3))
    return rng.choice(list(G.elements()))


def _dihedral_contains(g):
    return (
        isinstance(g, tuple)
        and len(g) == 2
        and isinstance(g[0], int)
        and isinstance(g[1], int)
        and g[1] in (0, 1)
    )


def contains_reference(G, g):
    """Membership as each family first tested it: generator scans and a
    shared dihedral helper.  Every family's ``contains`` must agree."""
    if isinstance(G, gr.FiniteCyclic):
        return isinstance(g, int) and 0 <= g < G.q
    if isinstance(G, gr.IntVector):
        return (
            isinstance(g, tuple)
            and len(g) == G.d
            and all(isinstance(a, int) for a in g)
        )
    if isinstance(G, gr.DihedralFinite):
        return _dihedral_contains(g) and 0 <= g[0] < G.n
    if isinstance(G, gr.DihedralInfinite):
        return _dihedral_contains(g)
    if isinstance(G, gr.Heisenberg):
        return (
            isinstance(g, tuple)
            and len(g) == 3
            and all(isinstance(a, int) for a in g)
        )
    if isinstance(G, gr.Free):
        if not isinstance(g, tuple):
            return False
        for x in g:
            if not isinstance(x, int) or x == 0 or abs(x) > G.k:
                return False
        return all(g[i] != -g[i + 1] for i in range(len(g) - 1))
    if isinstance(G, gr.Product):
        return (
            isinstance(g, tuple)
            and len(g) == 2
            and contains_reference(G.left, g[0])
            and contains_reference(G.right, g[1])
        )
    if isinstance(G, gr.CayleyTableGroup):
        return isinstance(g, int) and 0 <= g < len(G.names)
    raise UnsupportedFamilyError(f"no reference membership for {G}")


def reduce_letters(seq):
    """Freely reduce a sequence of signed basis letters."""
    out = []
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def at_distance(B, r):
    """The elements of a ball at distance exactly ``r``, in table order."""
    return [g for g, (d, _) in B.table.items() if d == r]


def ball_full_walk(G, S, radius):
    """The ball's table by a layer walk that multiplies every node within
    ``radius`` by every letter, even once it holds all of a finite group:
    {element: (distance, symbol)} in discovery order.  ``metric.ball``
    stops early and must build the same dict in the same order."""
    table = {G.identity(): (0, None)}
    frontier = [G.identity()]
    for depth in range(1, radius + 1):
        layer = []
        for u in frontier:
            for sym in S.symbols():
                v = G.mul(u, S.element(sym))
                if v not in table:
                    table[v] = (depth, sym)
                    layer.append(v)
        frontier = layer
    return table


def charge(budget, key, radius):
    """Charge ``key`` to a ``metric._Budget`` by its own call, node by node:
    its ``cost``, refused once the budget's limit is overdrawn, with
    ``radius`` and the nodes stored before it.  The per-node reference that
    the library's local charge counters are held to."""
    budget.used += budget.cost(key)
    if budget.used > budget.limit:
        raise budget.exhausted(radius, budget.nodes)
    budget.nodes += 1


def expand_per_node(mul, letters, table, budget, full):
    """``metric._expand`` charging each stored node to ``budget`` by its
    own :func:`charge` call: the reference the layer-local charge is held
    to, with the same signature, layers, table, labels, ends and
    refusals."""
    layer = list(table)
    depth = 0
    while layer and len(table) != full:
        depth += 1
        frontier, layer = layer, []
        for u in frontier:
            for i, x in enumerate(letters):
                v = mul(u, x)
                if v in table:
                    continue
                charge(budget, v, depth - 1)
                table[v] = (depth, i)
                layer.append(v)
            if len(table) == full:
                break
        yield layer


def closure_full_walk(G, elements):
    """The subgroup ``elements`` generate in a finite group, by a walk that
    runs until its frontier is empty.  ``groups.closure`` stops early and
    must return the same set."""
    seen = {G.identity()}
    frontier = [G.identity()]
    while frontier:
        layer = []
        for g in frontier:
            for s in elements:
                h = G.mul(g, s)
                if h not in seen:
                    seen.add(h)
                    layer.append(h)
        frontier = layer
    return seen


def length_profile(G, labeled_gensets, g, cap):
    """Word length of g across a parameterized family of alphabets.

    ``labeled_gensets`` is an iterable of (label, GenSet) pairs; returns
    (label, length) pairs in the same order.
    """
    out = []
    for label, S in labeled_gensets:
        cert = word_length(G, S, g, cap)
        out.append((label, cert.length))
    return out


def girth_reference(G, S, cap):
    """Iterative deepening over cyclically reduced words; exponential, small
    caps only.  Must agree with :func:`wordbound.girth.girth`."""
    if cap < 2:
        raise ValueError("cap must be >= 2")
    e = G.identity()

    def dfs(word, value, remaining):
        if remaining == 0:
            if value == e and word[0] != S.inv_symbol(word[-1]):
                return tuple(word)
            return None
        for sym in S.symbols():
            if word and sym == S.inv_symbol(word[-1]):
                continue
            word.append(sym)
            got = dfs(word, G.mul(value, S.element(sym)), remaining - 1)
            if got is not None:
                return got
            word.pop()
        return None

    for n in range(2, cap + 1):
        got = dfs([], e, n)
        if got is not None:
            witness = got
            _validate_witness(G, S, witness)
            return GirthResult(value=n, cap=cap, witness=witness)
    return GirthResult(value=None, cap=cap)


def is_automorphism_reference(G, mapping):
    """Whether ``mapping`` is a bijection of the finite group G onto itself
    with phi(ab) = phi(a)phi(b) on all |G|^2 pairs.
    ``experiments.Automorphism.build`` checks generators only and must
    accept exactly these maps."""
    elems = list(G.elements())
    if set(mapping) != set(elems) or set(mapping.values()) != set(elems):
        return False
    return all(
        mapping[G.mul(a, b)] == G.mul(mapping[a], mapping[b])
        for a in elems
        for b in elems
    )


def aut_by_bijections(G):
    """Every automorphism of a tiny finite group, by filtering all
    bijections that fix the identity."""
    elems = list(G.elements())
    e = G.identity()
    rest = [x for x in elems if x != e]
    autos = []
    for perm in itertools.permutations(rest):
        mapping = {e: e}
        mapping.update(zip(rest, perm))
        if is_automorphism_reference(G, mapping):
            autos.append(Automorphism.build(G, mapping))
    return autos


def make_symmetric_reference(G, elements):
    """``make_symmetric`` as first written, one loop that checks each element
    and lays out its letters and involution as it goes; the library, which
    builds inverse-pair classes and lays them out apart, must return the
    same alphabet."""
    index = {}
    order = []
    involution = []
    for x in elements:
        G.check(x)
        if x == G.identity() or x in index:
            continue
        # x is new, so its inverse is too unless x is an involution.
        a = index[x] = len(order)
        order.append(x)
        xi = G.inv(x)
        if xi == x:
            involution.append(a)
        else:
            index[xi] = a + 1
            order.append(xi)
            involution += [a + 1, a]
    if not order:
        raise EmptyGenSetError("all proposed generators were the identity")
    return GenSet(group=G, letters=tuple(order), involution=tuple(involution))


def sample_zxd8_genset_reference(rng, radius=10, max_attempts=500):
    """The zxd8 sampler as first written, building its pool of Z x D8 on
    every call; ``experiments.sample_zxd8_genset`` must draw the same
    alphabets from the same ``rng`` state."""
    G = gr.Product(gr.IntVector(1), gr.DihedralFinite(4))
    e = G.identity()
    pool = [((n,), f) for n in range(-radius, radius + 1) for f in G.right.elements()]
    pool = [g for g in pool if g != e]
    for _ in range(max_attempts):
        S = make_symmetric_reference(G, rng.sample(pool, rng.randint(2, 4)))
        if generates(G, S).is_yes:
            return S
    raise NotGeneratingError(f"no generating set within {max_attempts} attempts")


def symmetric_generating_subsets_reference(G):
    """The generating-set enumeration as first written: one ``closure`` and
    one ``make_symmetric_reference`` per inverse-pair mask.  The masks whose
    balls fill G in ``experiments.uniform_length_table`` must give equal
    GenSets in the same order."""
    e = G.identity()
    classes = []
    seen = set()
    for x in G.elements():
        if x == e or x in seen:
            continue
        seen.add(x)
        xi = G.inv(x)
        seen.add(xi)
        classes.append((x,) if xi == x else (x, xi))
    for mask in range(1, 1 << len(classes)):
        chosen = [
            x for i, cls in enumerate(classes) if mask >> i & 1 for x in cls
        ]
        if len(gr.closure(G, chosen)) == G.size:
            yield make_symmetric_reference(G, chosen)


def product_split_reference(G):
    """``G.lattice_split()``, except that a product keeps both finite
    factors even when one has a single element: Z x D8 splits over
    Z/1 x D8.  ``Product.lattice_split`` drops such a factor and must reach
    the same decisions."""
    if not isinstance(G, gr.Product):
        return G.lattice_split()
    halves = (product_split_reference(G.left), product_split_reference(G.right))
    if None in halves:
        return None
    (k1, F1, s1, a1), (k2, F2, s2, a2) = halves

    def split(g):
        (t, f1), (u, f2) = s1(g[0]), s2(g[1])
        return t + u, (f1, f2)

    def act(f, v):
        return ((v[:k1] if a1 is None else a1(f[0], v[:k1]))
                + (v[k1:] if a2 is None else a2(f[1], v[k1:])))

    return k1 + k2, gr.Product(F1, F2), split, None if a1 is None and a2 is None else act


def generates_split_reference(G, S):
    """The Schreier decision over ``product_split_reference(G)``, walking
    every letter with the checked law and reading the kernel's invariant
    factors off the full ``smith_normal_form``: a dict of ``status``,
    ``closure_size``, ``kernel_index`` and ``invariant_factors``, as
    ``gensets.generates`` reports them."""
    k, F, split, act = product_split_reference(G)
    parts = [split(x) for x in S.letters]
    origin = (0,) * k
    rep = {F.identity(): origin}
    frontier = [F.identity()]
    kernel = set()
    while frontier:
        nxt = []
        for f in frontier:
            for a, u in parts:
                f2 = F.mul(f, u)
                t2 = tuple(map(add, rep[f], a if act is None else act(f, a)))
                if f2 in rep:
                    kernel.add(tuple(map(sub, t2, rep[f2])))
                else:
                    rep[f2] = t2
                    nxt.append(f2)
        frontier = nxt
    kernel.discard(origin)
    factors = []
    if kernel:
        D, _, _ = smith_normal_form(list(zip(*kernel)))
        factors = [D[i][i] for i in range(min(len(D), len(D[0]))) if D[i][i]]
    index = prod(factors) if len(factors) == k else 0
    return {"status": "yes" if len(rep) == F.size and index == 1 else "no",
            "closure_size": len(rep), "kernel_index": index,
            "invariant_factors": factors}


def fold_charges_per_node(S):
    """Charge the vertices that the Stallings fold of ``gensets.generates``
    stores for the free alphabet S, each by its own :func:`charge` call:
    the base vertex 0 as the budget's root, then for the first letter of
    each inverse pair, a word of n letters, the n - 1 inner vertices of its
    loop, numbered on from the last vertex.  The reference the fold's
    local counter is held to; it returns None once every vertex is
    charged."""
    mem = _Budget(0)
    vertices = 1
    for sym, word in enumerate(S.letters):
        if S.involution[sym] >= sym:
            for _ in range(len(word) - 1):
                charge(mem, vertices, 0)
                vertices += 1


def generates_split_tuples(parts, k, F, act):
    """``gensets._generates_split`` as it walked on tuple translations,
    charging each stored element of F and kernel vector to the budget by
    its own :func:`charge` call: the reference the integer walk and its
    local charge counter are held to, with the same signature, status,
    reason, evidence and refusals."""
    mul = F._mul
    e = F.identity()
    mem = _Budget(e)
    origin = (0,) * k
    rep = {e: origin}
    frontier = [e]
    kernel = set()
    radius = 0
    while frontier:
        nxt = []
        for f in frontier:
            t = rep[f]
            for a, u in parts:
                f2 = mul(f, u)
                t2 = tuple(map(add, t, a if act is None else act(f, a)))
                if f2 in rep:
                    v = tuple(map(sub, t2, rep[f2]))
                    if v not in kernel:
                        charge(mem, v, radius)
                        kernel.add(v)
                else:
                    charge(mem, f2, radius)
                    rep[f2] = t2
                    nxt.append(f2)
        frontier = nxt
        radius += 1
    kernel.discard(origin)
    factors = invariant_factors(list(zip(*kernel))) if kernel else []
    index = prod(factors) if len(factors) == k else 0
    evidence = {"closure_size": len(rep), "finite_group_size": F.size,
                "lattice_rank": k, "invariant_factors": factors,
                "kernel_index": index}
    if k == 1:
        evidence["translation_gcd"] = index
    if len(rep) != F.size:
        evidence["missing"] = next(x for x in F.elements() if x not in rep)
        return GenerationResult(
            "no", f"the finite parts generate a proper subgroup of {F}", evidence)
    if index != 1:
        return GenerationResult(
            "no", f"the translation kernel has index {index or 'infinity'} in Z^{k}",
            evidence)
    return GenerationResult(
        "yes", f"the finite parts generate {F} and the translation kernel is Z^{k}",
        evidence)


def _permutation_closure(perms):
    """The permutation group that ``perms`` generate, as a set of tuples."""
    seen = {tuple(range(len(perms[0])))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for s in perms:
                q = tuple(p[i] for i in s)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def free_generation_certificate(G, S, rng):
    """A verdict on whether S generates the free group G, found apart from
    ``generates``, or None when neither side is certified.

    "yes": ``word_length`` finds every basis letter within 10 letters and
    each witness spells it.  "no": one of 300 seeded homomorphisms
    F_k -> Sym(n), n <= 6, maps the letters of S onto a proper subgroup of
    the image of the basis, which then cannot lie in the subgroup S
    generates.
    """
    basis = G.standard_generators()
    certs = [word_length(G, S, x, cap=10) for x in basis]
    if all(c.length is not None and S.eval_word(c.witness) == x for c, x in zip(certs, basis)):
        return "yes"
    for _ in range(300):
        n = rng.randint(2, 6)
        images = [tuple(rng.sample(range(n), n)) for _ in basis]
        images += [tuple(sorted(range(n), key=p.__getitem__)) for p in images]  # inverses

        def image(word):
            p = tuple(range(n))
            for x in word:
                q = images[x - 1 if x > 0 else G.k - x - 1]
                p = tuple(q[i] for i in p)
            return p

        if len(_permutation_closure([image(w) for w in S.letters])) < len(
                _permutation_closure(images)):
            return "no"
    return None


def report_from_json_bytes(data):
    """The ExperimentReport that ``ExperimentReport.to_json_bytes`` wrote as
    ``data``; only tests read reports back."""
    obj = json.loads(data.decode("utf-8"))
    return ExperimentReport(
        name=obj["name"],
        params=dict(obj["params"]),
        rows=[dict(r) for r in obj["rows"]],
        verdicts=[Verdict(claim=v["claim"], passed=v["pass"], details=v["details"])
                  for v in obj["verdicts"]],
        seed=obj["seed"],
        version=obj["version"],
    )


def run_optimized(args):
    """Run ``python -O`` with ``args`` and the library's source on
    PYTHONPATH; the completed process, its output captured as text."""
    src = str(Path(wordbound.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-O", *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
