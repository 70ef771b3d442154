"""Word length and ball enumeration over the implicit Cayley graph.

Distances are computed by hash-based breadth-first search.  ``ball`` and
``girth`` grow one search from the identity; ``word_length`` always meets in
the middle, growing a search from the identity and one from the target,
whichever last layer is smaller, until they meet.  Every search is one
loop, :func:`_expand`, which grows a table from its roots and yields each
layer; its callers only choose when to stop drawing layers.  ``ball`` and
the discovery table of ``experiments.aut_group`` take the first layers out
to a radius (:func:`_grow`), the tests' reference ``_length_bfs`` draws
layers until it finds the target, and the meet-in-the-middle search draws
from two loops that share one budget.  Frontier order is deterministic
(FIFO, letters in ascending symbol id), so geodesic witnesses are
reproducible across runs and platforms.

:func:`certify_length` settles the length of an element for which a word is
already known, such as a commutator.  The word, checked to spell the
element, is the upper bound; a meet-in-the-middle search out to one radius
less than its length is the lower bound, or finds a shorter word.  So the
search skips its last and largest radius, which the word already proves.

A ``GenSet`` checks its letters where it is built, so every search only
tests, at entry in :func:`_check_alphabet`, that its alphabet is over ``G``.
The root is the identity or a checked target, so every node a search
reaches is a product of elements.  ``ball``, and ``girth`` through
it, therefore multiply with the trusted law ``G._mul``, and so does
``Ball.word_to``, whose table entries and letters are elements.
``word_length``'s two searches keep the checked ``G.mul``, although their
operands are elements too: perfbench's tracer counts only the checked
``mul``, and a faster ``queries`` workload raises its ``peak_rss_mb``, since
the harness keeps one latency per operation.  ``certify_length`` checks its
word with the checked law as well, through ``S.eval_word``.

``certify_length``'s search runs on packed values wherever it can
(:func:`_packed_space`): on every group that is Z^k x| F with F finite (a
finite group, a lattice, the infinite dihedral group and their products)
and F of at most ``TABULATED_MAX_ORDER`` elements, on the Heisenberg group
and on free groups.  Each group is split once (:func:`_split`), and F is
tabulated once, by its right-regular representation (:func:`_regular`), so
an element with split (v, f) is the int enc(v)·|F| + idx(f), and a product
is one addition and one table read, with no tuple built or hashed.  A
Heisenberg element is the int of its three coordinates as digits in one
base, and a product is one ``%``, one multiplication and two additions
(:func:`_heisenberg_space`).  A free-group element is the tuple of its
syllables x_g^e, each one int, and a product merges or cancels whole
syllables where the two words meet (:func:`_free_space`), so a letter such
as x1^41 costs one syllable, not 41 letters.  Tables, witness, ``explored``
and budget charges are those of the search on elements.  Only a product
with a Heisenberg or free factor, which has no lattice split, and an F past
the cap, which is never enumerated, keep the search on ``G._mul``.
``word_length`` and ``ball`` stay on elements: a faster ``queries``
workload raises its ``peak_rss_mb``, as above, and ``ball``'s public table
is keyed by elements, which experiments read.

Every stored node is charged to a memory budget by one size rule,
:meth:`_Budget.cost`, the bytes of the element it stands for.  Each search
makes its own budget, which reads its limit from ``WORDBOUND_MEM_LIMIT``
(:func:`memory_limit`) and charges the search's roots.  ``_expand`` charges
a layer's nodes in a local counter and writes it back to the budget before
it yields the layer or refuses, so a search pays no call per node to the
budget object.

Every table ``_expand`` grows maps a node to its depth and the index of
the letter that first reached it, which is all :func:`_word_to` needs.  In a
finite group a search stops once its table holds all ``G.size`` elements:
its layer ends after the node whose products fill the table, and no layer
follows.  The stop is exact.  From then on every product is already in the
table, so a walk that went on multiplying could store, label or charge
nothing more; the table, its insertion order and labels, each layer and
every budget charge are those of that walk.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from .errors import DomainError, ResourceLimitExceeded
from .groups import Free, Heisenberg, _check_int

DEFAULT_MEM_LIMIT = 1 << 30  # 1 GiB
_ENTRY_OVERHEAD = 160  # rough dict-entry + value-tuple bytes per visited node
TABULATED_MAX_ORDER = 64  # elements of the largest finite group F tabulated by _regular


def _check_alphabet(G, S):
    """DomainError unless S is over G.

    The one boundary check of every search over S: ``ball`` (and ``girth``
    through it), ``word_length`` and ``generates`` call it before they
    multiply.  S checked its letters when it was built, so the kernels
    behind ``ball`` and ``girth`` trust them.  ``is`` first spares a
    dataclass ==.
    """
    if S.group is not G and S.group != G:
        raise DomainError("alphabet belongs to a different group")


def memory_limit():
    """Resolve the search memory budget in bytes: the WORDBOUND_MEM_LIMIT
    environment variable, or 1 GiB when it is unset or empty.  Any other
    value that is not a positive integer raises ValueError before any
    search starts.
    """
    env = os.environ.get("WORDBOUND_MEM_LIMIT")
    if env:
        try:
            limit = int(env)
        except ValueError:
            limit = 0
        if limit <= 0:
            raise ValueError(
                f"WORDBOUND_MEM_LIMIT must be a positive integer of bytes, got {env!r}")
        return limit
    return DEFAULT_MEM_LIMIT


@dataclass
class LengthCert:
    """Word length of an element with a geodesic witness.

    ``length`` is None when the element was not found within ``cap`` (every
    element of length <= cap was enumerated).  When present, ``witness`` is a
    tuple of symbol ids of exactly ``length`` letters evaluating to
    ``element``.  ``explored`` counts the nodes the search stored.

    From :func:`certify_length`, ``cap`` is the length the given word
    proves when that word is the witness: no search, or the search out to
    ``cap - 1`` missed the element, so ``length == cap``.  When the search
    found a shorter word, the certificate is the search's, with ``cap`` one
    less than the given word's length.
    """

    element: object
    length: object
    witness: object
    cap: int
    explored: int


@dataclass
class Ball:
    """Exact distances from the root of a search, the identity for
    :func:`ball`, out to ``radius``.

    ``table`` maps each normal form to ``(length, i)``, with ``letters[i]``
    the letter that first reached it; the root has None.
    """

    group: object
    genset: object
    radius: int
    table: dict

    def __contains__(self, g):
        return g in self.table

    def __len__(self):
        return len(self.table)

    def length(self, g):
        return self.table[g][0]

    def word_to(self, g):
        """Reconstruct the stored geodesic word from the root to an element
        of the table."""
        S = self.genset
        # table entries and S's letters are elements
        return _word_to(self.table, self.group._mul, S.letters, S.involution, g)


def _word_to(table, mul, letters, involution, v):
    """The word that ``table``, grown by :func:`_expand` with the law
    ``mul`` and ``letters``, stores from its root to the node v: the one
    reader of a search table, on elements or on packed values alike.  A node
    v = u·letters[i] stored at depth d leads back to u = v·letters[i]⁻¹,
    which is ``letters[involution[i]]``."""
    syms = []
    while True:
        _, sym = table[v]
        if sym is None:
            break
        syms.append(sym)
        v = mul(v, letters[involution[sym]])
    return tuple(reversed(syms))


class _Budget:
    """Approximate byte accounting for visited-set growth, counting nodes.

    Made at the start of a search with the search's roots, it resolves its
    limit by :func:`memory_limit` and charges the roots, which are never
    refused.  Any later node that overdraws the budget raises
    ResourceLimitExceeded with the last completed radius and the nodes
    stored so far.  ``_expand``, the Schreier walk and the Stallings fold
    of ``gensets`` charge by :meth:`cost` in a local counter and write
    ``used`` and ``nodes`` back here before they yield or refuse.

    A packed search, whose nodes are ints or syllable tuples standing for
    elements, passes ``cost``, which replaces :meth:`cost` and charges each
    node the bytes of its element.
    """

    def __init__(self, *roots, cost=None):
        if cost is not None:
            self.cost = cost
        self.limit = memory_limit()
        self.used = sum(map(self.cost, roots))
        self.nodes = len(roots)

    @staticmethod
    def cost(key):
        """Bytes charged for storing ``key``: its own size and a flat
        allowance for the table entry."""
        return sys.getsizeof(key) + _ENTRY_OVERHEAD

    @staticmethod
    def exhausted(radius, explored):
        return ResourceLimitExceeded(
            f"search memory budget exhausted at radius {radius}",
            partial_radius=radius,
            explored=explored,
        )


def _reserve(count, sample):
    """Refuse, as a search would, to store ``count`` values charged what
    ``sample`` is by :meth:`_Budget.cost`, when they overdraw the memory
    limit: ResourceLimitExceeded at radius 0 with nothing explored."""
    budget = _Budget()
    if count * budget.cost(sample) > budget.limit:
        raise budget.exhausted(0, 0)


def _encode(v, base):
    """The int enc(v) = v_0 + v_1·B + ... + v_(k-1)·B^(k-1) of a translation
    v in Z^k, in base B = ``base``.  It is linear for any B, so sums and
    differences of codes are the codes of sums and differences.
    :func:`_decode` reads it back, exactly for every v whose low k - 1
    coordinates are at most B/2 - 1 in magnitude; on those vectors enc is
    one to one.  With k = 0 the code is 0 and with k = 1 it is v_0, for any
    B, so neither needs a base."""
    x = 0
    for c in reversed(v):
        x = x * base + c
    return x


def _decode(x, k, base):
    """The k-vector v with ``_encode(v, base) == x``: the k - 1 low
    coordinates as balanced base-B digits, the top one the quotient left
    over."""
    if not k:
        return ()
    v = []
    for _ in range(k - 1):
        d = x % base
        if d > base // 2:
            d -= base
        v.append(d)
        x = (x - d) // base
    v.append(x)
    return tuple(v)


@dataclass(frozen=True)
class _Regular:
    """The right-regular representation of a finite group F (Holt, Eick
    and O'Brien, *Handbook of Computational Group Theory*, 2005): its
    ``elements`` in the order of ``F.elements()``, the ``index`` of each,
    ``right[j][i]``, the index of ``elements[i]·elements[j]``, the same
    less i as ``offsets[j][i]``, and ``costs``, the :meth:`_Budget.cost`
    of each element.  Shared through the cache of :func:`_regular`, so
    every part is read-only."""

    elements: tuple
    index: MappingProxyType
    right: tuple
    offsets: tuple
    costs: tuple


@functools.lru_cache(maxsize=16)
def _regular(F):
    """F's table (:class:`_Regular`), made once per group, or None when F
    has more than ``TABULATED_MAX_ORDER`` elements: such an F is never
    enumerated, and its callers multiply only the elements they reach.
    The cache is keyed by the frozen group and holds at most 16 tables of
    at most 64 x 64 indices."""
    if F.size > TABULATED_MAX_ORDER:
        return None
    elements = tuple(F.elements())
    index = {f: i for i, f in enumerate(elements)}
    mul = F._mul  # F enumerates its own elements
    right = tuple(tuple(index[mul(f, u)] for f in elements) for u in elements)
    offsets = tuple(tuple(j - i for i, j in enumerate(col)) for col in right)
    return _Regular(elements, MappingProxyType(index), right, offsets,
                    tuple(map(_Budget.cost, elements)))


class _Space(NamedTuple):
    """What a meet-in-the-middle search runs on: the law ``mul`` of a node
    and a letter, the ``letters`` by symbol id, the bytes ``cost`` charged
    for a stored node, and the ``roots``, the nodes of the identity and of
    the target.  On elements (:func:`_elements`) a node is the element
    itself; packed (:func:`_packed_space`) it is its code.  A named
    tuple, as ``word_length`` makes one per query."""

    mul: object
    letters: object
    cost: object
    roots: tuple


def _elements(G, S, g, mul):
    """The search space of elements, multiplied by ``mul``."""
    return _Space(mul, S.letters, _Budget.cost, (G.identity(), g))


class _Split(NamedTuple):
    """A group G as Z^k x| F, made once per group by :func:`_split`: the
    ``k``, ``F``, ``part`` and ``act`` of ``G.lattice_split()``, F's
    ``table`` (:func:`_regular`, None past ``TABULATED_MAX_ORDER``) and
    ``cost``, the bytes charged for a packed node of G (None without a
    table)."""

    k: int
    F: object
    part: object
    act: object
    table: object
    cost: object


@functools.lru_cache(maxsize=16)
def _split(G):
    """G's :class:`_Split`, or None when G has no lattice split.
    ``_packed_space``, ``gensets.generates`` and the zxd8 sampler read it,
    so no search or walk splits a group twice.  The cache is keyed by the
    frozen group and holds at most 16 records.

    A packed node is charged the bytes of the element of G it stands for.
    Where F is G itself (k = 0), that is its index's cost in the table.
    Otherwise every element of G is a tuple of one length (a vector, a
    dihedral pair or a product pair, such as one of Z/1 x D8, which splits
    over D8), so it is one constant, the identity's cost."""
    split = G.lattice_split()
    if split is None:
        return None
    k, F, part, act = split
    T = _regular(F)
    cost = None
    if T is not None:
        cost = T.costs.__getitem__ if F == G else _constant_cost(G)
    return _Split(k, F, part, act, T, cost)


def _packed_space(G, S, g, cap):
    """The search space of packed values for a search from e and from g out
    to ``cap`` in all, or None when G is none of the Heisenberg group, a
    free group and Z^k x| F with F tabulated.  This is the one place that
    picks a packed encoding.

    G is split once, by :func:`_split`.  With F's m elements numbered by
    :func:`_regular`, a node is the int enc(v)·m + idx(f) of the element
    with split (v, f), enc being :func:`_encode` in base B.  A letter with
    split (a, u) is the list D with D[i] = enc(f_i·a)·m + idx(f_i·u) - i,
    f_i·a being F's action, so a node x times a letter D is x + D[x % m]:
    Python's floor ``%`` reads idx(f) off a negative x too.  enc is linear,
    so that product is exact.

    For k >= 2 the base tells every node apart.  Let M be the largest
    coordinate magnitude of any f_i·a, and |g| that of g's translation.  A
    node d letters from e has coordinates at most d·M in magnitude, and one
    d letters from g at most |g| + d·M; neither search goes past ``cap``
    letters, so B = 2(|g| + cap·M) + 2 decodes, and tells apart, every
    node.  For k <= 1 B is 0.  Each node is charged the bytes of the element
    it stands for, by the split's ``cost``.

    The Heisenberg group and free groups have no lattice split and are
    packed on their own (:func:`_heisenberg_space`, :func:`_free_space`).
    """
    if isinstance(G, Heisenberg):
        return _heisenberg_space(G, S, g, cap)
    if isinstance(G, Free):
        return _free_space(G, S, g)
    split = _split(G)
    if split is None or split.table is None:
        return None
    k, F, part, act, T, cost = split
    elements, index, m = T.elements, T.index, len(T.elements)
    parts = [part(x) for x in S.letters]
    t, f = part(g)
    base = 0
    if k >= 2:
        acted = [a for a, _ in parts] if act is None else [
            act(h, a) for h in elements for a, _ in parts]
        reach = max(abs(c) for a in acted for c in a)
        base = 2 * (max(map(abs, t)) + cap * reach) + 2
    letters = []
    for a, u in parts:
        offsets = T.offsets[index[u]]
        if act is None:
            letters.append(list(map((_encode(a, base) * m).__add__, offsets)))
        else:
            letters.append([_encode(act(h, a), base) * m + d for h, d in zip(elements, offsets)])

    def step(x, D, m=m):
        return x + D[x % m]

    roots = (index[F.identity()], _encode(t, base) * m + index[f])
    return _Space(step, letters, cost, roots)


def _constant_cost(G):
    """The charge of a packed node in a group whose elements are all tuples
    of one length, so of one size: the identity's cost, for every node."""
    size = _Budget.cost(G.identity())

    def cost(x):
        return size
    return cost


_WORD_COST = _Budget.cost(())  # the empty word of a free group
_LETTER_COST = _Budget.cost((0,)) - _WORD_COST  # each letter more


def _syllables(w, K):
    """The syllable code of a reduced free word w, K being the rank plus 1
    (:func:`_free_space`)."""
    code = []
    for x in w:
        s = x + K if x > 0 else -x - K  # x_g or its inverse, g = |x|
        if code and code[-1] % K == s % K:
            code[-1] += s - s % K
        else:
            code.append(s)
    return tuple(code)


def _free_space(G, S, g):
    """The search space of syllables in the free group F_k.

    A reduced word is the tuple of its syllables, its maximal runs x_g^e of
    one letter, and the syllable x_g^e (e != 0) is the int s = e·K + g with
    K = k + 1, so g = s % K and e = s // K (:func:`_syllables`).  Two
    adjacent syllables have different generators, so each word has one
    code.  A node times a letter meets the node's last syllable with the
    letter's first: with different generators the two codes are joined;
    with one generator the exponents add, to a syllable that ends the
    product, or to 0, and then the next two meet in turn.  So a product
    steps through syllables, not letters: x1^41 is one syllable.

    Each node is charged the bytes of the element it stands for, a tuple of
    sum |e| letters.  ``sys.getsizeof`` of a tuple grows by one slot a
    letter (40 + 8n bytes on CPython 3.10 to 3.12), so that is
    ``_WORD_COST`` and ``_LETTER_COST`` per letter, both read from
    :meth:`_Budget.cost`.
    """
    K = G.k + 1

    def step(x, L, K=K):
        i, j, n = len(x), 0, len(L)
        while i and j < n:
            s, t = x[i - 1], L[j]
            gen = t % K
            if s % K != gen:
                break
            s += t - gen  # the exponents add
            if s != gen:  # to one that is not 0
                return x[:i - 1] + (s,) + L[j + 1:]
            i -= 1
            j += 1
        return x[:i] + L[j:]

    def cost(x, K=K):
        n = 0
        for s in x:
            n += abs(s // K)
        return _WORD_COST + _LETTER_COST * n

    letters = [_syllables(x, K) for x in S.letters]
    return _Space(step, letters, cost, ((), _syllables(g, K)))


def _heisenberg_space(G, S, g, cap):
    """The search space of packed ints in the Heisenberg group.

    A node (i, j, l) is the int x = (j + h) + B·i + B²·l, with h = B/2:
    :func:`_encode` of (j, i, l) plus h, so that j + h is x's plain low
    digit x % B.  The law (i + i2, j + j2, l + l2 - j·i2) is linear in the
    code but for the term -j·i2 of the top digit, so with a letter
    (i2, j2, l2) held as the pair (c, K) = (enc(j2, i2, l2) + K·h, B²·i2), a
    node x times it is x + c - K·(x % B).

    With M the largest |i| or |j| of any letter, a node d letters from e
    has |i|, |j| <= d·M, and one d letters from g = (g0, g1, g2) at most
    max(|g0|, |g1|) + d·M; neither search goes past ``cap`` letters, so
    B = 2(max(|g0|, |g1|) + cap·M) + 2 keeps every node's |i| and |j| at
    most h - 1.  Its two low digits then decode, and the code tells every
    node apart; the top digit l needs no bound.  Every element is a 3-tuple,
    so every node is charged one constant, the identity's cost.
    """
    reach = 0
    for i, j, _ in S.letters:
        reach = max(reach, abs(i), abs(j))
    i, j, l = g
    base = 2 * (max(abs(i), abs(j)) + cap * reach) + 2
    half, top = base // 2, base * base
    letters = [(j2 + base * (i2 + base * l2) + top * i2 * half, top * i2)
               for i2, j2, l2 in S.letters]

    def step(x, L, base=base):
        c, K = L
        return x + c - K * (x % base)

    return _Space(step, letters, _constant_cost(G), (half, j + half + base * (i + base * l)))


def _expand(mul, letters, table, budget, full):
    """The one search loop: grow ``table`` from the roots it holds, layer by
    layer, and yield each new layer.

    Each layer right-multiplies every node of the last one, in order, by
    each letter, in order, with the caller's law ``mul``; a new node
    v = u·letters[i] at depth d is charged to ``budget`` and stored as
    ``table[v] = (d, i)``, so v·letters[i]⁻¹ is in the table at depth d - 1
    and :meth:`Ball.word_to` reads any table back.  The roots are at depth
    0.  Its callers all live here and only choose when to stop:
    :func:`_grow`, for ``ball`` and ``aut_group``, passes the trusted
    ``G._mul``, whose operands are products of checked elements, and
    ``certify_length``'s searches pass the step of a packed space or
    ``G._mul``; ``word_length``'s searches and the reference
    ``_length_bfs`` pass the checked ``G.mul``.

    A layer is charged in a local counter by ``_Budget.cost``, node by node,
    and refused at the same node, with the same ``partial_radius`` (the last
    completed depth) and ``explored``, as charging each node to the budget
    would be.  The counter and the nodes stored are written back to
    ``budget`` before each yield and before a refusal, and read from it at
    the start of each layer, so two searches can share one budget.

    The loop ends after an empty layer, and in a finite group, ``full``
    being its order (None for an infinite group), once ``table`` holds all
    of G: a layer ends after the node whose products fill the table, and no
    layer follows.  That layer is then complete: the products it skips are
    all in the table already, so they would store, label and charge
    nothing.  The test runs once per node, not per insertion.
    """
    # A list: one tuple per call lingered in CPython's per-size tuple free
    # lists and held 0.9 MB more after the D16 uniform-length table.
    steps = list(enumerate(letters))
    cost = budget.cost
    limit = budget.limit
    layer = list(table)
    depth = 0
    while layer and len(table) != full:
        depth += 1
        frontier, layer = layer, []
        used = budget.used
        for u in frontier:
            for i, x in steps:
                v = mul(u, x)
                if v in table:
                    continue
                used += cost(v)
                if used > limit:
                    budget.used = used
                    budget.nodes += len(layer)
                    raise budget.exhausted(depth - 1, budget.nodes)
                table[v] = (depth, i)
                layer.append(v)
            if full is not None and len(table) == full:
                break
        budget.used = used
        budget.nodes += len(layer)
        yield layer


def _grow(G, mul, letters, radius):
    """The table of a breadth-first search from the identity out to
    ``radius``: the first ``radius`` layers of :func:`_expand` with the law
    ``mul``, fewer once the search ends.  ``ball`` and ``aut_group``'s
    discovery table call it; both pass the trusted ``G._mul``.
    """
    e = G.identity()
    table = {e: (0, None)}
    for _ in zip(range(radius), _expand(mul, letters, table, _Budget(e), G.size)):
        pass
    return table


def ball(G, S, radius):
    """BFS ball of the given radius around the identity.

    Checks that the alphabet is over G (:func:`_check_alphabet`), then
    multiplies with the trusted ``G._mul``: every node is a product of
    letters, which S checked when it was built.
    Stops early once the ball is the whole of a finite group.  Raises
    ResourceLimitExceeded (carrying the last completed radius) if the
    memory budget runs out.
    """
    _check_int("radius", radius, 0)
    _check_alphabet(G, S)
    return Ball(group=G, genset=S, radius=radius, table=_grow(G, G._mul, S.letters, radius))


def word_length(G, S, g, cap):
    """Exact word length of g over S, searched up to ``cap``.

    Always meets in the middle (:func:`_length_bidirectional`), in finite
    and infinite groups alike; the length is that of a breadth-first search
    out to ``cap``, and the witness is a geodesic word.  The identity runs
    no search, but a malformed memory limit is refused for it too.
    """
    _check_int("cap", cap, 1)
    _check_alphabet(G, S)
    G.check(g)
    if g != G.identity():
        return _length_bidirectional(G, S, g, cap, _elements(G, S, g, G.mul))
    memory_limit()  # refuses a malformed limit, though nothing is searched
    return LengthCert(element=g, length=0, witness=(), cap=cap, explored=1)


def certify_length(G, S, g, word):
    """Exact word length of g over S, given a word that spells it.

    The word, any iterable of symbol ids, is read once and checked to
    evaluate to g (DomainError otherwise, also for an unknown symbol id),
    which bounds the length by ``n = len(word)`` from above.  Then
    ``word_length``'s meet-in-the-middle search runs out to ``n - 1``, as S,
    g and so every node are checked already, on packed values
    (:func:`_packed_space`) or, in a product with a Heisenberg or free
    factor or where F is too large to tabulate, on the trusted ``G._mul``.  Its tables, witness, ``explored``
    and budget charges are those of ``word_length(G, S, g, n - 1)``.  If it
    finds g, its certificate, with a geodesic witness and ``cap = n - 1``,
    is returned; otherwise the length
    is n and the certificate carries ``witness = tuple(word)``, ``cap = n``
    and the search's ``explored``.  Neither the identity (length 0, the
    empty witness, ``cap = 0``) nor a one-letter word, geodesic for any
    g != e, runs a search; their certificates report ``explored = 0``, and
    a malformed memory limit is refused for them too.
    """
    _check_alphabet(G, S)
    G.check(g)
    word = S.check_word(word)
    if S.eval_word(word) != g:
        raise DomainError(f"word {word!r} does not evaluate to {g!r}")
    n = len(word)
    if n > 1 and g != G.identity():
        space = _packed_space(G, S, g, n - 1) or _elements(G, S, g, G._mul)
        cert = _length_bidirectional(G, S, g, n - 1, space)
        if cert.length is not None:
            return cert
        explored = cert.explored
    else:
        memory_limit()  # refuses a malformed limit, though nothing is searched
        if g == G.identity():
            return LengthCert(element=g, length=0, witness=(), cap=0, explored=0)
        explored = 0
    return LengthCert(element=g, length=n, witness=word, cap=n,
                      explored=explored)


def _length_bfs(G, S, g, cap):
    """Word length by one BFS from the identity: the reference the tests hold
    ``word_length`` to, called by no library code.  It draws up to ``cap``
    layers of :func:`_expand` until g is in the table, so ``explored``
    counts the whole last layer.  perfbench's tracer looks it up by name,
    and its traced runs end in KeyError without it."""
    e = G.identity()
    table = {e: (0, None)}
    layers = _expand(G.mul, S.letters, table, _Budget(e), G.size)
    for _ in range(cap):
        if g in table or next(layers, None) is None:
            break
    if g not in table:
        return LengthCert(element=g, length=None, witness=None, cap=cap, explored=len(table))
    witness = Ball(group=G, genset=S, radius=cap, table=table).word_to(g)
    return LengthCert(element=g, length=table[g][0], witness=witness, cap=cap, explored=len(table))


def _length_bidirectional(G, S, g, cap, space):
    """Meet-in-the-middle BFS from the identity and from the target.

    It draws layers from two :func:`_expand` searches, one from e and one
    from g, which share one budget, and grows the side whose last layer is
    smaller, the forward one on a tie.  A side whose search has ended reads
    as an empty layer, and the step still counts towards its depth ``df``
    or ``db``.  It stops once the two depths reach ``cap`` or the best
    meeting found so far, or both last layers are empty.

    Both searches use the full symmetric alphabet and run on ``space``
    (:class:`_Space`): ``word_length`` passes the elements with the checked
    ``G.mul`` and ``certify_length`` packed values, or the elements with
    the trusted ``G._mul``.  The forward table spells each node from e and the
    backward table from g, so the witness through a meeting node v is
    :func:`_word_to` v over the forward table followed by the inverse of
    that over the backward one.
    """
    e, r = space.roots  # g == e is handled by the caller
    mul, letters = space.mul, space.letters
    budget = _Budget(e, r, cost=space.cost)
    fwd = {e: (0, None)}
    bwd = {r: (0, None)}
    f_layers = _expand(mul, letters, fwd, budget, G.size)
    b_layers = _expand(mul, letters, bwd, budget, G.size)
    f_layer, b_layer = [e], [r]
    df = db = 0
    best = None  # (total, meeting node)
    while df + db < cap and (best is None or df + db < best[0]) and (f_layer or b_layer):
        if not b_layer or (f_layer and len(f_layer) <= len(b_layer)):
            df += 1
            f_layer = layer = next(f_layers, [])
            depth, other = df, bwd
        else:
            db += 1
            b_layer = layer = next(b_layers, [])
            depth, other = db, fwd
        for v in layer:
            if v in other:
                total = depth + other[v][0]
                if best is None or total < best[0]:
                    best = (total, v)
    explored = len(fwd) + len(bwd)
    if best is None or best[0] > cap:
        return LengthCert(element=g, length=None, witness=None, cap=cap,
                          explored=explored)
    total, meet = best
    head = _word_to(fwd, mul, letters, S.involution, meet)
    back = _word_to(bwd, mul, letters, S.involution, meet)
    witness = head + tuple(S.inv_symbol(s) for s in reversed(back))
    return LengthCert(element=g, length=total, witness=witness, cap=cap,
                      explored=explored)
