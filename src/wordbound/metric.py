"""Word length and ball enumeration over the implicit Cayley graph.

Distances are computed by hash-based breadth-first search.  ``ball`` and
``girth`` grow one search from the identity; ``word_length`` always meets in
the middle, growing a search from the identity and one from the target,
whichever frontier is smaller, until they meet.  Every search grows its
layers with one kernel, :func:`_expand`.  Frontier order is deterministic
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
it, therefore multiply with the trusted law ``G._mul``, and so do
``certify_length``'s two searches and ``Ball.word_to``, the one walk back
through a search table, whose entries and letters are elements.
``word_length``'s two searches keep the checked ``G.mul``, although their
operands are elements too: perfbench's tracer counts only the checked
``mul``, and a faster ``queries`` workload raises its ``peak_rss_mb``, since
the harness keeps one latency per operation.  ``certify_length`` checks its
word with the checked law as well, through ``S.eval_word``.

Every stored node is charged to a memory budget by one size rule,
:meth:`_Budget.cost`.  Each search makes its own budget, which reads its
limit from ``WORDBOUND_MEM_LIMIT`` (:func:`memory_limit`) and charges the
search's roots.  ``_expand`` charges a layer's nodes in a local counter and
writes it back to the budget when it returns or refuses, so a search pays
no call per node to the budget object.

Every table ``_expand`` grows maps a node to its depth and the index of
the letter that first reached it, which is all ``Ball.word_to`` needs.  In a
finite group a search stops once its table holds all ``G.size`` elements:
``_expand`` returns after the frontier node whose products fill the table,
and ``ball`` runs no further layer.  The stop is exact.  From then
on every product is already in the table, so no later step of the old walk
could store, label or charge anything; the table, its insertion order and
labels, the frontier each layer returns and every budget charge are those
of the full walk, which only multiplied on.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

from .errors import DomainError, ResourceLimitExceeded
from .groups import _check_int

DEFAULT_MEM_LIMIT = 1 << 30  # 1 GiB
_ENTRY_OVERHEAD = 160  # rough dict-entry + value-tuple bytes per visited node


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
        G = self.group
        syms = []
        mul = G._mul  # table entries and S's letters are elements
        while True:
            _, sym = self.table[g]
            if sym is None:
                break
            syms.append(sym)
            g = mul(g, S.element(S.inv_symbol(sym)))
        return tuple(reversed(syms))


class _Budget:
    """Approximate byte accounting for visited-set growth, counting nodes.

    Made at the start of a search with the search's roots, it resolves its
    limit by :func:`memory_limit` and charges the roots, which are never
    refused.  Any later node that overdraws the budget raises
    ResourceLimitExceeded with the last completed radius and the nodes
    stored so far.  ``charge`` serves the Schreier walk and the folding of
    ``gensets``; ``_expand`` charges its layers by the same :meth:`cost`
    and writes ``used`` and ``nodes`` back here.
    """

    def __init__(self, *roots):
        self.limit = memory_limit()
        self.used = sum(map(self.cost, roots))
        self.nodes = len(roots)

    @staticmethod
    def cost(key):
        """Bytes charged for storing ``key``: its own size and a flat
        allowance for the table entry."""
        return sys.getsizeof(key) + _ENTRY_OVERHEAD

    def charge(self, key, radius):
        self.used += self.cost(key)
        if self.used > self.limit:
            raise self.exhausted(radius, self.nodes)
        self.nodes += 1

    @staticmethod
    def exhausted(radius, explored):
        return ResourceLimitExceeded(
            f"search memory budget exhausted at radius {radius}",
            partial_radius=radius,
            explored=explored,
        )


def _expand(mul, letters, table, frontier, depth, budget, full):
    """Grow a search by one layer and return the nodes it first reached.

    Right-multiplies each node of ``frontier``, in order, by each letter, in
    order, with the caller's law ``mul``; a new node v = u·letters[i] is
    charged to ``budget`` and stored as ``table[v] = (depth, i)``, so
    v·letters[i]⁻¹ is in the table at depth - 1 and :meth:`Ball.word_to`
    reads any table back.  ``ball``, ``aut_group`` and ``certify_length``'s
    searches pass the trusted ``G._mul``, whose operands are products of
    checked elements; ``word_length``'s searches pass the checked ``G.mul``.

    The layer is charged in a local counter by ``_Budget.cost``, node by
    node, and refused at the same node, with the same ``partial_radius``
    and ``explored``, as charging each node to the budget would be.  The
    counter and the nodes stored are written back to ``budget`` on every
    exit.

    ``full`` is the order of G, or None for an infinite group.  In a finite
    group it returns after the frontier node whose products make ``table``
    hold all of G.  That layer is then complete: the products it skips are
    all in the table already, so they would store, label and charge
    nothing.  The test runs once per node, not per insertion.
    """
    # A list: one tuple per call lingered in CPython's per-size tuple free
    # lists and held 0.9 MB more after the D16 uniform-length table.
    steps = list(enumerate(letters))
    cost = budget.cost
    limit = budget.limit
    used = budget.used
    layer = []
    try:
        for u in frontier:
            for i, x in steps:
                v = mul(u, x)
                if v in table:
                    continue
                used += cost(v)
                if used > limit:
                    raise budget.exhausted(depth - 1, budget.nodes + len(layer))
                table[v] = (depth, i)
                layer.append(v)
            if full is not None and len(table) == full:
                return layer
        return layer
    finally:
        budget.used = used
        budget.nodes += len(layer)


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
    e = G.identity()
    budget = _Budget(e)
    table = {e: (0, None)}
    frontier = [e]
    full = G.size  # None for an infinite group, whose table never fills
    for depth in range(1, radius + 1):
        if not frontier or len(table) == full:
            break
        frontier = _expand(G._mul, S.letters, table, frontier, depth, budget, full)
    return Ball(group=G, genset=S, radius=radius, table=table)


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
        return _length_bidirectional(G, S, g, cap, G.mul)
    memory_limit()  # refuses a malformed limit, though nothing is searched
    return LengthCert(element=g, length=0, witness=(), cap=cap, explored=1)


def certify_length(G, S, g, word):
    """Exact word length of g over S, given a word that spells it.

    The word, any iterable of symbol ids, is read once and checked to
    evaluate to g (DomainError otherwise, also for an unknown symbol id),
    which bounds the length by ``n = len(word)`` from above.  Then
    ``word_length``'s meet-in-the-middle search runs out to ``n - 1`` on the
    trusted ``G._mul``, as S, g and so every node are checked already; its
    tables, witness and ``explored`` are those of ``word_length(G, S, g,
    n - 1)``.  If it finds g, its certificate, with a
    geodesic witness and ``cap = n - 1``, is returned; otherwise the length
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
        cert = _length_bidirectional(G, S, g, n - 1, G._mul)
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
    ``word_length`` to, called by no library code.  Each layer is finished
    before g is looked up, so ``explored`` counts the whole last layer.
    perfbench's tracer looks it up by name, and its traced runs end in
    KeyError without it."""
    e = G.identity()
    budget = _Budget(e)
    table = {e: (0, None)}
    frontier = [e]
    full = G.size
    for depth in range(1, cap + 1):
        if g in table:
            break
        frontier = _expand(G.mul, S.letters, table, frontier, depth, budget, full)
    if g not in table:
        return LengthCert(element=g, length=None, witness=None, cap=cap, explored=len(table))
    witness = Ball(group=G, genset=S, radius=cap, table=table).word_to(g)
    return LengthCert(element=g, length=table[g][0], witness=witness, cap=cap, explored=len(table))


def _length_bidirectional(G, S, g, cap, mul):
    """Meet-in-the-middle BFS from the identity and from the target.

    Both searches use the full symmetric alphabet and the caller's law
    ``mul``: ``word_length`` passes the checked ``G.mul`` and
    ``certify_length`` the trusted ``G._mul``.  The forward table spells
    each node from e and the backward table from g, so the witness through
    a meeting node v is ``word_to(v)`` over the forward table followed by
    the inverse of ``word_to(v)`` over the backward one.
    """
    e = G.identity()
    budget = _Budget(e, g)  # g == e is handled by the caller
    full = G.size
    fwd = {e: (0, None)}
    bwd = {g: (0, None)}
    f_frontier, b_frontier = [e], [g]
    df = db = 0
    best = None  # (total, meet element)
    while True:
        if best is not None and df + db >= best[0]:
            break
        if df + db >= cap:
            break
        if not f_frontier and not b_frontier:
            break
        if not b_frontier or (f_frontier and len(f_frontier) <= len(b_frontier)):
            df += 1
            f_frontier = _expand(mul, S.letters, fwd, f_frontier, df, budget, full)
            layer, depth, other = f_frontier, df, bwd
        else:
            db += 1
            b_frontier = _expand(mul, S.letters, bwd, b_frontier, db, budget, full)
            layer, depth, other = b_frontier, db, fwd
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
    head = Ball(group=G, genset=S, radius=df, table=fwd).word_to(meet)
    back = Ball(group=G, genset=S, radius=db, table=bwd).word_to(meet)
    witness = head + tuple(S.inv_symbol(s) for s in reversed(back))
    return LengthCert(element=g, length=total, witness=witness, cap=cap,
                      explored=explored)
