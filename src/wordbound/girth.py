"""Girth of Cayley graphs: shortest simple loop at the identity.

A word is any iterable of symbol ids over a GenSet alphabet, read once,
and every function here that takes one refuses an id outside the alphabet
with DomainError (``GenSet.check_word``).  The alphabet itself was checked
where it was built, so ``girth`` trusts its letters.  An involution letter
is its own formal inverse, so an involution edge is a single undirected
edge and never counts as a 2-cycle.  The search prunes with a half-radius ball
(meet-in-the-middle over BFS tree edges); the tests keep a plain
iterative-deepening search over cyclically reduced words as its reference,
and the two must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metric import _check_int, ball


def reduce_word(S, w):
    """Freely reduce: drop adjacent (x, involution(x)) pairs.  DomainError
    names a symbol id that is not one of S (``GenSet.check_word``)."""
    out = []
    for sym in S.check_word(w):
        if out and sym == S.inv_symbol(out[-1]):
            out.pop()
        else:
            out.append(sym)
    return tuple(out)


def cyclic_reduce(S, w):
    """Reduce, then strip matching inverse pairs across the seam.

    Returns a cyclically reduced word conjugate-equivalent to the input.
    """
    w = reduce_word(S, w)
    i, j = 0, len(w)  # strip by indices: a slice per seam pair is quadratic
    while j - i >= 2 and w[i] == S.inv_symbol(w[j - 1]):
        i += 1
        j -= 1
    return w[i:j]


def is_cyclically_reduced(S, w):
    """Whether the word w (any iterable of symbol ids) is freely and
    cyclically reduced."""
    w = S.check_word(w)
    if w != reduce_word(S, w):
        return False
    return len(w) < 2 or w[0] != S.inv_symbol(w[-1])


@dataclass
class GirthResult:
    """Shortest relation length, or evidence that it exceeds the cap.

    ``value`` is None when no simple loop of length <= cap exists; the
    witness, when present, is a nonempty cyclically reduced word evaluating
    to the identity along pairwise-distinct vertices.
    """

    value: object
    cap: int
    witness: object = None

    def __str__(self):
        return f"> {self.cap}" if self.value is None else str(self.value)


def _loop_fault(G, S, path):
    """Why walking ``path`` from the identity is not a simple loop at the
    identity: "revisit" or "open"; None when it is one."""
    seen = set()
    v = G.identity()
    for sym in path:
        if v in seen:
            return "revisit"
        seen.add(v)
        v = G.mul(v, S.element(sym))
    return None if v == G.identity() else "open"


def _validate_witness(G, S, w):
    """Raise RuntimeError unless w is a simple loop at the identity."""
    if not w:
        raise RuntimeError("witness must be nonempty")
    if not is_cyclically_reduced(S, w):
        raise RuntimeError("witness must be cyclically reduced")
    fault = _loop_fault(G, S, w)
    if fault == "revisit":
        raise RuntimeError("witness path revisits a vertex")
    if fault == "open":
        raise RuntimeError("witness does not evaluate to the identity")


def girth(G, S, cap):
    """Least length <= cap of a nonempty cyclically reduced relation over S.

    Minimality forces the witness path to be a simple loop.  S checked
    when it was built that its letters are distinct elements of its group,
    and ``ball`` checks that S is over G; the ball and the scan over it
    then multiply with the trusted ``G._mul``, and the witness is validated
    with the checked law.
    """
    _check_int("cap", cap, 2)
    radius = (cap + 1) // 2
    B = ball(G, S, radius)
    table = B.table
    mul = G._mul  # the ball's nodes and S's letters are elements
    best = None  # (length, u, sym, v)
    for u in table:  # insertion order == BFS discovery order: deterministic
        du, u_last = table[u]
        for sym in S.symbols():
            v = mul(u, S.element(sym))
            if v not in table:
                continue
            # The letters are distinct, so the edge u -sym-> v is a BFS tree
            # edge iff v was reached by sym or u by sym's inverse.
            if table[v][1] == sym or u_last == S.inv_symbol(sym):
                continue
            total = du + table[v][0] + 1
            if best is None or total < best[0]:
                best = (total, u, sym, v)
    if best is None or best[0] > cap:
        return GirthResult(value=None, cap=cap)
    total, u, sym, v = best
    back = B.word_to(v)
    witness = B.word_to(u) + (sym,) + tuple(
        S.inv_symbol(s) for s in reversed(back)
    )
    _validate_witness(G, S, witness)
    return GirthResult(value=total, cap=cap, witness=witness)


@dataclass
class LoopVerdict:
    """Outcome of the repeated-word simple-loop construction."""

    ok: bool
    loop_length: object = None
    reason: str = ""


def simple_loop_check(G, S, g, w):
    """Walk the cyclically reduced form of w, order(g) times, from the
    identity, and verify the path is a simple loop.

    Returns LoopVerdict(ok=True, loop_length=n*|w'|) on success; a symbol
    id that is not one of S is a DomainError (``GenSet.check_word``).
    """
    w = S.check_word(w)
    if S.eval_word(w) != g:
        return LoopVerdict(ok=False, reason="word does not evaluate to the element")
    n = G.element_order(g)
    if not isinstance(n, int):
        return LoopVerdict(ok=False, reason="element is not torsion")
    if n == 1:
        return LoopVerdict(ok=False, reason="identity yields an empty loop")
    wp = cyclic_reduce(S, w)
    if not wp:
        return LoopVerdict(ok=False, reason="word is conjugate to the empty word")
    path = wp * n
    fault = _loop_fault(G, S, path)
    if fault == "revisit":
        return LoopVerdict(ok=False, reason="path revisits a vertex")
    if fault == "open":
        return LoopVerdict(ok=False, reason="path does not close at the identity")
    return LoopVerdict(ok=True, loop_length=len(path))
