"""Word lengths and balls: frozen oracles, agreement with the BFS reference,
resource limits."""

import hashlib
import random
import textwrap
from collections import deque
from pathlib import Path

import pytest
from oracles import (
    FAMILIES,
    FINITE_GROUPS,
    at_distance,
    ball_full_walk,
    certify_refusals,
    expand_per_node,
    foreign_alphabets,
    girth_reference,
    length_profile,
    random_element,
    run_optimized,
)

from wordbound import groups as gr
from wordbound import experiments, metric
from wordbound.errors import DomainError, ResourceLimitExceeded
from wordbound.experiments import aut_group
from wordbound.gensets import GenSet, generates, make_symmetric
from wordbound.girth import girth
from wordbound.metric import (
    Ball,
    _Budget,
    _expand,
    _length_bfs,
    ball,
    certify_length,
    memory_limit,
    word_length,
)


def _symm(G, elems):
    return make_symmetric(G, elems)


def _naive_ball(G, S, radius):
    """Textbook FIFO breadth-first search: {element: (distance, last symbol)}."""
    table = {G.identity(): (0, None)}
    queue = deque([G.identity()])
    while queue:
        u = queue.popleft()
        d = table[u][0]
        for sym in S.symbols() if d < radius else ():
            v = G.mul(u, S.element(sym))
            if v not in table:
                table[v] = (d + 1, sym)
                queue.append(v)
    return table


def _cayley_table(H):
    """H rewritten as a CayleyTableGroup on the indices of H.elements()."""
    elems = list(H.elements())
    index = {x: i for i, x in enumerate(elems)}
    return gr.CayleyTableGroup(
        names=tuple(str(x) for x in elems),
        table=tuple(tuple(index[H.mul(a, b)] for b in elems) for a in elems),
    )


# -- frozen values -------------------------------------------------------


def test_line_lengths():
    Z = gr.IntVector(1)
    S = _symm(Z, [(1,)])
    cert = word_length(Z, S, (5,), cap=8)
    assert cert.length == 5
    assert S.eval_word(cert.witness) == (5,)
    assert word_length(Z, S, (-4,), cap=8).length == 4
    assert word_length(Z, S, (0,), cap=8).length == 0


def test_torsion_witness_lengths():
    """(0,1) in Z x Z/q under {±(p,1), ±(q+1,0)} costs exactly p+q+1."""
    for q, p, expected in [(2, 5, 8), (3, 5, 9), (5, 7, 13)]:
        G = gr.Product(gr.IntVector(1), gr.FiniteCyclic(q))
        S = _symm(G, [((p,), 1), ((q + 1,), 0)])
        cert = word_length(G, S, ((0,), 1), cap=expected + 1)
        assert cert.length == expected
        assert S.eval_word(cert.witness) == ((0,), 1)


def test_heisenberg_central_generator_costs_four():
    G = gr.Heisenberg()
    S = _symm(G, [(1, 0, 0), (0, 1, 0)])
    cert = word_length(G, S, (0, 0, 1), cap=6)
    assert cert.length == 4
    assert S.eval_word(cert.witness) == (0, 0, 1)


def test_not_in_ball():
    Z = gr.IntVector(1)
    S = _symm(Z, [(1,)])
    cert = word_length(Z, S, (9,), cap=5)
    assert cert.length is None
    assert cert.witness is None


# -- ball ----------------------------------------------------------------


def test_ball_basic():
    Z = gr.IntVector(1)
    S = _symm(Z, [(1,)])
    B = ball(Z, S, 3)
    assert len(B) == 7
    assert sorted(x for (x,) in B.table) == [-3, -2, -1, 0, 1, 2, 3]
    assert B.length((2,)) == 2
    assert at_distance(B, 3) == [(3,), (-3,)]
    assert (5,) not in B
    assert ball(Z, S, 0).table == {(0,): (0, None)}


def test_ball_word_to_reconstructs_geodesics():
    G = gr.DihedralFinite(4)
    S = _symm(G, [(1, 0), (0, 1)])
    B = ball(G, S, 5)
    for g in B.table:
        w = B.word_to(g)
        assert len(w) == B.length(g)
        assert S.eval_word(w) == g


def test_ball_growth_bound_excluding_identity():
    """|B(M) \\ {e}| <= n^M: geodesic words never backtrack."""
    cases = [
        (gr.IntVector(1), [(1,)]),
        (gr.IntVector(2), [(1, 0), (0, 1)]),
        (gr.Heisenberg(), [(1, 0, 0), (0, 1, 0)]),
        (gr.Free(2), [(1,), (2,)]),
        (gr.DihedralInfinite(), [(1, 0), (0, 1)]),
    ]
    for G, elems in cases:
        S = _symm(G, elems)
        n = S.cardinality
        for M in range(1, 5):
            assert len(ball(G, S, M)) - 1 <= n ** M


def test_free_group_balls_are_trees():
    """Exact free-group ball count: 1 + 2k * (2k-1)^(M-1) + ... geodesics
    unique, so the ball size telescopes."""
    G = gr.Free(2)
    S = _symm(G, [(1,), (2,)])
    expected = 1
    layer = 1
    for M in range(1, 6):
        layer = layer * 3 if M > 1 else 4
        expected += layer
        assert len(ball(G, S, M)) == expected


def test_z2_sphere_sizes():
    G = gr.IntVector(2)
    B = ball(G, _symm(G, [(1, 0), (0, 1)]), 8)
    assert [len(at_distance(B, r)) for r in range(9)] == [1] + [4 * r for r in range(1, 9)]


@pytest.mark.parametrize("G,radius", [
    (gr.Product(gr.IntVector(1), gr.FiniteCyclic(3)), 4),
    (gr.Product(gr.FiniteCyclic(2), gr.DihedralFinite(4)), 5),
    (_cayley_table(gr.DihedralFinite(3)), 4),
    (gr.DihedralInfinite(), 4),
    (gr.Free(2), 3),
], ids=lambda v: str(v)[:24])
def test_searches_match_naive_bfs(G, radius):
    """Ball tables, insertion order included, word_length and its BFS
    reference agree with a textbook BFS on seeded alphabets."""
    rng = random.Random(53)
    for _ in range(4):
        letters = []
        while not letters:
            letters = [random_element(G, rng, size=3) for _ in range(rng.randint(1, 3))]
            letters = [x for x in letters if x != G.identity()]
        S = _symm(G, letters)
        expected = _naive_ball(G, S, radius)
        assert list(ball(G, S, radius).table.items()) == list(expected.items())
        for g in rng.sample(sorted(expected, key=repr), min(30, len(expected))):
            for cert in (_length_bfs(G, S, g, radius),
                         word_length(G, S, g, cap=radius)):
                assert cert.length == expected[g][0], (g, cert)
                assert S.eval_word(cert.witness) == g


@pytest.mark.parametrize("G,elems", [
    (gr.IntVector(2), [(1, 0), (0, 1)]),
    (gr.Free(2), [(1,), (2,)]),
    (gr.DihedralFinite(5), [(1, 0), (0, 1)]),
], ids=lambda v: str(v)[:24])
def test_length_bfs_finishes_its_last_layer(G, elems):
    """The BFS reference explores the whole ball of radius length(g), or of
    radius cap when g lies outside it, and its witness is that ball's word."""
    S = _symm(G, elems)
    rng = random.Random(16)
    for _ in range(20):
        g = random_element(G, rng, size=3)
        cert = _length_bfs(G, S, g, 5)
        B = ball(G, S, 5 if cert.length is None else cert.length)
        assert cert.explored == len(B.table)
        assert cert.witness == (None if cert.length is None else B.word_to(g))


# -- agreement with the BFS reference ------------------------------------


@pytest.mark.parametrize("G,elems,size", [
    (gr.IntVector(2), [(2, 1), (1, 1)], 8),
    (gr.Heisenberg(), [(1, 0, 0), (0, 1, 0)], 4),
    (gr.DihedralInfinite(), [(1, 0), (0, 1)], 8),
    (gr.Free(2), [(1,), (2,)], 4),
    (gr.Product(gr.IntVector(1), gr.FiniteCyclic(3)), [((1,), 1), ((2,), 0)], 6),
], ids=lambda v: str(v)[:24])
def test_bidirectional_matches_bfs(G, elems, size):
    S = _symm(G, elems)
    rng = random.Random(41)
    for _ in range(60):
        g = random_element(G, rng, size=size)
        a = _length_bfs(G, S, g, 10)
        b = word_length(G, S, g, cap=10)
        assert a.length == b.length, (g, a.length, b.length)
        if b.length is not None:
            assert S.eval_word(b.witness) == g
            assert len(b.witness) == b.length


def test_word_length_is_deterministic():
    G = gr.Heisenberg()
    S = _symm(G, [(1, 0, 0), (0, 1, 0)])
    runs = [word_length(G, S, (3, -2, 5), cap=14).witness for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


# (group, letters) of the pinned witness battery: Z^2, H3, D_inf, F2,
# Z x Z/2, Z x D8 and D16.
WITNESS_ALPHABETS = [
    (gr.IntVector(2), [(1, 0), (0, 1), (1, 1)]),
    (gr.Heisenberg(), [(1, 0, 0), (0, 1, 0)]),
    (gr.DihedralInfinite(), [(1, 0), (0, 1)]),
    (gr.Free(2), [(1,), (2,)]),
    (gr.Product(gr.IntVector(1), gr.FiniteCyclic(2)), [((2,), 1), ((3,), 0)]),
    (gr.Product(gr.IntVector(1), gr.DihedralFinite(4)),
     [((1,), (0, 0)), ((0,), (1, 0)), ((0,), (0, 1))]),
    (gr.DihedralFinite(8), [(1, 0), (0, 1)]),
]
# The sha256 of ``_witness_battery()``.  Report bytes hold no witnesses, so
# this is what notices a change in which geodesic a search returns.  A
# change that means to return other geodesics must update it; a refactor
# or a speed-up must leave it as it is.
WITNESS_SHA256 = "576edf2ccfd7469d71f02e0602449d04204f56caa364d05150aada4f1dab0359"


def _witness_battery():
    """Lengths, witnesses and explored counts of ``word_length`` and
    ``certify_length`` for 40 seeded words on each alphabet of
    ``WITNESS_ALPHABETS``, its ``girth`` at caps 2 to 8, and the
    automorphisms ``aut_group`` returns for D8, Z/8 and Z/2 x Z/4, as one
    list of plain tuples."""
    rng = random.Random(2027)
    out = []
    for G, elems in WITNESS_ALPHABETS:
        S = _symm(G, elems)
        for _ in range(40):
            word = [rng.randrange(len(S.letters)) for _ in range(rng.randrange(1, 13))]
            g = S.eval_word(word)
            for cert in (word_length(G, S, g, cap=8), certify_length(G, S, g, word)):
                out.append((g, cert.length, cert.witness, cert.cap, cert.explored))
        for cap in range(2, 9):
            res = girth(G, S, cap)
            out.append((cap, res.value, res.witness))
    for G in (gr.DihedralFinite(4), gr.FiniteCyclic(8),
              gr.Product(gr.FiniteCyclic(2), gr.FiniteCyclic(4))):
        out.append([list(A.mapping.items()) for A in aut_group(G)])
    return out


def test_witnesses_are_pinned():
    digest = hashlib.sha256(repr(_witness_battery()).encode()).hexdigest()
    assert digest == WITNESS_SHA256


def test_witnesses_are_pinned_under_optimize_flag():
    """``certify_length`` searches on the trusted law, which rests on
    explicit raises alone, so ``python -O`` returns the same witnesses."""
    script = textwrap.dedent("""
        import hashlib
        import sys

        sys.path.insert(0, sys.argv[1])
        from test_metric import _witness_battery

        if __debug__:
            raise SystemExit("expected to run under python -O")
        print(hashlib.sha256(repr(_witness_battery()).encode()).hexdigest())
    """)
    tests = str(Path(__file__).resolve().parent)
    assert run_optimized(["-c", script, tests]).stdout.split() == [WITNESS_SHA256]


def test_length_profile():
    Z = gr.IntVector(1)
    profile = length_profile(
        Z,
        [(p, _symm(Z, [(p,), (p + 1,)])) for p in (2, 3, 4)],
        (1,),
        cap=8,
    )
    assert profile == [(2, 2), (3, 2), (4, 2)]


# -- lengths certified by a word ----------------------------------------


@pytest.mark.parametrize("G,elems", [
    (gr.IntVector(2), [(2, 1), (1, 1)]),
    (gr.Free(2), [(1,), (2,)]),
    (gr.Heisenberg(), [(1, 0, 0), (0, 1, 0)]),
    (gr.Product(gr.IntVector(1), gr.DihedralFinite(4)),
     [((1,), (0, 0)), ((0,), (1, 0)), ((0,), (0, 1))]),
    (gr.DihedralInfinite(), [(1, 0), (0, 1)]),
    (gr.DihedralFinite(4), [(1, 0), (0, 1)]),
], ids=lambda v: str(v)[:24])
def test_certify_length_matches_bfs(G, elems):
    """On seeded random words, geodesic or not, of 0 to 7 letters, the
    certified length is the BFS reference's.  A word the search out to one
    radius less cannot beat is the witness, with ``cap`` its length;
    otherwise the certificate is that search's."""
    S = _symm(G, elems)
    rng = random.Random(21)
    kept = shorter = 0
    for n in [0, 1] * 5 + [rng.randint(2, 7) for _ in range(60)]:
        word = [rng.choice(S.symbols()) for _ in range(n)]
        g = S.eval_word(word)
        cert = certify_length(G, S, g, word)
        assert cert.length == _length_bfs(G, S, g, max(n, 1)).length
        assert len(cert.witness) == cert.length
        assert S.eval_word(cert.witness) == g
        if g == G.identity():
            assert (cert.length, cert.cap, cert.explored) == (0, 0, 0)
        elif n == 1:
            assert (cert.witness, cert.cap, cert.explored) == ((word[0],), 1, 0)
        elif cert.length == n:
            kept += 1
            search = word_length(G, S, g, n - 1)
            assert search.length is None
            assert (cert.witness, cert.cap, cert.explored) == (tuple(word), n, search.explored)
        else:
            shorter += 1
            assert cert == word_length(G, S, g, n - 1)
    assert kept and shorter


@pytest.mark.parametrize("G,elems", [
    (gr.Product(gr.IntVector(1), gr.DihedralFinite(4)),
     [((1,), (0, 0)), ((0,), (1, 0)), ((0,), (0, 1))]),
    (gr.Free(2), [(1,), (2,)]),
], ids=["ZxD8", "F2"])
def test_certify_length_searches_on_the_trusted_law(monkeypatch, G, elems):
    """A 4-letter ``certify_length`` makes one checked ``mul`` per letter,
    all of them in the check of its word, and searches on ``_mul``.
    ``word_length`` on the same element still searches on the checked law,
    which perfbench's tracer counts."""
    S = _symm(G, elems)
    a, b = (S.letters.index(x) for x in elems[-2:])  # two letters that do not commute
    word = (a, b, S.inv_symbol(a), S.inv_symbol(b))
    g = S.eval_word(word)
    steps = [(S.eval_word(word[:i]), S.letters[word[i]]) for i in range(4)]
    checked = []
    mul = type(G).mul

    def counting(self, x, y):
        checked.append((x, y))
        return mul(self, x, y)

    monkeypatch.setattr(type(G), "mul", counting)
    cert = certify_length(G, S, g, word)
    assert cert.explored > 2
    assert checked == steps
    checked.clear()
    word_length(G, S, g, 3)
    assert checked


_REFUSALS = certify_refusals()


@pytest.mark.parametrize("call,error", [r[1:] for r in _REFUSALS], ids=[r[0] for r in _REFUSALS])
def test_certify_length_refusals(call, error):
    with pytest.raises(error):
        call()


def test_certify_length_refusals_survive_optimize_flag():
    """The checks are explicit raises, so ``python -O`` keeps every refusal,
    among them a word that spells another element and a bad symbol id."""
    script = textwrap.dedent("""
        import sys

        sys.path.insert(0, sys.argv[1])
        from oracles import certify_refusals

        if __debug__:
            raise SystemExit("expected to run under python -O")
        cases = certify_refusals()
        refused = 0
        for _, call, error in cases:
            try:
                call()
            except error:
                refused += 1
        print(refused, len(cases))
    """)
    tests = str(Path(__file__).resolve().parent)
    n = str(len(_REFUSALS))
    assert run_optimized(["-c", script, tests]).stdout.split() == [n, n]


# -- resource limits -----------------------------------------------------


def test_memory_limit_resolution(monkeypatch):
    monkeypatch.delenv("WORDBOUND_MEM_LIMIT", raising=False)
    assert memory_limit() == 1 << 30
    monkeypatch.setenv("WORDBOUND_MEM_LIMIT", "")
    assert memory_limit() == 1 << 30
    monkeypatch.setenv("WORDBOUND_MEM_LIMIT", "8192")
    assert memory_limit() == 8192
    assert _Budget().limit == 8192


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5"])
def test_memory_limit_rejects_bad_environment(monkeypatch, value):
    monkeypatch.setenv("WORDBOUND_MEM_LIMIT", value)
    with pytest.raises(ValueError, match="WORDBOUND_MEM_LIMIT"):
        memory_limit()


@pytest.mark.parametrize("value", ["abc", "0"])
def test_every_search_refuses_a_bad_environment(monkeypatch, value):
    """Each search's budget resolves the limit, so a malformed one is
    refused by every search, also by the identity and one-letter shortcuts
    of ``word_length`` and ``certify_length``, which search nothing."""
    Z = gr.IntVector(1)
    S = _symm(Z, [(1,)])
    x = S.symbol_of((1,))
    F = gr.Free(2)
    calls = [
        lambda: ball(Z, S, 3),
        lambda: girth(Z, S, 4),
        lambda: word_length(Z, S, (2,), 3),
        lambda: word_length(Z, S, (0,), 3),
        lambda: _length_bfs(Z, S, (2,), 3),
        lambda: certify_length(Z, S, (0,), ()),
        lambda: certify_length(Z, S, (1,), (x,)),
        lambda: certify_length(Z, S, (2,), (x, x)),
        lambda: generates(Z, S),
        lambda: generates(F, _symm(F, F.standard_generators())),
    ]
    monkeypatch.setenv("WORDBOUND_MEM_LIMIT", value)
    for call in calls:
        with pytest.raises(ValueError, match="WORDBOUND_MEM_LIMIT"):
            call()


def test_ball_memory_budget_exhaustion(monkeypatch):
    G = gr.Free(2)
    S = _symm(G, [(1,), (2,)])
    monkeypatch.setenv("WORDBOUND_MEM_LIMIT", "20000")
    with pytest.raises(ResourceLimitExceeded) as exc:
        ball(G, S, 12)
    # Exact, so that a check at entry that charged the budget would show.
    assert (exc.value.partial_radius, exc.value.explored) == (3, 88)


# (group, letters, ball radius, word_length target and cap)
BUDGET_CASES = [
    (gr.IntVector(2), [(1, 0), (0, 1)], 3, (2, -1), 4),
    (gr.Heisenberg(), [(1, 0, 0), (0, 1, 0)], 2, (0, 0, 1), 4),
    (gr.Free(2), [(1,), (2,)], 3, (1, 2, -1), 4),
    (gr.DihedralInfinite(), [(1, 0), (0, 1)], 4, (3, 1), 5),
    (gr.Product(gr.IntVector(1), gr.DihedralFinite(4)),
     [((1,), (0, 0)), ((0,), (1, 0)), ((0,), (0, 1))], 2, ((0,), (2, 0)), 4),
]


def _budget_outcomes(monkeypatch, run, start, stop=None):
    """The outcome of ``run()`` under every ``WORDBOUND_MEM_LIMIT`` from
    ``start`` to ``stop``, or, without ``stop``, up to the first limit that
    completes: a refusal's (partial_radius, explored) or the completed
    result, a ball as its table's items in insertion order."""
    outcomes = []
    limit = start
    while stop is None or limit <= stop:
        monkeypatch.setenv("WORDBOUND_MEM_LIMIT", str(limit))
        try:
            result = run()
        except ResourceLimitExceeded as exc:
            outcomes.append(("refused", exc.partial_radius, exc.explored))
        else:
            outcomes.append(("done", list(result.table.items())
                             if isinstance(result, Ball) else result))
            if stop is None:
                break
        limit += 1
    return outcomes


@pytest.mark.parametrize("G, gens, radius, target, cap", BUDGET_CASES,
                         ids=[str(case[0]) for case in BUDGET_CASES])
def test_layer_charge_matches_the_per_node_charge(G, gens, radius, target, cap, monkeypatch):
    """Every memory limit from the roots' charge up to the first that
    completes gives ``ball`` and ``word_length`` the refusal or the result
    that charging each node to the budget gives."""
    S = _symm(G, gens)
    e = G.identity()
    searches = [
        (lambda: ball(G, S, radius), _Budget.cost(e)),
        (lambda: word_length(G, S, target, cap), _Budget.cost(e) + _Budget.cost(target)),
    ]
    for run, roots in searches:
        got = _budget_outcomes(monkeypatch, run, roots)
        assert got[-1][0] == "done" and len(got) > 1
        with monkeypatch.context() as m:
            m.setattr(metric, "_expand", expand_per_node)
            assert _budget_outcomes(m, run, roots, roots + len(got) - 1) == got


@pytest.mark.parametrize("G", FINITE_GROUPS + [gr.IntVector(2), gr.Free(2)], ids=str)
def test_expand_writes_its_charge_back_to_the_budget(G, monkeypatch):
    """Layer by layer, ``_expand`` leaves the budget's bytes and nodes, the
    table and the layer as the per-node charge does, the layer that fills a
    finite group and returns early included."""
    S = _symm(G, G.standard_generators())
    monkeypatch.delenv("WORDBOUND_MEM_LIMIT", raising=False)
    runs = []
    for expand in (_expand, expand_per_node):
        budget = _Budget(G.identity())
        assert (budget.limit, budget.used, budget.nodes) == (1 << 30, _Budget.cost(G.identity()), 1)
        table = {G.identity(): (0, None)}
        frontier = [G.identity()]
        layers = []
        for depth in range(1, 5):
            frontier = expand(G._mul, S.letters, table, frontier, depth, budget, G.size)
            layers.append((frontier, budget.used, budget.nodes))
        runs.append((list(table.items()), layers))
        assert budget.nodes == len(table)
    assert runs[0] == runs[1]


def test_word_length_memory_budget_exhaustion(monkeypatch):
    G = gr.Free(2)
    S = _symm(G, [(1,), (2,)])
    monkeypatch.setenv("WORDBOUND_MEM_LIMIT", "20000")
    with pytest.raises(ResourceLimitExceeded):
        _length_bfs(G, S, (1,) * 12, 12)
    with pytest.raises(ResourceLimitExceeded):
        word_length(G, S, (1,) * 12, cap=12)


def test_invalid_arguments():
    Z = gr.IntVector(1)
    S = _symm(Z, [(1,)])
    with pytest.raises(ValueError):
        word_length(Z, S, (1,), cap=0)
    with pytest.raises(ValueError):
        ball(Z, S, -1)


def test_alphabet_over_another_group_is_refused():
    """An alphabet of Z/5 is refused over Z/7 before any search, also for
    the identity; an equal group built anew is the same group."""
    S = _symm(gr.FiniteCyclic(5), [1])
    G = gr.FiniteCyclic(7)
    for call in (lambda: word_length(G, S, 3, 6), lambda: word_length(G, S, 0, 6),
                 lambda: ball(G, S, 3), lambda: girth(G, S, 8)):
        with pytest.raises(DomainError, match="alphabet belongs to a different group"):
            call()
    same = gr.FiniteCyclic(5)
    assert word_length(same, S, 3, 6).length == 2
    assert len(ball(same, S, 3)) == 5
    assert girth(same, S, 8).value == 5


FOREIGN = foreign_alphabets()


@pytest.mark.parametrize("G,letters,involution", [c[1:] for c in FOREIGN],
                         ids=[c[0] for c in FOREIGN])
def test_foreign_letter_is_refused_before_any_search(G, letters, involution):
    """A letter outside G is refused where its alphabet is built, by the
    constructor and by ``from_classes`` alike, so no search ever sees it; an
    unhashable letter too, before the distinctness test hashes it."""
    classes = [letters[:-1], letters[-1:]]
    for build in (lambda: GenSet(G, letters, involution),
                  lambda: GenSet.from_classes(G, classes)):
        with pytest.raises(DomainError, match="is not an element of"):
            build()


def test_foreign_letter_refusals_survive_optimize_flag():
    """The construction check is the only one an alphabet's letters get, so
    it must hold under ``python -O`` too, and there agree with the oracle on
    every mutated alphabet."""
    script = textwrap.dedent("""
        import sys

        sys.path.insert(0, sys.argv[1])
        from oracles import (MUTATION_GROUPS, alphabet_mutations, foreign_alphabets,
                             genset_is_valid_reference)
        from wordbound.errors import DomainError
        from wordbound.gensets import GenSet, make_symmetric

        if __debug__:
            raise SystemExit("expected to run under python -O")

        def accepted(G, letters, involution):
            try:
                GenSet(G, letters, involution)
            except DomainError:
                return False
            return True

        cases = foreign_alphabets()
        print(sum(not accepted(*case[1:]) for case in cases), len(cases))
        wrong = [(G, name) for G in MUTATION_GROUPS
                 for name, *alphabet in alphabet_mutations(
                     make_symmetric(G, G.standard_generators()))
                 if accepted(G, *alphabet) != genset_is_valid_reference(G, *alphabet)]
        print(len(wrong))
    """)
    tests = str(Path(__file__).resolve().parent)
    assert run_optimized(["-c", script, tests]).stdout.split() == ["6", "6", "0"]


@pytest.mark.parametrize("value", [3.5, 9.5, 3.0, "3", True, None])
def test_caps_and_radii_must_be_ints(value):
    """A cap or radius that is not an int is refused, also where the
    comparison with the least allowed value would pass."""
    Z = gr.IntVector(1)
    S = _symm(Z, [(2,), (3,)])
    with pytest.raises(ValueError, match="cap must be an integer"):
        word_length(Z, S, (1,), value)
    with pytest.raises(ValueError, match="radius must be an integer"):
        ball(Z, S, value)
    with pytest.raises(ValueError, match="cap must be an integer"):
        girth(Z, S, value)


def test_integer_checks_survive_optimize_flag():
    """The checks above are explicit raises, so ``python -O`` keeps them."""
    script = textwrap.dedent("""
        import sys

        sys.path.insert(0, sys.argv[1])
        from oracles import with_memory_limit
        from wordbound import groups as gr
        from wordbound.gensets import make_symmetric
        from wordbound.girth import girth
        from wordbound.metric import ball, word_length

        if __debug__:
            raise SystemExit("expected to run under python -O")
        Z = gr.IntVector(1)
        S = make_symmetric(Z, [(2,), (3,)])
        calls = [
            lambda: ball(Z, S, 2.0),
            lambda: with_memory_limit("0", lambda: ball(Z, S, 3)),
            lambda: word_length(Z, S, (1,), 3.5),
            lambda: word_length(Z, S, (1,), 9.5),
            lambda: girth(Z, S, 4.0),
        ]
        refused = 0
        for call in calls:
            try:
                call()
            except ValueError:
                refused += 1
        print(refused, len(calls))
    """)
    tests = str(Path(__file__).resolve().parent)
    assert run_optimized(["-c", script, tests]).stdout.split() == ["5", "5"]


# -- the table contract ---------------------------------------------------


def _tables_grown(monkeypatch, run):
    """Each (letters, table) that ``_expand`` grows during ``run()``, read
    after it returns."""
    grown = []

    def recording(mul, letters, table, *rest):
        if not any(t is table for _, t in grown):
            grown.append((letters, table))
        return _expand(mul, letters, table, *rest)

    with monkeypatch.context() as m:
        m.setattr(metric, "_expand", recording)
        m.setattr(experiments, "_expand", recording)
        run()
    return grown


def _breaks_contract(G, letters, table):
    """The entries (v, (d, i)) of ``table`` whose v·letters[i]⁻¹ is not in
    it at depth d - 1; a root (0, None) breaks nothing."""
    return [(v, d, i) for v, (d, i) in table.items()
            if i is not None and table.get(G.mul(v, G.inv(letters[i])), (None,))[0] != d - 1]


@pytest.mark.parametrize("G", FAMILIES, ids=str)
def test_every_table_keeps_the_letter_index_contract(G, monkeypatch):
    """``ball``, both halves of ``word_length`` and ``aut_group`` grow their
    tables with ``_expand``, and each entry's parent is one letter back.
    Each target lies at distance 2 or more, so both halves grow."""
    searches = []  # (search, number of tables it grows)
    if G.standard_generators():
        S = _symm(G, G.standard_generators())
        B = ball(G, S, 4)
        searches.append((lambda: ball(G, S, 4), 1))
        far = [g for g in B.table if B.length(g) >= 2]
        for g in random.Random(29).sample(far, min(5, len(far))):
            searches.append((lambda g=g: word_length(G, S, g, cap=6), 2))
    if G.is_finite:  # the trivial group's table is its root alone
        searches.append((lambda: aut_group(G), min(1, G.size - 1)))
    for run, tables in searches:
        grown = _tables_grown(monkeypatch, run)
        assert len(grown) == tables
        for letters, table in grown:
            assert _breaks_contract(G, letters, table) == []


# -- the stop at a whole finite group ------------------------------------


def _finite_alphabets(G, seed):
    """Every non-identity element, the standard generators and six seeded
    samples of one to three elements, as symmetric alphabets."""
    rng = random.Random(seed)
    rest = [x for x in G.elements() if x != G.identity()]
    picks = [rest, list(G.standard_generators())]
    picks += [rng.sample(rest, 1 + i % 3) for i in range(6)]
    return [_symm(G, p) for p in picks]


@pytest.mark.parametrize("G", FINITE_GROUPS, ids=str)
def test_ball_matches_full_walk(G):
    """Same table items in the same order, labels included, as a walk with
    no stop, for generating and non-generating alphabets at radii 0 to |G|."""
    alphabets = _finite_alphabets(G, seed=G.size)
    assert {len(gr.closure(G, S.letters)) == G.size for S in alphabets} == {True, False}
    for S in alphabets:
        for radius in range(G.size + 1):
            B = ball(G, S, radius)
            assert list(B.table.items()) == list(ball_full_walk(G, S, radius).items())


# ball and girth multiply with the trusted law; these alphabets hold them to
# walks that multiply with the checked one outside finite groups.
INFINITE_ALPHABETS = [
    (gr.IntVector(2), [(1, 0), (0, 1), (1, 1)]),
    (gr.Heisenberg(), [(1, 0, 0), (0, 1, 0)]),
    (gr.Heisenberg(), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    (gr.DihedralInfinite(), [(0, 1), (2, 1), (3, 1)]),
    (gr.Free(2), [(1,), (2,), (1, 2)]),
    (gr.Product(gr.IntVector(1), gr.DihedralFinite(4)),
     [((1,), (1, 0)), ((0,), (0, 1)), ((2,), (1, 1))]),
]


@pytest.mark.parametrize("G,elems", INFINITE_ALPHABETS, ids=lambda v: str(v)[:24])
def test_trusted_ball_matches_full_walk_in_infinite_groups(G, elems):
    S = _symm(G, elems)
    for radius in range(5):
        B = ball(G, S, radius)
        assert list(B.table.items()) == list(ball_full_walk(G, S, radius).items())


@pytest.mark.parametrize("G,elems", INFINITE_ALPHABETS, ids=lambda v: str(v)[:24])
def test_trusted_girth_matches_reference_in_infinite_groups(G, elems):
    S = _symm(G, elems)
    for cap in range(2, 7):
        assert girth(G, S, cap).value == girth_reference(G, S, cap).value, cap


@pytest.mark.parametrize("G", FINITE_GROUPS, ids=str)
def test_word_length_matches_ball_on_finite_groups(G):
    """word_length meets in the middle in finite groups too.  For every
    element, over generating and non-generating alphabets, its length is the
    ball's, None outside the subgroup, and its witness spells the element
    with that many letters."""
    alphabets = _finite_alphabets(G, seed=G.size)
    assert {len(gr.closure(G, S.letters)) == G.size for S in alphabets} == {True, False}
    for S in alphabets:
        B = ball(G, S, G.size)
        for g in G.elements():
            cert = word_length(G, S, g, G.size)
            if g not in B:
                assert (cert.length, cert.witness) == (None, None), (S.letters, g)
                continue
            assert cert.length == B.length(g), (S.letters, g)
            assert len(cert.witness) == cert.length
            assert S.eval_word(cert.witness) == g


def test_ball_stops_once_it_holds_the_whole_group(monkeypatch):
    """D8 under all seven non-identity elements is whole after the identity's
    7 products; the full walk makes 56.  Under s, r, r^-1 the table fills at
    the second letter of the first node of layer 3, and the search returns
    once that node's letters are done: 15 products, where the full walk
    makes 24."""
    G = gr.DihedralFinite(4)
    S_all = _symm(G, [x for x in G.elements() if x != G.identity()])
    S_sr = _symm(G, [(0, 1), (1, 0)])
    calls = []
    real = gr.DihedralFinite._mul
    monkeypatch.setattr(gr.DihedralFinite, "_mul", lambda self, g, h: calls.append(None) or real(self, g, h))
    assert len(ball(G, S_all, G.size)) == 8
    assert len(calls) == 7
    calls.clear()
    assert len(ball(G, S_sr, G.size)) == 8
    assert len(calls) == 15
