"""Girth of Cayley graphs: word reduction, search agreement, torsion loops."""

import itertools
import textwrap
import time

import pytest
from oracles import girth_reference, run_optimized

from wordbound import groups as gr
from wordbound.errors import DomainError
from wordbound.gensets import make_symmetric
from wordbound.girth import (
    cyclic_reduce,
    girth,
    is_cyclically_reduced,
    reduce_word,
    simple_loop_check,
)
from wordbound.metric import certify_length, word_length


def _symm(G, elems):
    return make_symmetric(G, elems)


def _z_genset(*ints):
    Z = gr.IntVector(1)
    return Z, _symm(Z, [(v,) for v in ints])


# -- word reduction ------------------------------------------------------


def test_reduce_word():
    Z, S = _z_genset(2, 3)
    p2, m2 = S.symbol_of((2,)), S.symbol_of((-2,))
    p3 = S.symbol_of((3,))
    assert reduce_word(S, (p2, m2)) == ()
    assert reduce_word(S, (p2, p3, m2)) == (p2, p3, m2)
    assert reduce_word(S, (p2, p2, m2, m2)) == ()
    assert cyclic_reduce(S, (m2, p3, p2)) == (p3,)
    assert is_cyclically_reduced(S, (p2, p3))
    assert not is_cyclically_reduced(S, (m2, p3, p2))
    with pytest.raises(DomainError):
        reduce_word(S, (99,))


def test_cyclic_reduce_is_linear_in_the_word():
    """x^n y x^-n over F2 with n = 100,000, 200,001 letters, reduces to y
    well within a second.  Slicing the word once per stripped seam pair
    took time quadratic in n, about 20 s on a 2-vCPU machine (Python 3.11)."""
    F = gr.Free(2)
    S = _symm(F, [(1,), (2,)])
    x, y, X = S.symbol_of((1,)), S.symbol_of((2,)), S.symbol_of((-1,))
    n = 100_000
    start = time.perf_counter()
    assert cyclic_reduce(S, [x] * n + [y] + [X] * n) == (y,)
    assert time.perf_counter() - start < 1.0


def test_cyclic_reduction_reads_any_sequence():
    """A list, a tuple and, where one spells the word, a ``range`` get the
    same answer, and it is the definition's: no letter next to its
    inverse, cyclically.  A list was once compared with the reduced tuple
    and answered False."""
    Z, S = _z_genset(2, 3)
    assert is_cyclically_reduced(S, [0, 2])
    n = len(S.symbols())
    for length in range(5):
        for w in itertools.product(range(n), repeat=length):
            cyclic = w[-1:] + w
            expected = all(b != S.inv_symbol(a) for a, b in zip(cyclic, cyclic[1:]))
            forms = [w, list(w)]
            steps = {b - a for a, b in zip(w, w[1:])}
            if length < 2:
                forms.append(range(w[0], w[0] + 1) if w else range(0))
            elif len(steps) == 1 and 0 not in steps:
                step = steps.pop()
                forms.append(range(w[0], w[-1] + step, step))
            for form in forms:
                assert tuple(form) == w
                assert is_cyclically_reduced(S, form) is expected, form


@pytest.mark.parametrize("word", [(1.0,), (-1,), (0, -4), (4,), (True,), (0, None)])
def test_word_functions_refuse_bad_symbol_ids(word):
    """Every function that takes a word refuses an id that is not an int in
    ``range(len(letters))``: ``(1.0,)`` once reduced to itself and ``(-1,)``
    once walked the last letter."""
    Z, S = _z_genset(2, 3)
    for call in (reduce_word, cyclic_reduce, is_cyclically_reduced):
        with pytest.raises(DomainError, match="unknown symbol id"):
            call(S, word)
    with pytest.raises(DomainError, match="unknown symbol id"):
        simple_loop_check(Z, S, (0,), word)


ONE_SHOT = {"iter": iter, "generator": lambda w: (sym for sym in w), "map": lambda w: map(int, w)}


@pytest.mark.parametrize("one_shot", ONE_SHOT.values(), ids=ONE_SHOT.keys())
def test_one_shot_words_get_the_lists_answers(one_shot):
    """A word is any iterable of symbol ids, read once.  The check of its
    ids once used up an iterator before the work began: over the units of
    Z^2, ``eval_word(iter([0, 2]))`` answered (0, 0), and ``reduce_word``
    answered ()."""
    Z2 = gr.IntVector(2)
    S = _symm(Z2, [(1, 0), (0, 1)])
    assert S.eval_word(one_shot([0, 2])) == (1, 1)
    for w in ([0, 2], [2, 0, 3, 1, 0], [0, 2, 1, 3], [1, 2, 2, 0], []):
        for call in (S.eval_word, lambda w: reduce_word(S, w), lambda w: cyclic_reduce(S, w),
                     lambda w: is_cyclically_reduced(S, w)):
            assert call(one_shot(w)) == call(list(w)), w
        g = S.eval_word(w)
        assert certify_length(Z2, S, g, one_shot(w)) == certify_length(Z2, S, g, list(w))
    D = gr.DihedralFinite(4)
    SD = _symm(D, [(1, 0), (0, 1)])
    r, s = SD.symbol_of((1, 0)), SD.symbol_of((0, 1))
    for g, w in (((1, 0), [r]), ((1, 1), [s, r, s, r, s]), ((2, 0), [r, r])):
        verdict = simple_loop_check(D, SD, g, list(w))
        assert simple_loop_check(D, SD, g, one_shot(w)) == verdict
    assert simple_loop_check(D, SD, (1, 0), one_shot([r])).ok


def test_involution_letters_are_self_inverse():
    D = gr.DihedralFinite(4)
    S = _symm(D, [(1, 0), (0, 1)])
    s = S.symbol_of((0, 1))
    assert reduce_word(S, (s, s)) == ()
    assert cyclic_reduce(S, (s, S.symbol_of((1, 0)), s)) == (S.symbol_of((1, 0)),)


# -- girth values --------------------------------------------------------

# Abelian groups with two independent generators always carry the
# commutation square g h g^-1 h^-1, so their girth is 4.
GIRTH_CASES = [
    (gr.IntVector(1), [(2,)], 10, None),  # line graph: no loops
    (gr.IntVector(1), [(2,), (3,)], 10, 4),
    (gr.IntVector(1), [(3,), (5,)], 12, 4),
    (gr.IntVector(2), [(1, 0), (0, 1)], 8, 4),
    (gr.DihedralFinite(4), [(1, 0), (0, 1)], 8, 4),
    (gr.FiniteCyclic(6), [1], 8, 6),
    (gr.FiniteCyclic(12), [1], 10, None),  # 12-cycle exceeds the cap
    (gr.Free(2), [(1,), (2,)], 12, None),  # tree
    (gr.DihedralInfinite(), [(1, 0), (0, 1)], 8, 4),  # s t s t = e
    (gr.Heisenberg(), [(1, 0, 0), (0, 1, 0)], 8, 8),  # shortest relation of H3
]


@pytest.mark.parametrize("G,elems,cap,expected", GIRTH_CASES,
                         ids=lambda v: str(v)[:24])
def test_girth_values(G, elems, cap, expected):
    S = _symm(G, elems)
    result = girth(G, S, cap=cap)
    assert result.value == expected
    if expected is None:
        assert str(result) == f"> {cap}"
    else:
        assert S.eval_word(result.witness) == G.identity()
        assert len(result.witness) == expected
        assert is_cyclically_reduced(S, result.witness)


@pytest.mark.parametrize("G,elems,cap,expected", GIRTH_CASES,
                         ids=lambda v: str(v)[:24])
def test_girth_agrees_with_reference(G, elems, cap, expected):
    cap = min(cap, 8)  # the reference search is exponential
    S = _symm(G, elems)
    fast = girth(G, S, cap=cap)
    slow = girth_reference(G, S, cap=cap)
    assert fast.value == slow.value


def test_girth_at_least_three_without_involutions():
    for G, elems in [
        (gr.IntVector(1), [(2,), (3,)]),
        (gr.FiniteCyclic(7), [1, 2]),
        (gr.Heisenberg(), [(1, 0, 0), (0, 1, 0)]),
    ]:
        S = _symm(G, elems)
        assert all(S.inv_symbol(i) != i for i in S.symbols())
        result = girth(G, S, cap=10)
        assert result.value is None or result.value >= 3


def test_degenerate_alphabet_never_reaches_girth():
    """A repeated letter is refused where the alphabet is built, so girth's
    scan, which tells tree edges apart by letter, needs no test of its own."""
    Z = gr.IntVector(1)
    S = _symm(Z, [(2,), (3,)])
    with pytest.raises(DomainError, match="duplicate"):
        type(S)(group=Z, letters=S.letters + ((2,), (-2,)),
                involution=S.involution + (5, 4))
    with pytest.raises(ValueError):
        girth(Z, S, cap=1)


# -- torsion loops -------------------------------------------------------


def test_simple_loop_check_single_letter_witnesses():
    D = gr.DihedralFinite(4)
    S = _symm(D, [(1, 0), (0, 1)])
    v = simple_loop_check(D, S, (1, 0), (S.symbol_of((1, 0)),))
    assert v.ok and v.loop_length == 4
    v = simple_loop_check(D, S, (0, 1), (S.symbol_of((0, 1)),))
    assert v.ok and v.loop_length == 2

    C6 = gr.FiniteCyclic(6)
    S6 = _symm(C6, [1, 2])
    v = simple_loop_check(C6, S6, 2, (S6.symbol_of(2),))
    assert v.ok and v.loop_length == 3


def test_simple_loop_check_multi_letter_witness():
    C4 = gr.FiniteCyclic(4)
    S = _symm(C4, [1])
    v = simple_loop_check(C4, S, 2, (S.symbol_of(1), S.symbol_of(1)))
    assert v.ok and v.loop_length == 4  # walk 0,1,2,3 then close


def test_simple_loop_check_failures():
    C5 = gr.FiniteCyclic(5)
    S = _symm(C5, [1])
    one = S.symbol_of(1)
    # l(2) = 2 but 2 has order 5: the 10-step walk laps the cycle
    v = simple_loop_check(C5, S, 2, (one, one))
    assert not v.ok and "revisits" in v.reason
    # wrong element
    assert not simple_loop_check(C5, S, 3, (one,)).ok
    # identity and non-torsion elements
    assert not simple_loop_check(C5, S, 0, ()).ok
    Z = gr.IntVector(1)
    SZ = _symm(Z, [(1,)])
    assert not simple_loop_check(Z, SZ, (1,), (SZ.symbol_of((1,)),)).ok


def test_torsion_loop_bounds_girth():
    """A torsion element with a single-letter witness caps the girth by
    order * witness length."""
    for q in range(3, 13):
        C = gr.FiniteCyclic(q)
        S = _symm(C, [1])
        g = 1
        cert = word_length(C, S, g, cap=q)
        v = simple_loop_check(C, S, g, cert.witness)
        assert v.ok
        result = girth(C, S, cap=v.loop_length)
        assert result.value is not None
        assert result.value <= v.loop_length


def test_girth_witness_path_is_vertex_distinct():
    G = gr.DihedralInfinite()
    S = _symm(G, [(1, 0), (0, 1)])
    result = girth(G, S, cap=8)
    seen = set()
    v = G.identity()
    for sym in result.witness:
        assert v not in seen
        seen.add(v)
        v = G.mul(v, S.element(sym))
    assert v == G.identity()


def test_witness_validation_survives_optimize_flag():
    """Corrupted witnesses are rejected under ``python -O`` as well."""
    script = textwrap.dedent("""
        from wordbound import groups as gr
        from wordbound.gensets import make_symmetric
        from wordbound.girth import _validate_witness, girth

        if __debug__:
            raise SystemExit("expected to run under python -O")
        G = gr.IntVector(1)
        S = make_symmetric(G, [(2,), (3,)])
        w = girth(G, S, cap=6).witness
        corrupted = [(), w[:-1], w + w, w[:1] + (S.inv_symbol(w[0]),) + w[1:]]
        rejected = 0
        for bad in corrupted:
            try:
                _validate_witness(G, S, bad)
            except RuntimeError:
                rejected += 1
        print(rejected, len(corrupted))
    """)
    out = run_optimized(["-c", script])
    assert out.stdout.split() == ["4", "4"]
