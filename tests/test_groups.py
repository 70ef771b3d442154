"""Group law, normal form and encoding tests for every shipped family."""

import itertools
import json
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    FAMILIES,
    FINITE_GROUPS,
    Z3_TABLE,
    _near_miss,
    closure_full_walk,
    concrete_families,
    contains_reference,
    random_element,
    reduce_letters,
)

from wordbound import groups as gr
from wordbound.errors import DomainError, UnsupportedFamilyError
from wordbound.groups import (
    INFINITE,
    CayleyTableGroup,
    DihedralFinite,
    DihedralInfinite,
    FiniteCyclic,
    Free,
    Heisenberg,
    IntVector,
    Product,
)


@pytest.mark.parametrize("G", FAMILIES, ids=str)
def test_group_laws(G):
    rng = random.Random(7)
    e = G.identity()
    assert G.contains(e)
    for _ in range(400):
        g = random_element(G, rng, size=6)
        h = random_element(G, rng, size=6)
        k = random_element(G, rng, size=6)
        assert G.contains(g)
        assert G.mul(G.mul(g, h), k) == G.mul(g, G.mul(h, k))
        assert G.mul(g, e) == g
        assert G.mul(e, g) == g
        assert G.mul(g, G.inv(g)) == e
        assert G.mul(G.inv(g), g) == e
        assert G.inv(G.inv(g)) == g


@pytest.mark.parametrize("G", FAMILIES, ids=str)
def test_power_matches_iterated_multiplication(G):
    rng = random.Random(11)
    for _ in range(50):
        g = random_element(G, rng, size=4)
        acc = G.identity()
        for n in range(7):
            assert G.power(g, n) == acc
            acc = G.mul(acc, g)
        assert G.power(g, -3) == G.inv(G.power(g, 3))


@pytest.mark.parametrize("n", [2.0, True, False, "2", None])
def test_power_exponent_must_be_an_int(n):
    """``power(g, 2.0)`` would fail deep in the squaring loop and
    ``power(g, True)`` pass for ``power(g, 1)``: both are refused first."""
    for G, g in ((Free(2), (1,)), (IntVector(1), (1,)), (FiniteCyclic(5), 2)):
        with pytest.raises(ValueError, match="exponent must be an integer, got"):
            G.power(g, n)


def test_free_power_matches_repeated_squaring():
    """The letters that cancel between the squares leave the conjugate of
    the core's power: (x1 x2^2 x1^-1)^3 = x1 x2^6 x1^-1."""
    assert Free(3).power((1, 2, 2, -1), 3) == (1,) + (2,) * 6 + (-1,)


@pytest.mark.parametrize("family", [FiniteCyclic, IntVector, DihedralFinite, Free], ids=lambda f: f.__name__)
@pytest.mark.parametrize("value", [2.5, 4.0, True, False, "2", None])
def test_family_parameter_must_be_an_int(family, value):
    """A modulus, dimension, rotation order or rank that is not an int, a
    bool included, is refused where the group is built: ``FiniteCyclic(2.5)``
    would multiply into floats and ``FiniteCyclic(True)`` print as Z/True."""
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        family(value)


def test_heisenberg_presentation_identities():
    G = Heisenberg()
    a, b, c = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert G.commutator(a, b) == c
    assert G.commutator(a, c) == G.identity()
    assert G.commutator(b, c) == G.identity()
    # [a^u, b^v] = c^(u*v)
    for u in range(-4, 5):
        for v in range(-4, 5):
            assert G.commutator(G.power(a, u), G.power(b, v)) == (0, 0, u * v)
    # conjugation moves only the central coordinate
    g = (2, 3, -1)
    for n in range(-3, 4):
        an = G.power(a, n)
        assert G.mul(G.mul(an, g), G.inv(an)) == (2, 3, -1 + n * 3)
        bn = G.power(b, n)
        assert G.mul(G.mul(bn, g), G.inv(bn)) == (2, 3, -1 - n * 2)


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(), st.integers(), st.integers()),
       st.tuples(st.integers(), st.integers(), st.integers()))
def test_heisenberg_center_commutator_exponent_is_determinant(x, y):
    """[x, y] is central with the abelianized determinant as its exponent,
    which ``experiments.heisenberg_center_certificate`` relies on."""
    assert Heisenberg().commutator(x, y) == (0, 0, x[0] * y[1] - x[1] * y[0])


@pytest.mark.parametrize("G", [DihedralFinite(5), DihedralInfinite()], ids=str)
def test_dihedral_relations(G):
    s = (0, 1)
    t = (1, 0)
    assert G.mul(s, s) == G.identity()
    assert G.mul(G.mul(s, t), s) == G.inv(t)
    rng = random.Random(5)
    for _ in range(100):
        g = random_element(G, rng, size=6)
        if g[1] == 1:
            assert G.mul(g, g) == G.identity()
            assert G.inv(g) == g


def test_free_reduction():
    G = Free(2)
    x, y = (1,), (2,)
    assert G.mul(x, G.inv(x)) == ()
    assert G.mul((1, 2), (-2, -1)) == ()
    assert G.mul((1, 2), (-2, 1)) == (1, 1)
    assert reduce_letters([1, 2, -2, -1, 1]) == (1,)
    assert not G.contains((1, -1))  # unreduced
    assert not G.contains((3,))  # out of rank
    assert not G.contains((0,))


def test_element_orders():
    assert FiniteCyclic(12).element_order(8) == 3
    assert FiniteCyclic(12).element_order(5) == 12
    assert DihedralFinite(4).element_order((1, 0)) == 4
    assert DihedralFinite(4).element_order((1, 1)) == 2
    assert DihedralInfinite().element_order((3, 0)) is INFINITE
    assert DihedralInfinite().element_order((3, 1)) == 2
    assert Heisenberg().element_order((0, 0, 5)) is INFINITE
    assert IntVector(2).element_order((0, 0)) == 1
    P = Product(FiniteCyclic(4), FiniteCyclic(6))
    assert P.element_order((1, 1)) == 12
    assert Z3_TABLE.element_order(1) == 3
    assert Free(2).element_order(()) == 1
    assert Free(2).element_order((1, -2)) is INFINITE
    assert Product(IntVector(1), FiniteCyclic(2)).element_order(((1,), 1)) is INFINITE
    assert Product(IntVector(1), FiniteCyclic(2)).element_order(((0,), 1)) == 2


def test_free_generator_is_one_based():
    assert Free(2).generator(1) == (1,)
    assert Free(2).generator(2) == (2,)
    for i in (0, 3, -1):
        with pytest.raises(ValueError, match="out of range"):
            Free(2).generator(i)


def test_enumeration_sizes():
    assert sorted(FiniteCyclic(5).elements()) == [0, 1, 2, 3, 4]
    assert len(list(DihedralFinite(4).elements())) == 8
    P = Product(DihedralFinite(4), FiniteCyclic(3))
    assert P.size == 24
    assert len(set(P.elements())) == 24
    with pytest.raises(UnsupportedFamilyError):
        list(IntVector(1).elements())


class _IntSub(int):
    pass


def _membership_battery(G, rng):
    """Seeded candidates for ``G.contains``: elements, and elements with a
    slot swapped for a bool, an int subclass, a float, None, a list, a
    nested tuple or an integer on either side of a bound of the family."""
    bounds = [v for v in (getattr(G, f.name) for f in fields(G)) if isinstance(v, int)]
    if isinstance(G, CayleyTableGroup):
        bounds.append(len(G.names))
    ints = [-1, 0, 1, 2, _IntSub(1), _IntSub(-1)] + [b + k for b in bounds for k in (-1, 0, 1)]
    atoms = ints + [True, False, 1.0, 0.0, None, "a", [], (), [1], (1,), ((0,),), 10**30]
    if isinstance(G, Product):
        left = _membership_battery(G.left, rng)
        right = _membership_battery(G.right, rng)
        pairs = [(rng.choice(left), rng.choice(right)) for _ in range(600)]
        return atoms + pairs + [list(p) for p in pairs[:50]] + [p[:1] for p in pairs[:50]] \
            + [p + p[1:] for p in pairs[:50]]
    out = list(atoms)
    for _ in range(20):
        g = random_element(G, rng, size=4)
        out.append(g)
        if not isinstance(g, tuple):
            continue
        out += [list(g), g + (0,), g[:-1], g + g]
        if g:
            out.append(g + (-g[-1],))
        for i in range(len(g)):
            out += [g[:i] + (a,) + g[i + 1:] for a in atoms]
    return out


@pytest.mark.parametrize(
    "G", FAMILIES + [Product(G, H) for G, H in zip(FAMILIES, reversed(FAMILIES))], ids=str)
def test_contains_matches_reference(G):
    """Every family's membership test gives the reference verdict."""
    rng = random.Random(19)
    verdicts = set()
    for g in _membership_battery(G, rng):
        verdict = G.contains(g)
        assert verdict is contains_reference(G, g), g
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _reduced_word(k, n, rng, tail):
    """A reduced word of ``n`` letters over F_k that ends with ``tail``,
    grown leftwards so that no letter cancels the one after it."""
    letters = [s * i for i in range(1, k + 1) for s in (1, -1)]
    word = list(reversed(tail))
    while len(word) < n:
        x = rng.choice(letters)
        if x != -word[-1]:
            word.append(x)
    return tuple(reversed(word))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_free_contains_long_words_faulted_at_the_tail(k):
    """Words of 40 to 80 letters whose only fault is the last letter or the
    last pair: 0, a letter beyond the rank, a bool, a float, an int subclass
    or a letter that cancels the ``-1`` before it."""
    G = Free(k)
    rng = random.Random(70 + k)
    faults = [0, k + 1, -(k + 1), True, 1.0, _IntSub(1), _IntSub(k + 1), 1]
    verdicts = []
    for n in range(40, 81, 4):
        stem = _reduced_word(k, n - 1, rng, tail=(-1,))
        last = rng.choice([x for x in (-1, 2, -2) if abs(x) <= k])
        words = [stem + (last,)]
        words += [stem + (a,) for a in faults]
        words += [stem[:-1] + (a, last) for a in faults]
        for g in words:
            assert len(g) == n
            verdict = G.contains(g)
            assert verdict is contains_reference(G, g), g
            verdicts.append(verdict)
        assert all(G.contains(stem + (a,)) is False for a in faults)
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_int_vector_contains_with_the_bad_slot_last(d):
    G = IntVector(d)
    rng = random.Random(80 + d)
    atoms = [1.0, 0.0, None, "a", [], (1,), True, _IntSub(2), 10**30, -(10**30)]
    for _ in range(10):
        g = tuple(rng.randint(-9, 9) for _ in range(d))
        for h in [g] + [g[:-1] + (a,) for a in atoms]:
            assert G.contains(h) is contains_reference(G, h), h
        assert G.contains(g[:-1] + (1.0,)) is False


_LETTER_ATOMS = [1, -1, 2, -2, 3, -3] * 3 + [0, 4, -4, True, False, 1.0, _IntSub(1),
                                             _IntSub(-2), None]


@settings(max_examples=300, deadline=None)
@given(st.data())
@pytest.mark.parametrize(
    "G", [Free(2), Free(3), IntVector(1), IntVector(2), IntVector(3)], ids=str)
def test_contains_matches_reference_on_drawn_tuples(G, data):
    size = 80 if isinstance(G, Free) else G.d + 1
    g = tuple(data.draw(st.lists(st.sampled_from(_LETTER_ATOMS), max_size=size)))
    assert G.contains(g) is contains_reference(G, g)


PRODUCTS = [
    Product(FiniteCyclic(1), DihedralFinite(4)),
    Product(FiniteCyclic(4), FiniteCyclic(6)),
    Product(IntVector(2), DihedralInfinite()),
    Product(Heisenberg(), Free(2)),
    Product(Free(1), IntVector(1)),
    Product(DihedralFinite(3), Z3_TABLE),
    Product(Z3_TABLE, Heisenberg()),
    Product(Product(IntVector(1), FiniteCyclic(2)), DihedralInfinite()),
    Product(DihedralFinite(5), Product(Free(2), FiniteCyclic(3))),
    Product(Product(IntVector(1), DihedralFinite(4)),
            Product(Z3_TABLE, Heisenberg())),
]


@pytest.mark.parametrize("G", FAMILIES + PRODUCTS, ids=str)
def test_unchecked_law_matches_checked_law(G):
    """``_mul`` is ``mul`` without the membership checks."""
    rng = random.Random(43)
    for _ in range(300):
        g = random_element(G, rng, size=6)
        h = random_element(G, rng, size=6)
        assert G._mul(g, h) == G.mul(g, h)


@pytest.mark.parametrize(
    "G", FAMILIES + [Product(G, H) for G, H in zip(FAMILIES, reversed(FAMILIES))], ids=str)
def test_checked_law_rejects_every_non_element(G):
    """``mul`` on either side and ``inv`` raise DomainError on each
    non-element of the membership battery."""
    rng = random.Random(19)
    e = G.identity()
    outsiders = [g for g in _membership_battery(G, rng) if not contains_reference(G, g)]
    assert outsiders
    for g in outsiders:
        for law in (lambda: G.mul(g, e), lambda: G.mul(e, g), lambda: G.inv(g)):
            with pytest.raises(DomainError):
                law()


def test_domain_checks_reject_foreign_elements():
    with pytest.raises(DomainError):
        FiniteCyclic(5).check(5)
    with pytest.raises(DomainError):
        IntVector(2).check((1,))
    with pytest.raises(DomainError):
        Heisenberg().check((1, 2))
    with pytest.raises(DomainError):
        DihedralFinite(4).check((4, 0))


def test_product_law_rejects_foreign_operands():
    """Pair shape is checked by the product, components by the factors."""
    P = Product(IntVector(1), DihedralFinite(4))
    good = ((1,), (1, 0))
    for bad in [(1, 2), ((1,), (1, 0), 0), [(1,), (1, 0)], ((1, 2), (1, 0)),
                ((1,), (4, 0)), ((1,), (1, 2))]:
        with pytest.raises(DomainError):
            P.mul(bad, good)
        with pytest.raises(DomainError):
            P.mul(good, bad)
        with pytest.raises(DomainError):
            P.inv(bad)


CHECKED_PRODUCTS = [
    Product(IntVector(1), DihedralFinite(4)), Product(IntVector(1), FiniteCyclic(3)),
    Product(FiniteCyclic(2), FiniteCyclic(4)), Product(Free(2), IntVector(1)),
]
_JUNK = [None, 1.5, "ab", 4, -1, (), (1.5,), (0, 2), (1, -1), (2, 0, 1), [0], [1, 0]]


def _operand(P):
    """An element of the product P, or a near miss of one: a non-tuple,
    a tuple of the wrong arity, a list, or a pair with a foreign component
    in either slot."""
    def component(F):
        element = st.integers(0, 1 << 16).map(lambda seed: random_element(F, random.Random(seed), 4))
        return st.one_of(element, element, st.sampled_from(_JUNK))

    pair = st.tuples(component(P.left), component(P.right))
    return st.one_of(
        pair, pair,
        st.sampled_from([None, 3, "ab", 1.5]),
        st.tuples(component(P.left)),
        st.tuples(component(P.left), component(P.right), component(P.right)),
        pair.map(list),
    )


def _assert_checked_product(P, g, h):
    """``mul`` is ``_mul`` on two elements; otherwise it raises the
    DomainError naming the first operand ``contains`` refuses."""
    if P.contains(g) and P.contains(h):
        assert P.mul(g, h) == P._mul(g, h)
        return
    bad = g if not P.contains(g) else h
    with pytest.raises(DomainError) as exc:
        P.mul(g, h)
    assert str(exc.value) == f"{bad!r} is not an element of {P}"


@settings(max_examples=150, deadline=None)
@given(st.data())
@pytest.mark.parametrize("P", CHECKED_PRODUCTS, ids=str)
def test_product_checked_law_on_drawn_operands(P, data):
    _assert_checked_product(P, data.draw(_operand(P)), data.draw(_operand(P)))


@pytest.mark.parametrize("P", CHECKED_PRODUCTS, ids=str)
def test_product_checked_law_names_each_foreign_slot(P):
    """A foreign component in each of the four slots of the two operands,
    and every malformed shape on either side."""
    rng = random.Random(29)
    g, h = random_element(P, rng, 4), random_element(P, rng, 4)
    cases = [(bad, h) for bad in (None, 3, (g[0],), (*g, g[1]), list(g))]
    cases += [(g, bad) for bad, _ in cases]
    for i, j in itertools.product(range(2), range(2)):
        factor = (P.left, P.right)[j]
        for junk in _JUNK:
            if not factor.contains(junk):
                operands = [list(g), list(h)]
                operands[i][j] = junk
                cases.append(tuple(map(tuple, operands)))
    for a, b in cases:
        assert not (P.contains(a) and P.contains(b))
        _assert_checked_product(P, a, b)


@pytest.mark.parametrize("G", [DihedralFinite(4), DihedralInfinite()], ids=str)
def test_dihedral_reflection_slot_takes_only_integers(G):
    """0.0 == 0 and 1.0 == 1, but neither is an integer: the law refuses
    them with DomainError rather than failing inside the arithmetic."""
    for bad in [(1, 1.0), (1, 0.0)]:
        assert not G.contains(bad)
        with pytest.raises(DomainError):
            G.mul(bad, bad)
        with pytest.raises(DomainError):
            G.inv(bad)


def test_cayley_table_validation():
    with pytest.raises(ValueError, match="identity"):
        CayleyTableGroup(names=("e", "a"), table=((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="inverse"):
        CayleyTableGroup(names=("e", "a"), table=((0, 1), (1, 1)))
    with pytest.raises(ValueError, match="associative"):
        # a*a = e but a*b = b breaks associativity: (a*a)*b != a*(a*b)
        CayleyTableGroup(names=("e", "a", "b"), table=((0, 1, 2), (1, 0, 1), (2, 2, 0)))
    with pytest.raises(ValueError, match="square"):
        CayleyTableGroup(names=("e",), table=((0, 0),))
    with pytest.raises(ValueError, match="nonempty"):
        CayleyTableGroup(names=(), table=())
    with pytest.raises(ValueError, match="element indices"):
        CayleyTableGroup(names=("e", "a"), table=((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="element indices"):
        CayleyTableGroup(names=("e", "a"), table=((0, 1), (1, -1)))


@pytest.mark.parametrize("names, table", [
    (["e", "a"], ((0, 1), (1, 0))),
    (("e", "a"), [(0, 1), (1, 0)]),
    (("e", "a"), ((0, 1), [1, 0])),
], ids=["names-list", "table-list", "row-list"])
def test_cayley_table_refuses_mutable_parts(names, table):
    """A list could be changed after the table was validated: with
    ``rows = [[0, 1], [1, 0]]`` and then ``rows[1][1] = 1``, element 1 would
    lose its inverse.  The constructor refuses lists, as GenSet does."""
    with pytest.raises(ValueError, match="must be tuples"):
        CayleyTableGroup(names=names, table=table)


def test_cayley_table_matches_cyclic_group():
    C = FiniteCyclic(3)
    for a in range(3):
        for b in range(3):
            assert Z3_TABLE.mul(a, b) == C.mul(a, b)


def _element_from_obj(G, obj):
    """The element whose ``element_to_obj`` form is ``obj``: lists become
    tuples, and a product's pair is read factor by factor."""
    if isinstance(G, Product):
        return (_element_from_obj(G.left, obj[0]), _element_from_obj(G.right, obj[1]))
    return tuple(obj) if isinstance(obj, list) else obj


@pytest.mark.parametrize("G", FAMILIES, ids=str)
def test_element_serialization_round_trip(G):
    rng = random.Random(13)
    for _ in range(30):
        g = random_element(G, rng, size=5)
        assert _element_from_obj(G, json.loads(json.dumps(G.element_to_obj(g)))) == g


@pytest.mark.parametrize("G", FAMILIES, ids=str)
def test_unchecked_json_form_is_the_checked_one(G):
    """``_obj``, which report rows call on an alphabet's letters, gives
    ``element_to_obj``'s form of every sampled element, and
    ``element_to_obj`` still refuses what is not an element."""
    rng = random.Random(19)
    for _ in range(30):
        g = random_element(G, rng, size=5)
        assert json.dumps(G._obj(g)) == json.dumps(G.element_to_obj(g))
    near = _near_miss(next(iter(G.standard_generators()), G.identity()))
    for bad in (near, "x", None):
        with pytest.raises(DomainError):
            G.element_to_obj(bad)


@pytest.mark.parametrize("G", [
    FiniteCyclic(5),
    IntVector(3),
    DihedralFinite(4),
    DihedralInfinite(),
    Heisenberg(),
    Product(IntVector(1), DihedralFinite(4)),
], ids=str)
def test_flat_encoding_round_trip(G):
    rng = random.Random(17)
    for _ in range(30):
        g = random_element(G, rng, size=5)
        flat = []

        def walk(H, x):
            if isinstance(H, Product):
                walk(H.left, x[0])
                walk(H.right, x[1])
            elif isinstance(x, tuple):
                flat.extend(x)
            else:
                flat.append(x)

        walk(G, g)
        assert gr.element_from_flat(G, tuple(flat)) == g


def test_flat_encoding_reduces_modular_slots():
    assert gr.element_from_flat(FiniteCyclic(5), (7,)) == 2
    assert gr.element_from_flat(DihedralFinite(4), (-1, 3)) == (3, 1)


@pytest.mark.parametrize("G, flat", [
    (FiniteCyclic(5), (1.5,)),
    (Heisenberg(), ("a", 2, 3)),
    (DihedralFinite(4), ("a", 1)),
    (Z3_TABLE, (3,)),
    (IntVector(2), (1, 2, 3)),
], ids=str)
def test_flat_encoding_rejects_non_elements(G, flat):
    """element_from_flat checks the element it builds, not only the arity."""
    with pytest.raises(DomainError):
        gr.element_from_flat(G, flat)


def test_flat_encoding_needs_a_flat_family():
    with pytest.raises(UnsupportedFamilyError):
        gr.element_from_flat(Free(2), (1,))
    with pytest.raises(UnsupportedFamilyError):
        gr.element_from_flat(Product(IntVector(1), Free(2)), (1, 1))


def test_every_family_is_registered_and_tested():
    """Every concrete family is in FAMILIES, so a new family cannot skip the
    law, membership and encoding tests above."""
    assert {type(G) for G in FAMILIES} == set(concrete_families())


def _has_no_split(G):
    """Whether G is, or has a factor that is, a Heisenberg or free group."""
    if isinstance(G, Product):
        return _has_no_split(G.left) or _has_no_split(G.right)
    return isinstance(G, (Heisenberg, Free))


@pytest.mark.parametrize("G", FAMILIES + [
    Product(Heisenberg(), FiniteCyclic(2)),
    Product(DihedralInfinite(), Free(1)),
    Product(IntVector(2), DihedralInfinite()),
    Product(DihedralInfinite(), DihedralFinite(3)),
    Product(Product(IntVector(1), FiniteCyclic(2)), DihedralInfinite()),
    # a trivial finite factor on either side, under a nontrivial action
    Product(DihedralFinite(4), IntVector(1)),
    Product(DihedralInfinite(), IntVector(2)),
    Product(FiniteCyclic(1), DihedralInfinite()),
    Product(IntVector(1), IntVector(1)),
], ids=str)
def test_lattice_split_is_a_homomorphism(G):
    """split(gh) = (a + act(f, b), fu) on seeded pairs, the split is
    injective on them, and only Heisenberg and free groups (alone or as a
    factor) have none."""
    found = G.lattice_split()
    if _has_no_split(G):
        assert found is None
        return
    k, F, split, act = found
    assert F.is_finite
    assert split(G.identity()) == ((0,) * k, F.identity())
    rng = random.Random(41)
    seen = {}
    for _ in range(300):
        g = random_element(G, rng, size=6)
        h = random_element(G, rng, size=6)
        (a, f), (b, u) = split(g), split(h)
        assert len(a) == k and all(isinstance(x, int) for x in a) and F.contains(f)
        moved = b if act is None else act(f, b)
        assert split(G.mul(g, h)) == (tuple(x + y for x, y in zip(a, moved)), F.mul(f, u))
        assert seen.setdefault(split(g), g) == g


@pytest.mark.parametrize("G, F", [
    (Product(IntVector(1), DihedralFinite(4)), DihedralFinite(4)),
    (Product(DihedralFinite(4), IntVector(1)), DihedralFinite(4)),
    (Product(IntVector(2), DihedralInfinite()), FiniteCyclic(2)),
    (Product(DihedralInfinite(), IntVector(2)), FiniteCyclic(2)),
    (Product(IntVector(1), IntVector(1)), FiniteCyclic(1)),
    (Product(FiniteCyclic(1), FiniteCyclic(1)), FiniteCyclic(1)),
    (Product(Product(IntVector(1), FiniteCyclic(2)), DihedralInfinite()),
     Product(FiniteCyclic(2), FiniteCyclic(2))),
    (Product(FiniteCyclic(2), FiniteCyclic(4)), Product(FiniteCyclic(2), FiniteCyclic(4))),
], ids=str)
def test_product_split_drops_a_trivial_finite_factor(G, F):
    """A product splits over its factors' finite parts with every part of
    size 1 dropped, unless nothing else is left."""
    assert G.lattice_split()[1] == F


def test_standard_generators_generate():
    for G in [FiniteCyclic(5), DihedralFinite(4),
              Product(DihedralFinite(4), FiniteCyclic(3))]:
        assert len(gr.closure(G, G.standard_generators())) == G.size


def test_closure_of_proper_subgroup():
    G = FiniteCyclic(8)
    assert sorted(gr.closure(G, [2])) == [0, 2, 4, 6]
    D = DihedralFinite(4)
    assert len(gr.closure(D, [(0, 1)])) == 2


@pytest.mark.parametrize("G", [IntVector(1), Free(2), Heisenberg(), DihedralInfinite()], ids=str)
def test_closure_refuses_an_infinite_group(G):
    with pytest.raises(UnsupportedFamilyError, match="finite group"):
        gr.closure(G, G.standard_generators())


@pytest.mark.parametrize("G", FINITE_GROUPS, ids=str)
def test_closure_matches_full_walk(G):
    """Seeded lists of zero to four elements, repeats and the identity
    allowed, and the whole group: the same set as a walk with no stop."""
    rng = random.Random(G.size)
    elems = list(G.elements())
    lists = [elems] + [[rng.choice(elems) for _ in range(n % 5)] for n in range(30)]
    for chosen in lists:
        assert gr.closure(G, chosen) == closure_full_walk(G, chosen)


def test_closure_stops_once_it_holds_the_whole_group(monkeypatch):
    """D8 from all seven non-identity elements is whole after the identity's
    7 products; the full walk makes 56.  From s and r it is whole at the
    second product of layer 3: 8 products, where the full walk makes 16."""
    G = DihedralFinite(4)
    calls = []
    real = DihedralFinite._mul
    monkeypatch.setattr(DihedralFinite, "_mul", lambda self, g, h: calls.append(None) or real(self, g, h))
    assert len(gr.closure(G, [x for x in G.elements() if x != G.identity()])) == 8
    assert len(calls) == 7
    calls.clear()
    assert len(gr.closure(G, [(0, 1), (1, 0)])) == 8
    assert len(calls) == 8


def test_closure_checks_its_inputs():
    """closure multiplies unchecked, so it checks each input first."""
    for G, bad in [(FiniteCyclic(8), 8), (DihedralFinite(4), (1, 2)),
                   (Product(FiniteCyclic(2), DihedralFinite(3)), (1, (3, 0)))]:
        with pytest.raises(DomainError):
            gr.closure(G, [bad])
        with pytest.raises(DomainError):
            gr.closure(G, [G.identity(), bad])
