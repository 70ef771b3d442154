"""Alphabet construction, Smith normal form and generation decisions."""

import random
from math import gcd

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as snf_reference
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    FINITE_GROUPS,
    MUTATION_GROUPS,
    alphabet_mutations,
    fold_charges_per_node,
    free_generation_certificate,
    generates_split_reference,
    generates_split_tuples,
    genset_is_valid_reference,
    make_symmetric_reference,
    mixed_magnitude_element,
    quaternion_table,
    random_element,
)

from wordbound import groups as gr
from wordbound.errors import DomainError, EmptyGenSetError, ResourceLimitExceeded
from wordbound.gensets import (
    GenSet,
    _generates_split,
    _smith,
    dihedral_mod,
    generates,
    heisenberg_abelianization,
    int_mod,
    invariant_factors,
    inverse_pair_classes,
    make_symmetric,
    project_genset,
    project_left,
    project_right,
    smith_normal_form,
)
from wordbound.experiments import sample_zxd8_genset, uniform_length_table
from wordbound.metric import TABULATED_MAX_ORDER, _Budget, _split
from wordbound.metric import word_length


# -- make_symmetric ------------------------------------------------------


def test_make_symmetric_inserts_inverses_adjacently():
    Z = gr.IntVector(1)
    S = make_symmetric(Z, [(2,), (3,)])
    assert S.letters == ((2,), (-2,), (3,), (-3,))
    assert [S.inv_symbol(i) for i in S.symbols()] == [1, 0, 3, 2]


def test_make_symmetric_is_idempotent():
    Z = gr.IntVector(1)
    S = make_symmetric(Z, [(2,), (3,)])
    again = make_symmetric(Z, list(S.letters))
    assert again == S


def test_make_symmetric_drops_identity_and_duplicates():
    Z = gr.IntVector(1)
    S = make_symmetric(Z, [(0,), (2,), (2,), (-2,)])
    assert S.letters == ((2,), (-2,))
    with pytest.raises(EmptyGenSetError, match="all proposed generators were the identity"):
        make_symmetric(Z, [(0,)])


def test_make_symmetric_of_no_elements_says_none_were_proposed():
    """An empty list or iterator gets its own message, not the all-identity
    one, and the same error class."""
    Z = gr.IntVector(1)
    for empty in ([], iter(())):
        with pytest.raises(EmptyGenSetError, match="^no generators were proposed$"):
            make_symmetric(Z, empty)


ALPHABET_GROUPS = [
    gr.FiniteCyclic(1), gr.FiniteCyclic(8), gr.IntVector(1), gr.IntVector(3),
    gr.DihedralFinite(4), gr.DihedralInfinite(), gr.Heisenberg(), gr.Free(1), gr.Free(2),
    gr.Product(gr.IntVector(1), gr.DihedralFinite(4)),
    gr.Product(gr.Free(2), gr.FiniteCyclic(2)),
    gr.Product(gr.DihedralInfinite(), gr.Product(gr.FiniteCyclic(2), gr.FiniteCyclic(2))),
    gr.CayleyTableGroup(names=("e", "g", "g2"), table=((0, 1, 2), (1, 2, 0), (2, 0, 1))),
    quaternion_table(),
]


@pytest.mark.parametrize("G", ALPHABET_GROUPS, ids=str)
def test_make_symmetric_matches_reference(G):
    """Same letters and involution as the single-loop original on seeded
    lists of fresh elements, repeats, identities and inverses of earlier
    elements, in every family."""
    rng = random.Random(16)
    for _ in range(80):
        elements = []
        for _ in range(rng.randint(1, 8)):
            kind = rng.randrange(4) if elements else 0
            if kind == 0:
                elements.append(random_element(G, rng, 3))
            elif kind == 1:
                elements.append(rng.choice(elements))
            elif kind == 2:
                elements.append(G.inv(rng.choice(elements)))
            else:
                elements.append(G.identity())
        try:
            expected = make_symmetric_reference(G, elements)
        except EmptyGenSetError:
            with pytest.raises(EmptyGenSetError):
                make_symmetric(G, elements)
            continue
        S = make_symmetric(G, elements)
        assert (S.letters, S.involution) == (expected.letters, expected.involution)


def test_make_symmetric_checks_every_element():
    """An element is checked even where an earlier copy or the identity
    would have it skipped."""
    Z = gr.IntVector(1)
    for bad in ([2], (2.0,), [0], (0.0,)):
        with pytest.raises(DomainError):
            make_symmetric(Z, [(2,), bad])


@pytest.mark.parametrize("G", FINITE_GROUPS, ids=str)
def test_inverse_pair_classes_partition_the_group(G):
    """The classes of G's elements, in any order, partition G minus the
    identity into sets closed under inversion; ``GenSet.from_classes`` pairs
    each letter with the letter of its inverse."""
    elements = list(G.elements())
    rng = random.Random(16)
    for _ in range(4):
        classes = inverse_pair_classes(G, elements + elements)
        members = [x for c in classes for x in c]
        assert len(members) == len(set(members)) == G.size - 1
        assert set(members) == set(elements) - {G.identity()}
        assert all({G.inv(x) for x in c} == set(c) for c in classes)
        S = GenSet.from_classes(G, classes)
        assert S.letters == tuple(members)
        assert all(S.element(S.inv_symbol(i)) == G.inv(S.element(i)) for i in S.symbols())
        assert all(S.inv_symbol(S.inv_symbol(i)) == i for i in S.symbols())
        rng.shuffle(elements)


def test_cardinality_counts_distinct_elements():
    Z = gr.IntVector(1)
    assert make_symmetric(Z, [(1,)]).cardinality == 2
    D = gr.DihedralFinite(4)
    S = make_symmetric(D, [(1, 0), (0, 1)])
    # r, r^-1, s: the involution letter is not doubled
    assert S.cardinality == 3
    assert S.inv_symbol(S.symbol_of((0, 1))) == S.symbol_of((0, 1))


def test_eval_word():
    Z = gr.IntVector(1)
    S = make_symmetric(Z, [(2,), (3,)])
    assert S.eval_word(()) == (0,)
    assert S.eval_word((0, 0, 3)) == (1,)


# -- Smith normal form ---------------------------------------------------


def _random_matrix(rng, r, c, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def _matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def test_snf_known_example():
    D, U, V = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    assert [D[i][i] for i in range(3)] == [2, 6, 12]


def test_snf_against_sympy_and_transform_identity():
    rng = random.Random(23)
    for _ in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        M = _random_matrix(rng, r, c)
        D, U, V = smith_normal_form(M)
        # U * M * V == D with unimodular transforms
        assert tuple(tuple(row) for row in _matmul(_matmul(list(map(list, U)), M),
                                                   list(map(list, V)))) == D
        assert abs(sympy.Matrix(U).det()) == 1
        assert abs(sympy.Matrix(V).det()) == 1
        # divisibility chain and nonnegative diagonal
        diag = [D[i][i] for i in range(min(r, c))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 or (a != 0 and b % a == 0) or (a == 0 and b == 0)
        ref = snf_reference(sympy.Matrix(M))
        expected = [abs(int(ref[i, i])) for i in range(min(r, c))]
        assert sorted(v for v in expected if v) == [v for v in diag if v]


def test_snf_of_huge_entries_finishes():
    """Entries near 10^30 and 2^64: the diagonal is sympy's and U M V = D.
    Clearing the first matrix by division, with each remainder swapped in
    as the pivot, grows its entries to thousands of digits within a few
    steps."""
    big = [10**30, -10**30, 10**30 + 1, -3 * 10**29 + 5, 2**64, 7, -12, 0, 1]
    rng = random.Random(31)
    cases = [[[2**64, 0, 0, 2**64], [10**30, -10**30, -3 * 10**29 + 5, 0]]]
    cases += [[[rng.choice(big) for _ in range(c)] for _ in range(r)]
              for r, c in [(rng.randint(1, 3), rng.randint(1, 6)) for _ in range(60)]]
    for M in cases:
        D, U, V = smith_normal_form(M)
        assert tuple(tuple(row) for row in _matmul(_matmul(list(map(list, U)), M),
                                                   list(map(list, V)))) == D
        ref = snf_reference(sympy.Matrix(M))
        assert invariant_factors(M) == sorted(
            abs(int(ref[i, i])) for i in range(min(ref.shape)) if ref[i, i]), M


def test_invariant_factors():
    assert invariant_factors([[1, 0], [0, 1]]) == [1, 1]
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert invariant_factors([[0, 0], [0, 0]]) == []


def _seeded_shapes(rng):
    """300 matrices: random shapes, 1 x n with n <= 40, n x 1, all-zero and
    rank-deficient ones (a row repeated as a multiple of another)."""
    out = []
    for i in range(300):
        kind = i % 5
        if kind == 0:
            M = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        elif kind == 1:
            M = _random_matrix(rng, 1, rng.randint(1, 40), -30, 30)
        elif kind == 2:
            M = _random_matrix(rng, rng.randint(1, 12), 1, -30, 30)
        elif kind == 3:
            M = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 0, 0)
        else:
            M = _random_matrix(rng, rng.randint(1, 3), rng.randint(2, 5))
            M.append([rng.randint(-3, 3) * x for x in M[0]])
            rng.shuffle(M)
        out.append(M)
    return out


def test_invariant_factors_match_both_smith_forms():
    """invariant_factors skips the transforms but finds the same diagonal
    as smith_normal_form and as sympy."""
    for M in _seeded_shapes(random.Random(29)):
        D, _, _ = smith_normal_form(M)
        diag = [D[i][i] for i in range(min(len(M), len(M[0])))]
        factors = invariant_factors(M)
        assert factors == [d for d in diag if d], M
        ref = snf_reference(sympy.Matrix(M))
        assert factors == sorted(abs(int(ref[i, i])) for i in range(min(ref.shape)) if ref[i, i])


def _one_rows(rng):
    """Seeded 1 x n matrices: all-zero rows, single entries, negative
    entries, entries of size 2^80 and mixtures of them."""
    big = 1 << 80
    rows = [[0], [0] * 7, [5], [-5], [1], [-1], [big], [-big], [big, 0, -big],
            [0, 0, 3 * big], [6 * big, -10 * big, 15 * big], [big, big + 1]]
    for i in range(200):
        n = rng.randint(1, 12)
        lo, hi = [(-30, 30), (0, 0), (-big, big), (-4, 4)][i % 4]
        rows.append([rng.randint(lo, hi) * rng.choice([1, 2, 6]) for _ in range(n)])
    return [[row] for row in rows]


def test_one_row_invariant_factors_is_the_gcd():
    """On one row, invariant_factors takes the gcd and skips the
    elimination; it must agree with the elimination and with sympy."""
    for M in _one_rows(random.Random(30)):
        factors = invariant_factors(M)
        D, _, _ = _smith(M, transforms=False)
        assert factors == ([D[0][0]] if D[0][0] else []), M
        ref = snf_reference(sympy.Matrix(M))
        assert factors == ([abs(int(ref[0, 0]))] if ref[0, 0] else []), M
    with pytest.raises(ValueError):
        invariant_factors([[]])


# -- generation decisions ------------------------------------------------


def _symm(G, elems):
    return make_symmetric(G, elems)


def test_generates_finite():
    G = gr.DihedralFinite(4)
    assert generates(G, _symm(G, [(1, 0), (0, 1)])).is_yes
    res = generates(G, _symm(G, [(2, 0), (0, 1)]))
    assert res.is_no
    assert res.evidence["closure_size"] == 4


def test_generates_lattice():
    Z = gr.IntVector(1)
    assert generates(Z, _symm(Z, [(2,), (3,)])).is_yes
    assert generates(Z, _symm(Z, [(2,), (4,)])).is_no
    Z2 = gr.IntVector(2)
    assert generates(Z2, _symm(Z2, [(2, 1), (1, 1)])).is_yes
    assert generates(Z2, _symm(Z2, [(2, 0), (0, 2)])).is_no
    assert generates(Z2, _symm(Z2, [(1, 1)])).is_no


def test_generates_abelian_product():
    G = gr.Product(gr.IntVector(1), gr.FiniteCyclic(2))
    assert generates(G, _symm(G, [((5,), 1), ((3,), 0)])).is_yes
    assert generates(G, _symm(G, [((2,), 1), ((4,), 0)])).is_no  # even Z-parts
    assert generates(G, _symm(G, [((1,), 0)])).is_no  # misses torsion


def test_generates_z_cross_nonabelian():
    G = gr.Product(gr.IntVector(1), gr.DihedralFinite(4))
    good = _symm(G, [((1,), (1, 0)), ((0,), (0, 1)), ((1,), (0, 1))])
    assert generates(G, good).is_yes
    # finite parts generate D8, but n + (r-exponent) mod 2 obstructs (1, e)
    res = generates(G, _symm(G, [((1,), (1, 0)), ((0,), (0, 1))]))
    assert res.is_no
    assert res.evidence["translation_gcd"] == 2
    bad = _symm(G, [((2,), (1, 0)), ((0,), (0, 1))])
    res = generates(G, bad)
    assert res.is_no
    assert res.evidence["translation_gcd"] == 4
    # finite image too small
    assert generates(G, _symm(G, [((1,), (2, 0)), ((0,), (0, 1))])).is_no


def test_generates_dihedral_infinite():
    G = gr.DihedralInfinite()
    assert generates(G, _symm(G, [(0, 1), (1, 1)])).is_yes
    assert generates(G, _symm(G, [(0, 1), (2, 1), (3, 1)])).is_yes
    assert generates(G, _symm(G, [(2, 0), (0, 1)])).is_no
    assert generates(G, _symm(G, [(1, 0)])).is_no  # no reflection


def test_generates_heisenberg():
    G = gr.Heisenberg()
    assert generates(G, _symm(G, [(1, 0, 0), (0, 1, 0)])).is_yes
    assert generates(G, _symm(G, [(2, 0, 0), (0, 1, 0)])).is_no
    assert generates(G, _symm(G, [(2, 0, 0), (3, 0, 0), (0, 1, 0)])).is_yes


def test_generates_free():
    G = gr.Free(2)
    assert generates(G, _symm(G, [(1,), (2,)])).is_yes
    res = generates(G, _symm(G, [(1, 1), (2,)]))  # index 2
    assert res.is_no
    assert res.evidence["folded_vertices"] == 2


def _nielsen_basis(G, rng, moves):
    """A basis of the free group G: random Nielsen moves x_i -> x_i x_j^+-1
    or x_j^+-1 x_i applied to the standard one, or x_1 -> x_1^-1 in rank 1."""
    basis = [G.generator(i) for i in range(1, G.k + 1)]
    for _ in range(moves):
        if G.k == 1:
            basis[0] = G.inv(basis[0])
            continue
        i, j = rng.sample(range(G.k), 2)
        y = basis[j] if rng.randrange(2) else G.inv(basis[j])
        basis[i] = G.mul(basis[i], y) if rng.randrange(2) else G.mul(y, basis[i])
    return basis


def test_generates_free_matches_independent_certificates():
    """Over F1, F2 and F3 the fold's verdict equals a certificate found
    apart from it (``oracles.free_generation_certificate``): witness words
    for every basis letter, or a homomorphism to a small symmetric group
    that the letters do not map onto.  The draws are Nielsen bases, proper
    subsets of them, bases with one more element, and random sets of short
    words; every one is certified."""
    rng = random.Random(23)
    verdicts = []
    for G in (gr.Free(1), gr.Free(2), gr.Free(3)):
        for trial in range(120):
            kind = trial % 4
            letters = _nielsen_basis(G, rng, rng.randint(0, 3))
            if kind == 1:
                if G.k == 1:
                    continue  # the only proper subset is empty
                letters = rng.sample(letters, rng.randrange(1, G.k))
            elif kind == 2:
                letters.append(random_element(G, rng, size=3))
            elif kind == 3:
                letters = [random_element(G, rng, size=3) for _ in range(rng.randint(1, G.k + 1))]
                if all(x == G.identity() for x in letters):
                    continue
            S = make_symmetric(G, letters)
            res = generates(G, S)
            assert free_generation_certificate(G, S, rng) == res.status, letters
            verdicts.append(res.status)
    assert len(verdicts) >= 300
    assert set(verdicts) == {"yes", "no"}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=4))
def test_generates_free_rank_one_is_a_gcd(exponents):
    """In F1, {x^n_1, x^n_2, ...} generates exactly when gcd(n_i) = 1."""
    G = gr.Free(1)
    if not any(exponents):
        return
    S = make_symmetric(G, [G.power((1,), n) for n in exponents])
    assert generates(G, S).status == ("yes" if gcd(*exponents) == 1 else "no")


@pytest.mark.parametrize("G", [
    gr.Product(gr.Free(2), gr.FiniteCyclic(2)),
    gr.Product(gr.Heisenberg(), gr.IntVector(1)),
], ids=str)
def test_generates_is_inconclusive_without_a_procedure(G):
    S = make_symmetric(G, G.standard_generators())
    res = generates(G, S)
    assert res.status == "inconclusive"
    assert res.reason == f"no decision procedure for {G}"


@pytest.mark.parametrize("G, letters", [
    (gr.Free(2), [(1, 2), (2,)]),
    (gr.Free(2), [(1,) * 7, (2, -1, 2), (1, 1, 2)]),
    (gr.Free(3), [(1, -2, 3, 3), (2,), (3, -1) * 4, (1,)]),
], ids=str)
def test_fold_refuses_at_every_limit_like_the_charged_reference(G, letters, monkeypatch):
    """At every limit from the base vertex's charge up to the first that
    completes, the Stallings fold refuses with the ``partial_radius`` and
    ``explored`` of a walk that charges each vertex it stores by its own
    ``charge`` call (``oracles.fold_charges_per_node``), and the first
    limit the reference passes gives the unlimited result.  Each vertex
    past the base is refused once, with the vertices stored before it."""
    S = make_symmetric(G, letters)
    want = generates(G, S)

    def outcome(call):
        try:
            call()
        except ResourceLimitExceeded as exc:
            return exc.partial_radius, exc.explored
        return None

    limit = _Budget.cost(0)
    refusals = set()
    while True:
        monkeypatch.setenv("WORDBOUND_MEM_LIMIT", str(limit))
        got = outcome(lambda: fold_charges_per_node(S))
        assert outcome(lambda: generates(G, S)) == got, limit
        if got is None:
            break
        refusals.add(got)
        limit += 1
    assert generates(G, S) == want
    assert refusals == {(0, n) for n in range(1, want.evidence["vertices"])}


def test_generates_free_witness_search_respects_memory_limit(monkeypatch):
    G = gr.Free(2)
    S = make_symmetric(G, [(1, 2), (2,)])  # x1 x2 adds a vertex to the graph
    monkeypatch.setenv("WORDBOUND_MEM_LIMIT", "1")
    with pytest.raises(ResourceLimitExceeded) as exc:
        generates(G, S)
    assert exc.value.partial_radius == 0


def test_generates_heisenberg_is_exact():
    """Yes exactly when the abelianized letters generate Z^2, and then the
    commutators already reach the center: no alphabet is inconclusive."""
    G = gr.Heisenberg()
    rng = random.Random(29)
    for _ in range(300):
        letters = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(rng.randint(1, 3))]
        if all(x == G.identity() for x in letters):
            continue
        S = make_symmetric(G, letters)
        surjects = invariant_factors([[x[0] for x in S.letters], [x[1] for x in S.letters]]) == [1, 1]
        res = generates(G, S)
        assert res.status == ("yes" if surjects else "no")
        if surjects:
            exponents = res.evidence["central_exponents"]
            assert all(G.commutator(x, y)[2] in exponents + [0] for x in S.letters for y in S.letters)
            assert sympy.igcd(*exponents) == 1


def _mod_translations(G, g, m):
    """g with its translation coordinates reduced mod m: the quotient map
    G -> G / mZ^k, written per family apart from ``lattice_split``."""
    if isinstance(G, gr.Product):
        return (_mod_translations(G.left, g[0], m), _mod_translations(G.right, g[1], m))
    if isinstance(G, gr.IntVector):
        return tuple(x % m for x in g)
    if isinstance(G, gr.DihedralInfinite):
        return (g[0] % m, g[1])
    return g


def _quotient_closure_size(G, letters, m):
    reached = {_mod_translations(G, G.identity(), m)}
    frontier = list(reached)
    while frontier:
        nxt = []
        for g in frontier:
            for x in letters:
                h = _mod_translations(G, G.mul(g, x), m)
                if h not in reached:
                    reached.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(reached)


def _translation(G, v):
    """The element translating by the leading coordinates of v, and the
    coordinates left over."""
    if isinstance(G, gr.Product):
        left, v = _translation(G.left, v)
        right, v = _translation(G.right, v)
        return (left, right), v
    if isinstance(G, gr.IntVector):
        return tuple(v[:G.d]), v[G.d:]
    if isinstance(G, gr.DihedralInfinite):
        return (v[0], 0), v[1:]
    return G.identity(), v


@pytest.mark.parametrize("G", [
    gr.Product(gr.IntVector(1), gr.DihedralInfinite()),
    gr.Product(gr.IntVector(2), gr.DihedralFinite(4)),
    gr.Product(gr.DihedralInfinite(), gr.FiniteCyclic(3)),
], ids=str)
def test_generation_verdicts_match_a_search_oracle(G):
    """On seeded alphabets every verdict is exact and confirmed apart from
    the Schreier walk.  Yes: every standard generator has a finite word
    length.  No: the letters miss part of G/Z^k (the finite parts generate a
    proper subgroup), or of G/mZ^k for the reported kernel index m (2 when
    the kernel has lower rank), and mZ^k is reached when m is finite."""
    k = G.lattice_split()[0]
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    rng = random.Random(str(G))
    verdicts = set()
    for _ in range(60):
        letters = [random_element(G, rng, size=2) for _ in range(rng.randint(2, 4))]
        if all(x == G.identity() for x in letters):
            continue
        S = make_symmetric(G, letters)
        res = generates(G, S)
        verdicts.add(res.status)
        if res.is_yes:
            for x in G.standard_generators():
                assert word_length(G, S, x, cap=24).length is not None
            continue
        assert res.is_no
        whole = G.standard_generators()
        if _quotient_closure_size(G, S.letters, 1) < _quotient_closure_size(G, whole, 1):
            continue
        m = res.evidence["kernel_index"]
        assert m != 1
        q = m or 2
        assert _quotient_closure_size(G, S.letters, q) < _quotient_closure_size(G, whole, q)
        for v in units if m else []:
            target, rest = _translation(G, [m * x for x in v])
            assert rest == []
            assert word_length(G, S, target, cap=24).length is not None
    assert verdicts == {"yes", "no"}


@pytest.mark.parametrize("G", [
    gr.Product(gr.IntVector(1), gr.DihedralFinite(4)),
    gr.Product(gr.IntVector(1), gr.FiniteCyclic(2)),
    gr.Product(gr.IntVector(1), gr.FiniteCyclic(3)),
    gr.Product(gr.IntVector(2), gr.DihedralInfinite()),
], ids=str)
def test_generates_matches_the_split_that_keeps_trivial_factors(G):
    """Dropping the trivial finite factor changes neither the verdict nor
    the closure, kernel index and invariant factors, against a Schreier walk
    over the split that keeps it and a full Smith normal form."""
    rng = random.Random(str(G))
    statuses = set()
    for _ in range(80):
        letters = [random_element(G, rng, size=3) for _ in range(rng.randint(1, 4))]
        if all(x == G.identity() for x in letters):
            continue
        S = make_symmetric(G, letters)
        res = generates(G, S)
        got = {"status": res.status, **{key: res.evidence[key] for key in (
            "closure_size", "kernel_index", "invariant_factors")}}
        assert got == generates_split_reference(G, S), S.letters
        statuses.add(res.status)
    assert statuses == {"yes", "no"}


_DINF = gr.DihedralInfinite()
# Splits of lattice rank k = 0 to 3, with F acting on the translations and
# without.
RANK_GROUPS = [
    gr.DihedralFinite(4),
    gr.Product(gr.FiniteCyclic(2), gr.FiniteCyclic(6)),
    gr.Product(gr.IntVector(1), gr.DihedralFinite(4)),
    _DINF,
    gr.IntVector(2),
    gr.Product(gr.IntVector(1), _DINF),
    gr.Product(gr.IntVector(2), gr.FiniteCyclic(3)),
    gr.Product(gr.IntVector(2), _DINF),
    gr.Product(_DINF, gr.Product(gr.IntVector(1), _DINF)),
    # F past metric.TABULATED_MAX_ORDER, walked on its elements
    gr.Product(gr.IntVector(1), gr.FiniteCyclic(70)),
    gr.Product(_DINF, gr.FiniteCyclic(40)),
]


def _split_parts(G, S):
    """The split parts of one letter per inverse pair, as ``generates``
    hands them to the Schreier walk, and G's split record."""
    split = _split(G)
    return [split.part(x) for sym, x in enumerate(S.letters) if S.involution[sym] >= sym], split


@pytest.mark.parametrize("G", RANK_GROUPS, ids=str)
def test_integer_walk_is_exact_on_huge_translations(G):
    """The walk on integer translations gives the tuple walk's status,
    reason and evidence, and the full Smith normal form's closure, index
    and invariant factors, for translations of +-10^30 and mixed
    magnitudes; half the alphabets add G's standard generators, so both
    verdicts occur wherever Z^k is not trivial."""
    rng = random.Random(str(G))
    statuses = set()
    for i in range(40):
        letters = [mixed_magnitude_element(G, rng) for _ in range(rng.randint(1, 4))]
        if i % 2:
            letters += G.standard_generators()
        if all(x == G.identity() for x in letters):
            continue
        S = make_symmetric(G, letters)
        parts, split = _split_parts(G, S)
        got = _generates_split(parts, split)
        want = generates_split_tuples(parts, split.k, split.F, split.act)
        assert (got.status, got.reason, got.evidence) == (want.status, want.reason, want.evidence)
        assert generates(G, S) == got
        assert {"status": got.status, **{key: got.evidence[key] for key in (
            "closure_size", "kernel_index", "invariant_factors")}} == generates_split_reference(G, S)
        statuses.add(got.status)
    assert statuses == {"yes", "no"}


@pytest.mark.parametrize("q", [10, 10**6])
def test_walk_acts_only_on_the_elements_it_reaches(q):
    """In D-infinity x Z/q the alphabet {t, s} reaches the 2 elements of
    F = Z/2 x Z/q that s spans.  With F past the table's cap (q = 10^6, 2·10^6
    elements) the walk applies F's action at most once per element reached
    and class, not to every element of F; tabulated (q = 10) or not, its
    result is the tuple walk's."""
    G = gr.Product(_DINF, gr.FiniteCyclic(q))
    S = make_symmetric(G, [((1, 0), 0), ((0, 1), 0)])
    parts, split = _split_parts(G, S)
    k, F, act = split.k, split.F, split.act
    calls = []

    def counted(f, v):
        calls.append(f)
        return act(f, v)

    got = _generates_split(parts, split._replace(act=counted))
    want = generates_split_tuples(parts, k, F, act)
    assert (got.status, got.reason, got.evidence) == (want.status, want.reason, want.evidence)
    assert got.is_no and got.evidence["closure_size"] == 2
    assert generates(G, S) == got
    if F.size > TABULATED_MAX_ORDER:
        assert 0 < len(calls) <= got.evidence["closure_size"] * len(parts)


@pytest.mark.parametrize("G, letters", [
    (gr.Product(gr.IntVector(1), gr.DihedralFinite(4)), [((1,), (0, 0)), ((0,), (1, 0)), ((0,), (0, 1))]),
    (gr.Product(gr.IntVector(1), gr.DihedralFinite(4)), [((2,), (1, 0)), ((3,), (0, 1))]),
    (_DINF, [(0, 1), (2, 1), (3, 1)]),
    (_DINF, [(0, 1), (4, 1), (-6, 0)]),
    (gr.Product(gr.IntVector(2), _DINF), [((1, 0), (0, 0)), ((0, 1), (0, 1)), ((0, 0), (1, 1))]),
    (gr.Product(gr.IntVector(2), _DINF), [((2, 1), (3, 1)), ((1, -1), (0, 1)), ((0, 5), (2, 0))]),
    (gr.Product(gr.FiniteCyclic(2), gr.FiniteCyclic(6)), [(1, 0), (0, 1)]),
    (gr.Product(gr.FiniteCyclic(2), gr.FiniteCyclic(6)), [(1, 3), (0, 2)]),
    (gr.Product(_DINF, gr.FiniteCyclic(40)), [((0, 1), 10), ((3, 0), 20)]),
], ids=str)
def test_walk_refuses_at_every_limit_like_the_charged_reference(G, letters, monkeypatch):
    """At every limit from the root's charge up to the first that
    completes, ``generates`` refuses with the ``partial_radius`` and
    ``explored`` of the tuple walk that charges each node by its own
    ``_Budget.charge`` call, or returns the same result."""
    S = make_symmetric(G, letters)
    parts, split = _split_parts(G, S)
    k, F, act = split.k, split.F, split.act

    def outcome(walk):
        try:
            res = walk()
        except ResourceLimitExceeded as exc:
            return exc.partial_radius, exc.explored
        return res.status, res.reason, res.evidence

    limit = _Budget.cost(F.identity())
    refusals = set()
    while True:
        monkeypatch.setenv("WORDBOUND_MEM_LIMIT", str(limit))
        got = outcome(lambda: generates(G, S))
        assert got == outcome(lambda: generates_split_tuples(parts, k, F, act)), limit
        if len(got) == 3:
            break
        refusals.add(got)
        limit += 1
    assert len(refusals) > 1


def test_zxd8_reasons_name_d8():
    G = gr.Product(gr.IntVector(1), gr.DihedralFinite(4))
    no = generates(G, make_symmetric(G, [((1,), (0, 0)), ((0,), (1, 0))]))
    assert no.reason == "the finite parts generate a proper subgroup of D8"
    assert no.evidence["finite_group_size"] == 8
    assert no.evidence["missing"] == (0, 1)
    yes = generates(G, make_symmetric(G, [((1,), (0, 0)), ((0,), (1, 0)), ((0,), (0, 1))]))
    assert yes.reason == "the finite parts generate D8 and the translation kernel is Z^1"


@pytest.mark.parametrize("G", [
    gr.FiniteCyclic(6),
    gr.DihedralFinite(4),
    gr.Product(gr.DihedralFinite(3), gr.FiniteCyclic(2)),
    gr.CayleyTableGroup(names=("e", "g", "g2"), table=((0, 1, 2), (1, 2, 0), (2, 0, 1))),
], ids=str)
def test_generates_matches_closure_on_finite_groups(G):
    rng = random.Random(43)
    elements = [x for x in G.elements() if x != G.identity()]
    for _ in range(60):
        S = make_symmetric(G, rng.sample(elements, rng.randint(1, min(3, len(elements)))))
        closed = gr.closure(G, S.letters)
        res = generates(G, S)
        assert res.status == ("yes" if len(closed) == G.size else "no")
        assert res.evidence["closure_size"] == len(closed)


def test_generates_rejects_foreign_alphabet():
    Z = gr.IntVector(1)
    S = _symm(Z, [(1,)])
    with pytest.raises(DomainError):
        generates(gr.IntVector(2), S)


def test_raw_genset_with_a_foreign_letter_is_refused_at_construction():
    """The constructor checks every letter, so an alphabet with a letter
    outside its group never reaches the unchecked Schreier walk."""
    for G, letters, involution in [
        (gr.Product(gr.IntVector(1), gr.DihedralFinite(4)),
         (((1.5,), (1, 0)), ((-1.5,), (3, 0)), ((1,), (0, 1))), (1, 0, 2)),
        (gr.DihedralFinite(4), ((1, 0), (3, 0), (4, 1)), (1, 0, 2)),
        (gr.FiniteCyclic(5), (1, 4, 5), (1, 0, 2)),
        (gr.Heisenberg(), ((1, 0, 0), (-1, 0, 0), (0, 1)), (1, 0, 2)),
        (gr.Free(2), ((1,), (-1,), (3,)), (1, 0, 2)),
    ]:
        with pytest.raises(DomainError, match="is not an element of"):
            GenSet(G, letters, involution)


@pytest.mark.parametrize("G", MUTATION_GROUPS, ids=str)
def test_construction_check_matches_reference_on_mutated_alphabets(G):
    """The constructor refuses each mutation of a valid alphabet with
    DomainError exactly when the reference predicate says it is no alphabet,
    and keeps the letters and involution of each one it accepts."""
    rng = random.Random(17)
    bases = [make_symmetric(G, G.standard_generators()),
             make_symmetric(G, [random_element(G, rng, 3) for _ in range(3)]
                            + [G.standard_generators()[-1]])]
    verdicts = set()
    for S in bases:
        assert genset_is_valid_reference(G, S.letters, S.involution)
        for name, letters, involution in alphabet_mutations(S):
            valid = genset_is_valid_reference(G, letters, involution)
            try:
                T = GenSet(G, letters, involution)
            except DomainError:
                assert not valid, name
            else:
                assert valid, name
                assert (T.letters, T.involution) == (letters, involution)
            verdicts.add(valid)
    assert verdicts == {True, False}


def test_library_alphabets_are_valid(monkeypatch):
    """Every alphabet the library builds passes the reference predicate:
    ``make_symmetric``'s, the 59 argmax alphabets that
    ``uniform_length_table`` lays out by ``GenSet.from_classes`` on the
    finite groups, and 50 draws of the zxd8 sampler."""
    rng = random.Random(5)
    built = [make_symmetric(G, [random_element(G, rng, 4) for _ in range(4)]
                            + list(G.standard_generators()))
             for G in MUTATION_GROUPS for _ in range(5)]
    from_classes = GenSet.from_classes.__func__

    def recording(cls, G, classes):
        S = from_classes(cls, G, classes)
        built.append(S)
        return S

    with monkeypatch.context() as m:
        m.setattr(GenSet, "from_classes", classmethod(recording))
        for G in FINITE_GROUPS:
            uniform_length_table(G)
    built += [sample_zxd8_genset(rng) for _ in range(50)]
    assert len(built) == 5 * len(MUTATION_GROUPS) + 59 + 50
    bad = [S for S in built if not genset_is_valid_reference(S.group, S.letters, S.involution)]
    assert bad == []


def test_symbol_ids_are_ints_in_range():
    """A symbol id is an int in ``range(len(letters))``: a negative id is no
    longer read from the end, and a float or bool is no id at all."""
    S = make_symmetric(gr.IntVector(1), [(2,), (3,)])
    for word in [(-1,), (0, -4), (4,), (1.0,), (True,), ("0",)]:
        with pytest.raises(DomainError, match="unknown symbol id"):
            S.eval_word(word)
    assert S.eval_word((0, 3)) == (-1,)


# -- quotient maps -------------------------------------------------------


def test_quotient_maps_are_homomorphisms():
    rng = random.Random(31)
    maps = [
        project_left(gr.Product(gr.IntVector(1), gr.FiniteCyclic(4))),
        project_right(gr.Product(gr.IntVector(1), gr.FiniteCyclic(4))),
        heisenberg_abelianization(),
        dihedral_mod(5),
        int_mod(6),
    ]
    for pi in maps:
        for _ in range(200):
            g = random_element(pi.source, rng, size=8)
            h = random_element(pi.source, rng, size=8)
            assert pi.apply(pi.source.mul(g, h)) == pi.target.mul(
                pi.apply(g), pi.apply(h))
            assert pi.apply(pi.source.inv(g)) == pi.target.inv(pi.apply(g))


def test_project_genset():
    G = gr.Product(gr.IntVector(1), gr.FiniteCyclic(2))
    S = make_symmetric(G, [((5,), 1), ((3,), 0)])
    T = project_genset(project_right(G), S)
    assert set(T.letters) == {1}
    # A valid alphabet need not generate: {±(1,0)} maps to the identity alone.
    with pytest.raises(EmptyGenSetError):
        project_genset(project_right(G), make_symmetric(G, [((1,), 0)]))


@settings(max_examples=50, deadline=None)
@given(st.integers(-8, 8), st.integers(0, 3), st.integers(-4, 4))
def test_quotient_monotonicity_heisenberg(i, j, l):
    """Word length never grows under the abelianization quotient."""
    pi = heisenberg_abelianization()
    G = pi.source
    S = make_symmetric(G, [(1, 0, 0), (0, 1, 0)])
    g = (i, j, l)
    cert = word_length(G, S, g, cap=8)
    if cert.length is None:
        return
    T = project_genset(pi, S)
    down = word_length(pi.target, T, pi.apply(g), cap=8)
    assert down.length is not None
    assert down.length <= cert.length
