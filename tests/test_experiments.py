"""Experiment layer: reports, automorphisms, uniform lengths, golden files."""

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import ceil, floor, gcd

import pytest
from click.testing import CliRunner
from oracles import (
    FINITE_GROUPS,
    aut_by_bijections,
    is_automorphism_reference,
    quaternion_table,
    report_from_json_bytes,
    sample_zxd8_genset_reference,
    symmetric_generating_subsets_reference,
)

import wordbound
from wordbound import cli
from wordbound import experiments as ex
from wordbound import groups as gr
from wordbound import metric
from wordbound.cli import main
from wordbound.errors import DomainError, NotGeneratingError, ResourceLimitExceeded, UnsupportedFamilyError
from wordbound.gensets import GenSet, _generates_split, generates, inverse_pair_classes, make_symmetric
from wordbound.metric import _length_bfs, certify_length, word_length
from wordbound.reports import ExperimentReport, Verdict, render_report


# -- number helpers ------------------------------------------------------


def test_min_coefficients_against_brute_force():
    rng = random.Random(47)
    for _ in range(100):
        p = rng.randint(1, 12)
        q = rng.randint(1, 12)
        if gcd(p, q) != 1:
            continue
        u = rng.randint(-20, 20)
        cost, (a, b) = ex.min_coefficients(p, q, u)
        assert a * p + b * q == u
        assert cost == abs(a) + abs(b)
        brute = min(
            abs(x) + abs((u - x * p) // q)
            for x in range(-80, 81)
            if (u - x * p) % q == 0
        )
        assert cost == brute
    # A zero p or q is coprime to +-1 only; that term's coefficient is free.
    for p, q in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        for u in range(-20, 21):
            cost, (a, b) = ex.min_coefficients(p, q, u)
            assert a * p + b * q == u
            assert cost == abs(a) + abs(b)
            brute = min(
                abs(x) + abs(y)
                for x in range(-25, 26)
                for y in range(-25, 26)
                if x * p + y * q == u
            )
            assert cost == brute
    for u in (0, 1):
        with pytest.raises(ValueError, match="both be 0"):
            ex.min_coefficients(0, 0, u)


def _scan_min_coefficients(p, q, u):
    """Scan every alpha = a0 + t*q between the two exact breakpoints of the
    cost, with a margin of 3; ties go to the smallest alpha."""
    a0 = u * pow(p, -1, q) % q
    b0 = (u - a0 * p) // q
    breaks = [Fraction(-a0, q), Fraction(b0, p)]
    best = None
    for t in range(floor(min(breaks)) - 3, ceil(max(breaks)) + 4):
        a, b = a0 + t * q, b0 - t * p
        if best is None or abs(a) + abs(b) < best[0]:
            best = (abs(a) + abs(b), (a, b))
    return best


def test_min_coefficients_matches_exact_scan():
    rng = random.Random(2024)
    cases = 0
    while cases < 300:
        bits = 80 if cases % 2 else 4  # the scan walks about |u|/(p*q) steps
        p = rng.randint(2, 1 << bits)
        q = rng.randint(2, 1 << bits)
        if gcd(p, q) != 1:
            continue
        u = rng.randint(-(1 << bits), 1 << bits)
        assert ex.min_coefficients(p, q, u) == _scan_min_coefficients(p, q, u)
        cases += 1


def test_min_coefficients_huge_target():
    """No float quotient: u = 10**400 overflows a double."""
    p, q, u = 3, 5, 10**400
    cost, (a, b) = ex.min_coefficients(p, q, u)
    assert a * p + b * q == u
    assert cost == abs(a) + abs(b)
    # the cost is convex in the step t, so a local minimum is global;
    # the smaller neighbour must cost strictly more (least minimising t)
    assert abs(a - q) + abs(b + p) > cost
    assert abs(a + q) + abs(b - p) >= cost


def test_min_bezout():
    a, b = ex._min_bezout(3, 5)
    assert b * 3 - a * 5 == 1


# -- automorphisms -------------------------------------------------------


def test_aut_group_sizes():
    assert len(ex.aut_group(gr.FiniteCyclic(5))) == 4
    assert len(ex.aut_group(gr.FiniteCyclic(8))) == 4
    assert len(ex.aut_group(gr.DihedralFinite(4))) == 8
    assert len(ex.aut_group(gr.DihedralFinite(3))) == 6  # Inn(S3) = S3
    klein = gr.Product(gr.FiniteCyclic(2), gr.FiniteCyclic(2))
    assert len(ex.aut_group(klein)) == 6  # GL(2, F2)


def test_aut_group_methods_agree():
    klein = gr.Product(gr.FiniteCyclic(2), gr.FiniteCyclic(2))
    for G in [gr.FiniteCyclic(5), gr.DihedralFinite(3), klein, gr.DihedralFinite(4)]:
        search = ex.aut_group(G)
        brute = aut_by_bijections(G)
        assert {tuple(sorted(A.mapping.items())) for A in search} == {
            tuple(sorted(A.mapping.items())) for A in brute
        }


def test_aut_group_caps():
    with pytest.raises(UnsupportedFamilyError):
        ex.aut_group(gr.IntVector(1))
    with pytest.raises(UnsupportedFamilyError):
        ex.aut_group(gr.DihedralFinite(20))


def test_aut_group_is_charged_to_a_budget(monkeypatch):
    """The discovery table is charged like any search: a limit one byte
    below its nodes' charge refuses, that charge itself completes."""
    G = gr.DihedralFinite(4)
    charge = sum(map(metric._Budget.cost, G.elements()))
    monkeypatch.setenv("WORDBOUND_MEM_LIMIT", str(charge - 1))
    with pytest.raises(ResourceLimitExceeded):
        ex.aut_group(G)
    monkeypatch.setenv("WORDBOUND_MEM_LIMIT", str(charge))
    assert len(ex.aut_group(G)) == 8


def test_automorphism_build_rejects_bad_maps():
    G = gr.FiniteCyclic(5)
    with pytest.raises(ValueError):
        ex.Automorphism.build(G, {g: 0 for g in G.elements()})
    swap_only = {0: 0, 1: 2, 2: 1, 3: 3, 4: 4}
    with pytest.raises(ValueError):
        ex.Automorphism.build(G, swap_only)
    doubling = ex.Automorphism.build(G, {g: (2 * g) % 5 for g in G.elements()})
    assert doubling.apply(3) == 1
    # 1.0 == 1 passes the bijection test, but it is not an element.
    with pytest.raises(DomainError):
        ex.Automorphism.build(G, {0: 0, 1: 1.0, 2: 2, 3: 3, 4: 4})
    D = gr.DihedralFinite(4)
    with pytest.raises(DomainError):
        ex.Automorphism.build(D, {g: (g[0] * 1.0, g[1]) for g in D.elements()})


def test_automorphism_build_keys_by_the_group_elements():
    """A key equal to an element but not one (1.0 == 1) names the same point;
    the stored mapping is keyed by G's own elements, so no float reaches it."""
    A = ex.Automorphism.build(gr.FiniteCyclic(5), {0: 0, 1.0: 1, 2: 2, 3: 3, 4: 4})
    assert [type(x) for x in A.mapping] == [int] * 5


# -- uniform lengths -----------------------------------------------------


def test_uniform_length_exact_z5():
    length, S = ex.uniform_length_exact(gr.FiniteCyclic(5), 1)
    assert length == 2
    assert set(S.letters) == {2, 3}


def test_uniform_length_table_envelope():
    """The table value dominates the length under every generating set of
    the reference enumeration."""
    G = gr.DihedralFinite(4)
    table = ex.uniform_length_table(G)
    for S in symmetric_generating_subsets_reference(G):
        B = metric.ball(G, S, G.size)
        for g, (maxlen, _) in table.items():
            assert B.length(g) <= maxlen


def test_uniform_length_cap():
    with pytest.raises(UnsupportedFamilyError):
        ex.uniform_length_table(gr.DihedralFinite(10))
    with pytest.raises(UnsupportedFamilyError):
        ex.uniform_length_table(gr.IntVector(1))


@pytest.mark.parametrize("G", [gr.FiniteCyclic(1), gr.CayleyTableGroup(names=("e",), table=((0,),))],
                         ids=str)
def test_uniform_length_table_refuses_the_trivial_group(G):
    """The trivial group has no inverse-pair class, so no alphabet."""
    with pytest.raises(UnsupportedFamilyError, match="trivial group"):
        ex.uniform_length_table(G)


C2, C4 = gr.FiniteCyclic(2), gr.FiniteCyclic(4)


def _table_balls(G, monkeypatch):
    """(letters, whether their ball is all of G) for each ball that
    ``uniform_length_table(G)`` grows, in call order, with the law and
    radius that ``ball`` grows it with."""
    balls = []

    def recording(H, mul, letters, radius):
        assert (H, mul, radius) == (G, G._mul, G.size)
        table = metric._grow(H, mul, letters, radius)
        balls.append((tuple(letters), len(table) == G.size))
        return table

    with monkeypatch.context() as m:
        m.setattr(ex, "_grow", recording)
        ex.uniform_length_table(G)
    return balls


def _uniform_length_table_reference(G):
    """The exhaustive table over the reference enumeration, one closure per
    mask: each element's max ``ball`` length and its first argmax."""
    table = {g: (0, None) for g in G.elements()}
    for S in symmetric_generating_subsets_reference(G):
        B = metric.ball(G, S, G.size)
        for g, (m, T) in table.items():
            if T is None or B.length(g) > m:
                table[g] = (B.length(g), S)
    return table


@pytest.mark.parametrize("G", FINITE_GROUPS, ids=str)
def test_generating_subsets_match_reference(G, monkeypatch):
    """The masks whose balls fill G are the reference's generating sets:
    the same letters, in the same order, as one closure per mask, among
    one ball per mask."""
    balls = _table_balls(G, monkeypatch)
    assert len(balls) == (1 << len(inverse_pair_classes(G, G.elements()))) - 1
    assert [letters for letters, full in balls if full] == [
        S.letters for S in symmetric_generating_subsets_reference(G)]


@pytest.mark.parametrize("G, built, kept", [
    (gr.DihedralFinite(8), 12, 8),
    (gr.DihedralFinite(4), 5, 5),
    (quaternion_table(), 3, 3),
], ids=str)
def test_uniform_length_table_builds_only_argmax_alphabets(G, built, kept, monkeypatch):
    """A mask's GenSet is built only when it becomes some element's argmax:
    D16 builds 12 of its 3,960 generating masks' alphabets and keeps 8."""
    made = []
    check = GenSet.__post_init__

    def counted(self):
        made.append(self)
        check(self)

    monkeypatch.setattr(GenSet, "__post_init__", counted)
    table = ex.uniform_length_table(G)
    assert len(made) == built
    assert len({id(S) for _, S in table.values()}) == kept
    assert {id(S) for _, S in table.values()} <= {id(S) for S in made}


@pytest.mark.parametrize("G", FINITE_GROUPS + [gr.DihedralFinite(3), gr.DihedralFinite(7)], ids=str)
def test_uniform_length_table_matches_reference(G):
    """Equal items in the same order, argmax alphabets included."""
    def items(table):
        return [(g, m, S.letters, S.involution) for g, (m, S) in table.items()]

    assert items(ex.uniform_length_table(G)) == items(_uniform_length_table_reference(G))


def _builds(G, mapping):
    try:
        ex.Automorphism.build(G, mapping)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("G", FINITE_GROUPS, ids=str)
def test_generator_check_matches_all_pairs_oracle(G):
    """Automorphism.build, which checks generators, agrees with the all-pairs
    oracle on every automorphism and on seeded near-automorphisms: an
    automorphism followed by one transposition, which the identity may be in."""
    rng = random.Random(20)
    elems = list(G.elements())
    verdicts = []
    for A in ex.aut_group(G):
        assert is_automorphism_reference(G, A.mapping)
        for _ in range(5):
            a, b = rng.sample(elems, 2)
            swap = {a: b, b: a}
            near = {x: swap.get(y, y) for x, y in A.mapping.items()}
            verdict = is_automorphism_reference(G, near)
            assert _builds(G, near) == verdict
            verdicts.append(verdict)
    assert not all(verdicts)


@pytest.mark.parametrize("G", [gr.DihedralFinite(4), gr.Product(C2, C4)], ids=str)
def test_generator_check_matches_all_pairs_oracle_on_every_bijection(G):
    """Every bijection fixing the identity, 5040 for a group of order 8.
    Near misses here pass a check on every other x, or (in Z/2 x Z/4) on
    all but the last generator, and are still refused."""
    e = G.identity()
    rest = [x for x in G.elements() if x != e]
    for perm in itertools.permutations(rest):
        mapping = {e: e, **dict(zip(rest, perm))}
        assert _builds(G, mapping) == is_automorphism_reference(G, mapping)


def test_d16_table_runs_one_ball_per_mask_and_no_closure(monkeypatch):
    """D16 has 12 inverse-pair classes: 4095 masks, one ball each, of which
    3960 fill the group.  Generation is read off the ball, so no
    ``closure`` runs."""
    closures = []
    monkeypatch.setattr(gr, "closure", lambda *args: closures.append(args))
    balls = _table_balls(gr.DihedralFinite(8), monkeypatch)
    assert (len(balls), sum(full for _, full in balls)) == (4095, 3960)
    assert closures == []


def test_symmetric_generating_subsets_d8():
    G = gr.DihedralFinite(4)
    subsets = list(symmetric_generating_subsets_reference(G))
    assert subsets  # D8 has plenty
    for S in subsets:
        assert len(gr.closure(G, S.letters)) == 8
        assert set(S.letters) == {G.inv(x) for x in S.letters}


# -- orbits --------------------------------------------------------------


def _aut_orbit_row(rep, group, element):
    (row,) = [r for r in rep.rows if (r["group"], r["element"]) == (group, element)]
    return row


def test_aut_orbit_rows_z5():
    """The automorphisms of Z/5 move 1 onto all four non-identity elements,
    and 1 has uniform length 2: the radius-2 ball of {1, 4} is Z/5, and
    4 <= 2^2."""
    rep = ex.aut_orbit_experiment()
    row = _aut_orbit_row(rep, "Z/5", "1")
    assert (row["orbit_size"], row["max_length"], row["ok"]) == (4, 2, True)
    assert rep.passed


def test_aut_orbit_check_fails_one_radius_short(monkeypatch):
    """Each uniform length reported one less than it is (0 stays 0): the
    orbit of 1 in Z/5 leaves the radius-1 ball {0, 1, 4}, so the row and the
    run's verdict fail."""
    real = ex.uniform_length_table

    def short(G):
        return {g: (max(m - 1, 0), S) for g, (m, S) in real(G).items()}

    monkeypatch.setattr(ex, "uniform_length_table", short)
    rep = ex.aut_orbit_experiment()
    row = _aut_orbit_row(rep, "Z/5", "1")
    assert (row["orbit_size"], row["max_length"], row["ok"]) == (4, 1, False)
    assert not rep.passed


def test_conjugacy_orbit_growth():
    G = gr.Heisenberg()
    growth = ex.conjugacy_orbit_growth(G, (1, 0, 0), 4)
    counts = [c for _, c in growth]
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]
    central = ex.conjugacy_orbit_growth(G, (0, 0, 1), 4)
    assert all(c == 1 for _, c in central)
    D = gr.DihedralFinite(4)
    finite = ex.conjugacy_orbit_growth(D, (1, 0), 4)
    assert finite[-1][1] == 2  # {r, r^3}


# -- unboundedness ladders -----------------------------------------------


def test_zxzq_rows():
    rep = ex.unbounded_witness_zxzq(2, [5, 7, 11])
    assert rep.passed
    assert [r["length"] for r in rep.rows] == [8, 10, 14]
    with pytest.raises(ValueError):
        ex.unbounded_witness_zxzq(2, [4])
    with pytest.raises(ValueError):
        ex.unbounded_witness_zxzq(2, [3])  # not > q+1


def test_zd_rows():
    rep = ex.unbounded_witness_zd(2, (1, 0), [(2, 3), (3, 5), (5, 7)])
    assert rep.passed
    assert [r["length"] for r in rep.rows] == [2, 3, 5]
    with pytest.raises(ValueError):
        ex.unbounded_witness_zd(2, (0, 0), [(2, 3)])
    with pytest.raises(ValueError):
        ex.unbounded_witness_zd(2, (1, 0), [(2, 4)])


def test_heisenberg_ladder_rows():
    rep = ex.unbounded_witness_heisenberg(1, [(2, 3), (3, 5), (5, 7)])
    assert rep.passed
    lengths = [r["length"] for r in rep.rows]
    assert lengths == [6, 8, 10]
    assert all(r["length"] <= r["upper_bound"] for r in rep.rows)


def test_heisenberg_ladder_refuses_a_pair_that_is_not_coprime():
    with pytest.raises(ValueError, match="coprime"):
        ex.unbounded_witness_heisenberg(1, [(2, 3), (2, 4)])


def test_dinfty_ladder_rows():
    rep = ex.unbounded_witness_dinfty([(2, 3), (3, 5), (5, 7)])
    assert rep.passed
    assert [r["length"] for r in rep.rows] == [2, 4, 6]
    with pytest.raises(NotGeneratingError):
        ex.unbounded_witness_dinfty([(2, 4)])


def _ladder_search(name, params, row):
    """The search a ladder row's length came from before the ladders
    certified a word: (group, letters, element, cap) of a ``word_length``
    call at the cap the run then passed."""
    if name == "zxzq":
        q, p = params["q"], row["p"]
        return (gr.Product(gr.IntVector(1), gr.FiniteCyclic(q)),
                [((p,), 1), ((q + 1,), 0)], ((0,), 1), p + q + 1)
    if name == "zd":
        d = params["d"]
        units = [tuple(int(i == j) for j in range(d)) for i in range(2, d)]
        pad = (0,) * (d - 2)
        return (gr.IntVector(d), [(row["p"], row["a"], *pad), (row["q"], row["b"], *pad), *units],
                tuple(params["x"]), row["expected"])
    if name == "heisenberg":
        p, q = row["p"], row["q"]
        return (gr.Heisenberg(), [(p, 0, 0), (q, 0, 0), (0, 1, 0)],
                (0, 0, params["n"]), row["upper_bound"])
    alpha, beta = row["alpha"], row["beta"]
    return (gr.DihedralInfinite(), [(0, 1), (alpha, 1), (beta, 1)], (1, 0),
            2 * (abs(alpha) + abs(beta)))


# Ladder parameter sets, two of them the defaults, with zeros and negative entries.
LADDER_PARAMETERS = (
    *[("heisenberg", {"n": n}) for n in range(1, 7)],
    ("heisenberg", {"n": 2, "pairs": ((0, 1), (-2, 3), (3, -5))}),
    ("zxzq", {"q": 2, "primes": (5, 7, 11)}),
    ("zxzq", {"q": 3, "primes": (5, 7, 13)}),
    ("zxzq", {"q": 4, "primes": (7, 11, 13)}),
    ("zd", {"d": 3, "x": (-2, 3, -1)}),
    ("zd", {"d": 2, "x": (-3, 2), "pairs": ((1, 0), (2, 3), (3, 5))}),
    ("dinfty", {"pairs": ((-2, 3), (3, -5), (-5, -7), (7, -11))}),
    ("dinfty", {"pairs": ((0, 1), (1, 0), (-1, 1))}),
)


@pytest.mark.parametrize("name, kwargs", LADDER_PARAMETERS, ids=str)
def test_ladder_certificates_equal_the_search_at_the_old_cap(name, kwargs, certified):
    """Each ladder row's length is the checked ``word_length`` at the cap
    the ladder searched to before it certified a word, on non-default
    parameters too.  The certified word spells the element in as many
    letters as the formula names: the cap itself, and for D-infinity at
    most the cap."""
    rep = ex.DEFAULT_RUNS[name](**kwargs)
    assert len(certified) == len(rep.rows)
    for row, r in zip(rep.rows, certified):
        G, letters, g, cap = _ladder_search(name, rep.params, row)
        S = make_symmetric(G, letters)
        assert (r["S"], r["g"]) == (S, g)
        assert row["length"] == word_length(G, S, g, cap).length
        assert S.eval_word(r["word"]) == g
        assert len(r["word"]) <= cap if name == "dinfty" else len(r["word"]) == cap


def test_heisenberg_ladder_certifies_a_shorter_word():
    """For n = 1 and (p, q) = (5, 7) the cheapest commutator has 12 letters
    and the search one radius short of it finds the length 10."""
    (row,) = ex.unbounded_witness_heisenberg(1, [(5, 7)]).rows
    assert (row["length"], row["upper_bound"]) == (10, 12)


@pytest.mark.parametrize("name, kwargs", [
    ("zxd8", {"samples": 0}),
    ("heisenberg-center", {"samples": -2}),
    ("zxzq", {"primes": ()}),
    ("zd", {"pairs": ()}),
    ("heisenberg", {"pairs": ()}),
    ("dinfty", {"pairs": ()}),
    ("prescribe-free", {"triples": ()}),
    ("quotient-orbit", {"ks": ()}),
    ("fc-witness", {"radius": 0}),
], ids=str)
def test_no_run_passes_over_zero_rows(name, kwargs):
    """A run that would report no rows, and so pass every verdict, is
    refused before it starts."""
    with pytest.raises(ValueError):
        ex.DEFAULT_RUNS[name](**kwargs)


@pytest.mark.parametrize("name, kwargs, failed", [
    ("zxzq", {"primes": (5,)}, {"lengths-strictly-increase"}),
    ("zd", {"pairs": ((2, 3),)}, {"lengths-eventually-exceed"}),
    ("heisenberg", {"pairs": ((2, 3),)}, {"lengths-strictly-increase"}),
    ("dinfty", {"pairs": ((2, 3),)}, {"lengths-strictly-increase"}),
    ("fc-witness", {"radius": 1}, {"off-center-counts-strictly-increase"}),
], ids=str)
def test_one_row_shows_no_growth(name, kwargs, failed):
    """A growth verdict compares rows, so over a single row it fails, and
    with it the report; the other verdicts still pass."""
    rep = ex.DEFAULT_RUNS[name](**kwargs)
    assert len(rep.rows) == 1
    assert {v.claim for v in rep.verdicts if not v.passed} == failed
    assert not rep.passed


@pytest.mark.parametrize("name, kwargs, error", [
    ("zxzq", {"primes": (5, 9)}, ValueError),
    ("zxzq", {"primes": (5, 7.0)}, ValueError),
    ("zxzq", {"primes": (5, True)}, ValueError),
    *[(name, {"pairs": ((2, 3), bad)}, error)
      for name in ("zd", "heisenberg", "dinfty")
      for bad, error in [((2, 4), NotGeneratingError), ((2.0, 3), ValueError),
                         ((True, 3), ValueError), ((2, 3, 5), ValueError)]],
    ("heisenberg", {"n": 2.0}, ValueError),
    ("heisenberg", {"n": True}, ValueError),
    ("heisenberg", {"n": 0}, ValueError),
], ids=str)
def test_ladder_refuses_a_bad_entry_before_any_search(name, kwargs, error, certified):
    """Every parameter is checked before the first ``certify_length`` call,
    so a bad last entry costs no search; a float or a bool is a
    ValueError, not a TypeError from inside the run, and a pair that is
    not coprime is a NotGeneratingError in all three pair ladders."""
    with pytest.raises(error):
        ex.DEFAULT_RUNS[name](**kwargs)
    assert certified == []


@pytest.mark.parametrize("radius", [-1, 0, 1.5, True])
def test_zxd8_sampler_refuses_a_radius_that_is_not_a_positive_int(radius):
    """Each is refused before the rng draws.  Unchecked, -1 fails inside
    ``rng.sample``, 1.5 raises TypeError, True reads as 1 and 0 spends all
    the draws on an empty pool."""
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="radius"):
        ex.sample_zxd8_genset(rng, radius)
    assert rng.getstate() == state


def test_zxd8_sampler_refuses_a_pool_past_the_memory_limit(monkeypatch):
    """Radius r's pool and maps are charged 16(2r + 1) elements of 216
    bytes before they are built: under a 1000-byte limit radius 4000 is
    refused, with nothing cached and no draw made, and radius 10 fits in
    exactly 16 * 21 * 216 bytes.  The cache keeps at most four radii."""
    ex._zxd8_draws.cache_clear()
    rng = random.Random(0)
    state = rng.getstate()
    for limit, radius in ((1000, 4000), (16 * 21 * 216 - 1, 10)):
        monkeypatch.setenv("WORDBOUND_MEM_LIMIT", str(limit))
        with pytest.raises(ResourceLimitExceeded) as refused:
            ex.sample_zxd8_genset(rng, radius)
        assert (refused.value.partial_radius, refused.value.explored) == (0, 0)
        assert ex._zxd8_draws.cache_info().currsize == 0
        assert rng.getstate() == state
    monkeypatch.setenv("WORDBOUND_MEM_LIMIT", str(16 * 21 * 216))
    assert ex.sample_zxd8_genset(rng, 10) == sample_zxd8_genset_reference(random.Random(0), 10)
    assert ex._zxd8_draws.cache_info().maxsize == 4


# -- boundedness certificates --------------------------------------------


def test_heisenberg_center_certificate():
    e, cert = ex.heisenberg_center_certificate((1, 0, 0), (0, 1, 0))
    assert e == 1
    assert cert.length == 4
    e, cert = ex.heisenberg_center_certificate((0, 1, 0), (1, 0, 0))
    assert e == -1
    with pytest.raises(NotGeneratingError):
        ex.heisenberg_center_certificate((2, 0, 0), (0, 1, 0))


def test_heisenberg_center_experiment_deterministic():
    a = ex.heisenberg_center_experiment(20, seed=0)
    b = ex.heisenberg_center_experiment(20, seed=0)
    assert a.to_json_bytes() == b.to_json_bytes()
    assert a.passed


def _assert_certificate_matches_bfs(S, target, cert):
    bfs = _length_bfs(S.group, S, target, cert.cap)
    assert cert.length is not None
    assert cert.length == bfs.length
    assert len(cert.witness) == cert.length
    assert S.eval_word(cert.witness) == target


@pytest.mark.parametrize("kind", ["free", "zd"])
def test_prescribe_certificates_match_bfs(kind):
    for l, u, v in ex.DEFAULT_PRESCRIPTION_GRID:
        if l > 4:
            continue
        if kind == "free":
            g = (1,)
            S, cert = ex.prescribe_length_free(2, g, l, u, v)
        else:
            g = (1, 0)
            S, cert = ex.prescribe_length_zd(2, g, l, u, v)
        assert cert.length == l + 1
        _assert_certificate_matches_bfs(S, g, cert)


def test_zxd8_sampler_matches_a_per_call_pool():
    """Building the pool once per radius, each alphabet straight from it and
    deciding on the split computed once draws the same alphabets as
    ``make_symmetric`` and ``generates`` on a fresh pool: over the whole
    default draw (seed 42, 200 samples, radius 10: 375 candidates rejected),
    at radius 3 (362 rejected) and at radius 2, where a larger share is
    rejected (412 of 612)."""
    for radius in (10, 3, 2):
        fast, slow = random.Random(42), random.Random(42)
        for _ in range(200):
            assert ex.sample_zxd8_genset(fast, radius) == sample_zxd8_genset_reference(slow, radius)
        assert fast.getstate() == slow.getstate()
        pool, inverse, _ = ex._zxd8_draws(radius)
        assert list(inverse) == list(pool)
        assert all(inverse[g] == ex._ZXD8.inv(g) for g in inverse)
    assert len(ex._zxd8_draws(10)[0]) == 167


def test_zxd8_sampler_builds_only_the_alphabets_it_keeps(monkeypatch):
    """The sampler decides each draw on its classes' parts and builds a
    GenSet only for the draw it keeps: 200 constructions for the 200
    samples of the default run, which rejects 375 draws."""
    built = []
    check = GenSet.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(GenSet, "__post_init__", counted)
    rep = ex.bound_witness_zxd8()
    assert len(built) == len(rep.rows) == 200


def test_zxd8_decision_on_parts_matches_generates():
    """For every draw of seeds 0 to 9, 100 draws each, the decision on the
    classes' representative parts is ``generates`` on the alphabet built
    from the classes, in status, reason and evidence."""
    G = ex._ZXD8
    split = metric._split(G)
    pool, inverses, part = ex._zxd8_draws(10)
    inverse = inverses.__getitem__
    statuses = set()
    for seed in range(10):
        rng = random.Random(seed)
        for _ in range(100):
            classes = inverse_pair_classes(G, rng.sample(pool, rng.randint(2, 4)), inverse)
            fast = _generates_split([part[c[0]] for c in classes], split)
            slow = generates(G, GenSet.from_classes(G, classes))
            assert (fast.status, fast.reason, fast.evidence) == (
                slow.status, slow.reason, slow.evidence)
            statuses.add(fast.status)
    assert statuses == {"yes", "no"}
    assert all(part[g] == G.lattice_split()[2](g) for g in pool)


def test_zxd8_certificates_match_bfs():
    rng = random.Random(42)
    target = ((0,), (2, 0))
    for _ in range(20):
        S = ex.sample_zxd8_genset(rng)
        _assert_certificate_matches_bfs(S, target, word_length(S.group, S, target, cap=4))
        _assert_certificate_matches_bfs(
            S, target, certify_length(S.group, S, target, ex._commutator_word(S)))


def test_heisenberg_center_certificates_match_bfs():
    rng = random.Random(0)
    for _ in range(20):
        x, y = ex.sample_heisenberg_pair(rng)
        _, cert = ex.heisenberg_center_certificate(x, y)
        _assert_certificate_matches_bfs(make_symmetric(gr.Heisenberg(), [x, y]),
                                        (0, 0, 1), cert)


# -- lengths certified by a word ----------------------------------------


@pytest.fixture
def certified(monkeypatch):
    """Records of the experiments' ``certify_length`` calls: the run of
    ``DEFAULT_RUNS`` that made it, the alphabet, the element, the word, and
    the caps, search spaces and certificates of the searches that a stub on
    ``metric._length_bidirectional`` saw during the call.  Searches outside
    a ``certify_length`` call are not recorded."""
    records, run, current = [], [None], [None]
    certify, search = ex.certify_length, metric._length_bidirectional

    def searched(G, S, g, cap, space):
        cert = search(G, S, g, cap, space)
        if current[0] is not None:
            current[0]["caps"].append(cap)
            current[0]["searches"].append((space, cert))
        return cert

    def recorded(G, S, g, word):
        current[0] = {"run": run[0], "S": S, "g": g, "word": tuple(word),
                      "caps": [], "searches": []}
        records.append(current[0])
        try:
            return certify(G, S, g, word)
        finally:
            current[0] = None

    def tagged(name, fn):
        def call(*args, **kwargs):
            run[0] = name
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(metric, "_length_bidirectional", searched)
    monkeypatch.setattr(ex, "certify_length", recorded)
    for name, fn in list(ex.DEFAULT_RUNS.items()):
        monkeypatch.setitem(ex.DEFAULT_RUNS, name, tagged(name, fn))
    return records


def test_zxd8_commutator_words_spell_the_center():
    """For each of the 200 default alphabets the word is a commutator of 4
    letters that evaluates to (0, z)."""
    rng = random.Random(42)
    for _ in range(200):
        S = ex.sample_zxd8_genset(rng, 10)
        word = ex._commutator_word(S)
        a, b = word[:2]
        assert word == (a, b, S.inv_symbol(a), S.inv_symbol(b))
        assert S.eval_word(word) == ((0,), (2, 0))


def test_commutator_word_refuses_commuting_letters():
    S = make_symmetric(ex._ZXD8, [((1,), (0, 0)), ((0,), (2, 0))])
    with pytest.raises(NotGeneratingError):
        ex._commutator_word(S)


@pytest.mark.parametrize("kind", ["free", "zd"])
def test_prescription_words_have_l_plus_1_letters(kind, certified):
    """g = g^(2l+1) (g^2)^(-l), one letter of each kind, for every (l, u, v)
    of the default grid."""
    assert ex.prescribe_length_experiment(kind).passed
    grid = ex.DEFAULT_PRESCRIPTION_GRID
    assert len(certified) == len(grid)
    for r, (l, _, _) in zip(certified, grid):
        S, g = r["S"], r["g"]
        G = S.group
        assert [S.element(sym) for sym in r["word"]] == [G.power(g, 2 * l + 1)] + [G.power(g, -2)] * l


def test_heisenberg_center_word_follows_the_exponent(certified):
    """The central generator is spelled [x, y] when [x, y] is it and [y, x]
    when [x, y] is its inverse.  The default run's 100 pairs all have
    exponent 1, so each is also certified swapped."""
    H = gr.Heisenberg()
    rng = random.Random(0)
    pairs = [ex.sample_heisenberg_pair(rng) for _ in range(100)]
    signs = set()
    for x, y in pairs + [(y, x) for x, y in pairs]:
        exponent, cert = ex.heisenberg_center_certificate(x, y)
        assert H.commutator(x, y) == (0, 0, exponent)
        a, b = (x, y) if exponent == 1 else (y, x)
        S = certified[-1]["S"]
        assert [S.element(sym) for sym in certified[-1]["word"]] == [a, b, H.inv(a), H.inv(b)]
        assert (cert.length, cert.witness) == (4, certified[-1]["word"])
        signs.add(exponent)
    assert signs == {1, -1}


LADDERS = ("zxzq", "zd", "heisenberg", "dinfty")


def test_experiment_all_searches_one_radius_short_of_each_word(certified):
    """Every certificate of ``experiment all`` searches out to one radius
    less than its word, and a one-letter word not at all: 322 searches
    for the 324 certificates of eight runs, three for each ladder."""
    result = CliRunner().invoke(main, ["experiment", "all", "--format", "json"])
    assert result.exit_code == 0
    assert Counter(r["run"] for r in certified) == {
        "heisenberg-center": 100, "zxd8": 200, "prescribe-free": 6, "prescribe-zd": 6,
        **dict.fromkeys(LADDERS, 3)}
    for r in certified:
        n = len(r["word"])
        assert r["caps"] == ([n - 1] if n > 1 else []), r
    assert sum(len(r["caps"]) for r in certified) == 322


# sha256 of the words that ``certify_length`` is handed, by _words_digest:
# every call of ``experiment all`` (324), and every ladder row over
# LADDER_PARAMETERS (43).  Rows hold only lengths, so a run that certified
# another word of the same length would change no report byte.
CERTIFIED_WORDS_SHA256 = "8a34c99ea505dc7855b51185486ceba37ee30faf0cbd207453b58223ef8f43b9"
LADDER_WORDS_SHA256 = "08612b63cb0780d9f79ebd8a052a55c5282921da53001b322f12e38149b87a58"


def _words_digest(records):
    """sha256 of each certificate's run, letters, element and word, one
    repr a line, in call order."""
    text = "".join(f"{(r['run'], r['S'].letters, r['g'], r['word'])!r}\n" for r in records)
    return hashlib.sha256(text.encode()).hexdigest()


def test_experiment_all_certifies_the_pinned_words(certified):
    result = CliRunner().invoke(main, ["experiment", "all", "--format", "json"])
    assert result.exit_code == 0
    assert len(certified) == 324
    assert _words_digest(certified) == CERTIFIED_WORDS_SHA256


def test_ladders_certify_the_pinned_words(certified):
    for name, kwargs in LADDER_PARAMETERS:
        ex.DEFAULT_RUNS[name](**kwargs)
    assert len(certified) == 43
    assert _words_digest(certified) == LADDER_WORDS_SHA256


def test_certify_searches_equal_the_checked_word_length(certified):
    """Each search that ``certify_length`` runs for the 200 zxd8 alphabets,
    the 12 prescription rows, the 100 Heisenberg pairs and the 12 ladder
    rows gives the certificate, field for field, of the checked
    ``word_length`` out to the same cap.  All 322 run on packed spaces: the
    searches in groups with a lattice split (Z x D8, Z^d, Z x Z/2,
    D-infinity) and in the Heisenberg group on ints, the 5 in free groups
    on syllables."""
    for name in ("heisenberg-center", "zxd8", "prescribe-free", "prescribe-zd", *LADDERS):
        assert ex.DEFAULT_RUNS[name]().passed
    searches = Counter()
    for r in certified:
        S, g = r["S"], r["g"]
        G = S.group
        cap = len(r["word"]) - 1
        for space, trusted in r["searches"]:
            want = metric._packed_space(G, S, g, cap) or metric._elements(G, S, g, G._mul)
            assert (space.letters, space.roots) == (want.letters, want.roots)
            assert word_length(G, S, g, cap) == trusted
            searches[space.mul.__name__] += 1
    assert searches == {"step": 322}


def test_experiment_all_calls_no_word_length(monkeypatch):
    """Every run of ``experiment all`` certifies its lengths: no run calls
    ``word_length``, under any name it is bound to, and every
    meet-in-the-middle search steps on a packed space."""
    calls, laws = [], set()

    def spy(*args, **kwargs):
        calls.append(args)
        return word_length(*args, **kwargs)

    search = metric._length_bidirectional

    def searched(G, S, g, cap, space):
        laws.add(space.mul.__name__)
        return search(G, S, g, cap, space)

    for module in (metric, wordbound, cli, ex):
        monkeypatch.setattr(module, "word_length", spy, raising=False)
    monkeypatch.setattr(metric, "_length_bidirectional", searched)
    result = CliRunner().invoke(main, ["experiment", "all", "--format", "json"])
    assert result.exit_code == 0
    assert calls == []
    assert laws == {"step"}


def test_bound_witness_zxd8_small():
    rep = ex.bound_witness_zxd8(samples=25, seed=42, radius=6)
    assert rep.passed
    assert len(rep.rows) == 25
    assert all(r["length"] <= 4 for r in rep.rows)


# -- prescribed lengths --------------------------------------------------


def test_prescribe_length_free_spot_values():
    G = gr.Free(2)
    _, cert = ex.prescribe_length_free(2, (1,), 2, 7, 23)
    assert cert.length == 3
    _, cert = ex.prescribe_length_free(2, (1,), 1, 5, 17)
    assert cert.length == 2
    S, cert = ex.prescribe_length_free(2, (1,), 0, 2, 7)
    assert cert.length == 1
    assert (1,) in S.letters  # p = 1: the element itself is a letter


def test_prescribe_length_free_compound_word():
    _, cert = ex.prescribe_length_free(2, (1, 1, -2), 1, 7, 43)
    assert cert.length == 2


def test_prescribe_length_zd_spot_values():
    _, cert = ex.prescribe_length_zd(2, (1, 0), 2, 7, 23)
    assert cert.length == 3
    _, cert = ex.prescribe_length_zd(3, (1, -2, 0), 1, 7, 43)
    assert cert.length == 2


def _refuse_work(*args, **kwargs):
    raise AssertionError("work started before the parameters were checked")


@pytest.mark.parametrize("call", [
    lambda: ex.prescribe_length_free(2, (1,), True, 5, 17),
    lambda: ex.prescribe_length_free(2, (1,), 1.0, 5, 17),
    lambda: ex.prescribe_length_free(2, (1,), 1, 5.0, 17),
    lambda: ex.prescribe_length_free(2, (1,), 1, 5, 17.0),
    lambda: ex.prescribe_length_zd(2, (1, 0), 1.0, 5, 17),
    lambda: ex.prescribe_length_zd(2, (1, 0), 1, 5.0, 17),
    lambda: ex.prescribe_length_zd(2, (1, 0), 1, 5, 17.0),
    lambda: ex.prescribe_length_experiment("free", [(0, 2, 7), (1.0, 5, 17)]),
    lambda: ex.prescribe_length_experiment("zd", [(0, 2, 7), (1, 5.0, 17)]),
    lambda: ex.prescribe_length_experiment("free", [(0, 2, 7), (1, 5, 17.0)]),
    lambda: ex.quotient_orbit_experiment(5.0),
    lambda: ex.quotient_orbit_experiment(5, ks=(1.0, 2)),
    lambda: ex.quotient_orbit_experiment(5, ks=(1, True)),
], ids=lambda f: None)
def test_non_int_parameters_are_refused_before_any_work(call, monkeypatch):
    """A float or a bool in place of an int is a ValueError, the error the
    CLI maps to a usage error, raised before any alphabet is built, length
    certified or quotient made: a bad later triple of a grid refuses the
    whole grid."""
    for name in ("_generating", "certify_length", "dihedral_mod"):
        monkeypatch.setattr(ex, name, _refuse_work)
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_prescribe_length_preconditions():
    with pytest.raises(ValueError):
        ex.prescribe_length_free(2, (1,), 2, 6, 23)  # u not prime
    with pytest.raises(ValueError):
        ex.prescribe_length_free(2, (1,), 2, 3, 23)  # u <= 2l+1
    with pytest.raises(ValueError):
        ex.prescribe_length_free(2, (1,), 2, 7, 11)  # v <= 3Nu
    with pytest.raises(ValueError):
        ex.prescribe_length_free(2, (), 2, 7, 23)
    with pytest.raises(ValueError):
        ex.prescribe_length_zd(2, (0, 0), 1, 5, 17)


def test_prescribe_length_experiment_grid():
    for kind in ("free", "zd"):
        rep = ex.prescribe_length_experiment(kind, ex.DEFAULT_PRESCRIPTION_GRID[:3])
        assert rep.passed
        assert all(r["match"] for r in rep.rows)


# -- quotient orbits -----------------------------------------------------


def test_quotient_orbit_experiment():
    rep = ex.quotient_orbit_experiment(7, list(range(1, 7)))
    assert rep.passed
    assert rep.params["orbit_size"] == 6
    control = ex.quotient_orbit_experiment(5, [1])
    assert control.params["orbit_size"] == 1
    # bound only asserted for the full unit set
    assert all(v.claim != "orbit-at-least-half-of-p" for v in control.verdicts)
    with pytest.raises(ValueError):
        ex.quotient_orbit_experiment(5, [5])
    with pytest.raises(ValueError):
        ex.quotient_orbit_experiment(9, [1])


def test_quotient_orbit_builds_one_generating_sequence(monkeypatch):
    """The six power maps of p = 7 are checked against one greedy generating
    sequence of the quotient, not one each."""
    calls = []
    real = ex._generating_sequence

    def counting(G, elems):
        calls.append(G)
        return real(G, elems)

    monkeypatch.setattr(ex, "_generating_sequence", counting)
    rep = ex.quotient_orbit_experiment(7)
    assert len(rep.rows) == 6 and rep.passed
    assert len(calls) == 1


@pytest.mark.parametrize("run, keyword, values", [
    (ex.unbounded_witness_zxzq, "primes", (5, 7, 11)),
    (ex.unbounded_witness_zd, "pairs", ((2, 3), (3, 5), (5, 7))),
    (ex.unbounded_witness_heisenberg, "pairs", ((2, 3), (3, 5))),
    (ex.unbounded_witness_dinfty, "pairs", ((2, 3), (3, 5), (5, 7))),
    (ex.quotient_orbit_experiment, "ks", (1, 2, 3, 4)),
], ids=lambda v: getattr(v, "__name__", None))
def test_one_shot_parameters_get_the_tuples_report(run, keyword, values):
    """A run reads its parameters once, so an iterator gives the tuple's
    report, params, rows and verdicts alike."""
    want = run(**{keyword: values})
    got = run(**{keyword: iter(values)})
    assert got.to_json_bytes() == want.to_json_bytes()
    assert want.rows and want.params[keyword]


# -- golden file ---------------------------------------------------------


def test_d8_golden_file_matches_regeneration():
    assert ex.D8_GOLDEN_PATH.exists()
    assert ex.D8_GOLDEN_PATH.read_bytes() == ex.d8_uniform_table_bytes()


def test_golden_verdict_names_no_absolute_path():
    """Report bytes must not depend on where the package is installed."""
    (verdict,) = ex.uniform_length_experiment().verdicts
    assert verdict.passed
    assert verdict.details == "golden/d8_uniform_lengths.json"


# -- reports -------------------------------------------------------------


def test_report_json_round_trip():
    rep = ex.unbounded_witness_zxzq(2, [5, 7])
    back = report_from_json_bytes(rep.to_json_bytes())
    assert back.to_json_bytes() == rep.to_json_bytes()
    assert back.passed == rep.passed


def test_report_csv_schema():
    rep = ex.unbounded_witness_zxzq(2, [5, 7])
    lines = rep.to_csv_bytes().decode("utf-8").splitlines()
    assert lines[0] == "p,length,expected,match"
    assert len(lines) == 3


def test_report_table_format():
    rep = ExperimentReport(
        name="demo", params={"k": 1},
        rows=[{"a": 1, "b": "xy"}],
        verdicts=[Verdict("holds", True, "ok")],
    )
    text = rep.to_table_bytes().decode("utf-8")
    assert text.startswith("# demo\n# k = 1\n")
    assert "PASS holds (ok)" in text
    assert not any(line != line.rstrip() for line in text.splitlines())


def test_empty_report_renders():
    rep = ExperimentReport(name="empty")
    assert b'"rows": []' in render_report(rep, "json")
    assert render_report(rep, "csv") == b""
    with pytest.raises(ValueError):
        render_report(rep, "yaml")


def test_catalog_covers_claims():
    assert set(ex.DEFAULT_RUNS) == set(ex.CLAIMS)
