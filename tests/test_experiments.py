"""Experiment layer: reports, automorphisms, uniform lengths, golden files."""

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
    report_from_json_bytes,
    sample_zxd8_genset_reference,
    symmetric_generating_subsets_reference,
)

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
    """The table value dominates the length under every generating set."""
    G = gr.DihedralFinite(4)
    table = ex.uniform_length_table(G)
    from wordbound.metric import ball

    for S in ex.symmetric_generating_subsets(G):
        B = ball(G, S, G.size)
        for g, (maxlen, _) in table.items():
            assert B.length(g) <= maxlen


def test_uniform_length_cap():
    with pytest.raises(UnsupportedFamilyError):
        ex.uniform_length_table(gr.DihedralFinite(10))
    with pytest.raises(UnsupportedFamilyError):
        ex.uniform_length_table(gr.IntVector(1))


C2, C4 = gr.FiniteCyclic(2), gr.FiniteCyclic(4)


@pytest.mark.parametrize("G", FINITE_GROUPS, ids=str)
def test_generating_subsets_match_reference(G):
    """Same GenSets (letters, involution, order) as one closure per mask."""
    assert list(ex.symmetric_generating_subsets(G)) == list(symmetric_generating_subsets_reference(G))


@pytest.mark.parametrize("G", FINITE_GROUPS, ids=str)
def test_uniform_length_table_matches_reference(G, monkeypatch):
    table = ex.uniform_length_table(G)
    monkeypatch.setattr(ex, "symmetric_generating_subsets", symmetric_generating_subsets_reference)
    assert table == ex.uniform_length_table(G)


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


def test_generating_subsets_run_one_closure_per_join(monkeypatch):
    """D16 has 12 inverse-pair classes (4095 masks) and 19 subgroups; its
    masks reach 111 distinct (subgroup, top class) joins, one closure each."""
    calls = []
    closure = gr.closure

    def counted(G, elements):
        calls.append(1)
        return closure(G, elements)

    monkeypatch.setattr(gr, "closure", counted)
    subsets = list(ex.symmetric_generating_subsets(gr.DihedralFinite(8)))
    assert len(subsets) == 3960
    assert len(calls) == 111


def test_symmetric_generating_subsets_d8():
    G = gr.DihedralFinite(4)
    subsets = list(ex.symmetric_generating_subsets(G))
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


def test_dinfty_ladder_rows():
    rep = ex.unbounded_witness_dinfty([(2, 3), (3, 5), (5, 7)])
    assert rep.passed
    assert [r["length"] for r in rep.rows] == [2, 4, 6]
    with pytest.raises(NotGeneratingError):
        ex.unbounded_witness_dinfty([(2, 4)])


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
    k, F, _, act = ex._ZXD8_SPLIT
    pool, inverses, part = ex._zxd8_draws(10)
    inverse = inverses.__getitem__
    statuses = set()
    for seed in range(10):
        rng = random.Random(seed)
        for _ in range(100):
            classes = inverse_pair_classes(G, rng.sample(pool, rng.randint(2, 4)), inverse)
            fast = _generates_split([part[c[0]] for c in classes], k, F, act)
            slow = generates(G, GenSet.from_classes(G, classes))
            assert (fast.status, fast.reason, fast.evidence) == (
                slow.status, slow.reason, slow.evidence)
            statuses.add(fast.status)
    assert statuses == {"yes", "no"}
    assert all(part[g] == ex._ZXD8_SPLIT[2](g) for g in pool)


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
    the caps, laws and certificates of the searches that a stub on
    ``metric._length_bidirectional`` saw during the call.  Searches outside
    a ``certify_length`` call, such as the ladders' ``word_length``, are not
    recorded."""
    records, run, current = [], [None], [None]
    certify, search = ex.certify_length, metric._length_bidirectional

    def searched(G, S, g, cap, mul):
        cert = search(G, S, g, cap, mul)
        if current[0] is not None:
            current[0]["caps"].append(cap)
            current[0]["searches"].append((mul, cert))
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


def test_experiment_all_searches_one_radius_short_of_each_word(certified):
    """Every certificate of ``experiment all`` searches out to one radius
    less than its word, and a one-letter word not at all: 310 searches
    for the 312 certificates of four runs."""
    result = CliRunner().invoke(main, ["experiment", "all", "--format", "json"])
    assert result.exit_code == 0
    assert Counter(r["run"] for r in certified) == {
        "heisenberg-center": 100, "zxd8": 200, "prescribe-free": 6, "prescribe-zd": 6}
    for r in certified:
        n = len(r["word"])
        assert r["caps"] == ([n - 1] if n > 1 else []), r
    assert sum(len(r["caps"]) for r in certified) == 310


def test_certify_searches_equal_the_checked_word_length(certified):
    """Each search that ``certify_length`` runs for the 200 zxd8 alphabets,
    the 12 prescription rows and the 100 Heisenberg pairs runs on the
    trusted ``G._mul`` and gives the certificate, field for field, of the
    checked ``word_length`` out to the same cap."""
    for name in ("heisenberg-center", "zxd8", "prescribe-free", "prescribe-zd"):
        assert ex.DEFAULT_RUNS[name]().passed
    searches = 0
    for r in certified:
        S, g = r["S"], r["g"]
        G = S.group
        for mul, trusted in r["searches"]:
            assert mul == G._mul
            assert word_length(G, S, g, len(r["word"]) - 1) == trusted
            searches += 1
    assert searches == 310


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
