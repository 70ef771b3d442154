"""Acceptance gate: one check and one printed verdict line per criterion.

Every numeric target was independently re-derived (BFS oracle, exhaustive
enumeration, or closed form checked by search) before being frozen here.
The girth targets of criterion 5 rest on the hand proof in its docstring.
"""

import random
import time

from oracles import girth_reference, random_element

from wordbound import experiments as ex
from wordbound import groups as gr
from wordbound.gensets import (
    make_symmetric,
    project_genset,
    project_right,
    heisenberg_abelianization,
)
from wordbound.girth import (
    girth,
    is_cyclically_reduced,
    simple_loop_check,
)
from wordbound.metric import ball, word_length

CRITERION_LINES = []


def _verdict(num, desc, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({elapsed:.2f} s)" if elapsed is not None else ""
    line = f"{status} [criterion {num:2d}] {desc}{suffix}"
    CRITERION_LINES.append(line)
    print(line)
    return ok


def _symm(G, elems):
    return make_symmetric(G, elems)


def test_criterion_01_torsion_length_formula():
    t0 = time.perf_counter()
    got = []
    for q, p in [(2, 5), (3, 5), (5, 7)]:
        G = gr.Product(gr.IntVector(1), gr.FiniteCyclic(q))
        S = _symm(G, [((p,), 1), ((q + 1,), 0)])
        got.append(word_length(G, S, ((0,), 1), cap=p + q + 2).length)
    elapsed = time.perf_counter() - t0
    ok = got == [8, 9, 13] and elapsed < 1.0
    assert _verdict(1, f"l_S((0,1)) = p+q+1: got {got}", ok, elapsed), got


def test_criterion_02_heisenberg_control_and_growth():
    t0 = time.perf_counter()
    G = gr.Heisenberg()
    S = _symm(G, [(1, 0, 0), (0, 1, 0)])
    base = word_length(G, S, (0, 0, 1), cap=6).length
    rep = ex.unbounded_witness_heisenberg(1, [(2, 3), (3, 5), (5, 7)])
    lengths = [r["length"] for r in rep.rows]
    elapsed = time.perf_counter() - t0
    ok = (base == 4
          and all(a < b for a, b in zip(lengths, lengths[1:]))
          and elapsed < 10.0)
    assert _verdict(
        2, f"l(c) = {base} with standard letters; ladder {lengths} grows",
        ok, elapsed), (base, lengths)


def test_criterion_03_center_certificates():
    rep = ex.heisenberg_center_experiment(100, seed=0)
    ok = rep.passed and len(rep.rows) == 100
    assert _verdict(
        3, "100 generating pairs: [x,y] = c^±1 and l_S(c) <= 4", ok), rep.verdicts


def test_criterion_04_prescribed_lengths():
    _, cert = ex.prescribe_length_free(2, (1,), 2, 7, 23)
    spot_ok = cert.length == 3
    grids = [ex.prescribe_length_experiment(kind) for kind in ("free", "zd")]
    grid_ok = all(rep.passed and len(rep.rows) >= 6 for rep in grids)
    ok = spot_ok and grid_ok
    assert _verdict(
        4, "l_E(g) = l+1 for the spot case and a 6-point grid, free and Z^d",
        ok), (cert.length, [r.rows for r in grids])


def _simple_loop_problems(G, S, value, w):
    """Reasons why w is not a cyclically reduced simple loop of length value
    at the identity; empty when it is one."""
    if not w:
        return ["empty witness"]
    problems = []
    if not is_cyclically_reduced(S, w):
        problems.append("not cyclically reduced")
    if len(w) != value:
        problems.append(f"length {len(w)} != {value}")
    path = [G.identity()]
    for sym in w:
        path.append(G.mul(path[-1], S.element(sym)))
    if path[-1] != G.identity():
        problems.append("does not close at the identity")
    if len(set(path[:-1])) != len(w):
        problems.append("revisits a vertex")
    return problems


def test_criterion_05_girth_table():
    """Girth of six Cayley graphs, computed by the production search.

    Both Z rows have girth exactly 4, with S = {±p, ±q}, (p, q) = (2, 3) or
    (3, 5).

    At most 4: in an abelian group the letters g, h give the commutation
    relation g h g^-1 h^-1.  For {±2,±3} it walks 0 -> 2 -> 5 -> 3 -> 0, for
    {±3,±5} it walks 0 -> 3 -> 8 -> 5 -> 0: four distinct vertices, a
    cyclically reduced word, closing at 0.

    At least 4: a length-2 loop is x x^-1, which is not reduced.  A length-3
    loop needs three letters of {±p,±q} summing to 0.  Three letters of one
    sign cannot.  With two of one sign and one of the other, the pair sums to
    2p, p+q or 2q in absolute value; as q < 2p (3 < 4, 5 < 6) that exceeds
    every single letter, so the sum is not 0.

    The relation a^q b^-p (e.g. 0 -> 2 -> 4 -> 6 -> 3 -> 0) has length p+q
    (5 and 8); it is a simple loop, but not the shortest one.

    Each finite value is backed by its witness, checked to be a simple loop
    of that length, and by the reference search finding no shorter loop.
    These checks run after the timed region.
    """
    t0 = time.perf_counter()
    Z = gr.IntVector(1)
    cases = [
        (Z, [(2,)], 10, None, "Z, {±2} (a line)"),
        (Z, [(2,), (3,)], 10, 4, "Z, {±2,±3}"),
        (Z, [(3,), (5,)], 12, 4, "Z, {±3,±5}"),
        (gr.IntVector(2), [(1, 0), (0, 1)], 8, 4, "Z^2 units"),
        (gr.DihedralFinite(4), [(1, 0), (0, 1)], 8, 4, "D8"),
        (gr.Free(2), [(1,), (2,)], 12, None, "F2 basis"),
    ]
    results = {}
    for G, elems, cap, _, label in cases:
        S = _symm(G, elems)
        results[label] = (G, S, girth(G, S, cap=cap))
    elapsed = time.perf_counter() - t0

    got = {label: res.value for label, (_, _, res) in results.items()}
    problems = []
    for label, (G, S, res) in results.items():
        if res.value is None:
            continue
        problems += [f"{label}: witness {p}"
                     for p in _simple_loop_problems(G, S, res.value, res.witness)]
        if girth_reference(G, S, cap=res.value - 1).value is not None:
            problems.append(f"{label}: reference finds a loop shorter than {res.value}")
    want = {label: value for _, _, _, value, label in cases}
    ok = got == want and not problems and elapsed < 5.0
    _verdict(5, f"girth table {got}", ok, elapsed)
    assert ok, (
        f"girth table {got}, expected {want}; witness or minimality "
        f"problems: {problems}; elapsed {elapsed:.2f} s (bound 5.0 s)"
    )


def test_criterion_06_simple_loops_from_torsion():
    failures = []
    targets = [gr.DihedralFinite(4)] + [gr.FiniteCyclic(q) for q in range(2, 13)]
    for G in targets:
        for g in G.elements():
            order = G.element_order(g)
            if order == 1:
                continue
            # the witness alphabet must contain g itself: with a multi-letter
            # geodesic the power walk may lap (g = 2 in Z/5 revisits vertices)
            S = _symm(G, G.standard_generators() + [g])
            cert = word_length(G, S, g, cap=G.size)
            verdict = simple_loop_check(G, S, g, cert.witness)
            if not (verdict.ok and verdict.loop_length == order * len(cert.witness)):
                failures.append((str(G), g, verdict.reason))
    ok = not failures
    assert _verdict(
        6, "power walks of geodesic witnesses are simple loops "
           "(D8 and Z/q, q <= 12)", ok), failures


def _unimodular(rng):
    m = [[1, 0], [0, 1]]
    for _ in range(rng.randint(2, 6)):
        c = rng.choice([-2, -1, 1, 2])
        if rng.randrange(2):
            m[0] = [m[0][0] + c * m[1][0], m[0][1] + c * m[1][1]]
        else:
            m[1] = [m[1][0] + c * m[0][0], m[1][1] + c * m[0][1]]
    return m


def test_criterion_07_property_suites():
    rng = random.Random(1009)
    failures = {"inverse": 0, "subadditive": 0, "equivariance": 0, "quotient": 0}

    cases = []
    for G, elems, radius in [
        (gr.IntVector(2), [(2, 1), (1, 1)], 6),
        (gr.Heisenberg(), [(1, 0, 0), (0, 1, 0)], 5),
        (gr.DihedralInfinite(), [(1, 0), (0, 1)], 8),
        (gr.Product(gr.IntVector(1), gr.FiniteCyclic(3)), [((1,), 1), ((2,), 0)], 7),
        (gr.DihedralFinite(4), [(1, 0), (0, 1)], 8),
    ]:
        S = _symm(G, elems)
        B = ball(G, S, 2 * radius)
        inner = [g for g, (d, _) in B.table.items() if d <= radius]
        cases.append((G, S, B, inner))

    # inverse symmetry: l(g) = l(g^-1)
    for i in range(10_000):
        G, S, B, inner = cases[i % len(cases)]
        g = rng.choice(inner)
        if B.length(g) != B.length(G.inv(g)):
            failures["inverse"] += 1

    # subadditivity: l(gh) <= l(g) + l(h)
    for i in range(10_000):
        G, S, B, inner = cases[i % len(cases)]
        g, h = rng.choice(inner), rng.choice(inner)
        if B.length(G.mul(g, h)) > B.length(g) + B.length(h):
            failures["subadditive"] += 1

    # unimodular equivariance on Z^2: l_S(g) = l_AS(Ag)
    Z2 = gr.IntVector(2)
    S0 = _symm(Z2, [(1, 0), (0, 1)])
    B0 = ball(Z2, S0, 6)
    elems0 = list(B0.table)
    for _ in range(10):
        A = _unimodular(rng)

        def apply(v, A=A):
            return (A[0][0] * v[0] + A[0][1] * v[1],
                    A[1][0] * v[0] + A[1][1] * v[1])

        SA = _symm(Z2, [apply(x) for x in (S0.letters[0], S0.letters[2])])
        BA = ball(Z2, SA, 6)
        for _ in range(500):
            g = rng.choice(elems0)
            if BA.length(apply(g)) != B0.length(g):
                failures["equivariance"] += 1
    # Heisenberg a<->b swap with c -> c^-1 fixes the standard alphabet
    H = gr.Heisenberg()
    SH = _symm(H, [(1, 0, 0), (0, 1, 0)])
    BH = ball(H, SH, 5)

    def swap(g):
        i, j, l = g
        return (j, i, -l - i * j)

    for _ in range(200):  # homomorphism spot check
        g = random_element(H, rng, size=5)
        h = random_element(H, rng, size=5)
        assert swap(H.mul(g, h)) == H.mul(swap(g), swap(h))
    elemsH = list(BH.table)
    for _ in range(5_000):
        g = rng.choice(elemsH)
        if BH.length(swap(g)) != BH.length(g):
            failures["equivariance"] += 1

    # quotient monotonicity: l drops through surjections
    quotients = []
    Gq = gr.Product(gr.IntVector(1), gr.FiniteCyclic(3))
    Sq = _symm(Gq, [((1,), 1), ((2,), 0)])
    quotients.append((project_right(Gq), Sq, 7))
    quotients.append((heisenberg_abelianization(), SH, 5))
    for pi, S, radius in quotients:
        Bsrc = ball(pi.source, S, radius)
        T = project_genset(pi, S)
        Btgt = ball(pi.target, T, radius)
        src = list(Bsrc.table)
        for _ in range(5_000):
            g = rng.choice(src)
            if Btgt.length(pi.apply(g)) > Bsrc.length(g):
                failures["quotient"] += 1

    ok = not any(failures.values())
    assert _verdict(
        7, f"property suites (10^4 samples each), failures: {failures}",
        ok), failures


def test_criterion_08_aut_orbit_bound():
    rep = ex.aut_orbit_experiment()
    ok = rep.passed and all(r["ok"] for r in rep.rows)
    assert _verdict(
        8, "|Aut(G).g| <= n^M and orbit within B_S(M) for Z/5, Z/8, D8",
        ok), rep.rows


def test_criterion_09_zxd8_boundedness():
    rep = ex.bound_witness_zxd8(samples=200, seed=42, radius=10)
    ok = rep.passed and len(rep.rows) == 200
    assert _verdict(
        9, "200 sampled generating sets of Z x D8 give l((0,z)) <= 4", ok)


def test_criterion_10_quotient_orbit_growth():
    sizes = {}
    ok = True
    for p in (5, 7, 11):
        rep = ex.quotient_orbit_experiment(p, list(range(1, p)))
        sizes[p] = rep.params["orbit_size"]
        ok = ok and rep.passed and sizes[p] == p - 1
    assert _verdict(
        10, f"power maps validate on D_2p and orbit sizes {sizes} = p-1",
        ok), sizes


def test_criterion_11_exact_uniform_length():
    length, _ = ex.uniform_length_exact(gr.FiniteCyclic(5), 1)
    golden_ok = (ex.D8_GOLDEN_PATH.exists()
                 and ex.D8_GOLDEN_PATH.read_bytes() == ex.d8_uniform_table_bytes())
    ok = length == 2 and golden_ok
    assert _verdict(
        11, f"uniform_length_exact(Z/5, 1) = {length}; D8 golden table "
            "byte-identical on regeneration", ok)


def test_criterion_12_fc_witness():
    rep = ex.fc_witness_experiment(4)
    off_center = [r["conjugates_of_a"] for r in rep.rows]
    central = [r["conjugates_of_c"] for r in rep.rows]
    ok = (rep.passed
          and all(a < b for a, b in zip(off_center, off_center[1:]))
          and all(c == 1 for c in central))
    assert _verdict(
        12, f"conjugate counts of a grow {off_center}; of c stay {central}",
        ok)
