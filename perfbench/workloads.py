"""The benchmark's three workloads: inputs, one pass of operations, checks.

A workload builds its inputs once (``__init__``, part of set-up), then runs
passes.  Each pass is the same fixed list of operations; ``run_pass(speed)``
returns the raw program results, one latency per operation and, per
operation, the index of the machine-speed sample taken before it.  ``digest`` turns a
result into a plain comparable value, and ``check`` judges the first pass's
results against the computations in ``reference``; later passes must then
repeat the first pass exactly.

Program functions are always looked up as module attributes at call time, so
the traced run's wrappers see every call.
"""

from __future__ import annotations

import importlib
import io
import json
import random
import sys
import time
from math import gcd

import reference as ref
from speed import Speed
from wordbound import experiments, gensets, groups, metric

girth = importlib.import_module("wordbound.girth")  # the package rebinds the name to the function

# -- queries -------------------------------------------------------------

AUTO_THRESHOLD = 8  # word_length's auto mode searches bidirectionally above this cap


def _alphabets():
    """(label, group, alphabet, longest walk, girth cap range), fixed for all seeds.

    The seed draws targets, caps and the girth queries, so every seed costs
    about the same; the alphabets are the families the paper's claims use.
    """
    Z2, H, D, F = groups.IntVector(2), groups.Heisenberg(), groups.DihedralInfinite(), groups.Free(2)
    ZxZ2 = groups.Product(groups.IntVector(1), groups.FiniteCyclic(2))
    ZxZ3 = groups.Product(groups.IntVector(1), groups.FiniteCyclic(3))
    ZxD8 = groups.Product(groups.IntVector(1), groups.DihedralFinite(4))
    table = [
        ("z2-basis", Z2, [(2, 1), (5, 3)], 14, (4, 8)),  # skewed unimodular bases
        ("z2-basis", Z2, [(3, -2), (7, -5)], 14, (4, 8)),
        ("zxz2", ZxZ2, [((7,), 1), ((3,), 0)], 14, (4, 8)),  # {+-(p,1), +-(q+1,0)}
        ("zxz3", ZxZ3, [((11,), 1), ((4,), 0)], 14, (4, 8)),
        ("h3-standard", H, [(1, 0, 0), (0, 1, 0)], 12, (4, 8)),
        ("h3-pq", H, [(2, 0, 0), (3, 0, 0), (0, 1, 0)], 9, (3, 6)),  # {a^+-p, a^+-q, b^+-1}
        ("dinf-triple", D, [(0, 1), (2, 1), (3, 1)], 14, (4, 10)),  # {s, t^a s, t^b s}
        ("dinf-triple", D, [(0, 1), (3, 1), (5, 1)], 14, (4, 10)),
        ("f2", F, [(1,), (2,), (1, 2)], 7, (3, 6)),
        ("zxd8", ZxD8, [((1,), (1, 0)), ((0,), (0, 1)), ((2,), (1, 1))], 10, (3, 6)),
    ]
    out = []
    for label, G, letters, wmax, caps in table:
        S = gensets.make_symmetric(G, letters)
        if not gensets.generates(G, S).is_yes:
            raise ValueError(f"{label} alphabet does not generate {G}")
        out.append((label, G, S, wmax, caps))
    return out


class Queries:
    """Seeded word_length and girth point queries on small elements."""

    def __init__(self, seed, scale=14):
        """``scale`` queries per alphabet and walk length.

        The mix is stratified so that every seed costs about the same: per
        alphabet, ``scale`` short queries (cap <= AUTO_THRESHOLD, so BFS) for
        each walk length up to wmax // 2 + 1, ``scale`` long queries (cap
        above it, so bidirectional) for each walk length from (wmax + 1) // 2
        to wmax, and one girth query per cap in its range.  The seed draws
        the random walks whose free reductions are the targets, and the caps
        within each stratum.
        """
        rng = random.Random(seed)
        self.alphabets = []
        self.ops = []  # (alphabet index, kind, target, cap)
        for _, G, S, wmax, (glo, ghi) in _alphabets():
            a = len(self.alphabets)
            self.alphabets.append((G, S))
            short = [(w, True) for w in range(1, min(wmax // 2 + 1, AUTO_THRESHOLD) + 1)]
            long = [(w, False) for w in range((wmax + 1) // 2, wmax + 1)]
            for w, is_short in (short + long) * scale:
                word = []
                for _ in range(w):
                    word.append(rng.choice(
                        [s for s in S.symbols() if not word or s != S.inv_symbol(word[-1])]))
                if is_short:
                    cap = rng.randint(w, AUTO_THRESHOLD)
                else:
                    lo = max(w, AUTO_THRESHOLD + 1)
                    cap = rng.randint(lo, lo + 3)
                self.ops.append((a, "length", S.eval_word(word), cap))
            self.ops.extend((a, "girth", None, cap) for cap in range(glo, ghi + 1))
        self.run_pass(Speed(0.05), self.ops[:: max(1, len(self.ops) // 16)])  # warm-up

    def run_pass(self, speed, ops=None):
        results, lat, ticks = [], [], []
        clock = time.perf_counter
        for a, kind, target, cap in self.ops if ops is None else ops:
            G, S = self.alphabets[a]
            ticks.append(speed.tick())
            t0 = clock()
            if kind == "length":
                r = metric.word_length(G, S, target, cap)
            else:
                r = girth.girth(G, S, cap)
            lat.append(clock() - t0)
            results.append(r)
        speed.tick(force=True)
        return results, lat, ticks

    @staticmethod
    def digest(r):
        if isinstance(r, metric.LengthCert):
            return ("length", r.length, r.witness, r.explored)
        return ("girth", r.value, r.witness)

    def check(self, results):
        """Reference BFS lengths, witnesses under the reference law, girths."""
        laws = [ref.law_for(G) for G, _ in self.alphabets]
        letters = [[law.to_ref(x) for x in S.letters] for law, (_, S) in zip(laws, self.alphabets)]
        radius = [0] * len(self.alphabets)
        for (a, kind, _, cap), r in zip(self.ops, results):
            if kind == "length" and r.length is not None:
                radius[a] = max(radius[a], r.length)
        dist = [ref.distances(law, ls, rad) for law, ls, rad in zip(laws, letters, radius)]
        girths = {}
        ok = []
        for (a, kind, target, cap), r in zip(self.ops, results):
            law, ls = laws[a], letters[a]
            if kind == "length":
                t = law.to_ref(target)
                good = (
                    r.length is not None
                    and dist[a].get(t) == r.length
                    and len(r.witness) == r.length
                    and law.eval(ls, r.witness) == t
                )
            else:
                if (a, cap) not in girths:
                    girths[a, cap] = ref.girth(law, ls, cap)
                good = r.value == girths[a, cap] and (
                    r.value is None
                    or (len(r.witness) == r.value and ref.is_simple_loop(law, ls, r.witness))
                )
            ok.append(good)
        return ok


# -- finite --------------------------------------------------------------


def quaternion_group():
    """Q8 as a Cayley table built from quaternion multiplication."""
    names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    index = {ref.Q8_UNITS[n]: i for i, n in enumerate(names)}
    table = tuple(
        tuple(index[ref.qmul(ref.Q8_UNITS[a], ref.Q8_UNITS[b])] for b in names)
        for a in names
    )
    return groups.CayleyTableGroup(names=names, table=table)


def finite_groups():
    """(label, group, |Aut| label) for every group of the finite workload."""
    C = groups.FiniteCyclic
    return [
        ("D8", groups.DihedralFinite(4), "dihedral:4"),
        ("D10", groups.DihedralFinite(5), "dihedral:5"),
        ("D12", groups.DihedralFinite(6), "dihedral:6"),
        ("D16", groups.DihedralFinite(8), "dihedral:8"),
        ("Z2xZ4", groups.Product(C(2), C(4)), "Z2xZ4"),
        ("Z2xZ6", groups.Product(C(2), C(6)), "Z2xZ6"),
        ("Z2^3", groups.Product(C(2), groups.Product(C(2), C(2))), "Z2^3"),
        ("Q8", quaternion_group(), "Q8"),
    ]


class Finite:
    """Exhaustive tables and automorphisms plus a seeded stream of
    generates / closure / ball calls on random alphabets."""

    def __init__(self, seed, scale=16, table_groups=None):
        """One table and one |Aut| per group, then ``scale`` calls for every
        group, kind and number of chosen elements (1 to 4); the seed draws
        the elements.  Ball radii cycle through 1..6."""
        rng = random.Random(seed)
        self.groups = finite_groups()
        self.ops = []  # (group index, kind, argument)
        for i, (label, G, _) in enumerate(self.groups):
            if table_groups is None or label in table_groups:
                self.ops.append((i, "uniform_length_table", None))
                self.ops.append((i, "aut_group", None))
        for n in range(scale * 4):
            for i, (_, G, _) in enumerate(self.groups):
                elems = [x for x in G.elements() if x != G.identity()]
                for kind in ("generates", "closure", "ball"):
                    chosen = rng.sample(elems, 1 + n % 4)
                    if kind == "closure":
                        self.ops.append((i, kind, tuple(chosen)))
                    elif kind == "generates":
                        self.ops.append((i, kind, gensets.make_symmetric(G, chosen)))
                    else:
                        self.ops.append((i, kind, (gensets.make_symmetric(G, chosen), 1 + n % 6)))
        self.run_pass(Speed(0.05), [op for op in self.ops if op[1] != "uniform_length_table"][:64])  # warm-up

    def run_pass(self, speed, ops=None):
        results, lat, ticks = [], [], []
        clock = time.perf_counter
        for i, kind, arg in self.ops if ops is None else ops:
            G = self.groups[i][1]
            ticks.append(speed.tick())
            t0 = clock()
            if kind == "uniform_length_table":
                r = experiments.uniform_length_table(G)
            elif kind == "aut_group":
                r = experiments.aut_group(G)
            elif kind == "generates":
                r = gensets.generates(G, arg)
            elif kind == "closure":
                r = groups.closure(G, arg)
            else:
                r = metric.ball(G, arg[0], arg[1])
            lat.append(clock() - t0)
            results.append(r)
        speed.tick(force=True)
        return results, lat, ticks

    @staticmethod
    def digest(r):
        if isinstance(r, dict):  # uniform_length_table
            return tuple((g, d, S.letters) for g, (d, S) in r.items())
        if isinstance(r, list):  # aut_group
            return tuple(tuple(A.mapping.items()) for A in r)
        if isinstance(r, gensets.GenerationResult):
            return (r.status, r.reason)
        if isinstance(r, set):
            return frozenset(r)
        return tuple(r.table.items())

    def check(self, results):
        """Known |Aut|, brute-force uniform lengths, reference closures and balls."""
        laws = [ref.law_for(G) for _, G, _ in self.groups]
        brute = {}
        ok = []
        for (i, kind, arg), r in zip(self.ops, results):
            _, G, aut_label = self.groups[i]
            law = laws[i]
            whole = len(law.elements)
            if kind == "uniform_length_table":
                if i not in brute:
                    brute[i] = ref.uniform_lengths(law)
                good = len(r) == whole
                for g, (d, S) in r.items():
                    ls = [law.to_ref(x) for x in S.letters]
                    good = good and brute[i][law.to_ref(g)] == d
                    good = good and len(ref.closure(law, ls)) == whole
                    good = good and ref.distances(law, ls, whole).get(law.to_ref(g)) == d
            elif kind == "aut_group":
                maps = [{law.to_ref(a): law.to_ref(b) for a, b in A.mapping.items()} for A in r]
                good = (
                    len(r) == ref.aut_order(aut_label)
                    and len({tuple(sorted(m.items())) for m in maps}) == len(maps)
                    and all(ref.is_automorphism(law, m) for m in maps)
                )
            elif kind == "generates":
                full = len(ref.closure(law, [law.to_ref(x) for x in arg.letters])) == whole
                good = r.status == ("yes" if full else "no")
            elif kind == "closure":
                good = {law.to_ref(x) for x in r} == ref.closure(law, [law.to_ref(x) for x in arg])
            else:
                S, radius = arg
                dist = ref.distances(law, [law.to_ref(x) for x in S.letters], radius)
                good = {law.to_ref(g): d for g, (d, _) in r.table.items()} == dist
            ok.append(bool(good))
        return ok


# -- suite ---------------------------------------------------------------

SUITE_ARGV = ["experiment", "all", "--format", "json"]


def run_cli(argv):
    """Run the wordbound CLI in this process; (exit code, stdout bytes)."""
    from wordbound import cli

    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    saved = sys.stdout
    sys.stdout = out
    try:
        cli.main.main(argv, prog_name="wordbound", standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        out.flush()
        sys.stdout = saved
    return code, buf.getvalue()


def split_reports(data):
    """The concatenated JSON documents of `experiment all`, as (obj, bytes)."""
    text = data.decode("utf-8")
    dec = json.JSONDecoder()
    out = []
    pos = 0
    while pos < len(text):
        obj, end = dec.raw_decode(text, pos)
        end = text.index("\n", end) + 1
        out.append((obj, text[pos:end].encode("utf-8")))
        pos = end
    return out


class Suite:
    """The twelve DEFAULT_RUNS experiments through `experiment all --format json`.

    Each experiment is one operation.  Its latency is taken by a timer around
    the CLI's ``_run_named``, which `experiment all` calls once per
    experiment; a speed sample is taken before every experiment, outside the
    spans the traced run puts around the DEFAULT_RUNS entries.
    """

    def __init__(self, seed=None):
        """The seed is not used: DEFAULT_RUNS fixes its own."""
        from wordbound import cli

        self.names = sorted(experiments.DEFAULT_RUNS)
        self._lat = {}
        self._ticks = {}
        self._speed = Speed(0)
        cli._run_named = self._timed(cli._run_named)
        run_cli(["experiment", "quotient-orbit", "--format", "json"])  # warm-up

    def _timed(self, fn):
        def run_named(name):
            self._ticks[name] = self._speed.tick()
            t0 = time.perf_counter()
            try:
                return fn(name)
            finally:
                self._lat[name] = time.perf_counter() - t0
        return run_named

    def run_pass(self, speed):
        self._lat.clear()
        self._ticks.clear()
        self._speed = speed
        code, data = run_cli(SUITE_ARGV)
        speed.tick(force=True)
        try:
            reports = split_reports(data)
        except ValueError:
            reports = []
        results = [(code, reports[k] if k < len(reports) else None) for k in range(len(self.names))]
        return (results, [self._lat.get(n, 0.0) for n in self.names],
                [self._ticks.get(n, 0) for n in self.names])

    @staticmethod
    def digest(r):
        code, rep = r
        return code, None if rep is None else rep[1]

    def check(self, results):
        return [_check_report(name, code, rep) for name, (code, rep) in zip(self.names, results)]


def _check_report(name, code, rep):
    """Exit 0, every verdict passed and the closed forms hold; a report whose
    fields are missing or mistyped fails its operation instead of the run."""
    try:
        return bool(
            code == 0 and rep is not None and rep[0]["name"] == name
            and all(v["pass"] for v in rep[0]["verdicts"])
            and SUITE_CHECKS[name](rep[0]))
    except (KeyError, IndexError, TypeError, ValueError):
        return False


def _check_zxzq(rep):
    q = rep["params"]["q"]
    return [r["p"] for r in rep["rows"]] == rep["params"]["primes"] and all(
        r["length"] == r["p"] + q + 1 for r in rep["rows"])


def _check_zd(rep):
    x = rep["params"]["x"]
    ok = len(rep["rows"]) == len(rep["params"]["pairs"])
    for (p, q), r in zip(rep["params"]["pairs"], rep["rows"]):
        a, b = r["a"], r["b"]
        # own Bezout solve: every (a, b) with b p - a q = 1, least |a| + |b|
        sols = [(a2, b2) for a2 in range(-p - q, p + q + 1) for b2 in range(-p - q, p + q + 1)
                if b2 * p - a2 * q == 1]
        least = min(abs(a2) + abs(b2) for a2, b2 in sols)
        # x = alpha (p, a) + beta (q, b) by Cramer's rule, determinant 1
        alpha = x[0] * b - q * x[1]
        beta = p * x[1] - a * x[0]
        ok = ok and (r["p"], r["q"]) == (p, q) and b * p - a * q == 1 and abs(a) + abs(b) == least
        ok = ok and r["length"] == abs(alpha) + abs(beta) + sum(abs(c) for c in x[2:])
    return ok


def _ref_length(G, letters, target, radius):
    law = ref.law_for(G)
    return ref.distances(law, [law.to_ref(s) for s in letters], radius).get(law.to_ref(target))


def _check_heisenberg(rep):
    n = rep["params"]["n"]
    lengths = [r["length"] for r in rep["rows"]]
    ok = all(u < w for u, w in zip(lengths, lengths[1:]))
    for r in rep["rows"]:
        p, q = r["p"], r["q"]
        letters = [(p, 0, 0), (-p, 0, 0), (q, 0, 0), (-q, 0, 0), (0, 1, 0), (0, -1, 0)]
        ok = ok and r["length"] <= r["upper_bound"]
        ok = ok and _ref_length(groups.Heisenberg(), letters, (0, 0, n), r["length"]) == r["length"]
    return ok


def _check_dinfty(rep):
    ok = True
    for r in rep["rows"]:
        a, b = r["alpha"], r["beta"]
        letters = [(0, 1), (a, 1), (b, 1)]  # reflections are their own inverses
        ok = ok and _ref_length(groups.DihedralInfinite(), letters, (1, 0), r["length"]) == r["length"]
    return ok


def _check_heisenberg_center(rep):
    law = ref.law_for(groups.Heisenberg())
    ok = len(rep["rows"]) == rep["params"]["count"]
    for r in rep["rows"]:
        x = law.to_ref(tuple(json.loads(r["x"])))
        y = law.to_ref(tuple(json.loads(r["y"])))
        com = law.mul(law.mul(x, y), law.mul(law.inv(x), law.inv(y)))
        ok = ok and com == (0, 0, r["exponent"]) and abs(r["exponent"]) == 1 and r["length"] <= 4
        letters = [x, law.inv(x), y, law.inv(y)]
        ok = ok and ref.distances(law, letters, 4).get((0, 0, 1)) == r["length"]
    return ok


def _check_zxd8(rep):
    G = groups.Product(groups.IntVector(1), groups.DihedralFinite(4))
    ok = len(rep["rows"]) == rep["params"]["samples"]
    for r in rep["rows"]:
        letters = [(tuple(t), tuple(f)) for t, f in json.loads(r["letters"])]
        ok = ok and r["length"] <= 4 and _ref_length(G, letters, ((0,), (2, 0)), 4) == r["length"]
    return ok


def _check_prescribe(rep):
    rows = rep["rows"]
    return [[r["l"], r["u"], r["v"]] for r in rows] == rep["params"]["triples"] and all(
        r["length"] == r["l"] + 1 for r in rows)


def _check_quotient_orbit(rep):
    return rep["params"]["orbit_size"] == rep["params"]["p"] - 1


def _dihedral_uniform(n):
    law = ref.law_for(groups.DihedralFinite(n))
    best = ref.uniform_lengths(law)
    return {str([k, e]): best[ref.dihedral_perm(n, k, e)] for e in (0, 1) for k in range(n)}


def _check_aut_orbit(rep):
    expect = {}
    for q in (5, 8):
        best = ref.uniform_lengths(ref.law_for(groups.FiniteCyclic(q)))
        for k in range(q):
            units = [u for u in range(1, q) if gcd(u, q) == 1]
            expect["Z/%d" % q, str(k)] = (best[k], len({u * k % q for u in units}))
    for elem, m in _dihedral_uniform(4).items():
        expect["D8", elem] = (m, None)
    ok = len(rep["rows"]) == len(expect)
    for r in rep["rows"]:
        m, orbit = expect.get((r["group"], r["element"]), (None, None))
        ok = ok and r["max_length"] == m and (orbit is None or r["orbit_size"] == orbit)
    return ok


def _check_uniform_length(rep):
    expect = _dihedral_uniform(4)
    return len(rep["rows"]) == len(expect) and all(
        expect.get(r["element"]) == r["max_length"] for r in rep["rows"])


def _check_fc_witness(rep):
    law = ref.law_for(groups.Heisenberg())
    radius = rep["params"]["radius"]
    a, b = law.to_ref((1, 0, 0)), law.to_ref((0, 1, 0))
    dist = ref.distances(law, [a, law.inv(a), b, law.inv(b)], radius)
    ok = len(rep["rows"]) == radius
    for row in rep["rows"]:
        ball = [x for x, d in dist.items() if d <= row["r"]]
        conj = [{law.mul(law.mul(x, g), law.inv(x)) for x in ball} for g in (a, (0, 0, 1))]
        ok = ok and row["conjugates_of_a"] == len(conj[0]) and row["conjugates_of_c"] == len(conj[1])
    return ok


SUITE_CHECKS = {
    "aut-orbit": _check_aut_orbit,
    "dinfty": _check_dinfty,
    "fc-witness": _check_fc_witness,
    "heisenberg": _check_heisenberg,
    "heisenberg-center": _check_heisenberg_center,
    "prescribe-free": _check_prescribe,
    "prescribe-zd": _check_prescribe,
    "quotient-orbit": _check_quotient_orbit,
    "uniform-length": _check_uniform_length,
    "zd": _check_zd,
    "zxd8": _check_zxd8,
    "zxzq": _check_zxzq,
}

WORKLOADS = {"suite": Suite, "queries": Queries, "finite": Finite}
