"""Experiment layer: every quantitative claim as a checkable, seeded run.

Unboundedness ladders, boundedness certificates, automorphism orbits, FC
witnesses, prescribed-length constructions and quotient-orbit growth.  Every
length in a report row comes from an exact search: a BFS ball, or
``certify_length``, with a checked word for the upper bound and an
exhaustive search one radius short of it for the lower.  The four
unboundedness ladders (``zxzq``, ``zd``, ``heisenberg``, ``dinfty``) check
all their parameters, then hand one runner, :func:`_ladder`, one step per
row with the word their formula names, and it certifies each word.
Formula columns are compared against the search, never substituted for
it.  The D8 golden table is only read: ``uniform-length`` compares it with
the bytes :func:`d8_uniform_table_bytes` rebuilds, and no function writes
it.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from types import MappingProxyType

from . import groups as gr
from .errors import NotGeneratingError, UnsupportedFamilyError
from .gensets import (
    GenSet, _ext_gcd, _generates_split, dihedral_mod, generates, inverse_pair_classes, make_symmetric)
from .metric import _grow, _reserve, _split, ball, certify_length
from .reports import ExperimentReport, Verdict

GOLDEN_DIR = Path(__file__).parent / "golden"

# Fixed sizes of the experiments; the caps bound exhaustive work.
AUT_GROUP_CAP = 24  # elements of a group aut_group enumerates
UNIFORM_LENGTH_CAP = 16  # elements of a group in the exhaustive uniform table
QUOTIENT_ORBIT_MAX_P = 257  # p of quotient_orbit_experiment: p - 1 maps of 2p entries
ZXD8_MAX_ATTEMPTS = 500  # draws of sample_zxd8_genset before it gives up
PRESCRIBE_RANK = 2  # rank of F_k and Z^d in prescribe_length_experiment


# -- small number-theory helpers -----------------------------------------


def _is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def min_coefficients(p, q, u):
    """Minimal |alpha| + |beta| with alpha*p + beta*q == u, for coprime p, q.

    Returns (cost, (alpha, beta)) with the smallest minimising t in the
    general solution (a0 + t*step_a, b0 - t*step_b).  The cost is convex and
    piecewise linear in t with breakpoints -a0/step_a and b0/step_b, so an
    integer minimum lies at the floor or ceiling of one of them; both are
    found exactly with integer division.  A zero step has no breakpoint: its
    term does not move with t.
    """
    if p == q == 0:
        raise ValueError("p and q must not both be 0")
    g, x, y = _ext_gcd(p, q)
    if u % g:
        raise ValueError(f"{u} is not a multiple of gcd({p},{q})")
    a0 = x * (u // g)
    b0 = y * (u // g)
    step_a, step_b = q // g, p // g
    candidates = set()
    for num, den in ((-a0, step_a), (b0, step_b)):
        if den == 0:
            continue
        candidates.add(num // den)  # floor
        candidates.add(-(-num // den))  # ceiling
    best = None
    for t in sorted(candidates):
        a = a0 + t * step_a
        b = b0 - t * step_b
        cost = abs(a) + abs(b)
        if best is None or cost < best[0]:
            best = (cost, (a, b))
    return best


def _min_bezout(p, q):
    """(a, b) with b*p - a*q == 1 and |a| + |b| minimal."""
    _, (alpha, beta) = min_coefficients(p, q, 1)
    return -beta, alpha


def _strictly_increasing(xs):
    """Whether the list xs grows at every step; False on fewer than two
    values, which show no growth."""
    return len(xs) >= 2 and all(a < b for a, b in zip(xs, xs[1:]))


def _nonempty(name, items):
    """``items`` as a tuple; ValueError when there are none, since a report
    over no rows would pass every verdict."""
    items = tuple(items)
    if not items:
        raise ValueError(f"{name} must not be empty")
    return items


# -- automorphisms of small finite groups --------------------------------


def _generating_sequence(G, elems):
    """G's greedy generating sequence: each of ``elems``, in order, that the
    ones kept before it do not generate."""
    gens = []
    cl = {G.identity()}
    for x in elems:
        if x not in cl:
            gens.append(x)
            cl = gr.closure(G, gens)
    return gens


@dataclass
class Automorphism:
    """A validated automorphism of a finite group, as an element mapping."""

    group: gr.Group
    mapping: dict

    @classmethod
    def build(cls, G, mapping):
        """Validate a bijection phi of G with phi(xs) = phi(x)phi(s) for every
        x in G and s in G's greedy generating sequence S: |G|*|S| products.

        That suffices: phi(s) = phi(e)phi(s) gives phi(e) = e, and every y is
        a positive word s_1...s_n in S (s^-1 = s^(ord s - 1) in a finite
        group), so by induction on n, phi(xy) = phi(x s_1...s_(n-1))phi(s_n)
        = phi(x)phi(s_1...s_(n-1))phi(s_n) = phi(x)phi(y).
        """
        elems = list(G.elements())
        return cls._checked(G, mapping, elems, _generating_sequence(G, elems))

    @classmethod
    def _checked(cls, G, mapping, elems, gens):
        if set(mapping) != set(elems) or set(mapping.values()) != set(elems):
            raise ValueError("mapping is not a bijection of the group")
        # Equal is not identical (1.0 == 1): check each image once, then
        # multiply unchecked, and store G's own elements as the keys.
        for y in mapping.values():
            G.check(y)
        mul = G._mul
        for s in gens:
            image = mapping[s]
            for x in elems:
                if mapping[mul(x, s)] != mul(mapping[x], image):
                    raise ValueError(f"mapping is not multiplicative at {x!r}, {s!r}")
        return cls(group=G, mapping={x: mapping[x] for x in elems})

    def apply(self, g):
        return self.mapping[g]


def aut_group(G):
    """All automorphisms of a finite group of at most ``AUT_GROUP_CAP`` elements.

    Tries every image of the greedy generating sequence that keeps each
    generator's order; :meth:`Automorphism.build` checks each on it.
    """
    size = G.size
    if size is None:
        raise UnsupportedFamilyError("automorphism enumeration needs a finite group")
    if size > AUT_GROUP_CAP:
        raise UnsupportedFamilyError(f"group of size {size} exceeds the cap {AUT_GROUP_CAP}")
    elems = list(G.elements())
    e = G.identity()
    gens = _generating_sequence(G, elems)
    # discovery schedule: every element h as parent * generator, the parent
    # read back from the table as h * s^-1.  No element lies further than
    # size - 1 letters out, so the radius ``size`` reaches all of G.
    mul = G._mul  # gens and the candidate images are enumerated elements
    table = _grow(G, mul, gens, size)
    inverses = [G.inv(s) for s in gens]
    schedule = [(h, mul(h, inverses[gi]), gi) for h, (_, gi) in table.items() if h != e]
    orders = {x: G.element_order(x) for x in elems}
    candidates = [
        [y for y in elems if orders[y] == orders[s]] for s in gens
    ]
    autos = []
    for images in itertools.product(*candidates):
        phi = {e: e}
        for h, parent, gi in schedule:
            phi[h] = mul(phi[parent], images[gi])
        try:
            autos.append(Automorphism._checked(G, phi, elems, gens))
        except ValueError:
            continue
    return autos


# -- exact uniform length over all generating sets -----------------------


def uniform_length_table(G):
    """For every element, the max word length over ALL generating sets.

    Returns an ordered dict element -> (max length, first argmax GenSet).
    Every symmetric subset of G minus the identity is a union of
    inverse-pair classes, so the sets are the masks 1 .. 2^c - 1 of G's c
    classes, taken in increasing order; a mask's alphabet is
    ``GenSet.from_classes`` of its classes in order.  Its ball out to
    ``G.size``, grown on the mask's letters with the trusted ``G._mul`` as
    ``ball`` grows it, gives every length and also decides generation: the
    mask generates G exactly when the ball holds all of it.  The letters
    are enumerated elements, so a mask's ``GenSet`` is built, and checked,
    only when it becomes some element's argmax.
    """
    if not G.is_finite or G.size > UNIFORM_LENGTH_CAP:
        raise UnsupportedFamilyError(
            f"exhaustive enumeration is capped at {UNIFORM_LENGTH_CAP} elements")
    classes = inverse_pair_classes(G, G.elements())
    if not classes:
        raise UnsupportedFamilyError("group has no generating subsets (trivial group)")
    size = G.size
    table = {g: (0, None) for g in G.elements()}
    for mask in range(1, 1 << len(classes)):
        chosen = [c for i, c in enumerate(classes) if mask >> i & 1]
        lengths = _grow(G, G._mul, [x for c in chosen for x in c], size)
        if len(lengths) < size:
            continue
        S = None
        for g, (best, argmax) in table.items():
            d = lengths[g][0]
            if argmax is None or d > best:
                if S is None:
                    S = GenSet.from_classes(G, chosen)
                table[g] = (d, S)
    return table


def uniform_length_exact(G, g):
    """(max length of g over all generating sets, a witnessing GenSet)."""
    G.check(g)
    return uniform_length_table(G)[g]


# -- conjugacy orbits ----------------------------------------------------


def conjugacy_orbit_growth(G, g, radius):
    """(r, number of distinct conjugates x g x^-1 with x in B(r)) for r=1..radius."""
    G.check(g)
    S = make_symmetric(G, G.standard_generators())
    B = ball(G, S, radius)
    conjugates = {g}
    counts = []
    by_distance = {}
    for x, (d, _) in B.table.items():
        by_distance.setdefault(d, []).append(x)
    for r in range(1, radius + 1):
        for x in by_distance.get(r, []):
            conjugates.add(G.mul(G.mul(x, g), G.inv(x)))
        counts.append((r, len(conjugates)))
    return counts


# -- words over an alphabet ----------------------------------------------


def _inverse(S, word):
    """The inverse of a word over S: its letters' inverses, in reverse."""
    return tuple(S.inv_symbol(s) for s in reversed(word))


def _letter_power(S, x, n):
    """x^n for a letter x of S: |n| copies of x or of its inverse.  The
    empty word when n is 0, even if x is the identity, which no alphabet
    carries."""
    if not n:
        return ()
    symbol = S.symbol_of(x)
    return (symbol if n > 0 else S.inv_symbol(symbol),) * abs(n)


def _commutator(S, x, y):
    """The word x y x^-1 y^-1 for words x and y over S."""
    return x + y + _inverse(S, x) + _inverse(S, y)


# -- unboundedness ladders -----------------------------------------------


def _generating(G, letters, what):
    """The symmetric alphabet of ``letters``; NotGeneratingError naming
    ``what`` unless it certainly generates G."""
    S = make_symmetric(G, letters)
    res = generates(G, S)
    if not res.is_yes:
        raise NotGeneratingError(f"{what}: {res.reason}")
    return S


def _coprime_pairs(pairs):
    """``pairs`` as a tuple, each entry checked before any search: a
    ValueError for no pairs or an entry that is not two ints (a bool is
    not one), a NotGeneratingError for a pair that is not coprime."""
    pairs = _nonempty("pairs", pairs)
    for pair in pairs:
        if len(pair) != 2 or any(type(c) is not int for c in pair):
            raise ValueError(f"pair {pair!r} must be two integers")
        if gcd(*pair) != 1:
            raise NotGeneratingError("({},{}) must be coprime".format(*pair))
    return pairs


def _ladder(name, params, G, g, steps, verdicts):
    """The report of a ladder: one certified length of g in G per step.

    A step is plain data, (head, letters, what, pieces, tail): the row's
    columns before ``length``; the letters whose symmetric alphabet S
    :func:`_generating` confirms generates G, naming ``what`` if not; g's
    word over S as (letter, exponent) pieces, each spelled by
    :func:`_letter_power`; and the columns after ``length``.
    :func:`certify_length` checks the word and searches one radius short of
    it.  A row with an ``expected`` column gets a ``match`` column after it.
    ``verdicts(rows, lengths)`` gives the report's verdicts.  Callers check
    their parameters before they pass the steps, so a bad last entry is
    refused before the first search.
    """
    rows = []
    for head, letters, what, pieces, tail in steps:
        S = _generating(G, letters, what)
        word = sum((_letter_power(S, x, n) for x, n in pieces), ())
        row = {**head, "length": certify_length(G, S, g, word).length, **tail}
        if "expected" in row:
            row["match"] = row["length"] == row["expected"]
        rows.append(row)
    lengths = [r["length"] for r in rows]
    return ExperimentReport(name=name, params=params, rows=rows, verdicts=verdicts(rows, lengths))


def _lengths_increase(rows, lengths):
    return [Verdict("lengths-strictly-increase", _strictly_increasing(lengths),
                    f"lengths={lengths}")]


def unbounded_witness_zxzq(q=2, primes=(5, 7, 11)):
    """Word length of (0,1) in Z x Z/q under S = {+-(p,1), +-(q+1,0)}.

    (0,1) = (p,1)^(q+1) (q+1,0)^(-p), a word of p + q + 1 letters.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    primes = _nonempty("primes", primes)
    for p in primes:
        if type(p) is not int or not _is_prime(p) or p <= q + 1:
            raise ValueError(f"need a prime p > q+1, got {p}")
    steps = (({"p": p}, [((p,), 1), ((q + 1,), 0)], f"S for p={p}",
              [(((p,), 1), q + 1), (((q + 1,), 0), -p)], {"expected": p + q + 1})
             for p in primes)
    return _ladder(
        "zxzq", {"q": q, "primes": list(primes)},
        gr.Product(gr.IntVector(1), gr.FiniteCyclic(q)), ((0,), 1), steps,
        lambda rows, lengths: [
            Verdict("lengths-match-formula", all(r["match"] for r in rows),
                    f"lengths={lengths}"),
            *_lengths_increase(rows, lengths),
        ])


def unbounded_witness_zd(d=2, x=(1, 0), pairs=((2, 3), (3, 5), (5, 7))):
    """Word length of x in Z^d under the basis {(p,a,0..), (q,b,0..), e3..}.

    x spelled by its basis coordinates is a word of |alpha| + |beta| +
    |x_3| + ... letters.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    G = gr.IntVector(d)
    G.check(x)
    if x == G.identity():
        raise ValueError("element must be nonzero")
    pairs = _coprime_pairs(pairs)

    def steps():
        units = [tuple(int(i == j) for j in range(d)) for i in range(2, d)]
        pad = (0,) * (d - 2)
        for p, q in pairs:
            a, b = _min_bezout(p, q)
            basis = [(p, a, *pad), (q, b, *pad), *units]
            # basis coordinates are unique, so the exact length is known a priori
            coordinates = (b * x[0] - q * x[1], p * x[1] - a * x[0], *x[2:])
            yield ({"p": p, "q": q, "a": a, "b": b}, basis, f"S for (p,q)=({p},{q})",
                   list(zip(basis, coordinates)), {"expected": sum(map(abs, coordinates))})

    return _ladder(
        "zd", {"d": d, "x": list(x), "pairs": [list(pq) for pq in pairs]}, G, x, steps(),
        lambda rows, lengths: [
            Verdict("lengths-match-basis-coordinates",
                    all(r["match"] for r in rows), f"lengths={lengths}"),
            Verdict("lengths-nondecreasing",
                    all(u <= w for u, w in zip(lengths, lengths[1:])),
                    f"lengths={lengths}"),
            Verdict("lengths-eventually-exceed", lengths[-1] >= lengths[0] + 1,
                    f"first={lengths[0]}, last={lengths[-1]}"),
        ])


def unbounded_witness_heisenberg(n=1, pairs=((2, 3), (3, 5), (5, 7))):
    """Word length of the n-th central power under S = {a^+-p, a^+-q, b^+-1}.

    c^n = [a^u, b^v] for each factorization n = uv, and a^u is spelled in
    the fewest letters a^p and a^q by :func:`min_coefficients`.  The
    cheapest such commutator, the first on a tie in increasing u, is the
    ``upper_bound`` column and the word that is certified.
    """
    gr._check_int("n", n, 1)
    pairs = _coprime_pairs(pairs)

    def steps():
        b = (0, 1, 0)
        for p, q in pairs:
            best = None  # (letters, u, (alpha, beta)) of the cheapest commutator
            for u in range(1, n + 1):
                if n % u:
                    continue
                cost, coefficients = min_coefficients(p, q, u)
                letters = 2 * cost + 2 * (n // u)
                if best is None or letters < best[0]:
                    best = (letters, u, coefficients)
            bound, u, (alpha, beta) = best
            a_p, a_q, v = (p, 0, 0), (q, 0, 0), n // u
            yield ({"p": p, "q": q}, [a_p, a_q, b],
                   f"generation not certified for (p,q)=({p},{q})",
                   [(a_p, alpha), (a_q, beta), (b, v), (a_q, -beta), (a_p, -alpha), (b, -v)],
                   {"upper_bound": bound})

    return _ladder("heisenberg", {"n": n, "pairs": [list(pq) for pq in pairs]},
                   gr.Heisenberg(), (0, 0, n), steps(), _lengths_increase)


def unbounded_witness_dinfty(pairs=((2, 3), (3, 5), (5, 7))):
    """Word length of the translation t under S = {s, t^alpha s, t^beta s}.

    t^alpha = (t^alpha s) s, so a Bezout pair x alpha + y beta = 1 of least
    |x| + |y| (:func:`min_coefficients`) spells t in 2(|x| + |y|) letters,
    at most 2(|alpha| + |beta|).
    """
    pairs = _coprime_pairs(pairs)

    def steps():
        s = (0, 1)
        for alpha, beta in pairs:
            pieces = []
            for r, k in zip(((alpha, 1), (beta, 1)), min_coefficients(alpha, beta, 1)[1]):
                # (r s)^k; the reflections r and s are their own inverses
                pieces += [(r, 1), (s, 1)] * k if k >= 0 else [(s, 1), (r, 1)] * -k
            yield ({"alpha": alpha, "beta": beta}, [s, (alpha, 1), (beta, 1)],
                   f"S for ({alpha},{beta})", pieces, {})

    return _ladder("dinfty", {"pairs": [list(ab) for ab in pairs]},
                   gr.DihedralInfinite(), (1, 0), steps(), _lengths_increase)


# -- boundedness certificates --------------------------------------------


def heisenberg_center_certificate(x, y):
    """For a generating pair, the central exponent of [x, y] and the exact
    length of the central generator over {x^+-1, y^+-1}.

    Returns (exponent, LengthCert).  In this normal form [x, y] is
    (0, 0, x0 y1 - x1 y0), central with the abelianized determinant as its
    exponent, which is +-1 for a generating pair.  So the central generator
    is [x, y] = x y x^-1 y^-1 when it is 1 and [y, x] = y x y^-1 x^-1 when
    it is -1: a word of 4 letters, which :func:`certify_length` checks and
    then proves geodesic by a search out to radius 3.
    """
    G = gr.Heisenberg()
    G.check(x)
    G.check(y)
    exponent = x[0] * y[1] - x[1] * y[0]
    if abs(exponent) != 1:
        raise NotGeneratingError(
            f"pair does not generate: abelianized determinant {exponent}")
    S = make_symmetric(G, [x, y])
    a, b = (x, y) if exponent == 1 else (y, x)
    word = _commutator(S, (S.symbol_of(a),), (S.symbol_of(b),))
    return exponent, certify_length(G, S, (0, 0, 1), word)


def sample_heisenberg_pair(rng):
    """A pseudorandom generating pair (unimodular abelianization plus random
    central parts), built from elementary row operations.

    Row additions and the swap (m0, m1) -> (m1, -m0) each have determinant
    +1, so every pair drawn has commutator exponent +1; the -1 branch of
    :func:`heisenberg_center_certificate` is exercised by swapping pairs
    (``test_heisenberg_center_word_follows_the_exponent``).  Drawing both
    signs would change the pinned ``experiment all`` bytes.
    """
    m = [[1, 0], [0, 1]]
    for _ in range(rng.randint(2, 6)):
        op = rng.randrange(3)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        if op == 0:
            m[0] = [m[0][0] + c * m[1][0], m[0][1] + c * m[1][1]]
        elif op == 1:
            m[1] = [m[1][0] + c * m[0][0], m[1][1] + c * m[0][1]]
        else:
            m[0], m[1] = m[1], [-m[0][0], -m[0][1]]
    x = (m[0][0], m[0][1], rng.randint(-5, 5))
    y = (m[1][0], m[1][1], rng.randint(-5, 5))
    return x, y


def heisenberg_center_experiment(samples=100, seed=0):
    """Center certificates for ``samples`` seeded generating pairs.

    :func:`sample_heisenberg_pair` draws only pairs of determinant +1, so
    the ``exponent`` column is always 1 and the verdict never meets -1;
    ``test_heisenberg_center_word_follows_the_exponent`` covers that branch.
    """
    gr._check_int("samples", samples, 1)
    rng = random.Random(seed)
    rows = []
    for i in range(samples):
        x, y = sample_heisenberg_pair(rng)
        exponent, cert = heisenberg_center_certificate(x, y)
        rows.append({
            "sample": i,
            "x": str(list(x)),
            "y": str(list(y)),
            "exponent": exponent,
            "length": cert.length,
        })
    return ExperimentReport(
        name="heisenberg-center",
        params={"count": samples},
        rows=rows,
        verdicts=[
            Verdict("commutator-is-central-generator",
                    all(abs(r["exponent"]) == 1 for r in rows)),
            Verdict("center-within-radius-4",
                    all(r["length"] <= 4 for r in rows)),
        ],
        seed=seed,
    )


_ZXD8 = gr.Product(gr.IntVector(1), gr.DihedralFinite(4))


@functools.lru_cache(maxsize=4)
def _zxd8_draws(radius):
    """What the sampler draws from at ``radius``: the non-identity elements
    of Z x D8 with translation part bounded by ``radius``, in draw order, and
    two maps over them, read-only since every caller shares them.  The
    first maps each element to its inverse, by the checked ``inv`` (the pool
    is closed under inverses); the second to its part in the split of
    Z x D8, (translation, element of D8).  The cache keeps the last four
    radii."""
    e = _ZXD8.identity()
    pool = tuple(g for g in (((n,), f) for n in range(-radius, radius + 1)
                             for f in _ZXD8.right.elements()) if g != e)
    split = _split(_ZXD8).part  # Z x| D8: one translation, D8 acting trivially
    return (pool,
            MappingProxyType({g: _ZXD8.inv(g) for g in pool}),
            MappingProxyType({g: split(g) for g in pool}))


def sample_zxd8_genset(rng, radius=10):
    """A generating alphabet of Z x D8, rejection sampled from 2 to 4
    elements with translation part bounded by ``radius``; sets whose
    generation certificate is not a definite yes are discarded.

    Each draw becomes inverse-pair classes, with inverses read from the
    cached map: a drawn element already present (as an earlier draw's
    inverse) is skipped.  The Schreier decision runs on the group's split
    record (``metric._split``), which is made once, and on the cached parts
    of the classes' first elements, so only the
    accepted draw is built, by ``GenSet.from_classes``, whose constructor
    checks it like any other alphabet.  The pool was enumerated from the
    group and holds no identity.  Each decision's walk is charged to its
    own memory budget, like a search.

    The pool and its two maps hold 16(2r + 1) elements, counted generously,
    for r = ``radius``.  Before they are built (or read from the cache), a
    radius whose elements would overdraw the memory limit at
    ``_Budget.cost`` each is refused with ResourceLimitExceeded.
    """
    gr._check_int("radius", radius, 1)
    _reserve(16 * (2 * radius + 1), _ZXD8.identity())
    pool, inverses, part = _zxd8_draws(radius)
    inverse = inverses.__getitem__
    split = _split(_ZXD8)
    for _ in range(ZXD8_MAX_ATTEMPTS):
        draws = rng.sample(pool, rng.randint(2, 4))
        classes = inverse_pair_classes(_ZXD8, draws, inverse)
        if _generates_split([part[c[0]] for c in classes], split).is_yes:
            return GenSet.from_classes(_ZXD8, classes)
    raise NotGeneratingError(
        f"sampler found no generating set within {ZXD8_MAX_ATTEMPTS} attempts")


def _commutator_word(S):
    """The word a b a^-1 b^-1 for the first pair of letters a, b of S, in
    symbol order, whose products ab and ba differ.  A letter and its
    inverse always commute, so that pair is skipped unmultiplied."""
    mul = S.group._mul  # S's letters are elements
    for i, j in itertools.combinations(S.symbols(), 2):
        if S.involution[i] == j:
            continue
        a, b = S.element(i), S.element(j)
        if mul(a, b) != mul(b, a):
            return _commutator(S, (i,), (j,))
    raise NotGeneratingError("the letters commute, so they generate an abelian group")


def bound_witness_zxd8(samples=200, seed=42, radius=10):
    """Sampled generating sets of Z x D8 all place (0, z) within radius 4.

    z is the central rotation of order 2; the alphabets come from
    :func:`sample_zxd8_genset`.  A generating set has two letters that do
    not commute, and the commutator of any two non-commuting elements of
    Z x D8 is (0, z).  So :func:`_commutator_word` spells (0, z) in 4
    letters, and :func:`certify_length` checks that word and searches out
    to radius 3 for a shorter one.
    """
    gr._check_int("samples", samples, 1)
    G = _ZXD8
    target = ((0,), (2, 0))
    rng = random.Random(seed)
    rows = []
    for i in range(samples):
        S = sample_zxd8_genset(rng, radius)
        cert = certify_length(G, S, target, _commutator_word(S))
        rows.append({
            "sample": i,
            "letters": str([G._obj(g) for g in S.letters]),  # S checked its letters
            "length": cert.length,
            "ok": cert.length <= 4,
        })
    return ExperimentReport(
        name="zxd8",
        params={"samples": samples, "radius": radius},
        rows=rows,
        verdicts=[
            Verdict("central-element-within-radius-4",
                    all(r["ok"] for r in rows)),
        ],
        seed=seed,
    )


# -- prescribed-length constructions -------------------------------------


def _free_syllable_bound(g):
    """Largest syllable exponent magnitude of a reduced free word."""
    best = 0
    run = 0
    prev = None
    for x in g:
        run = run + 1 if x == prev else 1
        prev = x
        best = max(best, run)
    return best


def _check_triple(l, u, v):
    """ValueError unless the target length l and the primes u and v are
    ints, a bool included, and l >= 0: the check every construction makes
    before any work starts."""
    gr._check_int("target length", l, 0)
    gr._check_int("u", u)
    gr._check_int("v", v)


def _check_prescription_params(p, u, v, n_bound):
    if not (_is_prime(u) and _is_prime(v)):
        raise ValueError("u and v must be prime")
    if not u < v:
        raise ValueError("need u < v")
    if not u > p:
        raise ValueError(f"need u > {p}")
    if not v > 3 * n_bound * u:
        raise ValueError(f"need v > {3 * n_bound * u}")


def _prescribe_length(G, g, l, u, v, n_bound):
    """Letters g^2 and g^(2l+1) plus u-th and v-th powers of G's standard
    generators (v must outgrow ``n_bound``), which ``generates`` confirms
    generate G, and the exact length of g.

    g = g^(2l+1) (g^2)^(-l) is a word of l + 1 letters; :func:`certify_length`
    checks it and searches out to radius l for a shorter word, which would
    surface as a certificate length below l + 1."""
    p = 2 * l + 1
    _check_prescription_params(p, u, v, n_bound)
    basis = G.standard_generators()
    letters = [G.power(g, 2), G.power(g, p)]
    for b in basis:
        letters.append(G.power(b, u))
        letters.append(G.power(b, v))
    S = _generating(G, letters, "prescribed alphabet")
    word = (S.symbol_of(letters[1]),) + (S.inv_symbol(S.symbol_of(letters[0])),) * l
    return S, certify_length(G, S, g, word)


def prescribe_length_free(k, g, l, u, v):
    """Alphabet over F_k giving g word length exactly l + 1, from g^2,
    g^(2l+1) and prime powers of the basis letters."""
    _check_triple(l, u, v)
    G = gr.Free(k)
    G.check(g)
    if g == ():
        raise ValueError("element must be nontrivial")
    return _prescribe_length(G, g, l, u, v, _free_syllable_bound(g))


def prescribe_length_zd(d, g, l, u, v):
    """Alphabet over Z^d giving g word length exactly l + 1.

    Same construction as the free case with letters 2g and (2l+1)g plus
    scaled unit vectors; the scalar 2l+1 makes g = (2l+1)g - l*(2g) a word
    of length l + 1.
    """
    _check_triple(l, u, v)
    G = gr.IntVector(d)
    G.check(g)
    if g == G.identity():
        raise ValueError("element must be nonzero")
    return _prescribe_length(G, g, l, u, v, max(abs(c) for c in g))


DEFAULT_PRESCRIPTION_GRID = (
    (0, 2, 7),
    (1, 5, 17),
    (2, 7, 23),
    (3, 11, 37),
    (4, 11, 37),
    (5, 13, 41),
)


def prescribe_length_experiment(kind, triples=DEFAULT_PRESCRIPTION_GRID):
    """Run the prescribed-length construction over a (l, u, v) grid.

    ``kind`` is "free" or "zd"; the target is the first basis element of
    F_k or Z^d, of rank ``PRESCRIBE_RANK``.  Every triple is checked
    before the first row is built.
    """
    triples = _nonempty("triples", triples)
    for l, u, v in triples:
        _check_triple(l, u, v)
    rows = []
    for l, u, v in triples:
        if kind == "free":
            _, cert = prescribe_length_free(PRESCRIBE_RANK, (1,), l, u, v)
        elif kind == "zd":
            _, cert = prescribe_length_zd(PRESCRIBE_RANK, (1,) + (0,) * (PRESCRIBE_RANK - 1), l, u, v)
        else:
            raise ValueError(f"unknown kind {kind!r}")
        rows.append({
            "l": l, "u": u, "v": v,
            "length": cert.length,
            "expected": l + 1,
            "match": cert.length == l + 1,
        })
    return ExperimentReport(
        name=f"prescribe-{kind}",
        params={"kind": kind, "rank": PRESCRIBE_RANK,
                "triples": [list(t) for t in triples]},
        rows=rows,
        verdicts=[
            Verdict("lengths-equal-l-plus-1", all(r["match"] for r in rows)),
        ],
    )


# -- quotient orbit growth -----------------------------------------------


def quotient_orbit_experiment(p=5, ks=None):
    """Power maps on the rotation part of the dihedral quotient of order 2p.

    Each k coprime to p (by default every unit 1..p-1) induces (rotation,
    reflection-part) -> (rotation^k, reflection-part); the experiment
    validates each distinct map with :meth:`Automorphism.build`'s check, on
    one element list and greedy generating sequence of the quotient, and
    measures the orbit of the image of the translation.  Time and memory
    grow as p^2, so p above ``QUOTIENT_ORBIT_MAX_P`` is refused before
    anything is built, and so are a p or a k that is not an int.
    """
    gr._check_int("p", p)
    if p > QUOTIENT_ORBIT_MAX_P:
        raise UnsupportedFamilyError(f"p = {p} exceeds the bound {QUOTIENT_ORBIT_MAX_P}")
    if not _is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    ks = tuple(range(1, p)) if ks is None else _nonempty("ks", ks)
    for k in ks:
        gr._check_int("k", k)
    pi = dihedral_mod(p)
    D = pi.target
    elems = list(D.elements())
    gens = _generating_sequence(D, elems)
    rows = []
    maps = {}  # k mod p -> its automorphism
    for k in ks:
        if gcd(k, p) != 1:
            raise ValueError(f"{k} is not a unit modulo {p}")
        if k % p not in maps:
            mapping = {(m, e2): ((k * m) % p, e2) for m, e2 in elems}
            maps[k % p] = Automorphism._checked(D, mapping, elems, gens)
        rows.append({"k": k, "automorphism": True})
    start = pi.apply((1, 0))
    orbit = {start}
    while True:
        grown = {A.apply(g) for A in maps.values() for g in orbit} | orbit
        if grown == orbit:
            break
        orbit = grown
    verdicts = [Verdict("maps-are-automorphisms", True, f"validated {len(rows)} maps")]
    full_units = set(k % p for k in ks) == set(range(1, p))
    if full_units:
        verdicts.append(Verdict(
            "orbit-at-least-half-of-p",
            2 * len(orbit) >= p,
            f"orbit size {len(orbit)}, p={p}",
        ))
    return ExperimentReport(
        name="quotient-orbit",
        params={"p": p, "ks": list(ks), "orbit_size": len(orbit)},
        rows=rows,
        verdicts=verdicts,
    )


# -- aggregate experiments -----------------------------------------------


def aut_orbit_experiment():
    """Orbit-vs-ball bound for every element of a few small groups.

    With M an element's exact uniform length, its orbit under all
    automorphisms must lie in the radius-M ball of the standard alphabet S
    and have at most n^M elements, n the cardinality of S.  The
    uniform-length table and the automorphisms are built once per group.
    """
    cases = [gr.FiniteCyclic(5), gr.FiniteCyclic(8), gr.DihedralFinite(4)]
    rows = []
    for G in cases:
        S = make_symmetric(G, G.standard_generators())
        table = uniform_length_table(G)
        autos = aut_group(G)
        for g in G.elements():
            M = table[g][0]
            orbit = {A.apply(g) for A in autos}
            B = ball(G, S, M)
            rows.append({
                "group": str(G),
                "element": str(G.element_to_obj(g)),
                "orbit_size": len(orbit),
                "max_length": M,
                "ok": all(h in B for h in orbit) and len(orbit) <= S.cardinality ** M,
            })
    return ExperimentReport(
        name="aut-orbit",
        params={"groups": [str(G) for G in cases]},
        rows=rows,
        verdicts=[
            Verdict("orbits-within-ball-bound", all(r["ok"] for r in rows)),
        ],
    )


def fc_witness_experiment(radius=4):
    """Conjugate counts in the Heisenberg group: unbounded off-center,
    constant on the center."""
    gr._check_int("radius", radius, 1)
    G = gr.Heisenberg()
    growth_a = conjugacy_orbit_growth(G, (1, 0, 0), radius)
    growth_c = conjugacy_orbit_growth(G, (0, 0, 1), radius)
    rows = [
        {"r": r, "conjugates_of_a": ca, "conjugates_of_c": cc}
        for (r, ca), (_, cc) in zip(growth_a, growth_c)
    ]
    return ExperimentReport(
        name="fc-witness",
        params={"radius": radius},
        rows=rows,
        verdicts=[
            Verdict("off-center-counts-strictly-increase",
                    _strictly_increasing([ca for _, ca in growth_a])),
            Verdict("central-count-constant-1",
                    all(cc == 1 for _, cc in growth_c)),
        ],
    )


# -- golden files --------------------------------------------------------


def _d8_entries():
    """The exhaustive uniform-length table for D8, one JSON-ready entry per
    element: its max length and its first argmax alphabet's letters."""
    G = gr.DihedralFinite(4)
    return [
        {
            "element": G.element_to_obj(g),
            "max_length": maxlen,
            "argmax": [G._obj(x) for x in S.letters],  # S checked its letters
        }
        for g, (maxlen, S) in uniform_length_table(G).items()
    ]


def _d8_bytes(entries):
    return (json.dumps({"group": "D8", "entries": entries}, indent=2) + "\n").encode("utf-8")


def d8_uniform_table_bytes():
    """Canonical bytes of the exhaustive uniform-length table for D8."""
    return _d8_bytes(_d8_entries())


D8_GOLDEN_PATH = GOLDEN_DIR / "d8_uniform_lengths.json"


def uniform_length_experiment():
    """D8 table as rows plus a byte-exact comparison with the golden file,
    both made from one build of the table."""
    entries = _d8_entries()
    table_bytes = _d8_bytes(entries)
    rows = [
        {"element": str(e["element"]), "max_length": e["max_length"], "argmax": str(e["argmax"])}
        for e in entries
    ]
    golden_ok = (
        D8_GOLDEN_PATH.exists()
        and D8_GOLDEN_PATH.read_bytes() == table_bytes
    )
    return ExperimentReport(
        name="uniform-length",
        params={"group": "D8"},
        rows=rows,
        verdicts=[
            Verdict("golden-file-byte-match", golden_ok,
                    D8_GOLDEN_PATH.relative_to(GOLDEN_DIR.parent).as_posix()),
        ],
    )


# -- catalog -------------------------------------------------------------

CLAIMS = {
    "zxzq": (
        "In Z x Z/q with S = {+-(p,1), +-(q+1,0)} for a prime p > q+1, the "
        "word length of (0,1) is exactly p+q+1, so it grows without bound as "
        "p grows: the torsion element (0,1) has no uniform length bound."
    ),
    "zd": (
        "In Z^d, the basis {(p,a,0..), (q,b,0..), e3..} with bp-aq=1 makes "
        "the length of a fixed nonzero vector as large as desired for "
        "suitable coprime (p,q): no nonzero vector has uniformly bounded "
        "length over generating sets of 2d elements."
    ),
    "heisenberg": (
        "In the Heisenberg group, S = {a^+-p, a^+-q, b^+-1} (p, q coprime) "
        "makes the length of the central generator grow with p: central "
        "elements lose their uniform bound once six-element generating sets "
        "are allowed."
    ),
    "dinfty": (
        "In the infinite dihedral group, reflection triples {s, t^a s, "
        "t^b s} with gcd(a,b)=1 make the translation t arbitrarily long."
    ),
    "heisenberg-center": (
        "For every generating pair {x,y} of the Heisenberg group, [x,y] is a "
        "generator of the center (exponent +-1), so the central generator "
        "always lies within word length 4 of a four-letter generating set."
    ),
    "zxd8": (
        "In Z x D8, the central element (0,z) is a commutator of any "
        "non-commuting pair of generators, so every generating set places it "
        "within word length 4."
    ),
    "prescribe-free": (
        "For a nontrivial reduced word g in a free group, the alphabet "
        "{g^2, g^(2l+1)} plus large prime powers of the basis letters gives "
        "g word length exactly l+1."
    ),
    "prescribe-zd": (
        "For a nonzero vector g in Z^d, the alphabet {2g, (2l+1)g} plus "
        "large prime multiples of the unit vectors gives g word length "
        "exactly l+1."
    ),
    "quotient-orbit": (
        "On the dihedral group of order 2p, every power map (rotation, "
        "reflection-part) -> (rotation^k, reflection-part) with k a unit "
        "mod p is an automorphism, and together they sweep the rotation "
        "through an orbit of size p-1 >= p/2."
    ),
    "aut-orbit": (
        "For a small finite group, the automorphism orbit of any element "
        "lies inside the ball of radius M (the element's exact uniform "
        "length) and has at most n^M elements."
    ),
    "uniform-length": (
        "Exhaustive maximum of word length over all symmetric generating "
        "subsets of D8, frozen as a golden table."
    ),
    "fc-witness": (
        "In the Heisenberg group, non-central elements acquire ever more "
        "conjugates as the conjugating ball grows, while central elements "
        "keep exactly one."
    ),
}

# Each run is its function at its signature's defaults; the CLI's experiment
# options override those keywords by name.
DEFAULT_RUNS = {
    "zxzq": unbounded_witness_zxzq,
    "zd": unbounded_witness_zd,
    "heisenberg": unbounded_witness_heisenberg,
    "dinfty": unbounded_witness_dinfty,
    "heisenberg-center": heisenberg_center_experiment,
    "zxd8": bound_witness_zxd8,
    "prescribe-free": functools.partial(prescribe_length_experiment, "free"),
    "prescribe-zd": functools.partial(prescribe_length_experiment, "zd"),
    "quotient-orbit": quotient_orbit_experiment,
    "aut-orbit": aut_orbit_experiment,
    "uniform-length": uniform_length_experiment,
    "fc-witness": fc_witness_experiment,
}
