"""Command-line front end.

Subcommands ``length``, ``girth`` and ``experiment``; deterministic byte
output for identical (argv, seed).  Elements are integers or brackets of
integers and generating sets brackets of elements, read by ``_literal``'s
grammar and nothing else, or free words like ``x1*x2^-1``.  Exit codes: 0
pass, 1 failed verdict, 2 usage error, 3 resource limit.  Every library
error is a ``ValueError`` (or a ``ResourceLimitExceeded``), mapped onto
these codes in one place, the command group's ``invoke``.  ``experiment
NAME`` calls ``DEFAULT_RUNS[NAME]`` with the experiment options that were
given as keywords; an option that the run's signature lacks, or any of them
with ``all``, is a usage error.  No command writes anything but its output:
``experiment uniform-length`` compares the D8 golden table with a rebuilt
one and never rewrites it.
"""

from __future__ import annotations

import inspect
import re
import sys
from itertools import chain, repeat

import click

from . import experiments as ex
from . import groups as gr
from .errors import ResourceLimitExceeded
from .gensets import make_symmetric
from .girth import girth as girth_op
from .metric import memory_limit, word_length
from .reports import render_report

EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

_FACTOR_GRAMMAR = {
    "Z": lambda: gr.IntVector(1),
    "Dinf": lambda: gr.DihedralInfinite(),
    "H3": lambda: gr.Heisenberg(),
}


def parse_group(text):
    """Parse a group descriptor: Z, Z^d, Z/q, D2n, Dinf, H3, F k, and
    products joined with " x "."""
    parts = re.split(r"\s+x\s+", text.strip())
    factors = [_parse_factor(p) for p in parts]
    G = factors[0]
    for H in factors[1:]:
        G = gr.Product(G, H)
    return G


def _parse_factor(text):
    text = text.strip()
    if text in _FACTOR_GRAMMAR:
        return _FACTOR_GRAMMAR[text]()
    m = re.fullmatch(r"Z\^(\d+)", text)
    if m:
        return gr.IntVector(int(m.group(1)))
    m = re.fullmatch(r"Z/(\d+)", text)
    if m:
        return gr.FiniteCyclic(int(m.group(1)))
    m = re.fullmatch(r"D(\d+)", text)
    if m:
        order = int(m.group(1))
        if order % 2 or order < 2:
            raise ValueError(f"dihedral order must be even and >= 2: {text}")
        return gr.DihedralFinite(order // 2)
    m = re.fullmatch(r"F\s*(\d+)", text)
    if m:
        return gr.Free(int(m.group(1)))
    raise ValueError(f"cannot parse group descriptor {text!r}")


_FREE_WORD = re.compile(r"([a-z]+)(\d+)(?:\^(-?\d+))?")
_LETTER_BYTES = 8  # one tuple slot per letter of a free word


def _free_factors(G, text):
    """The (factor text, basis index, exponent) of each factor of a word
    like x1*x2^-1, checked but not built."""
    factors = []
    for piece in text.split("*"):
        m = _FREE_WORD.fullmatch(piece.strip())
        if not m:
            raise ValueError(f"cannot parse free-word factor {piece!r}")
        i = int(m.group(2))
        exp = int(m.group(3)) if m.group(3) is not None else 1
        if not 1 <= i <= G.k:
            raise ValueError(f"basis index {i} out of range for rank {G.k}")
        factors.append((piece.strip(), i, exp))
    return factors


def parse_free_words(G, texts, copies=1):
    """Free words like x1*x2^-1 over a free group's basis letters.

    Refuses the words if ``copies`` times their letters, before reduction,
    would not fit the memory limit, before building any of them.
    """
    limit = memory_limit()
    words = [_free_factors(G, text) for text in texts]
    letters = 0
    for factors in words:
        for piece, _, exp in factors:
            letters += abs(exp)
            if copies * letters * _LETTER_BYTES > limit:
                raise ValueError(
                    f"free-word factor {piece!r} does not fit the memory limit of {limit} bytes")
    out = []
    for factors in words:
        # Merge adjacent factors of one letter by adding exponents, so the
        # syllables left are a reduced word that is built once, never
        # concatenated onto a partial word (which held both at once).
        syllables = []
        for _, i, exp in factors:
            if syllables and syllables[-1][0] == i:
                exp += syllables.pop()[1]
            if exp:
                syllables.append((i, exp))
        out.append(tuple(chain.from_iterable(
            repeat(i if exp > 0 else -i, abs(exp)) for i, exp in syllables)))
    return out


_TOKEN = re.compile(r"[ \t\n\r\f]*(?:([+-]?\w+)|([^ \t\n\r\f]))", re.ASCII)
_CLOSER = {"(": ")", "[": "]"}


def _malformed(why, m):
    return ValueError(f"malformed literal: {why} at character {m.start(m.lastindex) + 1}")


def _literal(text):
    """The integer, or tuple of integers and tuples of integers, that ``text``
    spells: an integer is an ASCII token with at most one sign, as Python
    writes it; ( and [ alike make a tuple, with an optional trailing comma;
    (x) is x at the top level only.  A third bracket open, or anything else,
    is malformed."""
    frames = [["", [], 0]]  # [closer, items, commas] per open bracket, below them the text
    for m in _TOKEN.finditer(text):
        number, char = m.groups()
        closer, items, commas = frame = frames[-1]
        if number and len(items) == commas:
            try:
                items.append(int(number, 0))
            except ValueError:
                raise _malformed(f"{number[:20]!r} is not an integer", m) from None
        elif char in _CLOSER and len(items) == commas and len(frames) <= 2:
            items.append(None)  # this bracket's value, once it closes
            frames.append([_CLOSER[char], [], 0])
        elif char == "," and closer and len(items) > commas:
            frame[2] += 1
        elif char == closer:
            frames.pop()
            scalar = char == ")" and len(items) == 1 and not commas  # (x) is x
            if scalar and len(frames) > 1:
                raise _malformed("a parenthesised integer inside brackets", m)
            frames[-1][1][-1] = items[0] if scalar else tuple(items)
        else:
            raise _malformed(f"unexpected {(number or char)[:20]!r}", m)
    if len(frames) > 1 or not frames[0][1]:
        raise ValueError("malformed literal: " + ("unclosed bracket" if frames[0][1] else "empty"))
    return frames[0][1][0]


def parse_element(G, text):
    """Parse an element: flat integer tuple (or scalar) or a free word."""
    if isinstance(G, gr.Free):
        return parse_free_words(G, [text])[0]
    value = _literal(text)
    return gr.element_from_flat(G, value if isinstance(value, tuple) else (value,))


def parse_genset(G, text):
    """Parse a genset: literal list of flat tuples / ints, or free words."""
    if isinstance(G, gr.Free):
        body = text.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        # make_symmetric adds each word's inverse, so charge two copies.
        elems = parse_free_words(G, [p for p in body.split(",") if p.strip()], copies=2)
    else:
        value = _literal(text)
        if not isinstance(value, tuple):
            raise ValueError("genset must be a list")
        elems = [gr.element_from_flat(G, item if isinstance(item, tuple) else (item,))
                 for item in value]
    return make_symmetric(G, elems)


def _emit(data, output):
    if output:
        try:
            with open(output, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise ValueError(f"cannot write --output {output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.flush()


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _Commands(click.Group):
    """The exit-code contract for every subcommand: a ValueError is a usage
    error, an exhausted memory budget a resource error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            _fail(EXIT_USAGE, exc)
        except ResourceLimitExceeded as exc:
            _fail(EXIT_RESOURCE, exc)


@click.group(cls=_Commands)
def main():
    """Word metrics on finitely generated groups."""


@main.command()
@click.option("--group", "group_text", required=True, help="Group descriptor, e.g. 'Z x Z/2'.")
@click.option("--genset", "genset_text", required=True, help="Generator list, e.g. '[(5,1),(3,0)]'.")
@click.option("--element", "element_text", required=True, help="Target element, e.g. '(0,1)'.")
@click.option("--cap", type=click.IntRange(min=1), required=True, help="Search radius bound.")
def length(group_text, genset_text, element_text, cap):
    """Exact word length of an element, searched out to --cap."""
    G = parse_group(group_text)
    S = parse_genset(G, genset_text)
    g = parse_element(G, element_text)
    cert = word_length(G, S, g, cap=cap)
    if cert.length is None:
        click.echo(f"> {cap}")
        sys.exit(EXIT_FAIL)
    click.echo(str(cert.length))


@main.command()
@click.option("--group", "group_text", required=True)
@click.option("--genset", "genset_text", required=True)
@click.option("--cap", type=click.IntRange(min=2), required=True)
def girth(group_text, genset_text, cap):
    """Girth of the Cayley graph: shortest simple loop at the identity."""
    G = parse_group(group_text)
    S = parse_genset(G, genset_text)
    click.echo(str(girth_op(G, S, cap=cap)))


def _run_named(name):
    """One DEFAULT_RUNS entry; `experiment all` runs each through here, and
    perfbench's `suite` workload times each call."""
    return ex.DEFAULT_RUNS[name]()


def _ints(text):
    return tuple(int(v) for v in text.split(","))


def _pairs(text):
    pairs = []
    for chunk in text.split(","):
        pair = tuple(int(v) for v in chunk.split(":"))
        if len(pair) != 2:
            raise ValueError(f"{chunk!r} is not a pair A:B")
        pairs.append(pair)
    return tuple(pairs)


@main.command()
@click.argument("name")
@click.option("--q", type=int, help="Torsion modulus (zxzq).")
@click.option("--primes", type=_ints, metavar="P,P,...", help="Primes (zxzq).")
@click.option("--pairs", type=_pairs, metavar="A:B,A:B,...",
              help="Coprime pairs (zd, heisenberg, dinfty).")
@click.option("--samples", type=click.IntRange(min=1),
              help="Sample count (zxd8, heisenberg-center).")
@click.option("--seed", type=int, help="RNG seed (zxd8, heisenberg-center).")
@click.option("--p", type=int, help="Odd prime (quotient-orbit).")
@click.option("--ks", type=_ints, metavar="K,K,...", help="Units mod p (quotient-orbit).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "table"]), default="table")
@click.option("--output", default=None, help="Write the report here instead of stdout.")
@click.option("--explain", is_flag=True, help="Print the claim the experiment checks and exit.")
def experiment(name, fmt, output, explain, **options):
    """Run a named experiment, or 'all' for the full deterministic suite."""
    if name != "all" and name not in ex.DEFAULT_RUNS:
        raise ValueError(
            f"unknown experiment {name!r}; choose from "
            f"{', '.join(sorted(ex.DEFAULT_RUNS))} or 'all'")
    run = ex.DEFAULT_RUNS.get(name)
    keywords = inspect.signature(run).parameters if run else ()
    given = {key: value for key, value in options.items() if value is not None}
    for key in given:
        if key not in keywords:
            raise ValueError(f"--{key} does not apply to experiment {name!r}")
    if explain:
        if name == "all":
            for key in sorted(ex.CLAIMS):
                click.echo(f"{key}: {ex.CLAIMS[key]}")
        else:
            click.echo(ex.CLAIMS[name])
        return
    reports = [run(**given)] if run else [_run_named(n) for n in sorted(ex.DEFAULT_RUNS)]
    payload = b"".join(render_report(r, fmt) for r in reports)
    _emit(payload, output)
    if not all(r.passed for r in reports):
        sys.exit(EXIT_FAIL)


if __name__ == "__main__":
    main()
