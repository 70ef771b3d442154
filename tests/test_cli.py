"""CLI: grammar, exit codes, deterministic report bytes."""

import ast
import hashlib
import inspect
import json
import random
import string
import time
import tracemalloc

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import run_optimized

from wordbound import experiments as ex
from wordbound import groups as gr
from wordbound.cli import (
    _LETTER_BYTES,
    _literal,
    experiment,
    main,
    parse_element,
    parse_genset,
    parse_group,
)


@pytest.fixture
def runner():
    return CliRunner()


# -- grammar -------------------------------------------------------------


def test_parse_group_grammar():
    assert parse_group("Z") == gr.IntVector(1)
    assert parse_group("Z^3") == gr.IntVector(3)
    assert parse_group("Z/6") == gr.FiniteCyclic(6)
    assert parse_group("D8") == gr.DihedralFinite(4)
    assert parse_group("Dinf") == gr.DihedralInfinite()
    assert parse_group("H3") == gr.Heisenberg()
    assert parse_group("F 2") == gr.Free(2)
    assert parse_group("F2") == gr.Free(2)
    assert parse_group("Z x Z/2") == gr.Product(gr.IntVector(1), gr.FiniteCyclic(2))
    assert parse_group("Z x D8 x Z/3") == gr.Product(
        gr.Product(gr.IntVector(1), gr.DihedralFinite(4)), gr.FiniteCyclic(3))
    with pytest.raises(ValueError):
        parse_group("E8")
    with pytest.raises(ValueError):
        parse_group("D7")  # odd order


def test_parse_element_grammar():
    assert parse_element(gr.IntVector(2), "(1, -2)") == (1, -2)
    assert parse_element(gr.FiniteCyclic(5), "7") == 2
    assert parse_element(gr.Heisenberg(), "(0,0,1)") == (0, 0, 1)
    G = gr.Product(gr.IntVector(1), gr.FiniteCyclic(2))
    assert parse_element(G, "(0, 1)") == ((0,), 1)
    with pytest.raises(ValueError):
        parse_element(gr.IntVector(2), "(1, 2, 3)")


def test_parse_free_words():
    F = gr.Free(2)
    assert parse_element(F, "x1") == (1,)
    assert parse_element(F, "x1*x2^-1") == (1, -2)
    assert parse_element(F, "x1^2*x1^-1") == (1,)
    assert parse_element(F, "x2^-3") == (-2, -2, -2)
    assert parse_element(F, "x1*x2*x2^-1*x1^-1*x2^0") == ()
    with pytest.raises(ValueError):
        parse_element(F, "x3")
    with pytest.raises(ValueError):
        parse_element(F, "x1 + x2")


def test_parse_genset():
    Z = gr.IntVector(1)
    S = parse_genset(Z, "[2, 3]")
    assert set(S.letters) == {(2,), (-2,), (3,), (-3,)}
    F = gr.Free(2)
    S = parse_genset(F, "[x1, x2]")
    assert set(S.letters) == {(1,), (-1,), (2,), (-2,)}


def test_element_grammar_round_trip():
    cases = [
        (gr.IntVector(3), "(1, -2, 3)"),
        (gr.Heisenberg(), "(2, 0, -1)"),
        (gr.Product(gr.IntVector(1), gr.DihedralFinite(4)), "(5, 1, 1)"),
        (gr.Free(2), "x1*x2^-1*x1"),
    ]
    for G, text in cases:
        g = parse_element(G, text)
        G.check(g)
        # formatting back through the flat/word form parses to the same element
        if isinstance(G, gr.Free):
            rendered = "*".join(
                f"x{abs(x)}" + ("^-1" if x < 0 else "") for x in g)
        else:
            flat = []

            def walk(H, x):
                if isinstance(H, gr.Product):
                    walk(H.left, x[0])
                    walk(H.right, x[1])
                elif isinstance(x, tuple):
                    flat.extend(x)
                else:
                    flat.append(x)

            walk(G, g)
            rendered = "(" + ", ".join(str(v) for v in flat) + ")"
        assert parse_element(G, rendered) == g


# -- subcommands ---------------------------------------------------------


def test_length_command(runner):
    result = runner.invoke(main, [
        "length", "--group", "Z x Z/2", "--genset", "[(5,1),(3,0)]",
        "--element", "(0,1)", "--cap", "12"])
    assert result.exit_code == 0
    assert result.output == "8\n"


def test_length_not_in_ball_exits_one(runner):
    result = runner.invoke(main, [
        "length", "--group", "Z", "--genset", "[1]",
        "--element", "(9,)", "--cap", "3"])
    assert result.exit_code == 1
    assert result.output == "> 3\n"


def test_length_has_no_mode_option(runner):
    """word_length has one search, so --mode is an unknown option."""
    result = runner.invoke(main, [
        "length", "--group", "Z x Z/2", "--genset", "[(5,1),(3,0)]",
        "--element", "(0,1)", "--cap", "12", "--mode", "bfs"])
    assert result.exit_code == 2
    assert "--mode" in result.output


def test_length_usage_error(runner):
    result = runner.invoke(main, [
        "length", "--group", "Q8", "--genset", "[1]",
        "--element", "(1,)", "--cap", "3"])
    assert result.exit_code == 2


@pytest.mark.parametrize("genset, message", [
    ("[]", "error: no generators were proposed"),
    ("[0, 0]", "error: all proposed generators were the identity"),
])
def test_empty_genset_is_usage_error(runner, genset, message):
    """No proposed generator and only identities are both an empty alphabet,
    exit 2, each with its own one-line message."""
    result = runner.invoke(main, [
        "length", "--group", "Z", "--genset", genset, "--element", "(1,)", "--cap", "3"])
    assert result.exit_code == 2
    assert result.output.splitlines() == [message]


@pytest.mark.parametrize("genset, element", [("[1]", "{[]}"), ("{[]}", "(1,)")])
def test_unhashable_literal_is_usage_error(runner, genset, element):
    """A set holding a list, once a TypeError traceback of literal_eval, is
    no element: the CLI exits 2 with one malformed-literal line."""
    result = runner.invoke(main, [
        "length", "--group", "Z", "--genset", genset, "--element", element, "--cap", "3"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: malformed literal")


UNARY_RUNS = {
    "minus": "-" * 10000 + "1",
    "spaced-minus": "- " * 10000 + "1",
    "tilde": "~" * 10000 + "1",
    "not": "not " * 3000 + "1",
    "commented-minus": "(" + "-#c\n" * 10000 + "1)",
}


@pytest.mark.parametrize("where", ["element", "genset"])
@pytest.mark.parametrize("chain", UNARY_RUNS.values(), ids=UNARY_RUNS.keys())
def test_unary_operator_run_is_usage_error(runner, chain, where):
    """A long run of unary operators once overflowed literal_eval's parser
    (MemoryError, RecursionError); the grammar refuses its first operator,
    in --element and inside a --genset list."""
    _assert_malformed_literal(runner, chain, where)


def _assert_malformed_literal(runner, text, where):
    genset, element = ("[1]", text) if where == "element" else (f"[{text}]", "(1,)")
    result = runner.invoke(main, [
        "length", "--group", "Z", "--genset", genset, "--element", element, "--cap", "3"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: malformed literal")


DEEP_LITERALS = {
    "nested-lists": "[1," * 200 + "]" * 200,
    "plus-chain": "1+" * 3000 + "1",
    "power-chain": "1**" * 3000 + "1",
    "attribute-chain": "1" + " .real" * 3000,
    "conditional-chain": "1 if 1 else " * 3000 + "1",
}


@pytest.mark.parametrize("where", ["element", "genset"])
@pytest.mark.parametrize("text", DEEP_LITERALS.values(), ids=DEEP_LITERALS.keys())
def test_deep_literal_is_usage_error(runner, text, where):
    """These once overflowed literal_eval's parser (MemoryError,
    RecursionError); the grammar refuses the first token it cannot take, in
    --element and inside a --genset list."""
    _assert_malformed_literal(runner, text, where)


@pytest.mark.parametrize("text", [
    "[" * 101 + "]" * 101,
    "1+2j+3j-4j", "(1)+(2)-(3)+(4j)", "--1", "1[0]", "set()()", "x", "1 .real", "~1", "1$",
])
def test_literal_guard_refuses_what_literal_eval_never_accepts(text):
    with pytest.raises(ValueError, match="^malformed literal: "):
        _literal(text)


@pytest.mark.parametrize("text", [
    pytest.param("(True, 1)", id="bool"),
    pytest.param("[False]", id="bool-in-list"),
    pytest.param("(1, # comment\n 2)", id="comment"),
    pytest.param("(1,\\\n 2)", id="continuation"),
    pytest.param("((1), 2)", id="parenthesised-scalar-in-tuple"),
    pytest.param("[(1)]", id="parenthesised-scalar-in-list"),
    pytest.param("- 5", id="sign-space"),
    pytest.param("(1, + 2)", id="sign-space-in-tuple"),
    pytest.param("[[[1]]]", id="three-levels"),
    pytest.param("(([1],),)", id="three-levels-of-parens"),
    pytest.param("1, 2", id="bare-tuple"),
    pytest.param("(1,,2)", id="double-comma"),
    pytest.param("(,)", id="lone-comma"),
    pytest.param("(1 2)", id="missing-comma"),
    pytest.param("(1]", id="mismatched"),
    pytest.param("(1, 2", id="unclosed"),
    pytest.param("(1, 2))", id="overclosed"),
    pytest.param("", id="empty"),
    pytest.param(" \n", id="blank"),
    pytest.param("01", id="leading-zero"),
    pytest.param("1__0", id="double-underscore"),
    pytest.param("0x", id="bare-prefix"),
    pytest.param("1e3", id="exponent"),
    pytest.param("1.0", id="float"),
    pytest.param("1j", id="imaginary"),
    pytest.param("\u0661\u0662", id="arabic-indic-digits"),
    pytest.param("(1,\xa02)", id="no-break-space"),
    pytest.param("(1,\v2)", id="vertical-tab"),
    pytest.param("1" * 5000, id="past-int-digit-limit"),
    pytest.param("-" * 100_000 + "1", id="minus-run-1e5"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="bracket-run-1e5"),
])
def test_grammar_refusals(text):
    """What the grammar refuses, among it inputs that literal_eval reads as
    integers: True/False, comments, continuations, (x) inside brackets and
    a space after a sign."""
    with pytest.raises(ValueError, match="^malformed literal: "):
        _literal(text)


def _flattened(value):
    """A literal as the CLI reads it: lists as tuples, at every level."""
    return tuple(map(_flattened, value)) if isinstance(value, (tuple, list)) else value


def _assert_agrees_with_literal_eval(text):
    """``_literal`` refuses ``text`` as malformed, or reads what
    ``ast.literal_eval`` reads, lists as tuples and ints as ints (``repr``
    tells True from 1).  Any other exception fails the test.  Returns
    whether ``text`` was accepted."""
    try:
        value = _literal(text)
    except ValueError as exc:
        assert str(exc).startswith("malformed literal: "), exc
        return False
    assert repr(value) == repr(_flattened(ast.literal_eval(text.strip()))), text
    return True


_BLANKS = st.text(" \t\n\r\f", max_size=2)


@st.composite
def _integer_tokens(draw):
    """An integer as Python writes it: decimal, 0x/0X, 0o or 0b, an
    underscore between two digits, at most one sign."""
    n = draw(st.integers(-10**12, 10**12))
    base = draw(st.sampled_from(["d", "x", "X", "o", "b"]))
    digits = format(abs(n), base)
    if len(digits) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]
    prefix = {"d": "", "x": "0x", "X": "0X", "o": "0o", "b": "0b"}[base]
    sign = "-" if n < 0 else draw(st.sampled_from(["", "+"]))
    return sign + prefix + digits


@st.composite
def _brackets(draw, items):
    """``items`` in ( ) or [ ], blank space around each token, perhaps a
    trailing comma (always one for a single item in parentheses)."""
    items = draw(items)
    opener, closer = draw(st.sampled_from(["()", "[]"]))
    trailing = bool(items) and (draw(st.booleans()) or (opener == "(" and len(items) == 1))
    parts = [draw(_BLANKS) + item + draw(_BLANKS) for item in items]
    return opener + ",".join(parts) + ("," + draw(_BLANKS) if trailing else "") + closer


_ELEMENTS = st.one_of(_integer_tokens(), _brackets(st.lists(_integer_tokens(), max_size=4)))
_TEXTS = st.one_of(
    _ELEMENTS,
    _brackets(st.lists(_ELEMENTS, max_size=4)),
    _ELEMENTS.map(lambda text: f"({text})"),  # (x) is x at the top level
)


@settings(max_examples=500, deadline=None)
@given(st.tuples(_BLANKS, _TEXTS, _BLANKS).map("".join))
def test_grammar_texts_read_as_literal_eval_reads_them(text):
    assert _assert_agrees_with_literal_eval(text)


RANDOM_ALPHABET = "()[],+-" * 3 + string.digits * 2 + string.ascii_letters + "_ #.\n\u0661\u0662"
MUTATED = ["[(5,1),(3,0)]", "(0x1F, -0b1, +0o7, 1_000,)", "[ [1 ,2,], (3,), -4 ]", "((1, 2))",
           "(-7)", "[(), []]", "(\n1,\t2\r)"]


def _mutation(rng, text):
    """``text`` after one to three random insertions, deletions or
    replacements of a character."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        new = rng.choice(RANDOM_ALPHABET)
        text = rng.choice([text[:i] + new + text[i:], text[:i] + text[i + 1:],
                           text[:i] + new + text[i + 1:]])
    return text


def test_random_strings_are_refused_or_read_as_literal_eval_reads_them():
    """100,000 seeded strings of up to 10 characters and 100,000 seeded
    mutations of grammar texts: each is malformed or agrees with
    literal_eval, and each kind has thousands accepted."""
    rng = random.Random(22)
    strings = ["".join(rng.choices(RANDOM_ALPHABET, k=rng.randint(0, 10)))
               for _ in range(100_000)]
    mutations = [_mutation(rng, rng.choice(MUTATED)) for _ in range(100_000)]
    assert sum(map(_assert_agrees_with_literal_eval, strings)) > 1000
    assert sum(map(_assert_agrees_with_literal_eval, mutations)) > 5000


@pytest.mark.parametrize("args", [
    ["girth", "--group", "Z", "--genset", "[2,3]", "--cap", "1"],
    ["length", "--group", "Z", "--genset", "[2,3]", "--element", "(1,)",
     "--cap", "0"],
])
def test_cap_out_of_range_is_usage_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "--cap" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("value", ["abc", "-5"])
@pytest.mark.parametrize("args", [
    ["girth", "--group", "Z", "--genset", "[2,3]", "--cap", "4"],
    ["length", "--group", "Z", "--genset", "[2,3]", "--element", "(1,)",
     "--cap", "3"],
])
def test_bad_memory_limit_is_usage_error(runner, args, value):
    result = runner.invoke(main, args, env={"WORDBOUND_MEM_LIMIT": value})
    assert result.exit_code == 2
    lines = result.output.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: WORDBOUND_MEM_LIMIT")


@pytest.mark.parametrize("element, env", [
    ("x1^-1000000000", {"WORDBOUND_MEM_LIMIT": None}),
    ("x2*x1^600", {"WORDBOUND_MEM_LIMIT": "4096"}),
])
def test_free_word_beyond_memory_limit_is_usage_error(runner, element, env):
    """A word whose letters cannot fit the limit is refused before it is built."""
    start = time.perf_counter()
    result = runner.invoke(main, [
        "length", "--group", "F2", "--genset", "[x1,x2]", "--element", element,
        "--cap", "3"], env=env)
    assert time.perf_counter() - start < 2
    assert result.exit_code == 2
    lines = result.output.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: free-word factor")


def test_free_genset_beyond_memory_limit_is_usage_error(runner):
    """A genset is charged its words' letters together with the inverses
    make_symmetric adds: each word here fits the limit, the genset does not."""
    result = runner.invoke(main, [
        "length", "--group", "F2", "--genset", "[x1^300, x2^300]", "--element", "x1",
        "--cap", "3"], env={"WORDBOUND_MEM_LIMIT": "8192"})
    assert result.exit_code == 2
    assert result.output.startswith("error: free-word factor 'x2^300'")


def test_large_torsion_generation_walk_is_a_resource_error(runner):
    """Deciding generation of Z x Z/q walks all of Z/q; past the memory
    limit that walk stops with the resource exit, not an unbounded dict."""
    result = runner.invoke(main, [
        "experiment", "zxzq", "--q", "100000000", "--primes", "100000007"],
        env={"WORDBOUND_MEM_LIMIT": "1000000"})
    assert result.exit_code == 3
    assert result.output.startswith("error: search memory budget exhausted")


def test_parse_free_words_matches_the_group_law():
    """Merged syllables give the word that multiplying the factors' powers
    out one by one gives, cancellations and zero exponents included."""
    F = gr.Free(3)
    rng = random.Random(37)
    for _ in range(300):
        factors = [(rng.randint(1, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 7))]
        word = F.identity()
        for i, exp in factors:
            word = F.mul(word, F.power(F.generator(i), exp))
        text = "*".join(f"x{i}^{exp}" for i, exp in factors)
        assert parse_element(F, text) == word


@pytest.mark.parametrize("parse, charged_letters", [
    (lambda: parse_element(gr.Free(2), "x1^200000"), 200000),
    (lambda: parse_element(gr.Free(7), "x7^-200001"), 200001),
    (lambda: parse_genset(gr.Free(7), "[x1^100000, x7^-100001]"), 2 * 200001),
    (lambda: parse_element(gr.Free(2), "x2*x1^200000"), 200001),
    (lambda: parse_element(gr.Free(2), "x1^100000*x2^100000"), 200000),
], ids=["word", "high-letter-word", "genset", "short-then-long", "two-long-factors"])
def test_free_word_parsing_memory_matches_its_charge(parse, charged_letters):
    """The traced peak while parsing stays within 1.5x the bytes charged."""
    tracemalloc.start()
    try:
        parse()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * charged_letters * _LETTER_BYTES


def test_girth_command(runner):
    result = runner.invoke(main, [
        "girth", "--group", "Z", "--genset", "[2,3]", "--cap", "10"])
    assert result.exit_code == 0
    assert result.output == "4\n"
    result = runner.invoke(main, [
        "girth", "--group", "F2", "--genset", "[x1,x2]", "--cap", "6"])
    assert result.output == "> 6\n"


def test_experiment_json(runner):
    result = runner.invoke(main, [
        "experiment", "zxzq", "--q", "2", "--primes", "5,7,11",
        "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["name"] == "zxzq"
    assert [r["length"] for r in doc["rows"]] == [8, 10, 14]
    assert all(v["pass"] for v in doc["verdicts"])


def test_experiment_unknown_exits_two(runner):
    assert runner.invoke(main, ["experiment", "nope"]).exit_code == 2


def test_experiment_explain(runner):
    result = runner.invoke(main, ["experiment", "zxzq", "--explain"])
    assert result.exit_code == 0
    assert "p+q+1" in result.output


def test_regenerate_golden_is_not_an_option(runner):
    """No command rewrites the golden table: the option is unknown."""
    golden = ex.D8_GOLDEN_PATH.read_bytes()
    result = runner.invoke(main, ["experiment", "uniform-length", "--regenerate-golden"])
    assert result.exit_code == 2
    assert "No such option" in result.output
    assert ex.D8_GOLDEN_PATH.read_bytes() == golden


def test_experiment_output_file(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, [
        "experiment", "quotient-orbit", "--p", "5", "--ks", "1,2,3,4",
        "--format", "json", "--output", str(out)])
    assert result.exit_code == 0
    doc = json.loads(out.read_bytes())
    assert doc["params"]["orbit_size"] == 4


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_output_is_usage_error(runner, tmp_path, where):
    """A path that cannot be written is a usage error with one line, not a
    traceback that exits 1, the failed-verdict code."""
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    result = runner.invoke(main, ["experiment", "zxzq", "--output", str(out)])
    assert result.exit_code == 2
    lines = result.output.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot write --output {out}: ")


def test_experiment_byte_determinism(runner):
    args = ["experiment", "heisenberg-center", "--seed", "3", "--samples", "15",
            "--format", "json"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.output == b.output
    assert a.exit_code == 0


# The sha256 of `wordbound experiment all --format json`.  A change that
# means to alter the report bytes must update this digest; a refactor or a
# speed-up must leave it as it is.
EXPERIMENT_ALL_SHA256 = "f35062a9f0d023453fb5f3c548c524e579178553f296e0cefe07e6a577b78952"


def test_experiment_all_bytes_are_pinned(runner):
    result = runner.invoke(main, ["experiment", "all", "--format", "json"])
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == EXPERIMENT_ALL_SHA256


def test_experiment_all_bytes_are_pinned_under_optimize_flag():
    """With asserts stripped by ``python -O`` the report bytes are the same:
    no check the output rests on is an assert."""
    out = run_optimized(["-m", "wordbound.cli", "experiment", "all", "--format", "json"])
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == EXPERIMENT_ALL_SHA256


def test_experiment_pairs_option(runner):
    result = runner.invoke(main, [
        "experiment", "dinfty", "--pairs", "2:3,3:5", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "alpha,beta,length"
    assert len(lines) == 3


@pytest.mark.parametrize("args, lengths", [
    (["zd", "--pairs", "1:0,2:3,3:5"], [1, 2, 3]),
    (["heisenberg", "--pairs", "0:1,2:3"], [4, 6]),
])
def test_experiment_pairs_with_a_zero(runner, args, lengths):
    """A pair with a zero p or q is coprime when the other is 1: its row is
    searched like any other, with no ZeroDivisionError."""
    result = runner.invoke(main, ["experiment", *args, "--format", "json"])
    assert result.exit_code == 0
    assert result.exception is None
    assert "Traceback" not in result.output
    assert [r["length"] for r in json.loads(result.output)["rows"]] == lengths


@pytest.mark.parametrize("args, code", [
    (["zxzq", "--primes", "5"], 1),
    (["zd", "--pairs", "2:3"], 1),
    (["heisenberg", "--pairs", "2:3"], 1),
    (["dinfty", "--pairs", "2:3"], 1),
    (["dinfty", "--pairs", "2:4"], 2),
    (["heisenberg", "--pairs", "2:3,2:4"], 2),
])
def test_experiment_ladder_exit_codes(runner, args, code):
    """One row shows no growth, so the report fails (exit 1); a pair that
    is not coprime is a usage error (exit 2), refused before any row."""
    result = runner.invoke(main, ["experiment", *args])
    assert result.exit_code == code
    assert "Traceback" not in result.output


@pytest.mark.parametrize("name, pairs, chunk", [
    ("zd", "2:3:4", "2:3:4"),
    ("zd", "2", "2"),
    ("dinfty", "2:3,5", "5"),
    ("heisenberg", "1:2,3:4:5,7:9", "3:4:5"),
])
def test_experiment_pairs_must_be_pairs(runner, name, pairs, chunk):
    """A chunk of --pairs that is not exactly two integers is a usage error
    naming it, not a tuple-unpacking error from inside the run."""
    result = runner.invoke(main, ["experiment", name, "--pairs", pairs])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"Invalid value for '--pairs': '{chunk}' is not a pair A:B" in result.output
    assert "unpack" not in result.output


@pytest.mark.parametrize("args, named", [
    (["zd", "--q", "9"], "--q"),
    (["fc-witness", "--seed", "5"], "--seed"),
    (["all", "--seed", "3"], "--seed"),
    (["zxd8", "--samples", "0"], "--samples"),
    (["zxzq", "--primes", "5,x"], "--primes"),
])
def test_experiment_option_misuse_is_usage_error(runner, args, named):
    """An option the named run does not take, any option with 'all', and a
    sample count below 1 exit 2 with a message, never a traceback."""
    result = runner.invoke(main, ["experiment", *args])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert named in result.output


def test_experiment_samples_without_seed(runner):
    result = runner.invoke(main, [
        "experiment", "heisenberg-center", "--samples", "3", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert len(doc["rows"]) == 3
    assert doc["params"]["count"] == 3
    assert doc["seed"] == 0


@pytest.mark.parametrize("p", [ex.QUOTIENT_ORBIT_MAX_P + 1, 1009, 1000000000000000009])
def test_quotient_orbit_above_the_bound_is_usage_error(runner, p):
    """p is refused before the primality test (trial division would take
    hours at 10^18 + 9) and before any map is built."""
    start = time.perf_counter()
    result = runner.invoke(main, ["experiment", "quotient-orbit", "--p", str(p)])
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert result.output == (
        f"error: p = {p} exceeds the bound {ex.QUOTIENT_ORBIT_MAX_P}\n")


def test_experiment_quotient_orbit_defaults_to_every_unit(runner):
    result = runner.invoke(main, ["experiment", "quotient-orbit", "--p", "7", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["params"]["ks"] == [1, 2, 3, 4, 5, 6]


def test_every_experiment_option_reaches_a_run():
    """Every DEFAULT_RUNS entry can be called with no arguments, and every
    experiment option of the CLI is a keyword of at least one entry, so no
    option is dead."""
    keywords = set()
    for run in ex.DEFAULT_RUNS.values():
        signature = inspect.signature(run)
        signature.bind()
        keywords |= set(signature.parameters)
    fixed = {name for name, param in inspect.signature(experiment.callback).parameters.items()
             if param.kind is not param.VAR_KEYWORD}
    options = {param.name for param in experiment.params} - fixed
    assert options
    assert options <= keywords
