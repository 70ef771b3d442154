"""Source-wide guards: exact integers only, checks that survive
``python -O``, a group law of each family's own, membership tests without
iterator chains, one module that lays out a ``GenSet``, one place that
checks its letters, no text evaluated as Python, no stale export, one
owner of the memory limit, one home of the search kernel and no unused
import."""

import ast
import inspect
import textwrap
from pathlib import Path

from oracles import concrete_families

import wordbound
from wordbound import experiments
from wordbound import groups as gr

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "wordbound").glob("*.py"))


def _offences(source):
    """Line numbers of assert statements and float or complex literals."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
    ]


def test_guard_flags_asserts_and_floats_but_not_path_joins():
    source = "assert ok\nx = 1.5\ny = 2j\nz = Path('a') / 'b'\nw = 7 // 2\n"
    assert _offences(source) == [1, 2, 3]


def test_library_has_no_assert_or_float_literal():
    assert SOURCES
    found = {p.name: _offences(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _laws_not_in_own_body(classes):
    """Names of the classes that leave ``mul`` or ``_mul`` to a base class.

    perfbench traces ``mul`` class by class, so a family that inherits it
    would drop out of ``groups.mul_ns.<family>``.
    """
    return sorted(cls.__name__ for cls in classes
                  if not {"mul", "_mul"} <= vars(cls).keys())


def test_guard_flags_an_inherited_law():
    class Inherits(gr.FiniteCyclic):
        pass

    class OnlyChecked(gr.FiniteCyclic):
        def mul(self, g, h):
            return super().mul(g, h)

    assert _laws_not_in_own_body([gr.FiniteCyclic, Inherits, OnlyChecked]) == [
        "Inherits", "OnlyChecked"]


def test_every_family_defines_both_laws():
    assert _laws_not_in_own_body(concrete_families()) == []



CHAIN_CALLS = {"map", "all", "any", "zip", "filter"}
CHAIN_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _chained_membership_tests(classes):
    """Names of the classes whose ``contains`` calls ``map``, ``all``,
    ``any``, ``zip`` or ``filter``, or holds a comprehension or generator
    expression.

    ``contains`` runs on both operands of every checked product, and a plain
    ``for`` loop is several times faster there than an iterator chain.
    """
    def chained(func):
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        return any(
            isinstance(node, CHAIN_NODES)
            or (isinstance(node, ast.Call) and getattr(node.func, "id", None) in CHAIN_CALLS)
            for node in ast.walk(tree))

    return sorted(cls.__name__ for cls in classes if chained(cls.contains))


def test_guard_flags_an_iterator_chain_in_contains():
    class Mapped(gr.IntVector):
        def contains(self, g):
            return isinstance(g, tuple) and all(map(isinstance, g, [int] * len(g)))

    class Generated(gr.Free):
        def contains(self, g):
            return all(g[i] != -g[i + 1] for i in range(len(g) - 1))

    class Listed(gr.Free):
        def contains(self, g):
            return [x for x in g if x == 0] == []

    class Zipped(gr.Free):
        def contains(self, g):
            return not any(x == -y for x, y in zip(g, g[1:]))

    class Filtered(gr.IntVector):
        def contains(self, g):
            return not list(filter(None, g))

    class Looped(gr.IntVector):
        def contains(self, g):
            for x in g:
                if not isinstance(x, int):
                    return False
            return True

    classes = [Mapped, Generated, Listed, Zipped, Filtered, Looped, gr.Free]
    assert _chained_membership_tests(classes) == [
        "Filtered", "Generated", "Listed", "Mapped", "Zipped"]


def test_no_family_tests_membership_with_an_iterator_chain():
    assert _chained_membership_tests(concrete_families()) == []


def _genset_constructions(source):
    """Line numbers of calls to the ``GenSet`` constructor itself, by name or
    as an attribute; ``GenSet.from_classes(...)`` is not one."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "GenSet" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_guard_flags_a_genset_built_by_hand():
    source = ("S = GenSet(G, letters, involution)\n"
              "T = gensets.GenSet(group=G, letters=(), involution=())\n"
              "U = GenSet.from_classes(G, classes)\n"
              "V = make_symmetric(G, elements)\n")
    assert _genset_constructions(source) == [1, 2]


def test_only_gensets_lays_out_a_genset():
    """Letters and involution are laid out by ``GenSet.from_classes`` alone,
    so no other module may call the constructor."""
    found = {p.name: _genset_constructions(p.read_text(encoding="utf-8"))
             for p in SOURCES if p.name != "gensets.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


MEMBERSHIP_TESTS = {"check", "contains"}


def _letter_rechecks(source):
    """Names of the functions, outside class ``GenSet``, that loop over an
    alphabet's ``letters`` and call ``check`` or ``contains`` in the loop,
    or map either over them.

    A GenSet checks its letters where it is built, so any other pass over
    them with a membership test repeats that check.  A loop over raw
    elements, like ``make_symmetric``'s, is not flagged.
    """
    tree = ast.parse(source)
    in_genset = {id(node) for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) and cls.name == "GenSet"
                 for node in ast.walk(cls)}

    def reads_letters(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "letters" for n in ast.walk(node))

    def names_test(node):
        return isinstance(node, ast.Attribute) and node.attr in MEMBERSHIP_TESTS

    def recheck(node):
        if isinstance(node, ast.For):
            return reads_letters(node.iter) and any(
                isinstance(n, ast.Call) and names_test(n.func)
                for stmt in node.body for n in ast.walk(stmt))
        if isinstance(node, CHAIN_NODES):
            return any(reads_letters(g.iter) for g in node.generators) and any(
                isinstance(n, ast.Call) and names_test(n.func) for n in ast.walk(node))
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "map"
                and any(names_test(a) for a in node.args)
                and any(reads_letters(a) for a in node.args))

    return sorted({func.name for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef) and id(func) not in in_genset
                   and any(recheck(node) for node in ast.walk(func))})


def test_guard_flags_a_recheck_of_letters():
    source = textwrap.dedent("""
        class GenSet:
            def __post_init__(self):
                for x in self.letters:
                    self.group.check(x)

        def looped(G, S):
            for sym, x in enumerate(S.letters):
                G.check(x)

        def generated(G, S):
            return all(G.contains(x) for x in S.letters)

        def mapped(G, S):
            list(map(G.check, S.letters))

        def make_symmetric(G, elements):
            def checked():
                for x in elements:
                    G.check(x)
                    yield x
            return classes(checked())

        def split(S):
            return [part(x) for x in S.letters]
    """)
    assert _letter_rechecks(source) == ["generated", "looped", "mapped"]


def test_no_search_rechecks_an_alphabets_letters():
    found = {p.name: _letter_rechecks(p.read_text(encoding="utf-8"))
             for p in SOURCES if p.name in ("metric.py", "girth.py", "gensets.py")}
    assert found == {"gensets.py": [], "girth.py": [], "metric.py": []}


EVALUATORS = {"literal_eval", "eval", "exec"}


def _evaluator_calls(source):
    """Line numbers of calls to ``literal_eval``, ``eval`` or ``exec``, by
    name or as an attribute."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and EVALUATORS & {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
    ]


def test_guard_flags_an_evaluator_call():
    source = ("a = ast.literal_eval(text)\n"
              "b = eval(text)\n"
              "exec(text)\n"
              "c = literal_eval(text)\n"
              "d = evaluate(text)\n"
              "e = re.compile(text)\n")
    assert _evaluator_calls(source) == [1, 2, 3, 4]


def test_library_evaluates_no_text_as_python():
    """Command-line text is read by the CLI's own grammar, never by a
    Python evaluator."""
    found = {p.name: _evaluator_calls(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_every_exported_name_resolves():
    """A name deleted from the package cannot linger in ``__all__``, where
    ``from wordbound import *`` would fail on it."""
    assert [name for name in wordbound.__all__ if not hasattr(wordbound, name)] == []
    namespace = {}
    exec("from wordbound import *", namespace)
    assert set(wordbound.__all__) <= namespace.keys()


def _memory_limit_callers(source):
    """Names of the functions that call ``memory_limit``, by name or as an
    attribute."""
    return sorted({
        func.name for func in ast.walk(ast.parse(source))
        if isinstance(func, ast.FunctionDef)
        and any(isinstance(node, ast.Call)
                and "memory_limit" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                for node in ast.walk(func))
    })


def test_guard_flags_a_memory_limit_call():
    source = textwrap.dedent("""
        def direct():
            return memory_limit()

        def qualified(G):
            return ball(G, S, 3, metric.memory_limit())

        def named():
            return memory_limit
    """)
    assert _memory_limit_callers(source) == ["direct", "qualified"]


def _takes_mem_limit(f):
    try:
        return "mem_limit" in inspect.signature(f).parameters
    except ValueError:  # an exception class has no signature to read
        return False


def test_the_budget_alone_resolves_the_memory_limit():
    """Each search's budget reads ``WORDBOUND_MEM_LIMIT`` where it is made,
    so no function takes a limit, and outside ``metric`` only the CLI's
    free-word pre-check calls ``memory_limit``."""
    exported = [getattr(wordbound, name) for name in wordbound.__all__]
    assert [f.__name__ for f in [*exported, experiments.sample_zxd8_genset]
            if callable(f) and _takes_mem_limit(f)] == []
    found = {(p.name, name) for p in SOURCES if p.name != "metric.py"
             for name in _memory_limit_callers(p.read_text(encoding="utf-8"))}
    assert found == {("cli.py", "parse_free_words")}


def _kernel_uses(source, name):
    """Line numbers of the references to ``name``: as a name, as an
    attribute or in an import."""
    return sorted({
        node.lineno for node in ast.walk(ast.parse(source))
        if getattr(node, "id", None) == name or getattr(node, "attr", None) == name
        or (isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))
    })


def test_guard_flags_a_kernel_reference():
    source = ("from .metric import _expand, ball\n"
              "layers = _expand(mul, letters, table, budget, None)\n"
              "budget = metric._Budget(e)\n"
              "B = ball(G, S, 3)\n"
              "grow = metric._expand\n"
              "expand = '_expand'\n")
    assert _kernel_uses(source, "_expand") == [1, 2, 5]
    assert _kernel_uses(source, "_Budget") == [3]


def test_metric_alone_drives_the_search_kernel():
    """Only ``metric`` names ``_expand``, so every breadth-first table is
    grown in one place; only ``metric`` and the Schreier walk and folding
    of ``gensets`` name ``_Budget``."""
    found = {(p.name, name) for p in SOURCES for name in ("_expand", "_Budget")
             if _kernel_uses(p.read_text(encoding="utf-8"), name)}
    assert found == {("metric.py", "_expand"), ("metric.py", "_Budget"), ("gensets.py", "_Budget")}


TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _unused_imports(source):
    """Names a module imports and never reads; ``from __future__`` binds
    no name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_guard_flags_an_unused_import():
    source = textwrap.dedent("""
        from __future__ import annotations
        import os
        import a.b
        import json as j
        from x import y, z as w

        def f(v: y) -> None:
            return a.b(v)
    """)
    assert _unused_imports(source) == ["j", "os", "w"]


def test_no_module_imports_a_name_it_never_uses():
    """Across the library and the tests; the package's re-exports in
    ``__init__.py`` are exempt."""
    found = {p.name: _unused_imports(p.read_text(encoding="utf-8"))
             for p in [*SOURCES, *TESTS] if p.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
