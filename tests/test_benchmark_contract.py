"""The benchmark under ``perfbench/`` calls into classprop by name.  These
tests read its sources with ``ast``, without importing them, and check that
every classprop name they reference still exists, and that every keyword
argument they pass is a parameter of the function they call, so a rename or
deletion in ``src/`` fails here and not only in a benchmark run.  The
sources are the modules of ``perfbench/`` and the code strings that its
tests hand to ``traced(...)``, which run in a fresh interpreter."""

import ast
import importlib
import inspect
import textwrap
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = ("gf", "cyclo", "series", "limits", "matgroup", "stats", "cli")


def _snippets(tree):
    """The string literals passed as the first argument of ``traced(...)``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "traced" and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            yield node.args[0].value


def _trees():
    """Parsed sources by name: each module of perfbench/, and per test file
    of perfbench/tests/, one module holding all its traced snippets."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))}
    for path in sorted((BENCH / "tests").glob("*.py")):
        body = [stmt for snippet in _snippets(ast.parse(path.read_text()))
                for stmt in ast.parse(textwrap.dedent(snippet)).body]
        if body:
            trees[f"tests/{path.name} traced"] = ast.Module(body=body, type_ignores=[])
    return trees


def _references():
    """(source file, layer, name) for every ``<layer>.<name>`` attribute read
    on a name spelled like a layer module, every ``from classprop.<layer>
    import <name>``, and every key of the dict that ``spans._hooks`` returns."""
    out = set()
    for fname, tree in _trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in LAYERS):
                out.add((fname, node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module:
                parts = node.module.split(".")
                if parts[0] == "classprop" and len(parts) == 2:
                    out.update((fname, parts[1], alias.name) for alias in node.names)
                elif node.module == "classprop":
                    out.update((fname, None, alias.name) for alias in node.names)
            elif isinstance(node, ast.FunctionDef) and node.name == "_hooks":
                for ret in ast.walk(node):
                    if isinstance(ret, ast.Return) and isinstance(ret.value, ast.Dict):
                        for key in ret.value.keys:
                            layer, name = key.value.split(".", 1)
                            out.add((fname, layer, name))
    return sorted(out, key=lambda ref: (ref[0], ref[1] or "", ref[2]))


REFERENCES = _references()


def test_references_were_found():
    layers = {layer for _, layer, _ in REFERENCES}
    assert {"matgroup", "stats", "series", "limits", "cli"} <= layers
    assert ("spans.py", "matgroup", "tau_membership") in REFERENCES
    # the traced snippets of the benchmark's own tests
    traced = "tests/test_checks.py traced"
    assert {(traced, "stats", "fixed_point_indices"), (traced, "matgroup", "membership_sets"),
            (traced, "cyclo", "CycRing"), (traced, "gf", "has_small_degree_factor")} \
        <= set(REFERENCES)


def _exists(layer, name):
    if layer is None:  # from classprop import <layer>
        return name in LAYERS and importlib.import_module(f"classprop.{name}")
    return hasattr(importlib.import_module(f"classprop.{layer}"), name)


def test_benchmark_names_exist():
    missing = [ref for ref in REFERENCES if not _exists(*ref[1:])]
    assert not missing, f"(file, layer, name) missing from classprop: {missing}"


def _keyword_arguments():
    """(source file, layer, name, keyword) for every keyword argument of a
    call to ``<layer>.<name>`` on a name spelled like a layer module, or to a
    name imported by ``from classprop.<layer> import <name>``."""
    out = set()
    for fname, tree in _trees().items():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                parts = node.module.split(".")
                if parts[0] == "classprop" and len(parts) == 2:
                    for alias in node.names:
                        imported[alias.asname or alias.name] = (parts[1], alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id in LAYERS):
                target = (func.value.id, func.attr)
            elif isinstance(func, ast.Name) and func.id in imported:
                target = imported[func.id]
            else:
                continue
            out.update((fname, *target, kw.arg) for kw in node.keywords if kw.arg)
    return sorted(out)


KEYWORDS = _keyword_arguments()


def test_keyword_arguments_were_found():
    assert ("workloads.py", "stats", "expectation_inequality", "member_fixed") in KEYWORDS
    assert ("workloads.py", "stats", "proportion", "trials") in KEYWORDS
    assert ("workloads.py", "matgroup", "ActionSpec", "restrict") in KEYWORDS
    assert ("tests/test_checks.py traced", "stats", "proportion", "trials") in KEYWORDS


def test_benchmark_keywords_are_parameters():
    unknown = []
    for fname, layer, name, kw in KEYWORDS:
        # a missing name is reported by test_benchmark_names_exist
        func = getattr(importlib.import_module(f"classprop.{layer}"), name, None)
        if func is None:
            continue
        params = inspect.signature(func).parameters
        if kw not in params and not any(p.kind is p.VAR_KEYWORD for p in params.values()):
            unknown.append((fname, layer, name, kw))
    assert not unknown, f"(file, layer, name, keyword) not accepted by classprop: {unknown}"
