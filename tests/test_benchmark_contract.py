"""The benchmark under ``perfbench/`` calls into classprop by name.  These
tests read its sources with ``ast``, without importing them, and check that
every classprop name they reference still exists, so a rename or deletion
in ``src/`` fails here and not only in a benchmark run."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = ("gf", "cyclo", "series", "limits", "matgroup", "stats", "cli")


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))}


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


def _exists(layer, name):
    if layer is None:  # from classprop import <layer>
        return name in LAYERS and importlib.import_module(f"classprop.{name}")
    return hasattr(importlib.import_module(f"classprop.{layer}"), name)


def test_benchmark_names_exist():
    missing = [ref for ref in REFERENCES if not _exists(*ref[1:])]
    assert not missing, f"(file, layer, name) missing from classprop: {missing}"
