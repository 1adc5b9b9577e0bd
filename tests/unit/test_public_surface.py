"""Every name defined in ``src/`` has a caller outside the tests.

A function, method or class that only tests reach is API nobody ships:
the tests keep it alive and its maintenance buys nothing.  This test
parses every module under ``src/repro/`` and, for each non-dunder
``def`` or ``class``, counts the whole-word occurrences of its name
across the code that ships or drives what ships (``src/``,
``horsebench/``, ``benchmarks/``, ``examples/`` and the CI workflows).
A name whose only occurrences are its own definitions fails, unless
:data:`ALLOWED` names it with the reason it stays.

The count is by word, not by reference: a name that also occurs as an
unrelated identifier, attribute or string elsewhere counts as used.  It
errs towards passing, so every name it reports is a real finding.
"""

import ast
import functools
import re
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SHIPPED = ("src", "horsebench", "benchmarks", "examples", ".github")
SUFFIXES = (".py", ".yml", ".yaml")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# name -> why it stays although no shipped code calls it yet.
ALLOWED = {
    "peer_down": "BGPDaemon: a link cut will reach BGP through it "
                 "(ROADMAP 14(b))",
    "neighbor_down": "OSPFDaemon: a link cut will reach OSPF through it "
                     "(ROADMAP 14(b))",
}


@functools.lru_cache(maxsize=None)
def _word_counts():
    counts = Counter()
    for top in SHIPPED:
        for path in (ROOT / top).rglob("*"):
            if path.suffix in SUFFIXES and "__pycache__" not in path.parts:
                counts.update(WORD.findall(path.read_text(encoding="utf-8")))
    return counts


@functools.lru_cache(maxsize=None)
def _definitions():
    """``{name: ["path:line", ...]}`` for every non-dunder def and class."""
    found = defaultdict(list)
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    found[name].append(
                        f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_no_public_name_only_tests_call():
    counts = _word_counts()
    unused = {
        name: sites for name, sites in _definitions().items()
        if counts[name] <= len(sites) and name not in ALLOWED
    }
    assert not unused, (
        "defined in src/ but used nowhere outside the tests (delete it, "
        "or give it a shipped caller):\n" + "\n".join(
            f"  {name}  ({', '.join(sites)})"
            for name, sites in sorted(unused.items())))


def test_allowlist_names_only_unused_definitions():
    """An allowlist entry whose name gained a caller is stale."""
    counts = _word_counts()
    definitions = _definitions()
    for name in ALLOWED:
        assert name in definitions, f"{name} is no longer defined in src/"
        assert counts[name] <= len(definitions[name]), (
            f"{name} has a caller now; drop it from ALLOWED")
