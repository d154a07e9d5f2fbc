"""Every module-level function and class of the package is reached from the
package; code that only the tests reach belongs in `paper_oracle.py`."""

import ast
from pathlib import Path

import fareycf

# README's library paragraph: functions for library callers that no CLI action calls
LIBRARY = {("natext", name) for name in ("attractor_mass", "density_slice", "measure_interval", "plateau_entropy", "asymptotic_probe")}


def unreached(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of each module-level def or class that no module uses
    outside its own def: by a bare name in its module, as `alias.name` of a
    module imported by `from . import`, or by `from .module import name`.  A
    module handed over as a value uses its `selftest` (`--selftest` calls
    `mod.selftest()` on the modules of its command)."""
    defined, used = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        aliases[a.asname or a.name] = a.name
                    used.add((node.module, a.name))
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            defined.add((module, own))
            nodes = list(ast.walk(top))
            bases = {id(n.value) for n in nodes if isinstance(n, ast.Attribute)}
            for n in nodes:
                if isinstance(n, ast.Name) and n.id != own:
                    used.add((module, n.id))
                    if n.id in aliases and id(n) not in bases:
                        used.add((aliases[n.id], "selftest"))
                elif isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in aliases:
                    used.add((aliases[n.value.id], n.attr))
    return {(module, name) for module, name in defined - used if name}


def test_every_definition_is_reached_from_the_package():
    sources = {path.stem: path.read_text() for path in Path(fareycf.__file__).parent.glob("*.py")}
    assert sorted(unreached(sources) - LIBRARY) == []


def test_reach_is_matched_by_module():
    # neither its own recursion nor `Fraction(1).denominator` reaches `a.denominator`
    sources = {
        "a": "def denominator(S):\n    return denominator(S[1:])\n\n\ndef value(S):\n    return S\n",
        "b": "from fractions import Fraction\nfrom . import a\n\nFraction(1).denominator, a.value\n",
    }
    assert unreached(sources) == {("a", "denominator")}
