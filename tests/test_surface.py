"""Keep no API that nothing calls.

Every public module-level function or class of ``src/extforge`` and every
public method needs a reference from ``src/`` or ``perfbench/`` outside its
own definition, or an entry in ``KEEP`` with the reason it stays.  A
reference is a name, an attribute, an imported name or a dotted string
naming it (``perfbench/traced.py`` wraps functions by their names); a
string without a dot, such as a subcommand name, is not a reference.

References are matched by short name only, so one blind spot remains: a
method passes whenever any method or function with the same short name
is called, even one of another class.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "extforge"

KEEP = {
    "resolution.chart_class": "acceptance API: criterion-10 builds h0 and h4 with it",
    "resolution.yoneda_product": "acceptance API: criterion-10 climbs the h0 ladder with it",
    "resolution.vanishing_edge": "acceptance API: criterion-06 reads vanishing lines with it",
    "resolution.cells_of_tensor": "acceptance API: criterion-03 counts tensor cells with it",
    "bgpoly.a1_vanishing_filter": "acceptance API: criterion-09 checks the A(1) vanishing line",
    "resolution.FreeResolution.verify_exact": "checker that ROADMAP direction 3 gives a program caller",
    "resolution.ChainMap.verify": "checker that ROADMAP direction 3 gives a program caller",
    "modules.FiniteModule.verify_action": "checker that ROADMAP direction 3 gives a program caller",
    "modules.dualize": "the module dual ROADMAP direction 5's second route resolves",
    "cobar.admissible_milnor_coordinates": "reference: tests compare Adem words with Milnor pairings",
    "cobar.adem_straighten": "reference: feeds admissible_milnor_coordinates in the tests",
    "gf2.Solver.pivot_columns": "reference: tests check the elimination's pivots with it",
    "gf2.BitMatrix.from_support": "reference: the chart JSON test decodes product matrices with it",
    "milnor.MilnorElement.sq": "reference: tests name known products with it",
    "charts.parse_tsv": "reference: the TSV round-trip tests read the writer's output with it",
}


def _references(tree: ast.AST, path: Path) -> list[tuple[Path, int, str]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((path, node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            out.append((path, node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            out.extend((path, node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_]\w*(?:\.\w+)+", node.value):
                out.extend((path, node.lineno, part) for part in node.value.split("."))
    return out


def _public_definitions(tree: ast.Module, module: str):
    """(qualified name, definition node) of the public API of one module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{module}.{node.name}.{sub.name}", sub


def test_every_public_name_has_a_caller_or_a_reason():
    refs, defs = [], []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs.extend(_references(tree, path))
        if path.parent == PACKAGE:
            defs.extend((path, qual, node) for qual, node in _public_definitions(tree, path.stem))
    uncalled = {
        qual
        for path, qual, node in defs
        if not any(
            name == qual.rsplit(".", 1)[1]
            and not (where == path and node.lineno <= line <= node.end_lineno)
            for where, line, name in refs
        )
    }
    # an entry whose name gains a caller, or disappears, leaves the list
    assert uncalled == set(KEEP), (
        f"no caller and no reason: {sorted(uncalled - set(KEEP))}; "
        f"stale keep-list entries: {sorted(set(KEEP) - uncalled)}"
    )
