"""Count the API surface of the entmono package, and list public names nothing needs.

Usage: python3 tools/api_counts.py [SRC]

SRC is the source tree to count (default ``src``, run from the repository
root); the tests/, demos/, tools/ and perfbench/ beside it are its users.
Four counts come from an ``ast`` walk over ``SRC/entmono``:

  options     ``add_argument`` calls (the CLI's flags)
  parameters  every ``def`` and ``lambda`` parameter, ``self`` included
  constants   module-level UPPER_CASE assignments, public and private
  public      module-level definitions (functions, classes, assignments)
              whose name has no leading underscore

It also prints ``lines``: the line count of SRC/entmono, in total and
per module, as ``wc -l`` counts them.

A public name is needed when one of these holds: ``entmono.__all__``
exports it; a file under tests/, demos/, tools/ or perfbench/ names it
(as an identifier, or in a string: a ``monkeypatch.setattr`` attribute, or
a dotted path that perfbench/tracer.py looks up); it is the type of a
value a public function returns (RETURNED); or it states a file format or
a default (FORMATS). Every other public name is listed, with its module,
and the script then exits 1; with none it exits 0.
"""

import ast
import re
import sys
from pathlib import Path

USERS = ("tests", "demos", "tools", "perfbench")
RETURNED = {"CampaignRow", "ConditionCheck"}
FORMATS = {"REPORT_FORMAT_VERSION", "STATE_FORMAT_VERSION", "DEFAULT_TOLERANCE"}
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _defined(node) -> list:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [leaf.id for t in targets
            for leaf in (t.elts if isinstance(t, ast.Tuple) else [t])
            if isinstance(leaf, ast.Name)]


def _identifiers(tree) -> set:
    """Every name, attribute and imported name in tree, and each part of a dotted string."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(node.value.split("."))
    return found


def main(src: str = "src") -> int:
    package = Path(src) / "entmono"
    options = parameters = 0
    constants = {"public": 0, "private": 0}
    public = []  # (module, name)
    exported = set()
    lines = {}
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines[path.stem] = text.count("\n")
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                options += 1
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                parameters += (len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)
                               + (a.vararg is not None) + (a.kwarg is not None))
        for node in tree.body:
            for name in _defined(node):
                if (isinstance(node, (ast.Assign, ast.AnnAssign))
                        and CONSTANT.fullmatch(name) is not None):
                    constants["private" if name.startswith("_") else "public"] += 1
                if name == "__all__":
                    exported.update(ast.literal_eval(node.value))
                elif not name.startswith("_"):
                    public.append((path.stem, name))
    named = set()
    for folder in USERS:
        for path in sorted((Path(src).resolve().parent / folder).rglob("*.py")):
            if path.name == Path(__file__).name:
                continue  # RETURNED and FORMATS here name what they keep
            tree = ast.parse(path.read_text(encoding="utf-8"))
            named |= _identifiers(tree)
    unneeded = [(module, name) for module, name in public
                if name not in exported | named | RETURNED | FORMATS]
    print(f"options {options}")
    print(f"parameters {parameters}")
    print(f"module constants {sum(constants.values())} "
          f"(public {constants['public']}, private {constants['private']})")
    print(f"public names {len(public)}")
    print(f"lines {sum(lines.values())} ("
          + ", ".join(f"{module} {count}" for module, count in lines.items()) + ")")
    print(f"public names nothing outside their module needs: {len(unneeded)}")
    for module, name in unneeded:
        print(f"  {module}.{name}")
    return 1 if unneeded else 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
