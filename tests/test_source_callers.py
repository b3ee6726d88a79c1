"""Everything in ``src/beliefgames`` is run by a command or is public API.

Each top-level function and class, and each method, must be live.  The roots
are the click command callbacks, the methods of classes that subclass a
click class (overrides click calls), dunder methods (Python calls them) and
the public oracles below.  A definition is live when its name is used by
module-level code or by the body of another live definition.  Imports do
not count, so a name that ``__init__`` only re-exports is not live, and
liveness spreads to a fixed point, so code reached only from dead code is
dead too.  Names are matched by their last part alone: a method is live once
any ``.name`` is used, whatever the object.
"""

import ast
from pathlib import Path

import beliefgames

SRC = Path(beliefgames.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"

# Called by the tests and the benchmark only; README's public-API paragraph
# names them.
PUBLIC_ORACLES = {"window_diagnostics", "grid_bayes_posterior", "best_response_value"}


def _used_names(nodes) -> set[str]:
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def _is_command(node) -> bool:
    # @main.command(...) and @click.group(...)
    for deco in node.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def _subclasses_click(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(base, ast.Attribute)
        and isinstance(base.value, ast.Name)
        and base.value.id == "click"
        for base in cls.bases
    )


def definitions(package: Path):
    """``({qualname: (name, names its body uses, is a root)}, names that
    module-level code uses)`` over the package's modules."""
    defs, module_level = {}, set()
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef):
                root = stmt.name in PUBLIC_ORACLES or _is_command(stmt)
                defs[f"{path.stem}.{stmt.name}"] = (stmt.name, _used_names([stmt]), root)
            elif isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body if isinstance(s, ast.FunctionDef)]
                rest = [s for s in stmt.body if s not in methods]
                own = _used_names(rest + stmt.bases + stmt.keywords + stmt.decorator_list)
                defs[f"{path.stem}.{stmt.name}"] = (stmt.name, own, False)
                for m in methods:
                    root = (m.name.startswith("__") and m.name.endswith("__")) or (
                        _subclasses_click(stmt)
                    )
                    qualname = f"{path.stem}.{stmt.name}.{m.name}"
                    defs[qualname] = (m.name, _used_names([m]), root)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                module_level |= _used_names([stmt])
    return defs, module_level


def dead_definitions(package: Path) -> list[str]:
    defs, used = definitions(package)
    live = set()
    fresh = {q for q, (_, _, root) in defs.items() if root}
    while fresh:
        live |= fresh
        for q in fresh:
            used |= defs[q][1]
        fresh = {q for q, (name, _, _) in defs.items() if q not in live and name in used}
    return sorted(set(defs) - live)


def test_every_definition_is_run_by_a_command_or_public():
    dead = dead_definitions(SRC)
    assert not dead, f"no caller in src/, not a command, not public API: {dead}"


def test_public_oracles_exist_and_readme_names_them():
    defined = {name for name, _, _ in definitions(SRC)[0].values()}
    assert PUBLIC_ORACLES <= defined
    readme = README.read_text(encoding="utf-8")
    assert all(f"`{name}`" in readme for name in PUBLIC_ORACLES)


def test_scan_finds_code_reached_only_from_dead_code(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import exported\n")
    (tmp_path / "mod.py").write_text(
        "import click\n\n"
        "def exported():\n    return helper()\n\n"
        "def helper():\n    return helper()\n\n"
        "def used():\n    return 1\n\n"
        "class Box:\n    def __len__(self):\n        return 0\n\n"
        "    def unused(self):\n        return self.unused()\n\n"
        "@click.group()\ndef main():\n    used()\n"
    )
    assert dead_definitions(tmp_path) == [
        "mod.Box", "mod.Box.unused", "mod.exported", "mod.helper"
    ]
