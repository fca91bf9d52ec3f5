"""Every public top-level function and class of the package has a caller in
the program itself (``src/``, ``scripts/`` or ``perfbench/``), not only in
the tests: a helper that only tests reach is dead code with a test on it.
"""

import ast
from pathlib import Path

import flopwall

PACKAGE = Path(flopwall.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
PROGRAM_DIRS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")


def _program_files():
    for top in PROGRAM_DIRS:
        for path in sorted(top.rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path


def _names(node):
    """Names and attribute names that ``node`` reads."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _references(sources):
    """Names read anywhere in ``sources``, outside the definition they name.

    String constants do not count, so a name that only a table of strings
    mentions (a tracer's name list, say) has no caller.
    """
    refs = set()
    for source in sources:
        for stmt in ast.parse(source).body:
            own = getattr(stmt, "name", None)
            refs.update(name for name in _names(stmt) if name != own)
    return refs


def _public_definitions(source):
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            yield stmt.name


def test_program_files_are_found():
    files = {p.name for p in _program_files()}
    assert {"wallcross.py", "wall_scan.py", "workloads.py"} <= files
    assert "test_perfbench.py" not in files


def test_every_public_definition_has_a_program_caller():
    refs = _references(p.read_text() for p in _program_files())
    unused = [f"{path.name}:{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in _public_definitions(path.read_text()) if name not in refs]
    assert not unused, f"public definitions reached only from tests: {unused}"


def test_a_helper_without_program_caller_is_found():
    # a public helper that only calls itself and is named only in a string
    extra = ("def coeff_CK(config, f, dp, scale=1.0):\n"
             "    return coeff_CK(config, f, dp, scale) if f else 1.0\n"
             "LAYERS = {'coeff_CK': 'wallcross.coeff'}\n")
    wallcross = (PACKAGE / "wallcross.py").read_text() + extra
    sources = [wallcross if p.name == "wallcross.py" else p.read_text() for p in _program_files()]
    assert "coeff_CK" in set(_public_definitions(wallcross))
    assert "coeff_CK" not in _references(sources)
    assert "coeff_CK" in _references(sources + ["coeff_CK(None, (), ())\n"])
