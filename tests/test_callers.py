"""Every public top-level function and class of the package has a caller in
the program itself (``src/``, ``scripts/`` or ``perfbench/``), not only in
the tests: a helper that only tests reach is dead code with a test on it.
Likewise every parameter with a default, a dataclass field with a default
included, is set by some program call: one that no run sets is an option
that cannot change a run.
"""

import ast
import re
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


# defaulted parameters that no program caller sets, and why each is kept
UNSET_KEPT = {
    "cli.py:main(argv)": "the console script calls main(); the tests pass argv",
    "hypergeom.py:f_factor_series(weight_scale)": "the factor jets are next continued at 2 pi i / z",
    "hypergeom.py:ode_check(weight_scale)": "checks those factor series at 2 pi i / z",
}


def _walk(node, enclosing=None):
    """(enclosing def or lambda, node, whether node sits in a class body) for
    every node under ``node``."""
    for child in ast.iter_child_nodes(node):
        yield enclosing, child, isinstance(node, ast.ClassDef)
        yield from _walk(child, child if isinstance(child, (ast.FunctionDef, ast.Lambda)) else enclosing)


def _is_dataclass(node):
    return any(getattr(d, "id", getattr(getattr(d, "func", None), "id", None)) == "dataclass"
               for d in node.decorator_list)


def _dataclass_fields(node):
    """(position, field) of each constructor field with a default of a
    dataclass; a ``field(init=False)`` is no constructor field."""
    pos = 0
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        spec = {}
        if isinstance(stmt.value, ast.Call) and getattr(stmt.value.func, "id", None) == "field":
            spec = {kw.arg: kw.value for kw in stmt.value.keywords}
        if getattr(spec.get("init"), "value", True) is False:
            continue
        if stmt.value is not None and (not spec or {"default", "default_factory"} & set(spec)):
            yield pos, stmt.target.id
        pos += 1


def _defaulted(tree):
    """(function, position or None, parameter) of every parameter with a
    default, and (class, position, field) of every dataclass field with a
    default; the position leaves out a method's self or cls.

    Special methods are left out, since syntax calls them, not their name.
    """
    for _, node, method in _walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for i, name in _dataclass_fields(node):
                yield node.name, i, name
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
            continue
        a = node.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        pos = (a.posonlyargs + a.args)[int(method and not static):]
        params = list(enumerate(pos)) + [(None, p) for p in a.kwonlyargs]
        defaults = [None] * (len(pos) - len(a.defaults)) + a.defaults + a.kw_defaults
        for (i, p), d in zip(params, defaults):
            if d is not None:
                yield node.name, i, p.arg


def _argument(call, index, param):
    """The argument of ``call`` that sets ``param`` at position ``index``, or None;
    ``**kw`` sets every parameter and ``*args`` every later position."""
    for kw in call.keywords:
        if kw.arg in (param, None):
            return kw.value
    for i, arg in enumerate(call.args):
        if index is not None and (i == index or isinstance(arg, ast.Starred) and i <= index):
            return arg
    return None


def _called_names(tree):
    """(enclosing def or lambda, called name, call) of every call in ``tree``;
    a ``cls(...)`` call in a class's method is named by the class."""
    classes = {id(call): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for call in ast.walk(node)
               if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "cls"}
    for enc, node, _ in _walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            yield enc, classes.get(id(node), name), node


def _unset_parameters(files, kept=frozenset()):
    """``file:function(parameter)`` of each defaulted parameter of the package
    that no call in ``files``, (path, source) pairs, sets; a dataclass field
    is ``file:Class(field)``.

    A call matches by name.  A recursive call does not count, and a call that
    passes its caller's own defaulted parameter of the same name counts only
    if that one is set; a ``kept`` parameter counts as set.
    """
    trees = [(path, ast.parse(source)) for path, source in files]
    defaulted = {(path, fn, i, p) for path, tree in trees for fn, i, p in _defaulted(tree)}
    own = {(fn, p) for _, fn, _, p in defaulted}
    calls = [call for _, tree in trees for call in _called_names(tree)]
    done = {re.fullmatch(r"\w+\.py:(\w+)\((\w+)\)", k).groups() for k in kept}
    through = set()
    for _, fn, i, p in defaulted:
        for enc, name, call in calls:
            caller = getattr(enc, "name", None)
            arg = _argument(call, i, p) if name == fn != caller else None
            if isinstance(arg, ast.Name) and arg.id == p and (caller, p) in own:
                through.add(((fn, p), (caller, p)))
            elif arg is not None:
                done.add((fn, p))
    while more := {k for k, src in through if src in done} - done:
        done |= more
    return sorted(f"{path.name}:{fn}({p})" for path, fn, _, p in defaulted
                  if path.parent == PACKAGE and (fn, p) not in done)


def test_every_defaulted_parameter_is_set_by_a_program_caller():
    files = [(p, p.read_text()) for p in _program_files()]
    assert _unset_parameters(files, UNSET_KEPT) == [], "defaulted parameters no program caller sets"
    # each kept parameter is still unset, so the list holds no stale entry
    assert set(UNSET_KEPT) <= set(_unset_parameters(files))


def test_a_parameter_set_only_by_recursion_or_an_unset_pass_through_is_found():
    extra = ("def _halve(x, depth=0):\n"
             "    return _halve(x / 2, depth + 1) if depth < 3 else x\n"
             "def _outer(x, tol=1e-9):\n"
             "    return _inner(x, tol=tol)\n"
             "def _inner(x, tol=1e-9):\n"
             "    return x + tol\n"
             "def halve_both(x):\n"
             "    return _halve(x), _outer(x)\n")
    files = [(p, p.read_text() + extra if p.name == "wallcross.py" else p.read_text())
             for p in _program_files()]
    found = ["wallcross.py:_halve(depth)", "wallcross.py:_inner(tol)", "wallcross.py:_outer(tol)"]
    assert _unset_parameters(files, UNSET_KEPT) == found
    # once a caller sets the outer tol, the one it passes through is set too
    files.append((ROOT / "scripts" / "extra.py", "_outer(1.0, 1e-6)\n"))
    assert _unset_parameters(files, UNSET_KEPT) == found[:1]


def test_a_dataclass_field_no_caller_sets_is_found():
    # b is set by position, d through cls(...), and the init=False memo is
    # no constructor field, so c sits at position 2
    extra = ("@dataclass\n"
             "class _Probe:\n"
             "    a: int\n"
             "    b: int = 0\n"
             "    memo: dict = field(default_factory=dict, init=False)\n"
             "    c: tuple = ()\n"
             "    d: list = field(default_factory=list)\n"
             "    @classmethod\n"
             "    def make(cls, d):\n"
             "        return cls(1, d=d)\n"
             "def probe():\n"
             "    return _Probe(1, 2), _Probe.make([])\n")
    files = [(p, p.read_text() + extra if p.name == "wallcross.py" else p.read_text())
             for p in _program_files()]
    assert _unset_parameters(files, UNSET_KEPT) == ["wallcross.py:_Probe(c)"]
    files.append((ROOT / "scripts" / "extra.py", "_Probe(0, 1, ())\n"))
    assert _unset_parameters(files, UNSET_KEPT) == []


def test_a_self_named_default_no_caller_sets_is_found():
    # a default that binds a loop variable is a parameter like any other
    extra = ("def _thunks(points):\n"
             "    out = []\n"
             "    for n in points:\n"
             "        def thunk(n=n):\n"
             "            return n\n"
             "        out.append(thunk)\n"
             "    return [f() for f in out]\n")
    files = [(p, p.read_text() + extra if p.name == "wallcross.py" else p.read_text())
             for p in _program_files()]
    assert _unset_parameters(files, UNSET_KEPT) == ["wallcross.py:thunk(n)"]
