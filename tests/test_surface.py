"""Every function, class and method of the package has a use.

A top-level function or class, or a method whose name is not a dunder,
must be referenced from ``src/`` outside its own definition, from
``demos/`` or from ``perfbench/``, or be a ``cmd_*`` command that
``checks.command`` looks up by name.  An export in ``ncdirac.__all__`` is
no use by itself: code only the tests call belongs in the tests.
References are matched by name: a ``Name``, an attribute or a name a
``from`` import takes in ``src/`` (the strings of ``__all__`` are not).
In ``demos/`` and ``perfbench/`` only a use of the package counts: a name
imported from it, an attribute read that is not on another module the
file imports, and the last part of a dotted string (the benchmark's
tracer names functions as ``"module.function"``); a local variable or a
word of prose does not.

Matching by name lets a method live on a namesake in another class, so
methods also meet a run-time rule: each must run in some golden command
(``tests/golden/commands.txt``) or demo, or be named in ``demos/`` or
``perfbench/``, or be listed in ``_NOT_RUN`` with its reason.  A name a
module imports at its top level must be read in that module, or be listed
in its ``__all__``.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from golden_commands import COMMANDS
from signed_calls import SIGNED

from ncdirac import checks

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ncdirac"


def _names(tree) -> Counter:
    """The names ``tree`` reads: each ``Name``, each attribute, and the
    name each ``from`` import takes from its module, under any alias."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


_DOTTED = re.compile(r"\w+(\.\w+)+")


def _package_uses(tree) -> Counter:
    """The names one file outside the package uses of it: each name it
    imports from ``ncdirac``, each attribute it reads that is not on
    another module it imports, and the last part of each dotted string."""
    foreign = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.split(".")[0] != "ncdirac"}
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ncdirac":
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            while isinstance(owner, ast.Attribute):
                owner = owner.value
            if not (isinstance(owner, ast.Name) and owner.id in foreign):
                out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _DOTTED.fullmatch(node.value):
            out[node.value.rsplit(".", 1)[-1]] += 1
    return out


# module-level functions the interpreter calls (PEP 562), like dunder methods
_MODULE_HOOKS = {"__getattr__", "__dir__"}


def _definitions(tree):
    """(qualified name, node) of each top-level def and class but the
    module hooks, and of each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in _MODULE_HOOKS:
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def _outside_names() -> Counter:
    """The names ``demos/`` and ``perfbench/`` use of the package."""
    outside = Counter()
    for folder in ("demos", "perfbench"):
        for path in (ROOT / folder).glob("*.py"):
            outside += _package_uses(ast.parse(path.read_text()))
    return outside


def test_a_local_prose_or_another_module_is_no_use():
    uses = _package_uses(ast.parse('''
import shutil
from ncdirac import checks
from ncdirac.seesaw import leading_mass

def run(path):
    """Rounds with rounded_values, and copies the conjugate."""
    for conjugate in range(2):
        shutil.copy(path, path + ".bak")
    return checks.command("seesaw"), leading_mass, "checks.cmd_seesaw"
'''))
    assert {"checks", "leading_mass", "command", "cmd_seesaw"} <= set(uses)
    assert not {"copy", "conjugate", "rounded_values", "run", "path", "bak"} & set(uses)


def _unused_definitions(trees: dict, outside: Counter, commands) -> list:
    """The definitions of ``trees`` (file name -> tree) that nothing uses:
    no other name in the trees, no use in ``outside`` and no command."""
    in_src = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            used_elsewhere = in_src[name] - _names(node)[name] > 0
            if not (used_elsewhere or outside[name] or name in commands):
                unused.append(f"{module}: {qualname}")
    return unused


def test_the_use_rule_exempts_only_hooks_the_interpreter_calls():
    tree = ast.parse("""
def __getattr__(name):
    return name
def __dir__():
    return []
def helper():
    return 1
class Box:
    def __len__(self):
        return 0
    def size(self):
        return 0
""")
    assert _unused_definitions({"m.py": tree}, Counter(), ()) == [
        "m.py: helper", "m.py: Box", "m.py: Box.size"]


def test_every_definition_has_a_use():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    commands = {checks.command(name).__name__ for name in checks.READS}
    unused = _unused_definitions(trees, _outside_names(), commands)
    assert not unused, "definitions nothing uses: " + ", ".join(unused)


def test_checks_types_no_closed_form():
    # each value a row compares with is written in the module that computes
    # it: checks builds no polynomial, and the heavy branch lives in modes
    tree = ast.parse((PACKAGE / "checks.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & {"sym", "poly", "MOMENTUM_SYMBOLS", "minkowski_square"}
    assert "_heavy_k2" not in {node.name for node in tree.body
                               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    # and every reality class a row expects comes from modes
    assert not {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                and node.value in ("Dirac", "Majorana")}


def _callers(tree, name: str) -> set:
    """The top-level functions of ``tree`` that call ``name``."""
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == name}


def test_one_function_judges_a_seesaw_coupling():
    # the seesaw_spectrum row and every scan row read one judgement of a
    # coupling, checks.judged: the scan module computes no spectrum or
    # verdict of its own
    tree = ast.parse((PACKAGE / "checks.py").read_text())
    assert _callers(tree, "seesaw_verdict") == {"judged"}
    scan = ast.parse((PACKAGE / "scan.py").read_text())
    assert "judged" in _reached(scan, "cmd_scan")
    assert not {"exact_mode_spectrum", "seesaw_verdict", "RootFindingError"} & set(_names(scan))


def _call_name(node) -> str | None:
    return getattr(getattr(node, "func", None), "id", None)


def test_one_function_builds_the_dirac_operator():
    # D(k) = gamma_sum(1, dirac_coefficients(k, l, eps5)) is built once,
    # at exact numbers and at polynomials alike
    builders = {f"{path.stem}.{node.name}" for path in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef)
                for call in ast.walk(node) if _call_name(call) == "gamma_sum"
                and any(_call_name(arg) == "dirac_coefficients" for arg in call.args)}
    assert builders == {"modes.dirac_matrix"}


def _reached(tree, start: str) -> set:
    """The names of the functions that the top-level function ``start`` of
    ``tree`` calls by plain name, directly or through a top-level function
    of ``tree``."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), [start]
    while todo:
        for call in ast.walk(defs[todo.pop()]):
            name = _call_name(call)
            if name and name not in seen:
                seen.add(name)
                if name in defs:
                    todo.append(name)
    return seen


def _method_calls(node) -> set:
    """The attribute names ``node`` calls as methods, ``x.name(...)``."""
    return {call.func.attr for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)}


def test_the_route_rule_follows_calls_through_the_module():
    tree = ast.parse("""
def top(a):
    return helper(a).scale(2)
def helper(a):
    return _join(a)
def idle():
    return other()
""")
    assert _reached(tree, "top") == {"helper", "_join"}
    assert _method_calls(tree.body[0]) == {"scale"}


def test_weyl_closure_sums_through_join():
    # each pair's residual is one _join sum of int terms: no commutator,
    # scaled image or operator sum is formed on the way
    tree = ast.parse((PACKAGE / "weyl.py").read_text())
    [closure] = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "closure_families"]
    assert "_join" in _reached(tree, "closure_families")
    assert not {"commutator", "scale"} & _method_calls(closure)


def _constant_verdicts(tree) -> list:
    """The lines of ``tree`` that give a row a literal ``ok``: a CheckReport
    call with one as its fourth argument or by keyword, or a row a family
    yields or a function returns, ``(check, params, relation, ok, residual,
    details)``, with one fourth."""
    oks = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckReport":
            oks += [(node.lineno, ok) for ok in (
                *node.args[3:4], *(kw.value for kw in node.keywords if kw.arg == "ok"))]
        elif (isinstance(node, (ast.Yield, ast.Return)) and isinstance(node.value, ast.Tuple)
              and len(node.value.elts) == 6):
            oks.append((node.lineno, node.value.elts[3]))
    return sorted(line for line, ok in oks if isinstance(ok, ast.Constant))


def test_the_constant_verdict_rule_sees_both_forms():
    tree = ast.parse("""
CheckReport("a", {}, "r", True)
CheckReport("b", {}, "r", ok=False)
CheckReport("c", {}, "r", ok=x == 0)
CheckReport("d", {}, "r", ok)
def family(cfg):
    yield "e", {}, "r", True, None, {}
    yield "f", {}, "r", x == 0, None, {}
    yield "g", {}, "r", *_flags(x=True)
    yield "h", {}, "r", *verdict, None, {}
def reference_row(eps5):
    return ("i", {"eps5": eps5}, "r", False, None, {})
""")
    assert _constant_verdicts(tree) == [2, 3, 7, 12]


def test_no_row_passes_by_construction():
    # a row built with ok=True counts toward the passes and cannot fail
    found = {path.name: _constant_verdicts(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert not any(found.values()), {m: lines for m, lines in found.items() if lines}


def test_one_runner_builds_every_report():
    # each family yields plain rows, and the runner of checks._command
    # alone turns them into reports: a hook on every row is written there
    def builds(node) -> bool:
        return isinstance(node, ast.Call) and "CheckReport" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    calls = [(path.name, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if builds(node)]
    tree = ast.parse((PACKAGE / "checks.py").read_text())
    [command] = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_command"]
    [run] = [node for node in command.body if isinstance(node, ast.FunctionDef)]
    assert len(calls) == 1
    assert calls == [("checks.py", node.lineno) for node in ast.walk(run) if builds(node)]


def _unused_imports(tree, exports=()) -> list:
    """The names a module's top-level imports bind that it never reads, a
    name in ``exports`` (the module's ``__all__``) counting as read."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read.update(exports)
    return [alias.asname or alias.name.split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in read]


def test_the_unused_import_rule_sees_reads_and_exports():
    tree = ast.parse("""
from __future__ import annotations
import os.path
import math as m
from .scalars import ONE, ZERO, poly as p, sym
ZERO = 0
def f(x):
    \"\"\"Uses math and ONE.\"\"\"
    return os.path.join(x), p(x)
""")
    assert _unused_imports(tree, exports=["sym"]) == ["m", "ONE", "ZERO"]


def test_every_module_level_import_is_used():
    # CI runs no linter: a deleted last use must take its import with it.
    # The exports are read off the imported module, as the package builds
    # its __all__ from what its imports bound; __main__ exports nothing,
    # and importing it would run the CLI
    def exports(stem):
        if stem == "__main__":
            return ()
        module = importlib.import_module(f"ncdirac.{stem}".removesuffix(".__init__"))
        return getattr(module, "__all__", ())

    unused = {path.name: _unused_imports(ast.parse(path.read_text()), exports(path.stem))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert not any(unused.values()), {m: names for m, names in unused.items() if names}


def _has_eps5(node) -> bool:
    return any(arg.arg == "eps5" for arg in node.args.args + node.args.kwonlyargs)


def test_the_bad_sign_list_names_every_signed_definition():
    # tests/test_signs.py calls each of them at eps5 = 0, 2 and -2: a new
    # public function or class with an eps5 parameter joins the list
    signed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                inits = [item for item in node.body if getattr(item, "name", None) == "__init__"]
            elif isinstance(node, ast.FunctionDef):
                inits = [node]
            else:
                continue
            if not node.name.startswith("_") and any(map(_has_eps5, inits)):
                signed.add(f"{path.stem}.{node.name}")
    assert signed == set(SIGNED)


def _sign_reads(node, functions) -> list:
    """The lines where ``node`` reads eps5, as a name or an attribute, other
    than whole, as an argument of a call of one of ``functions`` or as the
    value an assignment stores: each such read is a branch or a factor."""
    parents = {child: parent for parent in ast.walk(node) for child in ast.iter_child_nodes(parent)}
    return sorted(read.lineno for read in ast.walk(node)
            if getattr(read, "id", getattr(read, "attr", None)) == "eps5"
            and isinstance(read.ctx, ast.Load)
            and not (isinstance(parents[read], ast.Assign)
                     or read in getattr(parents[read], "args", ())
                     and _call_name(parents[read]) in functions))


def test_the_sign_rule_sees_branches_and_factors():
    tree = ast.parse("""
def f(eps5, x):
    turns = quarter(eps5)
    self.eps5 = eps5
    y = normal_form(x, self.eps5)
    a = x if eps5 < 0 else -x
    b = Fraction(-eps5, 2), Fraction(eps5, 4)
    if self.eps5 == 1:
        return -eps5 * x
""")
    assert _sign_reads(tree.body[0], {"quarter", "normal_form"}) == [6, 7, 7, 8, 9]


# the functions that write their data at eps5 = 1 and reach -1 by its twist
_TWISTING = {"weyl": {"build_rep"}, "enveloping": {"plane_wave_scale"},
             "modes": {"dirac_coefficients", "dispersion_polynomial"},
             "clifford": {"_gamma_perms"}}


def test_the_twisting_functions_branch_on_no_sign():
    # eps5 reaches each only whole, through quarter or another function of
    # the package: no branch and no factor types the eps5 = -1 data there
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    functions = {node.name for tree in trees.values() for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    found = {}
    for module, names in _TWISTING.items():
        nodes = [node for node in trees[module].body if getattr(node, "name", None) in names]
        assert len(nodes) == len(names), module
        for node in nodes:
            found[f"{module}.{node.name}"] = _sign_reads(node, functions)
    assert not any(found.values()), found


_STORE_NAMES = {"_gamma_perms", "_perm_product", "_POLY_POWERS", "_anticommute"}


def test_only_clifford_reads_the_gamma_store():
    # the phased-permutation store is clifford's format: every other module
    # reads the gammas as the exact matrices clifford builds from it
    readers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = _names(tree)
        if _STORE_NAMES & set(names):
            readers[path.stem] = sorted(_STORE_NAMES & set(names))
    assert set(readers) == {"clifford"}, readers


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _foreign_private_names(module: str, tree) -> list:
    """The underscore names ``module`` takes from another package module
    than ``scalars``: imported from it, or read off it as an attribute."""
    shared = {module, "scalars"}
    modules, out = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "ncdirac"
                                                 or (node.module or "").startswith("ncdirac.")):
            source = (node.module or "").removeprefix("ncdirac").lstrip(".")
            for alias in node.names:
                if not source:  # from . import clifford: a module
                    if alias.name not in shared:
                        modules[alias.asname or alias.name] = alias.name
                elif source not in shared and _private(alias.name):
                    out.append(f"{source}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and _private(node.attr):
            out.append(f"{modules[node.value.id]}.{node.attr}")
    return out


def test_private_names_cross_modules_only_out_of_scalars():
    # scalars is the shared exact kernel; every other module keeps its
    # underscore names to itself
    crossings = {path.stem: _foreign_private_names(path.stem, ast.parse(path.read_text()))
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert not any(crossings.values()), {m: c for m, c in crossings.items() if c}


def test_the_private_name_rule_sees_imports_and_attribute_reads():
    tree = ast.parse("""
from . import clifford, scalars as s
from .clifford import _perm_product, gamma_sum
from .scalars import _join
from ncdirac.matrices import _rows
clifford._gamma_perms(1), s._join, clifford.__name__, _self_only
""")
    assert sorted(_foreign_private_names("modes", tree)) == [
        "clifford._gamma_perms", "clifford._perm_product", "matrices._rows"]


def test_the_use_rule_sees_a_name_imported_under_an_alias():
    # a function-level import under another name is a use of the original
    trees = {"m.py": ast.parse("def f():\n    return 1\n"),
             "n.py": ast.parse("def h():\n    from .m import f as g\n    return g()\n")}
    assert _unused_definitions(trees, Counter(), ()) == ["n.py: h"]


# run in a fresh interpreter: every golden command and every demo, with a
# profile hook recording each code object that runs; prints one
# "file:line" per code object
_TRACE = """
import contextlib, io, runpy, sys
from pathlib import Path
ran = set()
sys.setprofile(lambda frame, event, arg: ran.add(frame.f_code) if event == "call" else None)
from ncdirac.cli import main
commands, demos = sys.argv[1:], sorted(Path("demos").glob("*.py"))
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv.split())
for demo in demos:
    sys.argv = [str(demo)]
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(demo), run_name="__main__")
sys.setprofile(None)
print("\\n".join({f"{code.co_filename}:{code.co_firstlineno}" for code in ran}))
"""

# methods no command or demo runs, each with its reason
_NOT_RUN = {
    "scalars.py: ParamPoly.truncate_in":
        "the benchmark's rewrite workload reaches it through the order argument of "
        "normal_form, which no command passes; ROADMAP item 1 deletes both together",
}


def test_every_not_run_entry_names_a_method():
    # an entry outliving its method would pass unseen: the run-time rule
    # only skips the methods it lists
    methods = {f"{path.name}: {qualname}" for path in PACKAGE.glob("*.py")
               for qualname, _ in _definitions(ast.parse(path.read_text())) if "." in qualname}
    assert set(_NOT_RUN) <= methods, sorted(set(_NOT_RUN) - methods)


def _code(obj):
    """The code object of a method as a class holds it: through
    staticmethod, classmethod, property and cached_property."""
    for attr in ("__func__", "fget", "func"):
        obj = getattr(obj, attr, obj)
    return obj.__code__


def test_every_method_runs_in_a_command_or_demo():
    # matched by the code object that ran, not by name, so a method is not
    # kept alive by a namesake in another class
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _TRACE, *(" ".join(argv) for argv, _, _ in COMMANDS)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    ran = {(str(Path(file).resolve()), int(line))
           for file, line in (entry.rsplit(":", 1) for entry in done.stdout.split("\n") if entry)}
    outside = _outside_names()
    idle = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, _ in _definitions(ast.parse(path.read_text())):
            if "." not in qualname or f"{path.name}: {qualname}" in _NOT_RUN:
                continue
            cls, name = qualname.split(".")
            module = importlib.import_module(f"ncdirac.{path.stem}")
            code = _code(vars(getattr(module, cls))[name])
            if (str(Path(code.co_filename).resolve()), code.co_firstlineno) not in ran \
                    and not outside[name]:
                idle.append(f"{path.name}: {qualname}")
    assert not idle, "methods no command or demo runs: " + ", ".join(idle)


def test_no_cell_of_the_readme_module_table_exceeds_300_characters():
    # the table says what each module holds; how it does it belongs in the
    # module's own docstrings
    section = (ROOT / "README.md").read_text().split("\n## What is inside\n")[1]
    rows = [line for line in section.split("\n## ")[0].splitlines() if line.startswith("| ")]
    cells = [cell.strip() for row in rows for cell in row.strip("|").split(" | ")]
    assert len(rows) > 2
    assert not [cell for cell in cells if len(cell) > 300]


def test_the_readme_settings_table_is_the_settings_each_command_reads():
    # the "command | reads" table of the README, row for row, is
    # checks.READS: a command it lists twice, misses or gives a setting the
    # command does not read (or misses one it does) fails
    section = (ROOT / "README.md").read_text().split("\n| command | reads |\n|---|---|\n")[1]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| "):
            break
        commands, reads = line.strip("|").split(" | ")
        rows += [(command, sorted(re.findall(r"`([^`]+)`", reads)))
                 for command in re.findall(r"`([^`]+)`", commands)]
    assert sorted(rows) == sorted((command, sorted(names))
                                  for command, names in checks.READS.items())
