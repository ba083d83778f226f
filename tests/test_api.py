"""API guards: parameters stop at the CLI and the record builders, every
name the benchmark trace wraps exists in the package, every function in
the package has a caller, every import sits at module level, and the
README's example runs."""

import ast
import importlib
import inspect
import runpy
from pathlib import Path
from types import SimpleNamespace

from blobtensor import blob, specht, tensor, towers, weightmod
from blobtensor.scalars import GENERIC, cyclotomic_field

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# these write l and m into their records and compute the residue verdicts
RECORD_BUILDERS = {"weightmod.adjointness_record",
                   "specht.dual_adjointness_check"}


def _functions(module):
    """(qualified name, function) for every function and method defined in
    the module, cached functions unwrapped."""
    short = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{short}.{name}.{attr}", member
            continue
        fn = inspect.unwrap(obj) if callable(obj) else None
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield f"{short}.{name}", fn


def test_only_record_builders_take_params():
    takers = set()
    for module in (tensor, blob, weightmod, specht, towers):
        for name, fn in _functions(module):
            if any("params" in p
                   for p in inspect.signature(fn).parameters):
                takers.add(name)
        # no computation below the CLI reads the length from params
        tree = ast.parse(inspect.getsource(module))
        assert not any(isinstance(node, ast.Attribute) and node.attr == "n"
                       and isinstance(node.value, ast.Name)
                       and node.value.id == "params"
                       for node in ast.walk(tree)), module.__name__
    assert takers == RECORD_BUILDERS


def test_traced_names_resolve():
    layers = runpy.run_path(str(PERFBENCH / "layers.py"))
    missing = []
    for module, qualname, *_ in layers["targets"]():
        home = importlib.import_module(f"blobtensor.{module}")
        cls_name, _, attr = qualname.rpartition(".")
        if cls_name:
            cls = getattr(home, cls_name, None)
            found = isinstance(cls, type) and attr in vars(cls)
        else:
            found = callable(getattr(home, attr, None))
        if not found:
            missing.append(f"{module}.{qualname}")
    assert not missing
    # a metric pinned to one binding site needs that module to bind the
    # function under the same name
    for spec in layers["METRICS"].values():
        patterns = spec[2] if isinstance(spec[2], list) else []
        for pattern in patterns:
            label, _, site = pattern.partition("@")
            if not site or "*" in site:
                continue
            module, name = label.split(".", 1)
            home = importlib.import_module(f"blobtensor.{module}")
            bound = importlib.import_module(f"blobtensor.{site}")
            assert getattr(bound, name, None) is getattr(home, name), pattern


def test_harvest_tells_the_backends_apart():
    # the trace sorts operands by their `field` attribute: a generic scalar
    # has none, so giving it one would file it under a cyclotomic bucket
    layers = runpy.run_path(str(PERFBENCH / "layers.py"))
    tracer = SimpleNamespace(harvest={})
    F = cyclotomic_field(5)
    layers["_harvest"](tracer, "matrix", [GENERIC.q, F.q])
    assert tracer.harvest == {"generic:matrix": {str(GENERIC.q): None},
                              "cyc5:matrix": {F.serialize(F.q): None}}


def _private_definitions(tree):
    """Module-level functions and class methods whose name starts with '_'
    (dunders and nested functions exempt)."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for member in members:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and member.name.startswith("_") \
                    and not member.name.endswith("__"):
                yield member


def _references(tree):
    """Every name read or attribute taken in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_private_helpers_have_callers():
    # a private helper is referenced somewhere in src/ outside its own body
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(blob.__file__).parent.glob("*.py"))]
    counts = {}
    for tree in trees:
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    orphans = []
    for tree in trees:
        for fn in _private_definitions(tree):
            own = sum(1 for name in _references(fn) if name == fn.name)
            if counts.get(fn.name, 0) <= own:
                orphans.append(fn.name)
    assert not orphans


def test_public_functions_have_callers():
    # a public module-level function is referenced in src/ outside its own
    # body, exported by the package, or wrapped by the benchmark trace;
    # helpers that only tests call live in the tests
    package = Path(blob.__file__).parent
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    init = trees.pop("__init__")
    exported = {alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    layers = runpy.run_path(str(PERFBENCH / "layers.py"))
    traced = {f"{module}.{qualname}"
              for module, qualname, *_ in layers["targets"]()}
    counts = {}
    for tree in trees.values():
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or node.name.startswith("_"):
                continue
            own = sum(1 for name in _references(node) if name == node.name)
            if counts.get(node.name, 0) <= own and \
                    node.name not in exported and \
                    f"{module}.{node.name}" not in traced:
                orphans.append(f"{module}.{node.name}")
    assert not orphans


def test_imports_are_used():
    # every name a module imports, nested imports included, is read in it
    unused = []
    for path in sorted(Path(blob.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "annotations" and name not in read:
                        unused.append(f"{path.stem}: {name}")
    assert not unused


def test_imports_sit_at_module_level():
    # an import inside a function is how an import cycle hides: the
    # relation suites once imported weightmod, which imports blob, that way
    nested = []
    for path in sorted(Path(blob.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        nested += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and id(node) not in top]
    assert not nested


def test_readme_example_runs():
    # the README's Python example as written, each statement run once; an
    # expression whose comment starts with a literal must evaluate to it
    text = (ROOT / "README.md").read_text()
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(code).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README", "eval"),
                     namespace)
        comment = lines[node.lineno - 1].partition("#")[2]
        try:
            expected = ast.literal_eval(comment.split("--")[0].strip())
        except (ValueError, SyntaxError):
            continue
        assert value == expected, lines[node.lineno - 1]
        checked += 1
    assert checked
