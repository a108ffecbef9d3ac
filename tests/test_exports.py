"""Every exported name resolves and has a reader outside the tests."""
import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import besovflow

MODULES = ("pseudonorm", "dyadic", "littlewood_paley", "envelope", "engine", "flows", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_all(name):
    module = importlib.import_module(f"besovflow.{name}")
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from besovflow.{name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


def test_package_root_defines_no_public_name():
    # names are imported from their modules; the package itself holds only
    # its version and loads no module
    code = (
        "import sys, besovflow; "
        "print(sorted(n for n in vars(besovflow) if not n.startswith('_'))); "
        "print(sorted(m for m in sys.modules if m.startswith('besovflow.')))"
    )
    src = pathlib.Path(besovflow.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.splitlines() == ["[]", "[]"]
    assert besovflow.__version__


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def test_no_complex_fft_layout():
    # spectra live on the real-FFT half spectrum 0 .. N/2 only; a full
    # complex-FFT layout would be a second frequency grid
    complex_fft = {"fft", "ifft", "fftfreq"}
    offenders = []
    for path in sorted(pathlib.Path(besovflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _dotted(node.func).split(".")
                if name[-1] in complex_fft and name[-2:-1] == ["fft"]:
                    offenders.append(f"{path.name}:{node.lineno} {'.'.join(name)}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
                offenders += [
                    f"{path.name}:{node.lineno} numpy.fft.{alias.name}"
                    for alias in node.names
                    if alias.name in complex_fft
                ]
    assert offenders == []


def test_no_module_imports_dataclasses():
    # the decorator builds each class's methods with exec on every import;
    # records are NamedTuples and validated types write their own __init__
    importers = [
        path.name
        for path in sorted(pathlib.Path(besovflow.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert importers == []


def test_no_python_level_element_loops():
    # np.frompyfunc and np.vectorize call a Python function once per entry;
    # powers and every other element-wise step are numpy's own ufuncs
    looped = {"frompyfunc", "vectorize"}
    found = []
    for path in sorted(pathlib.Path(besovflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _dotted(node.func).split(".")[-1] in looped:
                found.append(f"{path.name}:{node.lineno} {_dotted(node.func)}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                found += [f"{path.name}:{node.lineno} numpy.{alias.name}"
                          for alias in node.names if alias.name in looped]
    assert found == []


def test_only_the_entry_point_touches_the_collector_or_exits():
    # main runs in process for tests, demos and the benchmark's tracer, so
    # only cli.entry_point, which ends the process, may freeze the heap
    banned = {"gc.freeze", "gc.disable", "os._exit"}
    found = []
    for path in sorted(pathlib.Path(besovflow.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(top, 'name', top.lineno)}"
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _dotted(node.func) in banned:
                    found.append(f"{where}: {_dotted(node.func)}")
                elif isinstance(node, ast.ImportFrom) and node.module in ("gc", "os"):
                    found += [
                        f"{where}: from {node.module} import {alias.name}"
                        for alias in node.names
                        if f"{node.module}.{alias.name}" in banned or alias.name == "*"
                    ]
    assert found == ["cli.entry_point: gc.freeze"]


def test_flows_import_nothing_from_engine():
    # a flow's sequence map is a plain function: the engine holds the scale
    # and the ball on which it is verified
    path = pathlib.Path(besovflow.__file__).parent / "flows.py"
    imported = [
        name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or ""] + [a.name for a in node.names]
    ]
    assert [name for name in imported if "engine" in name.split(".")] == []


def test_flows_leave_the_plancherel_fold_to_littlewood_paley():
    # the fold of a weight row (/N^2, interior modes doubled, times 2 pi) is
    # littlewood_paley's decision: flows sums energies through _weighted_energy
    path = pathlib.Path(besovflow.__file__).parent / "flows.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    names = imported | _names_read(tree)
    assert "_weighted_energy" in imported
    assert {"_folded_band", "_band_energies"} & names == set()


def _names_read(node) -> set:
    """Every name ``node`` reads as an ``ast.Name`` or ``ast.Attribute``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_definition_is_used():
    # an export or a test alone does not keep a public name: package code, a
    # demo or the benchmark must read each public function, class and
    # __all__ name outside its own definition
    package = pathlib.Path(besovflow.__file__).parent
    root = package.parents[1]
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in [*package.glob("*.py"), *root.glob("demos/*.py"), *root.glob("perfbench/*.py")]
    }
    reads = [(top, _names_read(top)) for tree in trees.values() for top in tree.body]
    public, all_names = {}, set()
    for path, tree in trees.items():
        if path.parent != package or path.name == "__init__.py":
            continue
        exported = set(importlib.import_module(f"besovflow.{path.stem}").__all__)
        all_names |= exported
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    public[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id in exported:
                        public[target.id] = node
    unused = [
        name
        for name, node in public.items()
        if not any(name in names for top, names in reads if top is not node)
    ]
    assert all_names <= public.keys()
    assert sorted(unused) == []



def _defaulted_parameters(func, skip: int) -> list:
    """(name, position among a call's arguments or None if keyword-only) of each default."""
    args, positional = func.args, func.args.posonlyargs + func.args.args
    first = len(positional) - len(args.defaults)
    return [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first] + [
        (a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]


def _passes(call, name, position) -> bool:
    """Whether ``call`` passes ``name`` by keyword (or a ``**`` mapping) or by position."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
    return position is not None and (
        len(call.args) > position or any(i <= position for i in starred)
    )


def test_every_default_is_passed_by_some_caller():
    # a defaulted parameter that only tests pass is an option nothing uses:
    # a call in the package, a demo, the benchmark or a tool must pass it
    package = pathlib.Path(besovflow.__file__).parent
    root = package.parents[1]
    calls = {}
    for path in [package, root / "demos", root / "perfbench", root / "tools"]:
        for tree in (ast.parse(p.read_text(encoding="utf-8")) for p in path.glob("*.py")):
            for node in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
                calls.setdefault(_dotted(node.func).split(".")[-1], []).append(node)
    defaults = []  # (callee, parameter, position, definition)
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(node, "name", "_")
            if name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                where = f"{path.stem}.{name}"
                defaults += [(name, *p, where) for p in _defaulted_parameters(node, 0)]
            for method in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(method, ast.FunctionDef) and (
                    method.name == "__init__" or not method.name.startswith("_")
                ):
                    # __init__ is called by the class name; a static method has no self
                    callee = name if method.name == "__init__" else method.name
                    skip = not any(_dotted(d) == "staticmethod" for d in method.decorator_list)
                    defaults += [(callee, *p, f"{path.stem}.{name}.{method.name}")
                                 for p in _defaulted_parameters(method, skip)]
    unpassed = [
        f"{where}({name}=)"
        for callee, name, position, where in defaults
        if not any(_passes(call, name, position) for call in calls.get(callee, []))
    ]
    assert defaults and unpassed == []
