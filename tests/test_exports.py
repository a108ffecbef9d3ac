"""Every exported or re-exported name resolves, so a deletion leaves no stale export."""
import ast
import importlib
import pathlib

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


def test_package_imports_resolve():
    # the package loads its exports lazily, so each name in __all__ must be
    # the defining module's own object, and star import must reach them all
    assert besovflow.__all__ and len(set(besovflow.__all__)) == len(besovflow.__all__)
    for name in besovflow.__all__:
        obj = getattr(besovflow, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__ in {f"besovflow.{m}" for m in MODULES}, name
        assert getattr(module, name) is obj, name
    namespace = {}
    exec("from besovflow import *", namespace)
    assert set(besovflow.__all__) <= namespace.keys()
    with pytest.raises(AttributeError):
        besovflow.no_such_name


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


# public names that no package code, demo or benchmark reaches, each kept
# for the test named here, which calls it as a reference or as user plumbing
TEST_ONLY = {
    "apply_block": "test_littlewood_paley.py::TestApplyBlock::test_l2_contraction",
    "bessel_potential": "test_littlewood_paley.py::TestSobolevNorm::test_bessel_multiplier_consistency",
    "axiom_probe": "test_pseudonorm.py::TestAxiomProbe::test_grid_l2_clean",
}


def _names_read(node) -> set:
    """Every name ``node`` reads as an ``ast.Name`` or ``ast.Attribute``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_definition_is_used():
    # an export or a test alone does not keep a public name: package code, a
    # demo or the benchmark must read it outside its own definition
    package = pathlib.Path(besovflow.__file__).parent
    root = package.parents[1]
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in [*package.glob("*.py"), *root.glob("demos/*.py"), *root.glob("perfbench/*.py")]
    }
    reads = [(top, _names_read(top)) for tree in trees.values() for top in tree.body]
    public = [
        node
        for path, tree in trees.items()
        if path.parent == package
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    used = {
        node.name
        for node in public
        if any(node.name in names for top, names in reads if top is not node)
    }
    assert sorted({node.name for node in public} - used - TEST_ONLY.keys()) == []
    assert sorted(TEST_ONLY.keys() & used) == []  # a name in use needs no entry
    for name, test in TEST_ONLY.items():
        path, cls, method = test.split("::")
        text = (root / "tests" / path).read_text(encoding="utf-8")
        assert name in text and f"class {cls}:" in text and f"def {method}(" in text, test
