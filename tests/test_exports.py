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
    tree = ast.parse(pathlib.Path(besovflow.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        module = importlib.import_module(f"besovflow.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert getattr(besovflow, alias.asname or alias.name) is getattr(module, alias.name)


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
