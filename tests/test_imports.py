"""Every name a module under src/oddflow imports is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "oddflow"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Frequency and shift helpers compute no transform.
NUMPY_FFT_HELPERS = frozenset({"fftfreq", "rfftfreq", "fftshift", "ifftshift"})


def numpy_fft_transforms(source: str) -> list[str]:
    """numpy.fft transforms a module imports or calls, by any alias.

    Every transform must go through a scipy.fft module reference, so that a
    caller can count or replace them in one place."""
    tree = ast.parse(source)
    alias = {}  # local name -> dotted module path
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    alias[a.asname] = a.name
                else:
                    alias[a.name.split(".")[0]] = a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                path = f"{node.module}.{a.name}"
                alias[a.asname or a.name] = path
                if node.module == "numpy.fft" and a.name not in NUMPY_FFT_HELPERS:
                    found.append(f"{path} (line {node.lineno})")

    def dotted(node):
        if isinstance(node, ast.Name):
            return alias.get(node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            path = dotted(node.func)
            if (path and path.startswith("numpy.fft.")
                    and path.rsplit(".", 1)[1] not in NUMPY_FFT_HELPERS):
                found.append(f"{path} (line {node.lineno})")
    return found


def test_detector_flags_numpy_fft_transforms():
    source = ("import numpy as np\nimport numpy.fft as nf\n"
              "from numpy import fft\nfrom numpy.fft import rfft2\n"
              "np.fft.fftfreq(8)\nnp.fft.fft2(x)\nnf.irfft(x)\nfft.ifft2(x)\n")
    assert numpy_fft_transforms(source) == [
        "numpy.fft.rfft2 (line 4)", "numpy.fft.fft2 (line 6)",
        "numpy.fft.irfft (line 7)", "numpy.fft.ifft2 (line 8)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_fft_transforms(path):
    assert numpy_fft_transforms(path.read_text(encoding="utf-8")) == []
