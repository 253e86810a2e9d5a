"""Static checks of the modules under src/oddflow: imports, transforms,
environment reads, the state cache and pressure solution, check switches,
wavenumbers, private names and unused public names."""

import ast
import pathlib
import re

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


def import_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name -> the dotted path it is bound to by an import."""
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    alias[a.asname] = a.name
                else:
                    alias[a.name.split(".")[0]] = a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                alias[a.asname or a.name] = f"{node.module}.{a.name}"
    return alias


def dotted(node: ast.AST, alias: dict[str, str]) -> str | None:
    """The dotted path a name or attribute chain reads, through the imports."""
    if isinstance(node, ast.Name):
        return alias.get(node.id)
    if isinstance(node, ast.Attribute):
        base = dotted(node.value, alias)
        return base and f"{base}.{node.attr}"
    return None


def numpy_fft_transforms(source: str) -> list[str]:
    """numpy.fft transforms a module imports or calls, by any alias.

    Every transform must go through the package's transform module,
    oddflow.fft, so that a caller can count or replace them in one place."""
    tree = ast.parse(source)
    alias = import_aliases(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
            found += [f"numpy.fft.{a.name} (line {node.lineno})" for a in node.names
                      if a.name not in NUMPY_FFT_HELPERS]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            path = dotted(node.func, alias)
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


# The program reads no environment variable: what a run does comes from its
# config and command line, which the CLI checks.  Writes are not reads: a
# module may still set a variable, say a library's thread count before the
# library loads.
ENVIRONMENT_READS = ("os.getenv", "os.environ.get")


def environment_reads(source: str) -> list[str]:
    """os.getenv and os.environ.get calls and os.environ[...] loads, by any
    alias."""
    tree = ast.parse(source)
    alias = import_aliases(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and dotted(node.func, alias) in ENVIRONMENT_READS:
            found.append((node.lineno, dotted(node.func, alias)))
        elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
              and dotted(node.value, alias) == "os.environ"):
            found.append((node.lineno, "os.environ[...]"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_detector_flags_environment_reads():
    source = ("import os\nimport os as system\nfrom os import environ, getenv as env\n"
              'w = max(1, int(os.environ.get("N_THREADS", "1")))\n'
              'a = os.getenv("A")\nb = system.environ["B"]\nc = environ.get("C")\n'
              'd = env("D")\nos.environ["E"] = "1"\nos.environ.update(F="1")\n'
              'os.environ.setdefault("G", "1")\ndel os.environ["H"]\nx = config.get("I")\n')
    assert environment_reads(source) == [
        "os.environ.get (line 4)", "os.getenv (line 5)", "os.environ[...] (line 6)",
        "os.environ.get (line 7)", "os.getenv (line 8)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []


# Complex-to-complex transforms: a real field has one stored form, its rfft2
# half-spectrum, and only spectral.check_real transforms a full spectrum,
# through the transform module's ifft2.
C2C_TRANSFORMS = frozenset({"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"})
C2C_ALLOWED = {("spectral.py", "check_real")}


def c2c_transforms(source: str) -> list[tuple[str, str]]:
    """(transform, enclosing function) for each c2c transform a module calls
    on a transform module (the package's fft as `_fft` or under any alias,
    or scipy.fft under any alias) or imports from one by name."""
    tree = ast.parse(source)
    modules = {"_fft"}  # local names bound to a transform module
    direct = {}         # local name -> transform imported by name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "scipy.fft":
                    modules.add(a.asname or "scipy")
        elif isinstance(node, ast.ImportFrom):
            package = node.module if not node.level else f".{node.module or ''}"
            for a in node.names:
                if package in ("scipy", ".") and a.name == "fft":
                    modules.add(a.asname or "fft")
                elif package in ("scipy.fft", ".fft") and a.name in C2C_TRANSFORMS:
                    direct[a.asname or a.name] = a.name

    def is_fft_module(node):
        if isinstance(node, ast.Name):
            return node.id in modules and node.id != "scipy"
        return (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name) and node.value.id == "scipy")

    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr in C2C_TRANSFORMS
                    and is_fft_module(f.value)):
                found.append((f.attr, func))
            elif isinstance(f, ast.Name) and f.id in direct:
                found.append((direct[f.id], func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return found


def test_detector_flags_c2c_transforms():
    source = ("import scipy.fft as _fft\nimport scipy.fft as sf\nimport scipy\n"
              "from scipy.fft import ifft2 as back\n"
              "from . import fft as tf\nfrom .fft import ifft2 as inv\n"
              "def f(x):\n    _fft.rfft2(x)\n    _fft.fft2(x)\n    return sf.ifftn(x)\n"
              "def g(x):\n    scipy.fft.fft(x)\n    back(x)\n    return _fft.irfft2(x)\n"
              "def h(x):\n    tf.ifft2(x)\n    return inv(tf.rfft2(x))\n")
    assert c2c_transforms(source) == [("fft2", "f"), ("ifftn", "f"), ("fft", "g"),
                                      ("ifft2", "g"), ("ifft2", "h"), ("ifft2", "h")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_c2c_transforms(path):
    calls = c2c_transforms(path.read_text(encoding="utf-8"))
    assert [c for c in calls if (path.name, c[1]) not in C2C_ALLOWED] == []


# Only the transform module, oddflow.fft, reaches scipy's transforms, so every
# transform of the program is countable in one place.
def transform_kernel_imports(source: str) -> list[str]:
    """scipy.fft (or any of its submodules and names) and pocketfft modules
    that a module imports, and scipy.fft attributes it reads off scipy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "fft"
              and isinstance(node.value, ast.Name) and node.value.id == "scipy"):
            names = ["scipy.fft"]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[:2] == ["scipy", "fft"] or "pocketfft" in name]
    return found


def test_detector_flags_transform_kernel_imports():
    source = ("import scipy\nimport scipy.fft as sf\nfrom scipy import fft, linalg\n"
              "from scipy.fft import rfft2\nimport pypocketfft\nimport scipy.fftpack\n"
              "from scipy.fft._pocketfft.pypocketfft import c2r as _c2r\n"
              "from . import fft as _fft\nscipy.fft.irfft2(x)\nscipy.linalg.norm(x)\n")
    assert transform_kernel_imports(source) == [
        "scipy.fft (line 2)", "scipy.fft (line 3)", "scipy.fft.rfft2 (line 4)",
        "pypocketfft (line 5)", "scipy.fft._pocketfft.pypocketfft.c2r (line 7)",
        "scipy.fft (line 9)"]
    assert transform_kernel_imports((SRC / "fft.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "fft.py"],
                         ids=lambda p: p.name)
def test_transforms_only_in_the_fft_module(path):
    assert transform_kernel_imports(path.read_text(encoding="utf-8")) == []


# A state owns its cache: FlowState.fields builds the one Fields of a state,
# and no function takes a cache beside the state.
def parameter_names(function: ast.FunctionDef) -> set[str]:
    a = function.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
    return {p.arg for p in params if p is not None}


def cache_beside_state(source: str) -> list[str]:
    """Functions with a `fields` parameter, and Fields(...) built anywhere
    but in FlowState.fields."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if "fields" in parameter_names(node):
                found.append(f"{node.name} takes fields (line {node.lineno})")
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "Fields" and scope != ("FlowState", "fields"):
                found.append(f"Fields built in {'.'.join(scope) or '<module>'} "
                             f"(line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_detector_flags_cache_beside_state():
    source = ("class FlowState:\n    @property\n    def fields(self):\n"
              "        return Fields(self)\n"
              "def f(state, fields=None):\n    return fields or Fields(state)\n"
              "def g(state, *, check=True):\n    return dynamics.Fields(state)\n"
              "cache = Fields(s)\n")
    assert cache_beside_state(source) == [
        "f takes fields (line 5)", "Fields built in f (line 6)",
        "Fields built in g (line 8)", "Fields built in <module> (line 9)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_state_owns_its_cache(path):
    assert cache_beside_state(path.read_text(encoding="utf-8")) == []


def functions_taking(source: str, names) -> list[str]:
    """Functions with a parameter named in names, one entry per name."""
    return [f"{node.name} takes {name} (line {node.lineno})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for name in sorted(parameter_names(node) & set(names))]


# A state owns its pressure solution (FlowState.pressure, stored by
# pressure.solve_pressure), and no function takes one beside the state.
PRESSURE_PARAMETERS = ("grad_pi", "pressure_solution")


def test_detector_flags_pressure_beside_state():
    source = ("def f(state, grad_pi):\n    pass\n"
              "def g(state, *, pressure_solution=None):\n    pass\n"
              "class A:\n    def h(self, pressure_solution, grad_pi):\n        pass\n"
              "def ok(state, psol=None):\n    return state.pressure.grad_pi\n")
    assert functions_taking(source, PRESSURE_PARAMETERS) == [
        "f takes grad_pi (line 1)", "g takes pressure_solution (line 3)",
        "h takes grad_pi (line 6)", "h takes pressure_solution (line 6)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_state_owns_its_pressure(path):
    assert functions_taking(path.read_text(encoding="utf-8"), PRESSURE_PARAMETERS) == []


# One path per operator: no function takes a `check` switch; the second
# route of each identity lives in verify.identity_checks.
def test_detector_flags_check_switches():
    source = ("def f(state, check=True):\n    pass\n"
              "def g(state, *, check: bool = False):\n    pass\n"
              "class A:\n    def h(self, x, check):\n        pass\n"
              "def ok(state, checked=True, verify=False):\n    return check(state)\n")
    assert functions_taking(source, ["check"]) == [
        "f takes check (line 1)", "g takes check (line 3)", "h takes check (line 6)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_check_switches(path):
    assert functions_taking(path.read_text(encoding="utf-8"), ["check"]) == []


def references(source: str, *targets: str) -> list[str]:
    """Where a module names one of the targets: an import of it, a bare
    name or an attribute read off a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name.rsplit(".", 1)[-1] for a in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in targets]
    return [f"{name} (line {line})" for line, name in sorted(found)]


# A step size is chosen in one loop, stepping.trajectory: only stepping
# reads the CFL bound.
def test_detector_flags_cfl_references():
    source = ("from .stepping import StepperConfig, cfl_dt as bound\n"
              "from . import stepping\nimport oddflow.stepping.cfl_dt\n"
              "h = stepping.cfl_dt(state)\nk = cfl_dt\ncfl = cfl_dtx(state)\n")
    assert references(source, "cfl_dt") == [
        "cfl_dt (line 1)", "cfl_dt (line 3)", "cfl_dt (line 4)", "cfl_dt (line 5)"]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "stepping.py"], ids=lambda p: p.name)
def test_step_size_chosen_only_in_stepping(path):
    assert references(path.read_text(encoding="utf-8"), "cfl_dt") == []


# Wavenumbers come from spectral.Grid, which builds them as exact integers:
# no module derives them from fftfreq or rfftfreq, whose float values are
# not integral for some n (98, 196, ...).
FREQUENCY_HELPERS = ("fftfreq", "rfftfreq")


def test_detector_flags_fftfreq():
    source = ("import numpy as np\nfrom numpy.fft import fftfreq as freqs\n"
              "k = np.fft.fftfreq(n, d=1.0 / n)\nf = scipy.fft.rfftfreq(n)\n"
              "g = freqs(n)\nk = grid.k1[:, 0]  # fftfreq order\n")
    assert references(source, *FREQUENCY_HELPERS) == [
        "fftfreq (line 2)", "fftfreq (line 3)", "rfftfreq (line 4)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_wavenumbers_only_from_the_grid(path):
    assert references(path.read_text(encoding="utf-8"), *FREQUENCY_HELPERS) == []


# pressure is the CG solve alone: the second routes of the pressure split
# live in verify, and the band multipliers on the Grid.
PRESSURE_IMPORTS = {"fft", "dynamics", "errors", "spectral"}


def oddflow_imports(source: str) -> list[tuple[str, str | None]]:
    """(oddflow module, name) for each import of the package's own modules:
    the name taken from the module, or None for the module itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(a.name.split(".")[1], None) for a in node.names
                      if a.name.startswith("oddflow.")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "oddflow":
                continue
            module = module.removeprefix("oddflow").lstrip(".")
            if module:
                found += [(module.split(".")[0], a.name) for a in node.names]
            else:
                found += [(a.name, None) for a in node.names]
    return found


def test_detector_lists_oddflow_imports():
    source = ("import numpy as np\nfrom . import fft as _fft, errors\n"
              "from .dynamics import FlowState\nimport oddflow.verify\n"
              "from oddflow.littlewood_paley import dyadic_block\n"
              "from oddflow import app_io\nfrom dataclasses import dataclass\n")
    assert oddflow_imports(source) == [
        ("fft", None), ("errors", None), ("dynamics", "FlowState"), ("verify", None),
        ("littlewood_paley", "dyadic_block"), ("app_io", None)]


def test_pressure_imports_only_what_the_solve_needs():
    """No Littlewood-Paley blocks, no dynamics but the state, and no
    per-grid cache."""
    source = (SRC / "pressure.py").read_text(encoding="utf-8")
    found = oddflow_imports(source)
    assert {module for module, _ in found} <= PRESSURE_IMPORTS
    assert [name for module, name in found if module == "dynamics"] == ["FlowState"]
    assert references(source, "functools", "cache") == []


# A per-grid or per-state array lives on its owner (a cached_property dies
# with its instance); no module keeps one in a process-lifetime cache, which
# holds its arguments, a Grid among them, for as long as the process runs.
PROCESS_CACHES = ("cache", "lru_cache")


def test_detector_flags_process_caches():
    source = ("import functools\nfrom functools import lru_cache, cached_property\n"
              "@functools.cache\ndef f(n): pass\n@lru_cache(maxsize=4)\ndef g(n): pass\n"
              "class C:\n    @cached_property\n    def h(self): pass\n")
    assert references(source, *PROCESS_CACHES) == [
        "lru_cache (line 2)", "cache (line 3)", "lru_cache (line 5)"]


@pytest.mark.parametrize("name", PROCESS_CACHES)
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_process_lifetime_cache(path, name):
    assert references(path.read_text(encoding="utf-8"), name) == []


# A module's _-prefixed names are its own: no module under src/oddflow takes
# one from another oddflow module.
def private_names_crossed(source: str) -> list[str]:
    """_-prefixed names imported from an oddflow module (`from .m import _f`)
    or read off one (`m._f`, with m bound by `from . import m` or
    `import oddflow.m`)."""
    tree = ast.parse(source)
    modules = set()  # local names bound to oddflow modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "oddflow"):
            for a in node.names:
                if a.name.startswith("_"):
                    found.append((node.lineno, a.name))
                elif node.module in (None, "oddflow"):
                    modules.add(a.asname or a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "oddflow":
                    modules.add(a.asname or "oddflow")

    def root(node):
        while isinstance(node, ast.Attribute):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and root(node.value) in modules):
            found.append((node.lineno, f"{ast.unparse(node.value)}.{node.attr}"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_detector_flags_private_names_across_modules():
    source = ("from . import app_io, spectral as sp\n"
              "from .app_io import _stream, random_scalar\n"
              "from oddflow.spectral import _check_same_grid as same\n"
              "import oddflow.pressure as press\nimport oddflow.verify\n"
              "import scipy.fft as _fft\n"
              "app_io._real_field(g)\nsp._check_same_grid(a, b)\npress._solve(a)\n"
              "oddflow.verify._x\n_fft.rfft2(x)\nself._fields\nrandom_scalar(g)\n")
    assert private_names_crossed(source) == [
        "_stream (line 2)", "_check_same_grid (line 3)", "app_io._real_field (line 7)",
        "sp._check_same_grid (line 8)", "press._solve (line 9)", "oddflow.verify._x (line 10)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    assert private_names_crossed(path.read_text(encoding="utf-8")) == []


# Every public top-level def or class under src/oddflow is used: code
# references it by name, in src/ or perfbench/, or pyproject.toml names it
# as an entry point (cli.main is the console script).  A test, a docstring
# or a message is no use.
ROOT = SRC.parent.parent


def referenced_names(source: str) -> set[str]:
    """Names that code references: bare names, attributes read off any
    object, and the names an import binds or reaches."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return found


def unused_public_names(root: pathlib.Path) -> list[str]:
    """`module: name` for each public top-level def or class of
    root/src/oddflow that no code under root/src or root/perfbench
    references and no entry point of root/pyproject.toml names."""
    used = set(re.findall(r'"[\w.]+:(\w+)"', (root / "pyproject.toml").read_text(encoding="utf-8")))
    for d in ("src", "perfbench"):
        for p in sorted((root / d).rglob("*.py")):
            used |= referenced_names(p.read_text(encoding="utf-8"))
    return [f"{p.name}: {node.name}"
            for p in sorted((root / "src" / "oddflow").glob("*.py"))
            for node in ast.parse(p.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used]


def test_detector_flags_unused_public_names(tmp_path):
    files = {
        "src/oddflow/a.py": ("def used():\n    pass\ndef lonely():\n    pass\n"
                             "class Spare:\n    def method(self):\n        pass\n"
                             "def _own():\n    pass\ndef caller():\n    return b.used_twice()\n"
                             "def quoted():\n    raise ValueError('quoted needs a value')\n"),
        "src/oddflow/b.py": "from .a import used as alias\ndef used_twice():\n    pass\n",
        "perfbench/run.py": "patch('lonely', 'Spare')\n",
        "tests/test_a.py": "from oddflow.a import lonely\nlonely()\n",
        "pyproject.toml": '[project.scripts]\nx = "oddflow.a:caller"\n',
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert unused_public_names(tmp_path) == ["a.py: lonely", "a.py: Spare", "a.py: quoted"]


def test_no_unused_public_names():
    assert unused_public_names(ROOT) == []


# One implementation per operation: scalar and vector fields share one
# layout, so no public function is another's twin for vector fields
# (X_vector or vector_X beside X), looping over the components by hand.
# sobolev_norm_vector is the one exception: perfbench wraps it by name.
def vector_twins(sources: dict[str, str]) -> list[str]:
    """`module: name` for each public top-level function named X_vector or
    vector_X, where X is also a public top-level function of the modules
    given (file name -> source)."""
    public = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")):
                public[node.name] = module
    return sorted(f"{module}: {name}" for name, module in public.items()
                  if ({name.removesuffix("_vector"), name.removeprefix("vector_")} - {name})
                  & public.keys())


def test_detector_flags_vector_twins():
    sources = {
        "a.py": ("def l2_norm(f):\n    pass\ndef l2_norm_vector(F):\n    pass\n"
                 "def vector_laplacian(F):\n    pass\ndef sup_norm_vector(F):\n    pass\n"
                 "def _norm_vector(F):\n    pass\nclass dealias_vector:\n    pass\n"),
        "b.py": ("def laplacian(f):\n    pass\ndef dealias(f):\n    pass\n"
                 "def dealias_vector(F):\n    pass\ndef vector(F):\n    pass\n"
                 "def _norm(f):\n    pass\n"),
    }
    assert vector_twins(sources) == ["a.py: l2_norm_vector", "a.py: vector_laplacian",
                                     "b.py: dealias_vector"]


def test_no_vector_twins():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert vector_twins(sources) == ["littlewood_paley.py: sobolev_norm_vector"]
