"""Packaging/export sanity: the public API surface stays intact."""

import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent


def test_top_level_exports():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.cubature",
        "repro.backends",
        "repro.gpu",
        "repro.baselines",
        "repro.integrands",
        "repro.reference",
        "repro.diagnostics",
        "repro.sparse_grids",
        "repro.cli",
        "repro.api",
        "repro.errors",
    ],
)
def test_submodules_importable_and_documented(module):
    mod = importlib.import_module(module)
    assert mod.__doc__, f"{module} must have a module docstring"


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.cubature",
        "repro.backends",
        "repro.gpu",
        "repro.baselines",
        "repro.integrands",
        "repro.reference",
        "repro.sparse_grids",
        "repro.diagnostics",
    ],
)
def test_package_all_resolves(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.{name}"


def test_setup_py_is_a_metadata_free_shim():
    """setup.py predates pyproject.toml and must never disagree with it:
    the only thing it may contain is a bare ``setup()`` call, so every
    piece of metadata has exactly one home."""
    source = (REPO_ROOT / "setup.py").read_text()
    call = re.search(r"setup\((.*?)\)", source, re.DOTALL)
    assert call, "setup.py must call setuptools.setup()"
    assert call.group(1).strip() == "", (
        "setup.py passed arguments to setup(); move all metadata to "
        "pyproject.toml — the shim exists only for wheel-less "
        "legacy editable installs"
    )
    for forbidden in ("name=", "version=", "packages=", "entry_points="):
        assert forbidden not in source, f"metadata drift: {forbidden} in setup.py"


def test_pyproject_declares_console_script_and_package():
    """The surfaces CI's clean-install job exercises are declared where
    pip actually reads them."""
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    assert 'name = "pagani-repro"' in pyproject
    assert 'pagani-repro = "repro.cli:main"' in pyproject


def test_module_level_imports_are_declared_dependencies():
    """A clean install from pyproject.toml must import: every third-party
    package that ``src/`` imports at module level is a declared
    dependency (imports nested in functions or ``try`` are optional)."""
    import ast
    import sys

    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    deps = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S)
    declared = {
        re.split(r"[<>=!~\[ ]", d.strip().strip('"'))[0]
        for d in deps.group(1).split(",")
        if d.strip()
    }
    imported = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                imported.update(a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    assert third_party <= declared, sorted(third_party - declared)


def test_import_does_not_load_scipy():
    """SciPy is imported lazily (Sobol constructor, ``gaussian_measure``'s
    map, the Genz Gaussian reference), so importing the package, the
    catalogue and the router leaves it out of ``sys.modules``.  A fresh
    interpreter, because this test session has long since imported it."""
    import os
    import subprocess
    import sys

    code = (
        "import sys, repro, repro.integrands.catalog, repro.backends.routing; "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "assert not loaded, loaded"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_all_registered_backend_names_reach_the_cli_help(capsys):
    """`--backend` help is generated from the registry
    (``backend_spec_help``), so every registered backend must appear in
    the live help output — the surface cannot drift from the registry."""
    import pytest

    from repro import cli
    from repro.backends import _FACTORIES

    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    help_text = capsys.readouterr().out
    for name in _FACTORIES:
        assert name in help_text, (
            f"backend {name!r} is registered but never mentioned in the "
            "CLI's --backend help text"
        )


def test_public_classes_have_docstrings():
    import repro

    for name in repro.__all__:
        obj = getattr(repro, name)
        if isinstance(obj, type) or callable(obj):
            assert obj.__doc__, f"{name} lacks a docstring"
