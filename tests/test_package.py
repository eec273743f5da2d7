"""The package's surface against the documents that state it: the names the
`kirwan` namespace exports, as README lists them, and the version, as
pyproject.toml gives it."""

from __future__ import annotations

import re
from pathlib import Path
from types import ModuleType

import kirwan

ROOT = Path(__file__).resolve().parent.parent


def test_the_namespace_exports_exactly_the_names_readme_lists():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    _, found, rest = readme.partition("The package namespace exports exactly these names:")
    assert found
    listed = set(re.findall(r"`(\w+)`", rest.split("\n\n", 1)[0]))
    # the submodules and the module attributes Python sets are not exports
    exported = {
        name for name, value in vars(kirwan).items()
        if not isinstance(value, ModuleType)
        and (name == "__version__" or not name.startswith("__"))
    }
    assert exported == listed


def test_pyproject_version_is_the_package_version():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]\n", 1)[1].split("\n[", 1)[0]
    (version,) = re.findall(r'^version = "([^"]+)"$', project, re.M)
    assert version == kirwan.__version__
