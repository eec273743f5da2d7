"""The package's surface against the documents that state it: the names the
`kirwan` namespace exports, as README lists them, the version, as
pyproject.toml gives it, and the command lines of README's console
sessions."""

from __future__ import annotations

import importlib
import pkgutil
import re
import shlex
from pathlib import Path
from types import ModuleType

import kirwan
from kirwan.cli import USAGE_EXIT, main

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


def test_every_module_star_imports():
    """`from kirwan.<module> import *` for each module, so a name deleted from a
    module but left in its `__all__` fails here."""
    modules = [info.name for info in pkgutil.iter_modules(kirwan.__path__)]
    assert "kernels" in modules
    for name in modules:
        exec(f"from kirwan.{name} import *", {})


def test_every_module_name_readme_cites_resolves():
    """Each backticked `module.name` (or `kirwan.module.name`) in README, for a
    module of the package, names an attribute of that module."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    modules = "|".join(info.name for info in pkgutil.iter_modules(kirwan.__path__))
    cited = re.findall(rf"`(?:kirwan\.)?({modules})\.(\w+)", readme)
    assert len(cited) >= 5
    missing = [
        f"{module}.{name}" for module, name in cited
        if not hasattr(importlib.import_module(f"kirwan.{module}"), name)
    ]
    assert not missing


def test_pyproject_version_is_the_package_version():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]\n", 1)[1].split("\n[", 1)[0]
    (version,) = re.findall(r'^version = "([^"]+)"$', project, re.M)
    assert version == kirwan.__version__


def readme_sessions():
    """(argv, shown output lines) for each `$ kirwan ...` command of README's
    console fences, in order; a line ending in a backslash continues on the
    next `>` line."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sessions: list[tuple[list[str], list[str]]] = []
    for fence in re.findall(r"^```console\n(.*?)^```$", readme, re.M | re.S):
        for line in fence.replace("\\\n>", " ").splitlines():
            if line.startswith("$ "):
                sessions.append((shlex.split(line[2:], comments=True), []))
            else:
                sessions[-1][1].append(line)
    return [(argv[1:], shown) for argv, shown in sessions if argv[0] == "kirwan"]


def test_readme_console_sessions_run_as_shown(tmp_path, monkeypatch, capsys):
    """Each command runs in one directory, in order: a shown usage error is
    its stderr with exit 64, other shown output is its stdout with exit 0,
    and a command shown with no output exits 0."""
    monkeypatch.chdir(tmp_path)
    sessions = readme_sessions()
    assert [argv[0] for argv, _ in sessions] == [
        "generate", "validate", "kernel", "betti", "pair", "bmatrix", "decompose", "pair",
    ]
    for argv, shown in sessions:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        text = "".join(line + "\n" for line in shown)
        if shown and shown[0].startswith("usage:"):
            assert (code, out, err) == (USAGE_EXIT, "", text), argv
        else:
            assert code == 0, (argv, out, err)
            assert not shown or out == text, argv
