import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "netchange"
# Names that numpy gained in 2.0: the transpose of the last two axes.
NUMPY2_ONLY = {"mT", "matrix_transpose"}


def test_package_imports_no_scipy():
    # numpy is the one runtime dependency; scipy may serve only as a test oracle
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in names
                          if name.split(".")[0] == "scipy"]
    assert offenders == []


def numpy2_names(source):
    """Line numbers and names in `source` that exist only from numpy 2.0 on."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias) else None)
        if name in NUMPY2_ONLY:
            found.append((node.lineno, name))
    return found


def test_numpy2_guard_sees_each_form():
    source = "a.mT\nnp.linalg.matrix_transpose(a)\nfrom numpy import matrix_transpose\n"
    assert sorted(name for _, name in numpy2_names(source)) == [
        "mT", "matrix_transpose", "matrix_transpose"]


def test_package_runs_on_declared_numpy():
    # the declared floor is what users may have, whatever this machine runs
    declared = re.search(r'"numpy>=(\d+)', (ROOT / "pyproject.toml").read_text()).group(1)
    if int(declared) >= 2:
        return
    offenders = [f"{path.name}:{line}: {name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for line, name in numpy2_names(path.read_text(encoding="utf-8"))]
    assert offenders == []


def python_floor():
    """The (major, minor) of `requires-python` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)', text).groups()
    return int(major), int(minor)


def test_python_floor_guard_rejects_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


def test_package_parses_on_declared_python():
    # tests run on one interpreter; the declared floor is what users may have
    floor = python_floor()
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=path.name, feature_version=floor)


def test_cli_import_leaves_process_pools_unloaded():
    # evaluate imports them only when it starts worker processes; loading
    # them with the package would add to every command's start-up time
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import netchange.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True).stdout
    assert loaded.strip() == "[]"
