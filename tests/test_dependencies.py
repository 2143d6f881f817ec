import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "netchange"


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
