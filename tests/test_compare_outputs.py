"""tools/compare_outputs.py: its file comparison and its command list."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(root: Path, name: str, text: str) -> None:
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_one_line_per_file_and_timings_skipped(tmp_path, capsys):
    before, after = tmp_path / "before", tmp_path / "after"
    for root, score, seconds in ((before, "0.5\n", "1.0\n"), (after, "0.25\n", "2.0\n")):
        write(root, "detect/dims.csv", "t,d\n1,2\n")
        write(root, "detect/scores.csv", score)
        write(root, "detect/manifest.json", seconds)
        write(root, "evaluate/timings.csv", seconds)
    write(after, "evaluate/performance.csv", "x\n")
    assert load_tool().compare(before, after) == 2
    assert capsys.readouterr().out.splitlines() == [
        "identical detect/dims.csv",
        "differs   detect/scores.csv",
        "missing   evaluate/performance.csv",
    ]


def test_commands_cover_every_method_seed_and_input():
    names = [name for name, _argv in load_tool().runs()]
    assert names[0] == "simulate"
    assert len(names) == len(set(names)) == 1 + 3 * 2 * 2 + 4 + 2 * 2
    assert "detect-actm-seed5-relabelled" in names
    assert "evaluate-n300-seed3" in names
    assert names.index("simulate-n90-seed1") < names.index("detect-cdp-seed1-n90")
