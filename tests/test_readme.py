"""The README's library example runs as written, on a smaller scenario."""

import re
from pathlib import Path

import netchange

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs(monkeypatch, capsys):
    full_size = netchange.scenario
    monkeypatch.setattr(
        netchange, "scenario", lambda name, **kwargs: full_size(name, **kwargs, scale=0.1)
    )
    exec(compile(quick_start_block(), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # detections at t=21 for cdp, the ground truth, detections for actm
    assert len(printed) >= 3
