"""The README stays valid: the library example runs, the commands parse, the signature holds."""

import inspect
import re
import shlex
from pathlib import Path

import netchange
from netchange import baselines, embedding, graph, procrustes
from netchange.cli import build_parser

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


COMMANDS = [["netchange", name] for name in ("simulate", "detect", "evaluate")]


def readme_commands() -> list[list[str]]:
    """Each `netchange simulate|detect|evaluate` command in the README's sh blocks."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            while words and re.fullmatch(r"[A-Z_]+=\S*", words[0]):  # an environment setting
                words = words[1:]
            if words[:2] in COMMANDS:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) == 5
    for argv in commands:
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]


def test_quoted_score_sequence_signature_matches():
    quoted = re.findall(r"`score_sequence(\([^`]*\))`", README.read_text(encoding="utf-8"))
    signature = inspect.signature(netchange.score_sequence)
    bare = signature.replace(
        parameters=[p.replace(annotation=p.empty) for p in signature.parameters.values()],
        return_annotation=signature.empty,
    )
    assert quoted == [str(bare)]


def test_solver_table_names_every_stopping_constant():
    text = README.read_text(encoding="utf-8")
    table = text.split("Each iterative loop stops by a rule held in two module constants", 1)[1]
    rows = table.split("\n\n", 2)[1].splitlines()  # the paragraph after the sentence
    named = {name for row in rows for name in re.findall(r"`([A-Z_]+)`", row.split("|")[3])}
    defined = {name for module in (procrustes, embedding, baselines) for name in vars(module)
               if name.startswith(("GPA_", "SPECTRAL_NORM_", "ACTIVITY_"))}
    assert named == defined


def test_quoted_vertex_index_limit_matches():
    text = README.read_text(encoding="utf-8")
    quoted = re.search(r"Vertex indices stop at\s+(\d+)", text).group(1)
    assert int(quoted) == graph.MAX_VERTICES - 1
