import csv
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import netchange.cli
import netchange.evaluation
import netchange.pipeline
from netchange import EmptyGraph, FormatError, SnapshotMatrix, __version__, run_experiment, scenario
from netchange.baselines import activity
from netchange.cli import (
    ingest_sequence,
    main,
    write_csv,
    write_ground_truth,
    write_sequence,
)
from netchange.graph import MAX_VERTICES
from netchange.pipeline import embed_snapshot


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def not_line_by_line(path):
    """Stands in for the line-by-line reader where a file must take the numpy path."""
    raise AssertionError(f"{path} read line by line")


class TestIngest:
    def test_two_snapshots_mirrored(self, tmp_path):
        path = write(tmp_path / "edges.tsv", "1 0 1 9\n2 0 1 9\n")
        snaps = ingest_sequence(path)
        assert [s.t for s in snaps] == [1, 2]
        for s in snaps:
            assert np.array_equal(s.W, np.array([[0.0, 9.0], [9.0, 0.0]]))

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.tsv"
        path.write_text("1 0 1 9\n2 0 1 9\n", encoding="utf-8-sig")
        snaps = ingest_sequence(path)
        assert [s.t for s in snaps] == [1, 2]
        assert snaps[0].W[0, 1] == 9.0

    def test_duplicate_same_weight_idempotent(self, tmp_path):
        path = write(tmp_path / "e.tsv", "1 0 1 2.5\n1 1 0 2.5\n1 0 1 2.5\n")
        snaps = ingest_sequence(path)
        assert snaps[0].W[0, 1] == 2.5

    def test_conflicting_mirror_rejected(self, tmp_path):
        path = write(tmp_path / "e.tsv", "1 0 1 2\n1 1 0 3\n")
        with pytest.raises(FormatError):
            ingest_sequence(path)

    def test_conflict_names_first_clashing_line(self, tmp_path):
        path = write(tmp_path / "e.tsv", "1 0 1 2\n2 0 1 5\n1 1 0 2\n2 2 1 1\n1 1 0 3\n2 1 0 4\n")
        with pytest.raises(FormatError, match=r"e.tsv:5: .* edge \(0, 1\) at t=1: 2.0 vs 3.0"):
            ingest_sequence(path)

    def test_non_numeric_weight_rejected(self, tmp_path):
        path = write(tmp_path / "e.tsv", "1 0 1 heavy\n")
        with pytest.raises(FormatError):
            ingest_sequence(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 0 1 2\n1 0 1\n", "x.tsv:2: expected 't i j weight', got 3 fields"),
            ("1 0 0.5 2\n",
             "x.tsv:1: non-integer index: invalid literal for int() with base 10: '0.5'"),
            ("0 0 1 2\n", "x.tsv:1: time index must be >= 1, got 0"),
            ("1 -1 1 2\n", "x.tsv:1: vertex indices must be >= 0"),
            ("1 0 1 inf\n", "x.tsv:1: weight must be finite"),
            ("1 0 1 nan\n", "x.tsv:1: weight must be finite"),
            ("# a comment\n\n# another\n", "x.tsv: no edges found"),
            # near-plain text: read line by line, with the line reader's message
            ("1 0 1000000000000000000 1\n",
             f"x.tsv:1: vertex index 1000000000000000000 exceeds {MAX_VERTICES - 1}"),
            ("1 0 99999999999999999999 1\n", "x.tsv:1: index does not fit in 64 bits"),
            ("1 0 1 2\n0 0 1 2\n", "x.tsv:2: time index must be >= 1, got 0"),
            ("1 0 1 2\n\n1 0 1\n", "x.tsv:3: expected 't i j weight', got 3 fields"),
            ("1 0 1 2 1 0 2 3\n", "x.tsv:1: expected 't i j weight', got 8 fields"),
            ("1 0 1\n2 1 0 2 2\n", "x.tsv:1: expected 't i j weight', got 3 fields"),
            # whitespace only: no token, so the line reader names the file
            ("", "x.tsv: no edges found"),
            ("\n", "x.tsv: no edges found"),
            (" \t\v\f\r\n", "x.tsv: no edges found"),
        ],
    )
    def test_malformed_line_rejected_with_message(self, tmp_path, text, message):
        path = write(tmp_path / "x.tsv", text)
        with pytest.raises(FormatError) as caught:
            ingest_sequence(path)
        assert str(caught.value) == message

    def test_negative_weight_names_line(self, tmp_path):
        path = write(tmp_path / "e.tsv", "1 0 1 2\n1 1 2 -3\n")
        with pytest.raises(FormatError, match=r"e.tsv:2: weight must be nonnegative"):
            ingest_sequence(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path / "e.tsv", "# header\n\n1 0 1 4 # trailing\n")
        snaps = ingest_sequence(path)
        assert snaps[0].W[1, 0] == 4.0

    def test_index_beyond_pair_key_range_rejected(self, tmp_path):
        # this line was once stored silently as the edge (-1689348814, 1290448383)
        path = write(tmp_path / "e.tsv", "1 0 1 1\n1 2000000000 4999999999 1\n")
        with pytest.raises(FormatError, match="e.tsv:2: vertex index 4999999999 exceeds"):
            ingest_sequence(path)

    def test_single_vertex_file_rejected(self, tmp_path):
        path = write(tmp_path / "e.tsv", "1 0 0 1\n")
        with pytest.raises(FormatError, match="need at least 2 vertices, inferred n=1"):
            ingest_sequence(path)

    def test_missing_pairs_are_zero(self, tmp_path):
        path = write(tmp_path / "e.tsv", "1 0 2 7\n")
        W = ingest_sequence(path)[0].W
        assert W[0, 1] == 0.0 and W[0, 2] == 7.0

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        snaps = []
        for t in (1, 2, 3):
            upper = np.triu(rng.poisson(0.8, (6, 6)).astype(float), k=1)
            upper[0, 1] += 0.125  # non-integral weight survives the trip
            snaps.append(SnapshotMatrix(W=upper + upper.T, t=t))
        path = tmp_path / "seq.tsv"
        write_sequence(path, snaps)
        back = ingest_sequence(path)
        for original, parsed in zip(snaps, back):
            assert parsed.t == original.t
            assert np.array_equal(parsed.W, original.W)

    def test_round_trip_builds_no_dense_matrix(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        snaps = []
        for t in (1, 2, 3):
            upper = np.triu(rng.poisson(0.6, (9, 9)).astype(float))  # self-loops too
            upper[1, 4] = 2.75
            snaps.append(SnapshotMatrix(W=upper + np.triu(upper, 1).T, t=t))

        def no_dense(snap):
            raise AssertionError("dense W built")

        monkeypatch.setattr(SnapshotMatrix, "W", property(no_dense))
        first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_sequence(first, snaps)
        write_sequence(second, ingest_sequence(first))
        assert first.read_bytes() == second.read_bytes()

    def test_edgeless_sequence_written_reads_as_no_edges(self, tmp_path):
        path = tmp_path / "x.tsv"
        write_sequence(path, [SnapshotMatrix(W=np.zeros((3, 3)), t=t) for t in (1, 2)])
        assert path.read_text() == "\n"
        with pytest.raises(FormatError) as caught:
            ingest_sequence(path)
        assert str(caught.value) == "x.tsv: no edges found"

    def test_ingest_holds_edges_not_dense_snapshots(self, tmp_path):
        n, T = 400, 20
        rng = np.random.default_rng(5)
        lines = []
        for t in range(1, T + 1):
            for key in rng.choice(n * n, size=800, replace=False).tolist():
                i, j = divmod(key, n)
                lines.append(f"{t} {i} {j} {1 + (i + j) % 4}")
            lines.append(f"{t} 0 {n - 1} 1")
        path = write(tmp_path / "sparse.tsv", "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            snaps = ingest_sequence(path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(snaps) == T and snaps[0].n == n
        # the whole sequence costs less than one dense n x n snapshot
        assert held < n * n * 8

    @staticmethod
    def outcome(path):
        """What ingesting `path` gives: n and each snapshot's t and edge bytes, or the error."""
        try:
            snaps = ingest_sequence(path)
        except FormatError as exc:
            return str(exc)
        return snaps[0].n, [(s.t, *(a.dtype.str + a.tobytes().hex() for a in s.edges))
                            for s in snaps]

    @pytest.mark.parametrize("seed", range(40))
    def test_plain_file_reads_as_line_by_line(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        n, T = int(rng.integers(2, 51)), int(rng.integers(1, 6))
        blank, ends = [" ", "\t", "\v", "\f"], ["\n", "\r\n", "\r"]

        def token(value):
            return "0" * int(rng.integers(0, 3) == 0) + str(value)

        def gap(least):
            return "".join(rng.choice(blank, size=int(rng.integers(least, 3))))

        edges = []
        for t in range(1, T + 1):
            for _ in range(int(rng.integers(1, 3 * n))):
                i, j = (int(v) for v in rng.integers(0, n, size=2))
                w = (t + i * j) % 10  # a pair drawn twice keeps its weight
                edges += [(t, i, j, w), (t, j, i, w)] if rng.random() < 0.2 else [(t, i, j, w)]
        if seed % 10 == 8:  # a conflicting duplicate, named by its line
            t, i, j, w = edges[int(rng.integers(len(edges)))]
            edges.insert(int(rng.integers(len(edges) + 1)), (t, j, i, w + 1))
        if seed % 10 == 9:  # an index past MAX_VERTICES, named by its line
            edges.insert(int(rng.integers(len(edges) + 1)), (1, 0, 12345678901234567, 1))
        lines = []
        for fields in edges:
            lines.append(gap(0) + gap(1).join(map(token, fields)) + gap(0))
            if rng.random() < 0.1:
                lines.append(gap(0))  # a blank line
        text = "".join(line + rng.choice(ends) for line in lines)
        if seed % 4 == 1:
            text = text.rstrip("\r\n")
        plain, commented = tmp_path / "plain.tsv", tmp_path / "commented.tsv"
        bom = "\ufeff" * (seed % 3 == 2)
        plain.write_bytes((bom + text).encode())
        commented.write_bytes((bom + text + "\n# x\n").encode())
        with monkeypatch.context() as patched:
            patched.setattr("netchange.cli._loaded_columns", lambda path: None)
            expected = self.outcome(plain)  # as the line-by-line reader reads it
        monkeypatch.setattr("netchange.cli._parsed_columns", not_line_by_line)
        for path in (plain, commented):
            assert self.outcome(path) == (expected.replace("plain.tsv", path.name)
                                          if isinstance(expected, str) else expected)

    def test_simulated_sequence_is_plain(self, tmp_path, monkeypatch):
        out = tmp_path / "sim"
        argv = ["simulate", "--scenario", "group-change", "--scale", "0.1", "--out", str(out)]
        assert main(argv) == 0
        monkeypatch.setattr("netchange.cli._parsed_columns", not_line_by_line)
        snaps = ingest_sequence(out / "sequence.tsv")
        assert [s.t for s in snaps] == list(range(1, 31)) and snaps[0].n == 90

    @pytest.mark.parametrize(
        "text, edge",
        [
            ("1\x1c0 1 2\n", (0, 1, 2.0)),
            ("1 0 +3 1\n", (0, 3, 1.0)),
            ("1 0 1_0 2\n", (0, 10, 2.0)),
            ("1 0 1 2.5\n", (0, 1, 2.5)),
            ("1 0 0000000000000000003 1\n", (0, 3, 1.0)),
        ],
    )
    def test_near_plain_file_read_line_by_line(self, tmp_path, text, edge):
        # unusual separators and tokens, read to these edges by either reader
        [snap] = ingest_sequence(write(tmp_path / "x.tsv", text))
        assert [a.tolist() for a in snap.edges] == [[v] for v in edge]

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, end):
        path = tmp_path / "x.tsv"
        path.write_bytes(f"\ufeff# t i j weight{end}1 0 1 2{end}".encode() + b"1 0 \xff 2\n")
        with pytest.raises(FormatError) as caught:
            ingest_sequence(path)
        assert str(caught.value) == "x.tsv:3: byte 0xff is not UTF-8 (invalid start byte)"


class TestReadersAgree:
    """Wherever numpy's text reader takes a file, it reads what the line reader reads."""

    INDICES = ["0", "1", "2", "5", "+3", "-0", "-1", "007", "1_0", "\u0663", "1.0",
               "12345678901234567890"]
    WEIGHTS = ["1", "7", "2.5", "1e-3", "3E2", "4.9e-324", "-0", "-2", "1e400", "inf", "nan",
               "0x10", "1_0"]
    GAPS = [" ", "\t", "\v", "\f", "\x1c", "\xa0", "\u2003", "\x85"]
    ENDS = ["\n", "\r\n", "\r"]

    @classmethod
    def text(cls, rng) -> str:
        """A few lines, each field a plain value or, now and then, an unusual token."""
        def pick(common, tokens):
            return str(rng.choice(tokens)) if rng.random() < 0.08 else str(common)

        lines = []
        for _ in range(int(rng.integers(1, 6))):
            u = rng.random()
            if u < 0.1:
                lines.append("# comment")
                continue
            fields = [pick(rng.integers(1, 4), cls.INDICES), pick(rng.integers(0, 6), cls.INDICES),
                      pick(rng.integers(0, 6), cls.INDICES), pick(rng.integers(0, 9), cls.WEIGHTS)]
            if u > 0.97:
                fields = fields[: int(rng.integers(0, 4))]
            gap = str(rng.choice(cls.GAPS)) if rng.random() < 0.2 else " "
            lines.append(gap.join(fields) + (" # note" if rng.random() < 0.1 else ""))
        end = str(rng.choice(cls.ENDS))
        return "\ufeff" * (rng.random() < 0.1) + end.join(lines) + end * (rng.random() < 0.8)

    def test_loaded_columns_equal_parsed_columns(self, tmp_path):
        rng = np.random.default_rng(2024)
        path = tmp_path / "x.tsv"
        loaded = line_only = rejected = 0
        for _ in range(1500):
            path.write_text(self.text(rng), encoding="utf-8", newline="")
            columns = netchange.cli._loaded_columns(path)
            try:
                parsed = netchange.cli._parsed_columns(path)
            except FormatError:
                rejected += 1
                assert columns is None, path.read_text(newline="")
                continue
            if columns is None:
                line_only += 1
                continue
            loaded += 1
            assert [(a.dtype, a.tobytes()) for a in columns] == \
                [(a.dtype, a.tobytes()) for a in parsed], path.read_text(newline="")
        assert loaded > 500 and line_only > 50 and rejected > 200  # every kind of file is met


class TestWriteCsv:
    def test_numpy_float_cell_writes_plain_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], [(np.float64(1.5), 2.25, None)])
        assert path.read_text() == "a,b,c\n1.5,2.25,\n"

    def test_field_with_comma_is_quoted(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["label", "p"], [("cdp,act", 0.5)])
        assert path.read_text() == 'label,p\n"cdp,act",0.5\n'


class TestConfigFile:
    def test_parse_and_merge(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", "window = 3\nmethod = act\n# note\n")
        edges = write(tmp_path / "e.tsv", "1 0 1 1\n2 0 1 2\n3 1 0 1\n4 0 1 3\n")
        out = tmp_path / "out"
        argv = ["detect", "--input", str(edges), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["window"] == 3 and manifest["config"]["method"] == "act"

    def test_flags_override_file(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", "window = 3\n")
        edges = write(tmp_path / "e.tsv", "1 0 1 1\n2 0 1 2\n3 1 0 1\n4 0 1 3\n")
        out = tmp_path / "out"
        code = main(
            [
                "detect",
                "--input", str(edges),
                "--method", "act",
                "--config", str(cfg),
                "--window", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["window"] == 1

    def test_byte_order_mark_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("window = 1\nmethod = act\n", encoding="utf-8-sig")
        edges = write(tmp_path / "e.tsv", "1 0 1 1\n2 0 1 2\n3 1 0 1\n")
        out = tmp_path / "out"
        argv = ["detect", "--input", str(edges), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["window"] == 1 and manifest["config"]["method"] == "act"

    def test_malformed_config_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", "just-a-token\n")
        edges = write(tmp_path / "e.tsv", "1 0 1 1\n2 0 1 2\n")
        out = tmp_path / "out"
        argv = ["detect", "--input", str(edges), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == ("netchange detect: stage 'setup' failed: "
                                           "run.cfg:1: expected 'key = value'\n")
        assert not out.exists()

    def test_abbreviated_key_rejected(self, tmp_path, capsys):
        # `t` is a unique prefix of --threshold, which argparse would expand
        cfg = write(tmp_path / "run.cfg", "t = 0.5\n")
        edges = write(tmp_path / "e.tsv", "1 0 1 1\n2 0 1 2\n3 1 0 1\n")
        out = tmp_path / "out"
        argv = ["detect", "--input", str(edges), "--method", "act", "--window", "1",
                "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == ("netchange detect: stage 'setup' failed: "
                       "run.cfg: unrecognized arguments: --t 0.5\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "No such file"),
            ("just-a-token\n", "run.cfg:1: expected 'key = value'"),
            ("foo = 1\n", "run.cfg: unrecognized arguments: --foo 1"),
            ("T = x\n", "run.cfg: argument --T: invalid int value: 'x'"),
            ("sce = split\n", "run.cfg: unrecognized arguments: --sce split"),
            ("help = 1\n", "run.cfg: unrecognized arguments: --help 1"),
            (b"T = 24\n\xff = 2\n", "run.cfg:2: byte 0xff is not UTF-8"),
            ("T = 24\x0cscale = 0.1\n", "run.cfg: argument --T: invalid int value: '24\\x0c"),
            ("T = 24\n = 3\n", "run.cfg:2: expected 'key = value'"),
        ],
    )
    def test_config_error_fails_in_setup(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.cfg"
        if isinstance(text, bytes):
            cfg.write_bytes(text)
        elif text is not None:
            write(cfg, text)
        out = tmp_path / "o"
        argv = ["simulate", "--scenario", "split", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("netchange simulate: stage 'setup' failed: ")
        assert message in err and err.count("\n") == 1
        assert not out.exists()


class TestModuleEntryPoint:
    def test_python_m_netchange_runs_without_install(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "netchange", "--version"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == f"netchange {__version__}"


class TestSimulateCommand:
    def test_outputs_and_sidecar(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--scenario", "group-change",
                "--T", "30",
                "--seed", "7",
                "--scale", "0.1",
                "--out", str(out),
            ]
        )
        assert code == 0
        truth = json.loads((out / "ground_truth.json").read_text())
        assert truth["scenario"] == "group-change"
        assert truth["n"] == 90
        assert truth["changed_vertices"] == list(range(60))
        assert truth["change_times"] == [21]
        snaps = ingest_sequence(out / "sequence.tsv")
        assert len(snaps) == 30 and snaps[0].n == 90

    def test_same_seed_byte_identical(self, tmp_path):
        args = [
            "simulate", "--scenario", "split", "--scale", "0.1",
            "--seed", "11", "--change-type", "interval",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "sequence.tsv").read_bytes() == (b / "sequence.tsv").read_bytes()
        assert (a / "ground_truth.json").read_bytes() == (b / "ground_truth.json").read_bytes()

    def test_ground_truth_of_numpy_integer_T(self, tmp_path):
        write_ground_truth(tmp_path / "truth.json", scenario("split", T=np.int64(24), scale=0.1))
        assert '"T": 24,' in (tmp_path / "truth.json").read_text()

    def test_unknown_scenario_exits_nonzero(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--scenario", "vanish", "--out", str(tmp_path)])


class TestDetectCommand:
    def test_act_pair_scores(self, tmp_path):
        rng = np.random.default_rng(2)
        snaps = []
        for t in (1, 2):
            upper = np.triu(rng.poisson(1.5, (8, 8)).astype(float), k=1)
            upper[0, 1] += 1.0
            snaps.append(SnapshotMatrix(W=upper + upper.T, t=t))
        edges = tmp_path / "e.tsv"
        write_sequence(edges, snaps)
        out = tmp_path / "out"
        code = main(
            ["detect", "--input", str(edges), "--method", "act",
             "--window", "1", "--out", str(out)]
        )
        assert code == 0
        expected = np.abs(activity(snaps[0]).X[:, 0] - activity(snaps[1]).X[:, 0])
        lines = (out / "scores.csv").read_text().splitlines()
        assert lines[0] == "t,vertex,z,zscore,detected"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["2"] * 8
        got = np.array([float(r[2]) for r in rows])
        assert np.array_equal(got, expected)

    def test_identical_snapshots_near_zero(self, tmp_path):
        W = np.zeros((9, 9))
        for s in range(0, 9, 3):
            W[s : s + 3, s : s + 3] = s + 1.0
        snaps = [SnapshotMatrix(W=W, t=t) for t in range(1, 9)]
        edges = tmp_path / "e.tsv"
        write_sequence(edges, snaps)
        out = tmp_path / "out"
        assert main(["detect", "--input", str(edges), "--out", str(out)]) == 0
        lines = (out / "scores.csv").read_text().splitlines()[1:]
        assert {line.split(",")[0] for line in lines} == {"6", "7", "8"}
        assert all(float(line.split(",")[2]) < 1e-8 for line in lines)
        dims = (out / "dims.csv").read_text().splitlines()
        assert dims[0] == "t,d"
        assert len(dims) == 9

    def test_failure_names_stage(self, tmp_path, capsys):
        edges = write(tmp_path / "bad.tsv", "1 0 1 x\n")
        code = main(["detect", "--input", str(edges), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "stage 'ingest'" in err

    def test_oversized_index_fails_in_ingest(self, tmp_path, capsys):
        edges = write(tmp_path / "e.tsv", "1 0 1 1\n1 0 99999999999999999999 1\n")
        code = main(["detect", "--input", str(edges), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "stage 'ingest' failed: e.tsv:2: index does not fit in 64 bits" in err

    def test_out_of_memory_fails_in_one_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 29.8 GiB")

        monkeypatch.setattr("netchange.cli.score_sequence", exhausted)
        edges = write(tmp_path / "e.tsv", "1 0 1 1\n2 0 1 1\n")
        out = tmp_path / "o"
        code = main(["detect", "--input", str(edges), "--method", "act", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "netchange detect: stage 'score' failed: Unable to allocate 29.8 GiB\n"
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("window", ["0", "-1"])
    def test_nonpositive_window_fails(self, tmp_path, capsys, window):
        edges = write(tmp_path / "e.tsv", "1 0 1 1\n1 1 2 1\n2 0 1 2\n2 1 2 1\n")
        code = main(
            ["detect", "--input", str(edges), "--window", window, "--out", str(tmp_path / "o")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "stage 'score'" in err and "must be >= 1" in err

    def test_empty_snapshot_failure_names_instant(self, tmp_path, capsys):
        edges = write(
            tmp_path / "e.tsv",
            "1 0 1 1\n1 1 2 1\n2 0 1 0\n3 0 1 1\n4 0 1 2\n",
        )
        code = main(
            ["detect", "--input", str(edges), "--window", "1", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "stage 'score'" in err and "t=2" in err

    def test_missing_instant_failure_names_t(self, tmp_path, capsys):
        edges = write(
            tmp_path / "e.tsv",
            "1 0 1 1\n1 1 2 1\n2 0 1 2\n2 1 2 1\n4 0 1 1\n4 1 2 3\n5 0 1 1\n5 1 2 1\n",
        )
        code = main(
            ["detect", "--input", str(edges), "--window", "1", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "stage 'score'" in err and "t=3" in err


class TestEvaluateCommand:
    def test_tiny_run_produces_tables(self, tmp_path):
        out = tmp_path / "ev"
        code = main(
            [
                "evaluate",
                "--scenario", "group-change",
                "--scale", "0.1",
                "--methods", "cdp,act",
                "--windows", "2",
                "--runs", "2",
                "--T", "24",
                "--phi-samples", "1000",
                "--out", str(out),
            ]
        )
        assert code == 0
        perf = (out / "performance.csv").read_text().splitlines()
        assert perf[0] == "scenario,method,window,run,t,phi,eta,eta_bar,flagged,hits"
        # 2 methods x 2 runs x scored instants 3..24
        assert len(perf) == 1 + 2 * 2 * 22
        signs = (out / "sign_tests.csv").read_text().splitlines()
        assert len(signs) == 1 + 3
        props = (out / "proportions.csv").read_text().splitlines()
        assert len(props) == 1 + 3
        timings = (out / "timings.csv").read_text().splitlines()
        assert timings[0] == "task,method,n,mean_seconds"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "evaluate"
        assert {s["stage"] for s in manifest["stages"]} == {
            "build-scenario", "experiment", "write",
        }

    def test_tables_match_pinned_digests(self, tmp_path):
        # act and actm only: their phi does not depend on the BLAS thread count
        out = tmp_path / "ev"
        argv = ["evaluate", "--scenario", "group-change", "--scale", "0.1",
                "--methods", "act,actm", "--windows", "1,5", "--runs", "2",
                "--phi-samples", "2000", "--out", str(out)]
        assert main(argv) == 0

        def digest(name, columns=None):
            with open(out / name, newline="", encoding="utf-8") as f:
                text = "".join(",".join(row[:columns]) + "\n" for row in csv.reader(f))
            return hashlib.sha256(text.encode()).hexdigest()

        assert digest("sign_tests.csv") == (
            "affb377c11ba5614b4eee030d0f36fa6c4453eddab16585cca0a7a38804dd203"
        )
        assert digest("proportions.csv") == (
            "052d1a1da0ac73002ab08e787e924dd242e19e0d4e7c071faf30fac91170b5f2"
        )
        # scenario, method, window, run, t, phi, eta, eta_bar
        assert digest("performance.csv", 8) == (
            "b3a05b56b946a60740b71139e0a8c4db4460eca9c15cf5999dec04f26756a2f6"
        )

    def test_all_tied_runs_give_nan_p_values(self, tmp_path):
        # one phi sample clamps every phi to 1/2, so every eta is 0 and every pair ties
        out = tmp_path / "ev"
        argv = ["evaluate", "--scenario", "group-change", "--scale", "0.1",
                "--methods", "act,actm", "--windows", "1,5", "--runs", "2",
                "--phi-samples", "1", "--out", str(out)]
        assert main(argv) == 0

        def rows(name):
            with open(out / name, newline="", encoding="utf-8") as f:
                return list(csv.DictReader(f))

        signs = rows("sign_tests.csv")
        assert [r["alternative"] for r in signs] == ["greater", "less", "two_sided"] * 2
        assert all(r["p_value"] == "nan" for r in signs)
        equal = [r for r in rows("proportions.csv") if r["relation"] == "equal"]
        assert len(equal) == 2 and all(float(r["proportion"]) == 1.0 for r in equal)
        assert {r["eta"] for r in rows("performance.csv")} == {"0.0"}

    def test_unknown_method_fails(self, tmp_path, capsys):
        code = main(
            ["evaluate", "--scenario", "merge", "--methods", "pca",
             "--runs", "1", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "pca" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["0", "-1"])
    def test_nonpositive_window_fails(self, tmp_path, capsys, window):
        code = main(
            ["evaluate", "--scenario", "merge", "--scale", "0.1", "--methods", "act",
             "--windows", window, "--runs", "1", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "windows must be >= 1" in capsys.readouterr().err

    def test_malformed_windows_names_flag(self, tmp_path, capsys):
        code = main(
            ["evaluate", "--scenario", "merge", "--scale", "0.1", "--methods", "act",
             "--windows", "1,,5", "--runs", "1", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "--windows" in err and "'1,,5'" in err


def fail_run_1(monkeypatch, tmp_path, fail):
    """Run 1 of a seed-0 experiment calls `fail`; every other run takes 0.5 s more.

    Returns the file where each run writes its index as it starts.
    """
    started = tmp_path / "started"
    original = netchange.evaluation.score_sequence

    def patched(snapshots, config, *args):
        with open(started, "a", encoding="utf-8") as f:
            f.write(f"{config.seed}\n")  # run seed = 0 XOR run index
        if config.seed == 1:
            fail()
        time.sleep(0.5)
        return original(snapshots, config, *args)

    monkeypatch.setattr(netchange.evaluation, "score_sequence", patched)
    return started


def raise_empty_graph():
    raise EmptyGraph("snapshot at t=3 has no edges")


class TestEvaluateInWorkers:
    """A run that fails in a worker process ends the command in one line."""

    ARGV = ["evaluate", "--scenario", "group-change", "--scale", "0.1", "--T", "24",
            "--methods", "act", "--windows", "1", "--runs", "4", "--phi-samples", "100",
            "--seed", "0"]

    def test_raising_run_fails_the_stage(self, monkeypatch, tmp_path, capsys, usable_cpus):
        usable_cpus(2)
        fail_run_1(monkeypatch, tmp_path, raise_empty_graph)
        out = tmp_path / "ev"
        assert main([*self.ARGV, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "netchange evaluate: stage 'experiment' failed: snapshot at t=3 has no edges\n"
        )
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_raising_run_keeps_its_type_and_cancels_the_rest(
        self, monkeypatch, tmp_path, usable_cpus
    ):
        usable_cpus(2)
        started = fail_run_1(monkeypatch, tmp_path, raise_empty_graph)
        spec = scenario("group-change", scale=0.1, T=24)
        with pytest.raises(EmptyGraph, match="t=3 has no edges"):
            run_experiment(spec, methods=("act",), windows=(1,), runs=8, seed=0, N=100)
        assert multiprocessing.active_children() == []
        # the runs already handed to a worker finish; the others never start
        assert len(started.read_text().split()) < 8

    def test_dead_worker_fails_the_stage(self, monkeypatch, tmp_path, capsys, usable_cpus):
        usable_cpus(2)
        fail_run_1(monkeypatch, tmp_path, lambda: os._exit(3))
        out = tmp_path / "ev"
        assert main([*self.ARGV, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("netchange evaluate: stage 'experiment' failed: ")
        assert "terminated abruptly" in err and err.count("\n") == 1
        assert not out.exists()
        assert multiprocessing.active_children() == []


def embed_slowly_at_t2(snapshot, config):
    """`embed_snapshot`, one second late at t=2; module-level, so a worker can unpickle it."""
    if snapshot.t == 2:
        time.sleep(1.0)
    return embed_snapshot(snapshot, config)


class TestDetectInWorkers:
    """`detect` extracts its snapshots in worker processes, with outputs unchanged."""

    @pytest.fixture(scope="class")
    def sequence(self, tmp_path_factory):
        """The n=90 group-change sequence of the behaviour fingerprint, seed 0."""
        out = tmp_path_factory.mktemp("sim")
        argv = ["simulate", "--scenario", "group-change", "--scale", "0.1", "--T", "30",
                "--seed", "0", "--out", str(out)]
        assert main(argv) == 0
        return out / "sequence.tsv"

    @pytest.mark.parametrize("method", ["cdp", "act"])
    def test_pooled_outputs_equal_in_process_outputs(
        self, tmp_path, usable_cpus, sequence, method
    ):
        outputs = {}
        for cpus in (2, 1):
            usable_cpus(cpus)
            out = tmp_path / f"cpus{cpus}"
            argv = ["detect", "--input", str(sequence), "--method", method, "--out", str(out)]
            assert main(argv) == 0
            assert multiprocessing.active_children() == []
            assert json.loads((out / "manifest.json").read_text())["workers"] == cpus
            outputs[cpus] = [(out / name).read_bytes() for name in ("scores.csv", "dims.csv")]
        assert outputs[2] == outputs[1]

    def test_earliest_failure_names_its_instant(self, monkeypatch, tmp_path, capsys, usable_cpus):
        # t=4 fails first in time, while t=2 sleeps; the map reports t=2, as one process would
        usable_cpus(2)
        monkeypatch.setattr(netchange.pipeline, "embed_snapshot", embed_slowly_at_t2)
        edges = write(tmp_path / "e.tsv", "".join(
            f"{t} 0 1 0\n" if t in (2, 4) else f"{t} 0 1 1\n{t} 1 2 {t}\n" for t in range(1, 7)
        ))
        out = tmp_path / "o"
        argv = ["detect", "--input", str(edges), "--window", "1", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "netchange detect: stage 'score' failed: snapshot t=2 has no edges: "
            "matrix has no positive entries; nothing to embed\n"
        )
        assert not out.exists()
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--scenario", "merge", "--scale", "0.1"],
        ["detect", "--input", "missing.tsv"],
        ["evaluate", "--scenario", "merge", "--scale", "0.1", "--methods", "act", "--runs", "1"],
    ],
)
def test_negative_seed_names_flag(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main([*argv, "--seed", "-1", "--out", str(out)]) == 1
    assert "stage 'setup' failed: --seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_infinite_epsilon_rejected_before_ingest(tmp_path, capsys):
    edges = write(tmp_path / "e.tsv", "".join(f"{t} 0 1 1\n{t} 1 2 1\n" for t in range(1, 4)))
    out = tmp_path / "o"
    argv = ["detect", "--input", str(edges), "--window", "1", "--out", str(out)]
    assert main([*argv, "--epsilon", "inf"]) == 1
    assert capsys.readouterr().err == (
        "netchange detect: stage 'setup' failed: epsilon_rank must be positive and finite\n"
    )
    assert not out.exists()


class TestManifest:
    """The manifest each command writes: keys, order and contents."""

    KEYS = ["command", "version", "config", "inputs", "outputs", "seed", "stages"]
    RESOURCE_KEYS = ["workers", "peak_rss_mb", "worker_peak_rss_mb"]

    def read(self, out, extra=()):
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest) == [*self.KEYS, *extra]
        assert manifest["version"] == __version__
        return manifest

    def simulate(self, out):
        argv = ["simulate", "--scenario", "group-change", "--T", "24", "--scale", "0.1",
                "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        return out / "sequence.tsv"

    def test_simulate(self, tmp_path):
        out = tmp_path / "sim"
        self.simulate(out)
        manifest = self.read(out)
        assert manifest["command"] == "simulate"
        assert list(manifest["config"]) == ["T", "change_type", "out", "scale", "scenario", "seed"]
        assert manifest["config"]["T"] == 24 and manifest["config"]["out"] == str(out)
        assert manifest["inputs"] == []
        assert manifest["outputs"] == [str(out / "ground_truth.json"), str(out / "sequence.tsv")]
        assert manifest["seed"] == 5
        assert [s["stage"] for s in manifest["stages"]] == ["build-scenario", "generate", "write"]

    def test_detect(self, tmp_path, usable_cpus):
        usable_cpus(1)
        edges = self.simulate(tmp_path / "sim")
        out = tmp_path / "det"
        argv = ["detect", "--input", str(edges), "--window", "2", "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        manifest = self.read(out, self.RESOURCE_KEYS)
        assert manifest["command"] == "detect"
        assert list(manifest["config"]) == [
            "epsilon", "input", "method", "out", "seed", "threshold", "window",
        ]
        assert manifest["config"]["method"] == "cdp" and manifest["config"]["window"] == 2
        assert manifest["inputs"] == [str(edges)]
        assert manifest["outputs"] == [str(out / "dims.csv"), str(out / "scores.csv")]
        assert manifest["seed"] == 3
        assert [s["stage"] for s in manifest["stages"]] == ["ingest", "score", "write"]
        assert manifest["workers"] == 1 and manifest["worker_peak_rss_mb"] is None
        assert manifest["peak_rss_mb"] > 0

    def test_detect_records_its_workers(self, tmp_path, usable_cpus):
        usable_cpus(2)
        edges = self.simulate(tmp_path / "sim")
        out = tmp_path / "det"
        assert main(["detect", "--input", str(edges), "--method", "act", "--out", str(out)]) == 0
        manifest = self.read(out, self.RESOURCE_KEYS)
        assert manifest["workers"] == 2
        assert manifest["peak_rss_mb"] > 0 and manifest["worker_peak_rss_mb"] > 0

    def test_evaluate(self, tmp_path):
        out = tmp_path / "ev"
        argv = ["evaluate", "--scenario", "group-change", "--scale", "0.1", "--T", "24",
                "--methods", "act", "--windows", "1", "--runs", "1", "--phi-samples", "100",
                "--seed", "9", "--out", str(out)]
        assert main(argv) == 0
        manifest = self.read(out, self.RESOURCE_KEYS)
        assert manifest["command"] == "evaluate"
        assert list(manifest["config"]) == [
            "T", "change_type", "epsilon", "methods", "out", "phi_samples", "runs",
            "scale", "scenario", "seed", "windows",
        ]
        assert manifest["config"]["methods"] == "act" and manifest["config"]["runs"] == 1
        assert manifest["inputs"] == []
        assert manifest["outputs"] == [
            str(out / name)
            for name in ("performance.csv", "proportions.csv", "sign_tests.csv", "timings.csv")
        ]
        assert manifest["seed"] == 9
        assert [s["stage"] for s in manifest["stages"]] == [
            "build-scenario", "experiment", "write",
        ]
        assert manifest["workers"] == 1 and manifest["worker_peak_rss_mb"] is None
        assert manifest["peak_rss_mb"] > 0

    def test_evaluate_records_its_workers(self, monkeypatch, tmp_path, usable_cpus):
        usable_cpus(2)
        # a thread of the finished pool may outlive it: the count read afterwards
        # is not the one the runs were scored with
        threads, original = [1], netchange.evaluation._map_in_workers

        def mapping(*args):
            results = original(*args)
            threads[0] = 2
            return results

        monkeypatch.setattr(netchange.evaluation, "_map_in_workers", mapping)
        monkeypatch.setattr(netchange.pipeline, "_thread_count", lambda: threads[0])
        out = tmp_path / "ev"
        argv = ["evaluate", "--scenario", "group-change", "--scale", "0.1", "--T", "24",
                "--methods", "act", "--windows", "1", "--runs", "3", "--phi-samples", "100",
                "--out", str(out)]
        assert main(argv) == 0
        manifest = self.read(out, self.RESOURCE_KEYS)
        assert manifest["workers"] == 2
        assert manifest["peak_rss_mb"] > 0 and manifest["worker_peak_rss_mb"] > 0

    def test_evaluate_without_resource_module_records_null_peaks(self, monkeypatch, tmp_path):
        # as on Windows, which has no `resource` module
        monkeypatch.setitem(sys.modules, "resource", None)
        out = tmp_path / "ev"
        argv = ["evaluate", "--scenario", "group-change", "--scale", "0.1", "--T", "24",
                "--methods", "act", "--windows", "1", "--runs", "1", "--phi-samples", "100",
                "--out", str(out)]
        assert main(argv) == 0
        manifest = self.read(out, self.RESOURCE_KEYS)
        assert manifest["peak_rss_mb"] is None and manifest["worker_peak_rss_mb"] is None

    @pytest.mark.parametrize(
        "argv, stage",
        [
            (["simulate", "--scenario", "group-change", "--T", "5", "--scale", "0.1"],
             "build-scenario"),
            (["detect", "--input", "missing.tsv"], "ingest"),
            (["evaluate", "--scenario", "merge", "--scale", "0.1", "--methods", "pca",
              "--runs", "1"], "experiment"),
            (["simulate", "--scenario", "group-change", "--scale", "inf"], "build-scenario"),
        ],
    )
    def test_failure_in_a_stage_writes_no_manifest(self, tmp_path, capsys, argv, stage):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"stage '{stage}'" in err and err.count("\n") == 1
        assert not (out / "manifest.json").exists()
        assert not out.exists()

    def test_failure_keeps_an_existing_out_directory(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        write(out / "notes.txt", "kept\n")
        assert main(["detect", "--input", "missing.tsv", "--out", str(out)]) == 1
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "kept\n"

    def test_failure_removes_only_the_directories_it_made(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        out = tmp_path / "a" / "b" / "c"
        assert main(["detect", "--input", "missing.tsv", "--out", str(out)]) == 1
        assert list((tmp_path / "a").iterdir()) == []
