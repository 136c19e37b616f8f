import json
import os
import random
import signal
import stat
import subprocess
import sys
import threading

import pytest

import graphtheta
from graphtheta import survey, treegen
from graphtheta.cli import STATEMENTS, main
from graphtheta.graph6 import parse_graph6, to_graph6
from graphtheta.graphs import GraphError, from_edge_list
from graphtheta.indices import certified_sign, index_report
from graphtheta.treegen import free_tree_sequences

from conftest import assert_no_child_left, cycle_graph, path_graph, sequence_to_graph

_scan_partition = survey._scan_partition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _partition_1_dies(tables, parts, part, tol, near_k):
    """Census worker whose part 1 exits like a killed worker, with a
    status of its own (a worker's own error exits with 1)."""
    if part == 1:
        os._exit(3)
    return _scan_partition(tables, parts, part, tol, near_k)


def _partition_1_killed(tables, parts, part, tol, near_k):
    """Census worker whose part 1 is killed by SIGKILL mid-fold."""
    if part == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return _scan_partition(tables, parts, part, tol, near_k)


class TestIndex:
    def test_cycle(self, capsys, tmp_path):
        inp = tmp_path / "c6.g6"
        inp.write_text(to_graph6(cycle_graph(6)) + "\n")
        code, out, _ = run(capsys, "index", "--in", str(inp))
        assert code == 0
        row = out.splitlines()[-1].split(",")
        assert row[1:3] == ["6", "6"]
        assert row[6] == "4.24264069"  # 6/sqrt(2), 9 significant digits
        assert row[-1] == "zero"

    def test_single_edge_all_zero(self, capsys, tmp_path):
        inp = tmp_path / "p2.g6"
        inp.write_text("A_\n")
        code, out, _ = run(capsys, "index", "--in", str(inp))
        assert code == 0
        assert out.splitlines()[-1].split(",")[5:8] == ["0", "0", "0"]

    def test_malformed_line_exit_2(self, capsys, tmp_path):
        inp = tmp_path / "bad.g6"
        inp.write_text("A_\nnot-a-graph6-line!!\n")
        code, out, err = run(capsys, "index", "--in", str(inp))
        assert code == 2
        assert "line 2" in err
        assert len(out.splitlines()) == 3  # schema + header + 1 good row

    def test_bad_lines_still_replace_the_out_file(self, capsys, tmp_path):
        # index runs to its last line, so --out gets every good row even
        # when a bad line makes it exit 2
        inp, dest = tmp_path / "mixed.g6", tmp_path / "F.csv"
        inp.write_text("Bw\nC?\nBad!\n")
        dest.write_text("old\n")
        code, out, err = run(capsys, "index", "--in", str(inp), "--out", str(dest))
        assert (code, out) == (2, "")
        assert err == ("line 2: graph is not connected\n"
                       "line 3: trailing garbage after graph6 body: 'd!'\n")
        assert dest.read_text() == ("# schema: index-v1\n"
                                    "graph6,n,m,randic,sum_connectivity,abc,abs,gap,sign\n"
                                    "Bw,3,3,1.5,1.5,2.12132034,2.12132034,0,zero\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["F.csv", "mixed.g6"]

    def test_graph6_prefix_only_exit_2(self, capsys, tmp_path):
        inp = tmp_path / "prefix.g6"
        inp.write_text(">>graph6<<\nA_\n")
        code, out, err = run(capsys, "index", "--in", str(inp))
        assert code == 2
        assert err == "line 1: empty graph6 string\n"
        assert len(out.splitlines()) == 3  # schema + header + the A_ row

    def test_non_ascii_line_is_one_bad_line(self, capsys, tmp_path):
        inp = tmp_path / "latin.g6"
        inp.write_bytes(b"A_\nBw\n\xe9\nBw\n")
        code, out, err = run(capsys, "index", "--in", str(inp))
        assert code == 2
        assert err == "line 3: invalid header byte 233\n"
        assert [r.split(",")[0] for r in out.splitlines()[2:]] == ["A_", "Bw", "Bw"]

    def test_in_band_sign_is_rechecked(self, capsys, tmp_path):
        # |gap| equals tol in double precision but exceeds it at 50 digits,
        # which is how scan 16 at this tol counts the tree
        inp = tmp_path / "t16.g6"
        inp.write_text("OhC_I?@_??_@?@?C?AC??\n")
        code, out, _ = run(capsys, "index", "--in", str(inp), "--tol", "9.699402605711782e-05")
        assert code == 0
        assert out.splitlines()[-1].split(",")[-1] == "positive"

    def test_disconnected_line_exit_2(self, capsys, tmp_path):
        inp = tmp_path / "split.g6"
        inp.write_text("C?\nA_\n")  # 4 isolated vertices, then K_2
        code, out, err = run(capsys, "index", "--in", str(inp))
        assert code == 2
        assert err == "line 1: graph is not connected\n"
        assert out.splitlines()[2:] == ["A_,2,1,1,0.707106781,0,0,0,zero"]

    def test_json_format(self, capsys, tmp_path):
        inp = tmp_path / "p5.g6"
        inp.write_text(to_graph6(path_graph(5)) + "\n")
        code, out, _ = run(capsys, "index", "--in", str(inp), "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["sign"] == "positive"

    def test_rows_and_errors_match_the_graph_path(self, capsys, tmp_path):
        # every row and message as parse_graph6 and index_report give them
        rng = random.Random(3)
        lines = ["A_", "C?", "Bw", "A__", "B~", ">>graph6<<", "\xe9", "@", "~", "?"]
        for n in range(1, 25):
            for p in (0.05, 0.2, 0.6):
                edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
                lines.append(to_graph6(from_edge_list(n, edges)))
        lines += [to_graph6(sequence_to_graph(s)) for s in free_tree_sequences(9)]
        inp = tmp_path / "mixed.g6"
        inp.write_bytes("".join(line + "\n" for line in lines).encode("latin-1"))
        rows, errors = [], []
        for lineno, line in enumerate(lines, 1):
            try:
                g = parse_graph6(line)
                r = index_report(g)
            except GraphError as exc:
                errors.append(f"line {lineno}: {exc}\n")
                continue
            sign = certified_sign(r.gap, g.edge_degree_pairs()).value
            rows.append(",".join([line, str(g.n), str(g.m), *(f"{x:.9g}" for x in r), sign]))
        assert 10 < len(errors) < len(lines) - 47
        code, out, err = run(capsys, "index", "--in", str(inp))
        assert code == 2
        assert out.splitlines()[2:] == rows and err == "".join(errors)


class TestScan:
    def test_range(self, capsys):
        code, out, _ = run(capsys, "scan", "3..5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# schema: scan-v1")
        assert len(lines) == 5

    def test_single_order_with_witnesses(self, capsys, tmp_path):
        wfile = tmp_path / "neg.g6"
        code, out, _ = run(capsys, "scan", "11", "--witness-out", str(wfile))
        assert code == 0
        assert ",235,234,1,0," in out.splitlines()[-1]
        witness_lines = [
            l for l in wfile.read_text().splitlines() if not l.startswith("#")
        ]
        assert len(witness_lines) == 1

    def test_witness_out_dash_writes_to_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "scan", "11", "--witness-out", "-")
        assert code == 0
        assert out.endswith(",JkE?K?@_C??\n# n=11 negative=1 listed=1\nJkE?K?@_??_\n")
        assert os.listdir(tmp_path) == []

    def test_csv_without_witness_out_starts_no_stream(self, capsys, tmp_path, monkeypatch):
        code, listed, _ = run(capsys, "scan", "12", "--witness-out", str(tmp_path / "neg.g6"))
        assert code == 0

        def no_stream(n, skip=None):
            raise AssertionError("the tree stream was started")

        monkeypatch.setattr(survey.treegen, "free_tree_sequences", no_stream)
        code, out, _ = run(capsys, "scan", "12")
        assert code == 0 and out == listed

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "scan", "2..5")
        assert code == 2

    def test_json(self, capsys):
        code, out, _ = run(capsys, "scan", "6..6", "--format", "json")
        records = json.loads(out)
        assert records[0]["total"] == 6 and records[0]["negative"] == 0

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        code, out, err = run(capsys, "scan", "9", "--workers", workers)
        assert code == 2 and "workers must be >= 1" in err and out == ""

    def test_negative_witness_cap_exit_2(self, capsys):
        code, out, err = run(capsys, "scan", "12", "--witness-cap", "-1")
        assert code == 2 and "witness cap must be >= 0" in err and out == ""

    def test_out_and_witness_out_same_path(self, capsys, tmp_path, monkeypatch):
        # standard output is not a file: "-" may go with any --out
        code, out, _ = run(capsys, "scan", "11", "--out", "-", "--witness-out", "-")
        assert code == 0 and out.endswith("# n=11 negative=1 listed=1\nJkE?K?@_??_\n")

        # one file would keep only one of the two outputs
        def no_census(*args, **kwargs):
            raise AssertionError("census ran for outputs that share a file")

        monkeypatch.setattr(survey, "classify_trees", no_census)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        for out_path, witness_path in (("both.txt", "both.txt"),
                                       ("both.txt", "sub/../both.txt"),
                                       (str(tmp_path / "both.txt"), "./both.txt")):
            code, out, err = run(capsys, "scan", "11", "--out", out_path,
                                 "--witness-out", witness_path)
            assert code == 2 and out == ""
            assert err == f"error: --out and --witness-out name one file: {witness_path}\n"
            assert os.listdir(tmp_path) == ["sub"]

    @pytest.mark.parametrize("flag", ["--out", "--witness-out"])
    def test_unwritable_output_exit_2_before_the_census(self, capsys, tmp_path, monkeypatch,
                                                        flag):
        def no_census(*args, **kwargs):
            raise AssertionError("census ran before the output was opened")

        monkeypatch.setattr(survey, "classify_trees", no_census)
        path = tmp_path / "missing" / "w"
        code, out, err = run(capsys, "scan", "3..5", flag, str(path))
        assert code == 2 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"

    def test_range_above_graph6_bound_exit_2_before_the_census(self, capsys, tmp_path,
                                                               monkeypatch):
        def no_census(*args, **kwargs):
            raise AssertionError("census ran for a range graph6 cannot name")

        monkeypatch.setattr(survey, "classify_trees", no_census)
        out_path = tmp_path / "scan.csv"
        out_path.write_text("previous\n")
        code, out, err = run(capsys, "scan", "61..63", "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == "error: order 63 exceeds short-form graph6 bound 62\n"
        assert out_path.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["scan.csv"]

    def test_crashed_worker_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(survey, "_scan_partition", _partition_1_dies)
        monkeypatch.setattr(survey.os, "cpu_count", lambda: 2)  # so there is a part 1
        code, out, err = run(capsys, "scan", "9", "--workers", "2")
        assert code == 2 and out == ""
        assert err == "error: a census worker died: part 1 exited with status 3\n"
        assert_no_child_left()

    def test_killed_worker_exit_2_and_files_kept(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(survey, "_scan_partition", _partition_1_killed)
        monkeypatch.setattr(survey.os, "cpu_count", lambda: 2)  # so there is a part 1
        out_path, wit_path = tmp_path / "scan.csv", tmp_path / "w.txt"
        out_path.write_text("previous\n")
        wit_path.write_text("witnesses\n")
        code, out, err = run(capsys, "scan", "12", "--workers", "2", "--out", str(out_path),
                             "--witness-out", str(wit_path))
        assert code == 2 and out == ""
        assert err == "error: a census worker died: part 1 was killed by SIGKILL\n"
        assert out_path.read_text() == "previous\n"
        assert wit_path.read_text() == "witnesses\n"
        assert sorted(os.listdir(tmp_path)) == ["scan.csv", "w.txt"]
        assert_no_child_left()

    def test_cli_import_loads_no_multiprocessing(self):
        # a census with --workers > 1 forks its workers; no module loads a pool or pickle
        src = os.path.dirname(os.path.dirname(graphtheta.__file__))
        code = (
            "import sys, graphtheta.cli, graphtheta.survey\n"
            "assert 'pickle' not in sys.modules\n"
            "graphtheta.survey.os.cpu_count = lambda: 2\n"
            "assert graphtheta.cli.main(['scan', '12', '--workers', '2']) == 0\n"
            "mods = {'multiprocessing', 'concurrent.futures'} & set(sys.modules)\n"
            "sys.exit(f'loaded {sorted(mods)}' if mods else 0)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].startswith(b"12,551,")


def test_index_and_enum_trees_load_no_census_universe_or_json(tmp_path):
    src = os.path.dirname(os.path.dirname(graphtheta.__file__))
    inp = tmp_path / "in.g6"
    inp.write_text("A_\nBw\n")
    code = (
        "import sys, graphtheta.cli as cli\n"
        f"assert cli.main(['index', '--in', {str(inp)!r}]) == 0\n"
        "assert cli.main(['enum', 'trees', '6']) == 0\n"
        "mods = {'json', 'graphtheta.survey', 'graphtheta.treeclasses', 'graphtheta.smallgraphs'}\n"
        "sys.exit(f'loaded {sorted(mods & set(sys.modules))}' if mods & set(sys.modules) else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2 + 2 + 6  # two index rows, six trees


@pytest.mark.parametrize("argv, message", [
    ("scan 26", "order 26 exceeds tree-order bound 25"),
    ("scan 3..26", "order 26 exceeds tree-order bound 25"),
    ("near-ties 26 --top-k 1", "order 26 exceeds tree-order bound 25"),
    ("enum trees 26", "order 26 exceeds tree-order bound 25"),
    ("enum trees 63", "order 63 exceeds short-form graph6 bound 62"),
])
def test_order_above_tree_bound_exit_2_at_once(capsys, tmp_path, monkeypatch, argv, message):
    def no_trees(*args, **kwargs):
        raise AssertionError("trees enumerated past the tree-order bound")

    monkeypatch.setattr(survey, "_census", no_trees)
    monkeypatch.setattr(treegen, "free_tree_sequences", no_trees)
    out_path = tmp_path / "out.txt"
    out_path.write_text("previous\n")
    code, out, err = run(capsys, *argv.split(), "--out", str(out_path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert out_path.read_text() == "previous\n"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("text", ["3..", "x", "3..5..7", "..5", "3..2", "2..5", "2"])
def test_invalid_scan_range_exit_2_with_one_message(capsys, monkeypatch, text):
    monkeypatch.setattr(survey, "_census", None)  # checked before any census
    code, out, err = run(capsys, "scan", text)
    assert (code, out, err) == (2, "", f"error: invalid scan range {text}\n")


def test_statement_choices_are_the_surveys():
    assert STATEMENTS == tuple(sorted({*survey.STATEMENTS, "p2"}))


@pytest.mark.parametrize("argv", ["scan 63", "near-ties 63 --top-k 1"])
def test_order_above_graph6_bound_exit_2_before_the_census(capsys, monkeypatch, argv):
    def no_census(*args, **kwargs):
        raise AssertionError("census ran for an order graph6 cannot name")

    monkeypatch.setattr(survey, "_census", no_census)
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err == "error: order 63 exceeds short-form graph6 bound 62\n"


class TestNearTies:
    def test_top_k(self, capsys):
        code, out, _ = run(capsys, "near-ties", "8", "--top-k", "3")
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_more_than_the_bound_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(survey, "MAX_NEAR_TIES", 10)
        out_path = tmp_path / "ties.csv"
        out_path.write_text("previous\n")
        code, out, err = run(capsys, "near-ties", "8", "--top-k", "11", "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == "error: top_k 11 would list more than 10 trees\n"
        assert out_path.read_text() == "previous\n"


class TestVerify:
    def test_p1_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "p1", "--max-order", "5")
        assert code == 0
        assert json.loads(out)["conclusion_failures"] == []

    def test_p1_reads_tol(self, capsys):
        # at tol 100 every gap is "zero", so each non-cycle is a counterexample
        code, out, err = run(capsys, "verify", "p1", "--max-order", "4", "--tol", "100")
        assert code == 1
        assert json.loads(out)["conclusion_failures"] == ["Cv", "C~"]
        assert "counterexample: Cv" in err and "counterexample: C~" in err

    def test_p1_zero_is_certified(self, capsys, tmp_path):
        # K4's double gap lies within this tol, but at 50 digits it is
        # -0.89897948556635624..., below -tol: negative, not zero
        inp = tmp_path / "k4.g6"
        inp.write_text("C~\n")
        code, out, err = run(capsys, "verify", "p1", "--in", str(inp), "--order", "4",
                             "--tol", "0.8989794855663558")
        assert code == 0 and err == ""
        assert json.loads(out)["conclusion_failures"] == []

    def test_p2_reads_tol(self, capsys):
        # at tol 1e-300, rounding differences between the two gaps count
        code, out, _ = run(capsys, "verify", "p2", "--trials", "300", "--seed", "9",
                           "--tol", "1e-300")
        assert code == 1 and json.loads(out)["conclusion_failures"]

    def test_p2_reproducible(self, capsys):
        code1, out1, _ = run(capsys, "verify", "p2", "--trials", "300", "--seed", "9")
        code2, out2, _ = run(capsys, "verify", "p2", "--trials", "300", "--seed", "9")
        assert code1 == code2 == 0
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("elapsed"), r2.pop("elapsed")
        assert r1 == r2

    def test_t1_path_universe_vacuous(self, capsys, tmp_path):
        inp = tmp_path / "paths.g6"
        inp.write_text(to_graph6(path_graph(7)) + "\n")
        code, out, _ = run(
            capsys, "verify", "t1", "--in", str(inp), "--order", "7"
        )
        assert code == 0
        report = json.loads(out)
        assert report["checked"] == 1 and report["hypothesis_holds"] == 0

    def test_t2_t3_ok(self, capsys):
        for stmt in ("t2", "t3"):
            code, out, _ = run(capsys, "verify", stmt, "--max-order", "5")
            assert code == 0

    def test_internal_order_bound(self, capsys):
        code, _, err = run(capsys, "verify", "t1", "--max-order", "9")
        assert code == 2 and "order" in err

    def test_max_order_below_statement_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "t1", "--max-order", "4")
        assert code == 2 and "nothing to check" in err and out == ""

    @pytest.mark.parametrize("argv, unread", [
        ("p2 --in k2.g6 --order 2 --max-order 99", "--in, --order, --max-order"),
        ("p2 --max-order 5", "--max-order"),
        ("t1 --max-order 5 --trials 7 --seed 3", "--trials, --seed"),
        ("p1 --max-order 4 --order 5", "--order"),
        ("p1 --in k2.g6 --order 2 --max-order 9", "--max-order"),
        ("t3 --in k2.g6 --order 2 --seed 1", "--seed"),
    ])
    def test_unread_flag_exit_2(self, capsys, tmp_path, monkeypatch, argv, unread):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "k2.g6").write_text("A_\n")
        code, out, err = run(capsys, "verify", *argv.split())
        assert code == 2 and out == ""
        assert err.endswith(f"does not read {unread}\n")

    def test_non_ascii_external_line_exit_2(self, capsys, tmp_path):
        inp = tmp_path / "latin.g6"
        inp.write_bytes(b"Bw\nB\xe9\n")
        code, out, err = run(capsys, "verify", "t1", "--in", str(inp), "--order", "3")
        assert code == 2 and out == ""
        assert err == f"error: {inp}:2: invalid body byte at index 0\n"

    def test_empty_external_universe_exit_2(self, capsys, tmp_path):
        inp = tmp_path / "empty.g6"
        inp.write_text("# no graphs\n")
        code, out, err = run(capsys, "verify", "t2", "--in", str(inp), "--order", "6")
        assert code == 2 and "nothing to check" in err and out == ""


class TestEnum:
    def test_trees(self, capsys):
        code, out, _ = run(capsys, "enum", "trees", "4")
        assert code == 0 and len(out.splitlines()) == 2

    def test_connected(self, capsys):
        code, out, _ = run(capsys, "enum", "connected", "4")
        assert code == 0 and len(out.splitlines()) == 6

    def test_connected_order_bound(self, capsys):
        code, _, err = run(capsys, "enum", "connected", "8")
        assert code == 2

    def test_failed_command_leaves_out_file_unchanged(self, capsys, tmp_path):
        out_path = tmp_path / "t70.g6"
        out_path.write_text("previous\n")
        code, _, err = run(capsys, "enum", "trees", "70", "--out", str(out_path))
        assert code == 2 and "graph6" in err
        assert out_path.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["t70.g6"]

    def test_out_keeps_existing_file_mode(self, capsys, tmp_path):
        out_path = tmp_path / "t5.g6"
        out_path.write_text("previous\n")
        out_path.chmod(0o640)
        code, _, _ = run(capsys, "enum", "trees", "5", "--out", str(out_path))
        assert code == 0 and len(out_path.read_text().splitlines()) == 3
        assert stat.S_IMODE(out_path.stat().st_mode) == 0o640

    def test_out_writes_through_symlink(self, capsys, tmp_path):
        target = tmp_path / "target.g6"
        target.write_text("previous\n")
        link = tmp_path / "link.g6"
        link.symlink_to(target)
        code, _, _ = run(capsys, "enum", "trees", "5", "--out", str(link))
        assert code == 0 and link.is_symlink()
        assert len(target.read_text().splitlines()) == 3
        assert sorted(os.listdir(tmp_path)) == ["link.g6", "target.g6"]

    def test_out_writes_into_fifo(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()))
        reader.start()
        code, _, _ = run(capsys, "enum", "trees", "5", "--out", str(fifo))
        reader.join(timeout=30)
        assert code == 0 and len(received[0].splitlines()) == 3
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]

    def test_tree_stream_matches_library(self, capsys, tmp_path):
        out_path = tmp_path / "t7.g6"
        code, _, _ = run(capsys, "enum", "trees", "7", "--out", str(out_path))
        assert code == 0
        expected = [to_graph6(sequence_to_graph(s)) for s in free_tree_sequences(7)]
        assert out_path.read_text().splitlines() == expected


@pytest.mark.parametrize("argv", [
    ("near-ties", "8", "--tol", "-1"),
    ("enum", "trees", "4", "--tol", "1e-9"),
    ("enum", "trees", "4", "--format", "json"),
    ("verify", "p1", "--format", "csv"),
])
def test_flags_a_subcommand_never_reads_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
@pytest.mark.parametrize("argv", [
    ("index",),
    ("scan", "11"),
    ("verify", "t1", "--max-order", "5"),
])
def test_tol_not_finite_and_positive_is_rejected(capsys, argv, tol):
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--tol={tol}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--tol: must be finite and > 0" in captured.err
