import argparse
import json
import re

import pytest

from srdual import SearchResult, cli
from srdual.cli import build_parser, main


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def a2_file(tmp_path):
    facets = "CDG AEG CEG ADG ABD BCE ABC AEF CDF DEF"
    return _write(tmp_path, "a2.txt",
                  "vertices: A B C D E F G\n"
                  + "\n".join(facets.split()) + "\n")


def test_check_s2_holds(a2_file, capsys):
    assert main(["check", a2_file, "--letters", "--property", "s2"]) == 0
    assert "holds" in capsys.readouterr().out


def test_check_failure_prints_witness(tmp_path, capsys):
    f = _write(tmp_path, "bad.txt", "ABC\nADE\n")
    rc = main(["check", f, "--letters", "--property", "s2"])
    out = capsys.readouterr().out
    assert rc == 1 and "FAILS" in out and "witness" in out


def test_check_buchsbaum_fields(a2_file):
    for field in ("0", "2"):
        assert main(["check", a2_file, "--letters",
                     "--property", "buchsbaum", "--field", field]) == 0


def test_parse_error_exit_code(tmp_path, capsys):
    f = _write(tmp_path, "empty.txt", "# nothing\n")
    assert main(["check", f, "--property", "pure"]) == 2
    assert "error" in capsys.readouterr().err
    late = _write(tmp_path, "late.txt", "A B C\nB C D\nvertices: A B C D\n")
    assert main(["check", late, "--property", "pure"]) == 2
    assert "line 3: vertices header after facets" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["diameter", "/nonexistent/x.txt"]) == 2


def test_usage_error_exit_code(a2_file):
    with pytest.raises(SystemExit) as ei:
        main(["check", a2_file])  # --property is required
    assert ei.value.code == 2


def test_diameter_and_pair(a2_file, capsys):
    assert main(["diameter", a2_file, "--letters"]) == 0
    assert "diameter: 5" in capsys.readouterr().out
    assert main(["diameter", a2_file, "--letters",
                 "--pair", "ABC", "DEF", "--path"]) == 0
    out = capsys.readouterr().out
    assert "distance: 5" in out and "ABC" in out and "DEF" in out


def test_diameter_pair_path_json(a2_file, capsys):
    assert main(["diameter", a2_file, "--letters",
                 "--pair", "ABC", "DEF", "--path", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["distance"] == 5 and len(doc["path"]) == 6
    assert doc["path"][0] == "ABC" and doc["path"][-1] == "DEF"


def test_bad_input_exit_code(a2_file, tmp_path, capsys):
    named = _write(tmp_path, "named.txt", "x1 x2 x3\nx2 x3 x4\n")
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xff\xfeABC\n")  # not UTF-8
    for argv in (["diameter", a2_file, "--letters", "--pair", "ABC", "XYZ"],
                 ["diameter", named, "--pair", "x1,x9", "x2,x3,x4"],
                 ["diameter", a2_file, "--letters", "--path"],
                 ["check", str(bom), "--property", "pure"],
                 ["construct", "fig_a2", "--k", "7", "-o", "-"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def test_field_without_buchsbaum_exit_code(a2_file, capsys):
    assert main(["check", a2_file, "--letters", "--property", "s2",
                 "--field", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--field" in captured.err


def test_non_utf8_input_names_the_file(tmp_path, capsys):
    good = _write(tmp_path, "good.txt", "ABC\n")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"AB\xffC\n")
    assert main(["glue", good, str(bad), "--letters",
                 "--identify", "A=A"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: %s: not UTF-8" % bad)


def test_diameter_disconnected_exit_code(tmp_path, capsys):
    f = _write(tmp_path, "disc.txt", "ABC\nDEF\n")
    assert main(["diameter", f, "--letters"]) == 1
    assert "unbounded" in capsys.readouterr().out


def test_dual_graph_exports(a2_file, capsys):
    assert main(["dual-graph", a2_file, "--letters", "--format", "dot"]) == 0
    assert "graph dual {" in capsys.readouterr().out
    assert main(["dual-graph", a2_file, "--letters", "--format", "json",
                 "--labels", "complement"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["nodes"]) == 10 and len(doc["edges"]) == 12


def test_dual_graph_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    f = _write(tmp_path, "odd.txt", 'a"b c d\nc d e\\f\n')
    assert main(["dual-graph", f, "--format", "dot"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ['  n0 [label="a\\"b c d"];',
                          '  n1 [label="c d e\\\\f"];']
    quoted = re.compile(r'  n\d+ \[label="(?:[^"\\]|\\.)*"\];')
    assert all(quoted.fullmatch(line) for line in lines[1:3])
    assert main(["dual-graph", f, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["names"] == ['a"b', "c", "d", "e\\f"]


def test_alexander_dual(a2_file, capsys):
    assert main(["alexander-dual", a2_file, "--letters"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10 and all(len(ln) == 4 for ln in lines)


def test_glue_figure7(tmp_path, capsys):
    main(["construct", "dim4", "-o", str(tmp_path / "d4.txt")])
    capsys.readouterr()
    rc = main(["glue", str(tmp_path / "d4.txt"), str(tmp_path / "d4.txt"),
               "--identify", "E=A,F=B,G=C,H=D"])
    out = capsys.readouterr().out
    assert rc == 0
    assert sum(1 for ln in out.splitlines()
               if ln and not ln.startswith("vertices:")) == 35


def test_glue_bad_identify_exit_code(tmp_path, capsys):
    f = _write(tmp_path, "t.txt", "ABC\n")
    assert main(["glue", f, f, "--identify", "Z=Q"]) == 2


def test_construct_stdout_and_check_roundtrip(tmp_path, capsys):
    assert main(["construct", "glued_d3", "--k", "1", "-o", "-"]) == 0
    out = capsys.readouterr().out
    f = _write(tmp_path, "g1.txt", out)
    assert main(["check", f, "--property", "s2"]) == 0


def test_construct_past_the_vertex_cap_writes_nothing(tmp_path, capsys):
    out = tmp_path / "f.txt"
    assert main(["construct", "glued_d4", "--k", "40", "--j", "0",
                 "-o", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_search_mu_json(capsys):
    assert main(["search-mu", "--d", "2", "--n", "5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mu"] == 3 and doc["exhaustive"] is True
    assert doc["resumed_leaves"] == 0


def test_search_mu_reports_its_leaf_rate(monkeypatch, capsys):
    # the leaves this run visited, less those a checkpoint marked done,
    # per second of the run, and 0 for a run that took no measured time;
    # the envelope gains leaves_per_s and keeps every other field
    assert main(["search-mu", "--d", "2", "--n", "6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"d", "n", "mu", "exhaustive", "nodes_explored",
                        "resumed_leaves", "elapsed", "leaves_per_s",
                        "witness"}
    assert doc["leaves_per_s"] == 14513 / doc["elapsed"]
    for elapsed, rate in ((0.5, 800), (0.0, 0)):
        res = SearchResult(d=2, n=5, mu=3, witness=None, exhaustive=True,
                           nodes_explored=427, elapsed=elapsed,
                           resumed_leaves=27)
        monkeypatch.setattr(cli, "enumerate_mu", lambda *a, **kw: res)
        assert main(["search-mu", "--d", "2", "--n", "5", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["leaves_per_s"] == rate
        assert main(["search-mu", "--d", "2", "--n", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[4:] == ["elapsed: %.1f s" % elapsed,
                             "leaf rate: %d leaves/s" % rate]


def test_bounds_output(capsys):
    assert main(["bounds", "--d", "3", "--n", "7"]) == 0
    assert "best: 5" in capsys.readouterr().out


def test_bounds_json(capsys):
    assert main(["bounds", "--d", "3", "--n", "9", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d"] == 3 and doc["n"] == 9 and doc["best"] == 8
    assert doc["best"] == min(doc["bounds"].values())


def test_bounds_json_for_large_codimension(capsys):
    # the thm38 entry is an integer root, not a float that overflows
    assert main(["bounds", "--d", "2", "--n", "2100", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best"] == 2098 == doc["bounds"]["thm35"]
    assert doc["bounds"]["thm38"] > 2 ** 1000


def test_verify_table(capsys):
    assert main(["verify-table"]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok]") == 13 and "all ok" in out


def test_verify_table_json(capsys):
    assert main(["verify-table", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["cells"]) == 13 and doc["ok"] is True
    assert all(cell["ok"] for cell in doc["cells"])


def test_json_only_on_report_commands(a2_file, capsys):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    with_json = {name for name, p in sub.choices.items()
                 if any(a.dest == "json" for a in p._actions)}
    assert with_json == {"check", "diameter", "alexander-dual", "search-mu",
                         "bounds", "verify-table"}
    for argv in (["dual-graph", a2_file, "--letters", "--format", "dot"],
                 ["glue", a2_file, a2_file, "--identify", "A=A"]):
        with pytest.raises(SystemExit) as ei:
            main(argv + ["--json"])
        assert ei.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_json_envelope(a2_file, capsys):
    assert main(["check", a2_file, "--letters", "--property", "s2",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"property": "s2", "holds": True}


def test_check_connected(a2_file, tmp_path, capsys):
    two = _write(tmp_path, "two.txt", "ABC\nDEF\n")
    assert main(["check", two, "--letters", "--property", "connected"]) == 1
    assert capsys.readouterr().out == "connected: FAILS\n"
    assert main(["check", two, "--letters", "--property", "connected",
                 "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"property": "connected", "holds": False}
    assert main(["check", a2_file, "--letters", "--property", "connected"]) == 0
    assert capsys.readouterr().out == "connected: holds\n"


def test_search_mu_bad_input_exit_code(tmp_path, capsys):
    ck = _write(tmp_path, "ck.txt", "mu-search-v2\nd=2 n=5\ndone x 1\n")
    # every task done but no incumbent line
    no_incumbent = _write(tmp_path, "all.txt", "mu-search-v2\nd=2 n=5\n"
                          + "".join("done %d 0\n" % t for t in range(8)))
    for extra in (["--checkpoint", ck], ["--budget-nodes", "-1"],
                  ["--checkpoint", no_incumbent],
                  ["--budget-seconds", "nan"]):
        assert main(["search-mu", "--d", "2", "--n", "5"] + extra) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_search_mu_names_a_checkpoint_it_cannot_write(tmp_path, capsys):
    ck = str(tmp_path / "missing" / "ck.txt")
    assert main(["search-mu", "--d", "3", "--n", "7", "--budget-seconds",
                 "0.5", "--checkpoint", ck]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint %s:" % ck) and ".tmp" not in err


def test_shared_parser_keeps_no_state_between_calls(a2_file, capsys,
                                                    monkeypatch):
    """One process-long sequence of main calls: each gives what the same
    call gives through a freshly built parser, and the parser is built
    once."""
    fresh = build_parser
    built = []

    def counted():
        built.append(1)
        return fresh()

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    calls = [
        (["check", a2_file, "--letters", "--property", "bogus"], 2),
        (["check", a2_file, "--letters", "--property", "s2", "--json"], 0),
        (["check", a2_file, "--letters", "--property", "s2"], 0),
        (["check", a2_file, "--letters", "--property", "s2",
          "--field", "2"], 2),
        (["diameter", a2_file, "--letters", "--pair", "ABC", "DEF",
          "--path"], 0),
        (["diameter", a2_file, "--letters"], 0),
        (["bounds", "--d", "3", "--n", "6", "--json"], 0),
    ]
    for argv, want in calls:
        shared = run(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", fresh)
            assert run(argv) == shared
        assert shared[0] == want
    assert len(built) == 1
