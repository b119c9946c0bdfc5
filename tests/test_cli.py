"""End-to-end runs of the installed console entry point.

Most tests shell out to a fresh interpreter, so these double as an
install smoke test and as the contract for scripting against the tool.
The frozen `solve` and `simulate` tables, the stdin decoding test and
the parser reuse test call cli.main in process.
"""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from signedspread import cli
from signedspread.engine import label_to_str
from signedspread.families import FamilySpec, gen_random_connected
from signedspread.graph import JSON_MAX_N, graph_to_json
from signedspread.solver import exact_relaxed_confusion
from signedspread.strategies import POLICIES

SOLVE_JSON = Path(__file__).parent / "data" / "solve.json"
SIMULATE_JSON = Path(__file__).parent / "data" / "simulate.json"


# the directory that holds the signedspread these tests import, so that
# the child interpreters run the same package, installed or not
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def run_cli(*args, stdin=None, env=None, timeout=300):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "signedspread", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path, **(env or {})},
    )


def out_json(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("\n")
    return json.loads(proc.stdout)


def test_version_and_help():
    assert run_cli("--version").returncode == 0
    assert "signedspread" in run_cli("--version").stdout
    assert run_cli("--help").returncode == 0
    assert run_cli().returncode == 2  # no subcommand


def test_generate_emits_graph_json(tmp_path):
    payload = out_json(run_cli("generate", "gn", "6"))
    assert payload["schema"] == 1 and payload["n"] == 6
    target = tmp_path / "g.json"
    proc = run_cli("generate", "gn", "6", "-o", str(target))
    assert proc.returncode == 0 and proc.stdout == ""
    assert json.loads(target.read_text()) == payload


def test_generate_validation_exit_codes():
    assert run_cli("generate", "gn").returncode == 2  # missing size
    assert run_cli("generate", "gn", "6", "4").returncode == 2  # extra size
    assert run_cli("generate", "gn", "7").returncode == 1  # odd order
    assert run_cli("generate", "torus", "4").returncode == 2  # unknown kind
    both = run_cli("generate", "cycle", "5", "--signs", "1,1,1,1,1", "--all-negative")
    assert both.returncode == 2
    for args, message in (
        (("gst", "3"), "generate gst expects 2 size argument(s) (s t), got 1"),
        (("path",), "generate path expects 1 size argument(s) (length), got 0"),
        (("tree", "5"), "generate tree requires --seed"),
        (("random", "5"), "generate random requires --seed"),
    ):
        proc = run_cli("generate", *args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"usage error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["generate", "cycle", "5", "--signs", "1,x,1,1,1"],
     "--signs expects comma-separated 1/-1, got '1,x,1,1,1'"),
    (["generate", "cycle", "5", "--signs", "1,1"], "--signs expects 5 entries, got 2"),
    (["generate", "gst", "3", "3", "--layer-signs", "1,2,0"],
     "--layer-signs expects comma-separated 0/1, got '1,2,0'"),
    (["switch", "--at", "0,x"], "expected comma-separated vertex ids, got '0,x'"),
], ids=["signs-text", "signs-count", "layer-signs", "switch-at"])
def test_comma_list_usage_errors(argv, message):
    graph = json.dumps(graph_to_json(FamilySpec.make("cycle", k=5).build()))
    assert main_in_process(argv, graph) == (2, "", f"usage error: {message}\n")


def test_pipe_generate_into_solve():
    graph = run_cli("generate", "gn", "6").stdout
    payload = out_json(run_cli("solve", "--exact", stdin=graph))
    assert payload["optimum"] == 1 and payload["optimal"] is True
    relaxed = out_json(run_cli("solve", "--exact", "--relaxed", stdin=graph))
    assert relaxed["optimum"] <= payload["optimum"]


def test_simulate_reports_confusion():
    graph = run_cli("generate", "cycle", "5", "--all-negative").stdout
    payload = out_json(
        run_cli("simulate", "--place", "0:A", "--place", "2:A", stdin=graph)
    )
    assert payload["confused"] == [3] and payload["complete"] is True
    bad = run_cli("simulate", "--place", "0:B", stdin=graph)
    assert bad.returncode == 2
    neg = run_cli("simulate", "--place", "0:-A", stdin=graph)
    assert neg.returncode == 1  # -A needs --relaxed
    ok = out_json(run_cli("simulate", "--relaxed", "--place", "0:-A", stdin=graph))
    assert ok["mode"] == "rID"


def test_solve_flag_conflicts_and_empty_stdin():
    graph = run_cli("generate", "path", "4").stdout
    assert run_cli("solve", "--exact", stdin="").returncode == 2
    assert run_cli("solve", "--greedy", "tree_frontier", "--relaxed", stdin=graph).returncode == 2
    assert run_cli("solve", "--greedy", "tree_frontier", "--min-steps", stdin=graph).returncode == 2
    assert run_cli("solve", "--exact", "--via-class", stdin=graph).returncode == 2


def test_solve_greedy_and_min_steps():
    graph = run_cli("generate", "path", "6").stdout
    greedy = out_json(run_cli("solve", "--greedy", "tree_frontier", stdin=graph))
    assert greedy["optimal"] is False and greedy["optimum"] == 0
    assert greedy["policy"] == "tree_frontier" and greedy["bound"] == 0.0
    steps = out_json(run_cli("solve", "--exact", "--min-steps", stdin=graph))
    assert steps["optimum"] == 2


def test_solve_capacity_exit():
    graph = run_cli("generate", "path", "9").stdout
    assert run_cli("solve", "--exact", "--max-n", "8", stdin=graph).returncode == 1
    assert run_cli("solve", "--exact", stdin=graph).returncode == 0


def test_json_booleans_in_edges_exit_1():
    for edge in ('{"u": true, "v": 2, "sign": true}', '{"u": 0, "v": 2, "sign": true}'):
        proc = run_cli("balance", stdin='{"n": 3, "edges": [' + edge + "]}")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: edge")


@pytest.mark.parametrize(
    "command", [["simulate"], ["balance"], ["solve", "--greedy", "rescue_priority"]]
)
def test_oversized_graph_json_exit_1(command):
    proc = run_cli(*command, stdin='{"n": 10000000000000, "edges": []}')
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_frustration_scan_ceiling_exit_1():
    # --max-n cannot lift the scan past its 2^(n-1)-entry table ceiling
    graph = run_cli("generate", "path", "40").stdout
    proc = run_cli("frustration", "--max-n", "40", stdin=graph)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_frustration_negative_max_n_exit_1():
    graph = run_cli("generate", "path", "3").stdout
    proc = run_cli("frustration", "--max-n", "-5", stdin=graph)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: size cap must be nonnegative, got -5\n"


def test_backend_env_var_changes_nothing(monkeypatch):
    # no kernel is selectable: the variable is not read, whatever its value
    graph = run_cli("generate", "ktt", "3").stdout
    monkeypatch.delenv("SIGNEDSPREAD_BACKEND", raising=False)
    unset = run_cli("frustration", stdin=graph)
    odd = run_cli("frustration", stdin=graph, env={"SIGNEDSPREAD_BACKEND": "fortran"})
    assert unset.returncode == odd.returncode == 0
    assert odd.stdout == unset.stdout and odd.stderr == ""


@pytest.mark.parametrize(
    "command",
    [
        ["generate", "random", "5", "--seed", "-1"],
        ["generate", "tree", "5", "--seed", "-1"],
        ["explore-conjecture", "conj1", "--seed", "-1", "--random", "2", "--max-n", "6"],
    ],
)
def test_negative_seed_exit_1(command):
    proc = run_cli(*command)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "size",
    [
        ["random", "3000000", "--seed", "1"],  # 3e6 vertices
        ["random", "1500", "--seed", "1"],  # 1,124,250 pairs to sample
        ["tree", "2000000", "--seed", "1"],
        ["gn", "4000000"],
        ["gn", "2002"],  # 1,002,001 edges
        ["ktt", "2000"],
        ["gst", "3", "1000"],
        ["path", "2000000"],
        ["cycle", "2000000"],
        ["cycle", "10000000000", "--all-negative"],  # no sign list built first
    ],
)
def test_oversized_generate_exit_1(size):
    # refused before the edge list is built, so well inside the timeout
    proc = run_cli("generate", *size, timeout=20)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "exceed the graph limit" in proc.stderr


@pytest.mark.parametrize(
    "flags", [["--budget-nodes", "-3"], ["--budget-secs", "-1"], ["--budget-secs", "nan"],
              ["--max-n", "-5"]]
)
def test_malformed_budget_exit_1(flags):
    graph = run_cli("generate", "path", "4").stdout
    proc = run_cli("solve", "--exact", *flags, stdin=graph)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert "capped" not in proc.stderr  # refused as a budget, not as a size


def test_balance_frustration_switch_equivalent(tmp_path):
    graph = run_cli("generate", "gn", "6").stdout
    bal = out_json(run_cli("balance", stdin=graph))
    assert bal["balanced"] is True
    assert sorted(map(sorted, bal["partition"])) == [[0, 1, 2], [3, 4, 5]]
    assert bal["antibalanced"] is False

    ktt = run_cli("generate", "ktt", "3").stdout
    fr = out_json(run_cli("frustration", "--realize", stdin=ktt))
    assert fr["frustration"] == 2
    assert fr["witness"] == [[0, 4], [1, 3]]
    realized = fr["realized"]
    assert sum(1 for e in realized["edges"] if e["sign"] == -1) == 2

    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    first.write_text(ktt)
    switched = run_cli("switch", "--at", "0,1,5", stdin=ktt)
    second.write_text(switched.stdout)
    eq = out_json(run_cli("equivalent", str(first), str(second)))
    assert eq["equivalent"] is True and eq["witness"] is not None
    assert run_cli("equivalent", "-", "-").returncode == 2


def test_verify_exit_codes():
    ok = run_cli("verify", "--claim", "c5_allneg", "--claim", "tree_zero")
    assert ok.returncode == 0
    assert "[PASS] c5_allneg" in ok.stdout and "2 passed" in ok.stdout
    red = run_cli("verify", "--claim", "frustration_family", "--json")
    assert red.returncode == 3
    payload = json.loads(red.stdout)
    assert payload["results"][0]["status"] == "fail"
    assert run_cli("verify", "--claim", "nonsense").returncode == 1


@pytest.mark.parametrize("argv, summary", [
    (["--claim", "c5_allneg", "--claim", "gn_balance"], "2 passed, 0 failed, 0 skipped"),
    (["--claim", "c5_allneg", "--budget-nodes", "0"], "0 passed, 0 failed, 1 skipped"),
])
def test_verify_text_ends_with_its_tally(monkeypatch, capsys, argv, summary):
    got = run_main(monkeypatch, capsys, ["verify", *argv], "")
    assert got["code"] == 0 and got["stderr"] == ""
    assert got["stdout"].endswith(f"\n{summary}\n")


def test_explore_conjecture_finds_violations():
    proc = run_cli(
        "explore-conjecture", "conj1",
        "--max-n", "6", "--random", "5", "--random-max-n", "5", "--json",
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["schema"] == 1 and payload["violations"]
    v = payload["violations"][0]
    assert v["observed"] > v["bound"]
    assert v["graph"]["n"] == v["n"] and "optimum" in v["report"]


@pytest.mark.parametrize("max_n", ["2", "1"])
def test_explore_random_max_n_below_3_exit_1(max_n):
    proc = run_cli("explore-conjecture", "conj1", "--random-max-n", max_n)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--random", "-3"), "error: random instance count must be >= 0, got -3\n"),
        (("--max-n", "2"), "error: family instances need max_n >= 3, got 2\n"),
        (("--max-n", "101"), "error: family instances need max_n <= 100, got 101\n"),
        (("--random-max-n", "101"), "error: random instances need max_n <= 100, got 101\n"),
    ],
)
def test_explore_empty_corpus_exit_1(flags, message):
    proc = run_cli("explore-conjecture", "conj1", *flags)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == message


_PATH3 = '{"n": 3, "edges": [{"u": 0, "v": 1, "sign": 1}, {"u": 1, "v": 2, "sign": -1}]}'


@pytest.mark.parametrize(
    "args, stdin, message",
    [
        *(
            pytest.param([*command, "-o", target], _PATH3, "error: cannot write",
                         id=f"{command[0]}-o-{name}")
            for command in (["generate", "gn", "6"], ["simulate"], ["solve"],
                            ["verify", "--claim", "c5_allneg"])
            for name, target in (("dir", "{tmp}"), ("missing", "{tmp}/missing/x.json"))
        ),
        pytest.param(["balance", "{tmp}/utf16.json"], None, "error: cannot read", id="not-utf8"),
        pytest.param(["balance"], "[" * 100000 + "\n", "error: input is not valid JSON:",
                     id="nested-too-deep"),
        # past Python's int-string limit json.loads raises a plain ValueError
        pytest.param(["solve"], '{"n": 1' + "0" * 5000 + ', "edges": []}',
                     "error: input is not valid JSON:", id="int-too-long"),
    ],
)
def test_bad_input_or_output_file_exit_1(args, stdin, message, tmp_path):
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{}")
    before = sorted(tmp_path.rglob("*"))
    proc = run_cli(*(arg.format(tmp=tmp_path) for arg in args), stdin=stdin)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1
    assert proc.stderr.endswith("\n") and "Traceback" not in proc.stderr
    assert sorted(tmp_path.rglob("*")) == before  # no file created


def test_verify_cap_below_claim_size_exit_1():
    proc = run_cli("verify", "--claim", "gst_confusion", "--max-n", "15")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: exact_confusion capped at n <= 15, got 18\n"


def test_dot_output_marks_signs_and_confusion():
    dot = run_cli("generate", "gn", "6", "--format", "dot").stdout
    assert "graph" in dot and "style=dashed" in dot
    graph = run_cli("generate", "cycle", "5", "--all-negative").stdout
    sim = run_cli(
        "simulate", "--place", "0:A", "--place", "2:A", "--format", "dot",
        stdin=graph,
    )
    assert sim.returncode == 0
    assert "style=filled" in sim.stdout and '"3:C"' in sim.stdout


@pytest.mark.parametrize("kind,size", [("ktt", ["3"]), ("gst", ["4", "3"]),
                                       ("cycle", ["5"]), ("path", ["4"])])
def test_generate_kinds_roundtrip(kind, size):
    payload = out_json(run_cli("generate", kind, *size))
    assert payload["n"] >= int(size[0])
    seeded = out_json(run_cli("generate", "random", "5", "--seed", "3"))
    assert seeded == out_json(run_cli("generate", "random", "5", "--seed", "3"))


# graphs and flag sets of the frozen `solve` table; --via-class runs on
# n <= 12 only
_SOLVE_GRAPHS = (
    FamilySpec.make("gn", n=8),
    FamilySpec.make("ktt_tau", t=4),
    FamilySpec.make("gst", s=4, t=3),
    FamilySpec.make("gst", s=30, t=3),
    FamilySpec.make("cycle", k=5, signs=[-1] * 5),
    FamilySpec.make("path", n=9),
    FamilySpec.make("random_tree", seed=3, n=9),
    FamilySpec.make("random_connected", seed=5, n=9),
)
_SOLVE_FLAGS = (
    [], ["--relaxed"], ["--min-steps"], ["--min-steps", "--relaxed"], ["--via-class"],
    ["--budget-nodes", "3"], *(["--greedy", name] for name in sorted(POLICIES)),
)


def solve_cases():
    """(graph label, solve argv, graph JSON text) of every frozen case."""
    for spec in _SOLVE_GRAPHS:
        g = spec.build()
        text = json.dumps(graph_to_json(g))
        for flags in _SOLVE_FLAGS:
            if flags != ["--via-class"] or g.n <= 12:
                yield spec.label(), ["solve", *flags], text


def mask_millis(out):
    """out with every millis value, a timing, replaced by null."""
    return re.sub(r'"millis": [^,}]+', '"millis": null', out)


def run_main(monkeypatch, capsys, argv, stdin):
    """cli.main(argv) in process on stdin: its exit code, stdout with
    every millis value masked, and stderr."""
    monkeypatch.setattr(sys, "stdin", stdin if isinstance(stdin, io.IOBase)
                        else io.StringIO(stdin))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return {"code": code, "stdout": mask_millis(out), "stderr": err}


def assert_frozen(monkeypatch, capsys, golden_path, cases):
    """Each (graph label, argv, stdin) case gives the golden file's exit
    code, stdout and stderr, and the file lists exactly these cases."""
    golden = json.loads(golden_path.read_text())
    cases = list(cases)
    assert [(c["graph"], c["argv"]) for c in golden] == [(label, argv) for label, argv, _ in cases]
    for case, (label, argv, text) in zip(golden, cases):
        got = run_main(monkeypatch, capsys, argv, text)
        assert got == {k: case[k] for k in ("code", "stdout", "stderr")}, (label, argv)


def test_solve_output_is_frozen(monkeypatch, capsys):
    assert_frozen(monkeypatch, capsys, SOLVE_JSON, solve_cases())


def _places(*specs):
    return [arg for spec in specs for arg in ("--place", spec)]


def simulate_cases():
    """(graph label, simulate argv, graph JSON text) of every frozen case:
    the tiny workload's path, rID gst(4,3) under its exact witness (all
    four labels appear), one confused vertex, an incomplete run, n = 0
    and 1, and the placement errors."""
    path31 = FamilySpec.make("path", n=31)
    gst = FamilySpec.make("gst", s=4, t=3)
    cycle = FamilySpec.make("cycle", k=5, signs=[-1] * 5)
    path9 = FamilySpec.make("path", n=9)
    witness = exact_relaxed_confusion(gst.build()).witness.placements
    rows = [
        (path31, _places(*(f"{v}:A" for v in range(0, 31, 3)))),
        (gst, ["--relaxed", *_places(*(f"{p.vertex}:{label_to_str(p.info)}" for p in witness))]),
        (cycle, _places("0:A", "2:A")),
        (cycle, [*_places("0:A", "2:A"), "--format", "dot"]),
        (path9, _places("4:A")),
        (None, []),
        (FamilySpec.make("path", n=1), _places("0:A")),
        (path9, _places("0:B")),
        (path9, _places("0:-A")),
        (path9, _places("0:A", "0:A")),
        (path9, _places("9:A")),
    ]
    for spec, flags in rows:
        if spec is None:
            yield "empty(n=0)", ["simulate", *flags], '{"schema": 1, "n": 0, "edges": []}'
        else:
            yield spec.label(), ["simulate", *flags], json.dumps(graph_to_json(spec.build()))


def test_simulate_output_is_frozen(monkeypatch, capsys):
    assert_frozen(monkeypatch, capsys, SIMULATE_JSON, simulate_cases())


def test_simulate_output_file_equals_stdout(monkeypatch, capsys, tmp_path):
    # a 102-step trace of path(301): the file holds stdout's bytes, one newline last
    text = json.dumps(graph_to_json(FamilySpec.make("path", n=301).build()))
    argv = ["simulate", *_places(*(f"{v}:A" for v in range(0, 301, 3)))]
    shown = run_main(monkeypatch, capsys, argv, text)
    target = tmp_path / "trace.json"
    written = run_main(monkeypatch, capsys, [*argv, "-o", str(target)], text)
    assert shown["code"] == written["code"] == 0
    assert written["stdout"] == written["stderr"] == shown["stderr"] == ""
    assert target.read_bytes() == shown["stdout"].encode()
    assert shown["stdout"].endswith("}\n") and len(json.loads(shown["stdout"])["snapshots"]) == 102


def test_greedy_on_the_empty_graph():
    proc = run_cli("solve", "--greedy", "max_degree_first",
                   stdin='{"schema": 1, "n": 0, "edges": []}')
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == (
        '{"schema": 1, "optimum": 0, "witness": [], "optimal": false, '
        '"policy": "max_degree_first", "bound": 0.0, "complete": true, "mode": "ID"}\n'
    )


def test_stdin_not_utf8_exit_1(monkeypatch, capsys):
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8", errors="strict")
    got = run_main(monkeypatch, capsys, ["balance"], stdin)
    assert got["code"] == 1 and got["stdout"] == ""
    assert got["stderr"].startswith("error: cannot read stdin: ")
    assert got["stderr"].count("\n") == 1 and got["stderr"].endswith("\n")
    assert "Traceback" not in got["stderr"]


# every graph-reading command the fuzz runs, solve in each mode and policy
_FUZZ_ARGV = [
    *(["solve", *flags] for flags in (
        ["--exact"], ["--exact", "--relaxed"], ["--exact", "--min-steps"],
        ["--exact", "--min-steps", "--relaxed"], ["--via-class"],
        *(["--greedy", name] for name in sorted(POLICIES)))),
    ["simulate", "--place", "0:A"],
    ["balance"],
    ["frustration"],
    ["switch", "--at", "0", "--negate"],
]
# values that are not what the field holds: wrong ints, other JSON types
_BAD_VALUES = st.one_of(st.integers(-3, 12), st.sampled_from(
    [JSON_MAX_N + 1, 2**70, 1.0, 2.5, "1", "", True, False, None, [], [1], {}, {"u": 0}]))


@st.composite
def mutated_graph_text(draw):
    """The JSON text of a small random graph with one mutation applied."""
    doc = graph_to_json(gen_random_connected(draw(st.integers(0, 999)), draw(st.integers(1, 6))))
    edges = doc["edges"]
    kind = draw(st.sampled_from(
        ["n", "edge_field", "edge_key", "edge_entry", "edge_copy", "edges", "top_key",
         "top_level", "truncate"]))
    if kind == "n":
        doc["n"] = draw(_BAD_VALUES)
    elif kind == "edges":
        doc["edges"] = draw(_BAD_VALUES)
    elif kind == "top_key":
        del doc[draw(st.sampled_from(["n", "edges"]))]
    elif kind == "top_level":
        doc = draw(st.sampled_from([[], [doc], 3, "graph", None, True]))
    elif kind == "edge_copy" and edges:  # a duplicate, reversed or as a self-loop
        edge = dict(draw(st.sampled_from(edges)))
        edge["u"], edge["v"] = draw(st.sampled_from(
            [(edge["u"], edge["v"]), (edge["v"], edge["u"]), (edge["u"], edge["u"])]))
        edges.insert(draw(st.integers(0, len(edges))), edge)
    elif edges and kind in ("edge_field", "edge_key", "edge_entry"):
        i = draw(st.integers(0, len(edges) - 1))
        field = draw(st.sampled_from(["u", "v", "sign"]))
        if kind == "edge_field":
            edges[i][field] = draw(st.one_of(_BAD_VALUES, st.sampled_from([0, 2, -2])))
        elif kind == "edge_key":
            del edges[i][field]
        else:
            edges[i] = draw(_BAD_VALUES)
    text = json.dumps(doc)
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def main_in_process(argv, text):
    """cli.main(argv) with text on stdin: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stdin", io.StringIO(text))
        patch.setattr(sys, "stdout", out)
        patch.setattr(sys, "stderr", err)
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(mutated_graph_text())
def test_mutated_graph_json_never_escapes_main(text):
    for argv in _FUZZ_ARGV:
        code, out, err = main_in_process(argv, text)
        assert code in (0, 1, 2), (argv, code)
        if code == 0:
            assert err == "" and out.endswith("\n") and json.loads(out)["schema"] == 1, argv
        elif code == 1:
            assert out == "" and err.startswith("error:") and err.count("\n") == 1, (argv, err)
        else:
            assert out == "" and err.startswith("usage error:"), (argv, err)


_CYCLE5 = json.dumps(graph_to_json(FamilySpec.make("cycle", k=5, signs=[-1] * 5).build()))


# calls made in this order in one process, each after one that sets
# other flags or ends in a usage error, from argparse or from a handler,
# or in argparse's --version exit
@pytest.mark.parametrize("calls", [
    [(["simulate", "--relaxed", *_places("0:A", "2:-A")], _CYCLE5), (["simulate"], _CYCLE5)],
    [(["solve", "--relaxed"], _CYCLE5), (["solve"], _CYCLE5)],
    [(["simulate", "--format", "xml"], _CYCLE5), (["simulate", *_places("0:B")], _CYCLE5),
     (["simulate", *_places("1:A")], _CYCLE5)],
    [(["--version"], ""), (["generate", "gst", "3", "3"], "")],
])
def test_reused_parser_leaks_nothing_between_calls(monkeypatch, calls):
    # help and usage text wrap at the terminal width, so both sides get one
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.build_parser() is cli.build_parser()
    for argv, text in calls:
        fresh = run_cli(*argv, stdin=text, env={"COLUMNS": "80"})
        code, out, err = main_in_process(argv, text)
        assert (code, mask_millis(out), err) == (
            fresh.returncode, mask_millis(fresh.stdout), fresh.stderr), argv
