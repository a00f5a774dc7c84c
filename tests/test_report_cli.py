import argparse
import ast
import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import priodpa
from priodpa import Solution, cli, lwdpa, trees
from priodpa.graphs import InvalidParameterError
from priodpa.report import RatioReport, render, render_csv, render_json_lines

from helpers import CATERPILLAR, DATA, DEMO


def _row(**kw):
    base = dict(
        graph="path:15",
        algorithm="greedy-lwdpa",
        instance_hash="efd13ab4775c",
        gain_alg=5,
        gain_opt=12,
    )
    base.update(kw)
    return RatioReport(**base)


def test_ratio_derivation():
    assert _row().ratio == Fraction(12, 5)
    assert _row().ratio_text() == "2.4"
    assert _row(gain_alg=0).ratio == math.inf
    assert _row(gain_alg=0).ratio_text() == "inf"
    assert _row(gain_opt=None).ratio is None
    assert _row(gain_opt=None).ratio_text() == ""


def test_json_roundtrip():
    row = _row(advice_bits=7, ms=3)
    back = RatioReport.from_json(row.to_json())
    assert back == row
    obj = _row(gain_alg=0).to_json()
    assert obj["infinite"] and obj["ratio"] is None and obj["ratio_exact"] is None


def test_csv_rendering():
    text = render_csv([_row(), _row(gain_opt=None)])
    assert text == (
        "graph,algorithm,instance_hash,gain_alg,gain_opt,ratio,advice_bits,ms\n"
        "path:15,greedy-lwdpa,efd13ab4775c,5,12,2.4,0,0\n"
        "path:15,greedy-lwdpa,efd13ab4775c,5,,,0,0\n"
    )


def test_json_lines_have_sorted_keys():
    line = render_json_lines([_row()]).strip()
    keys = list(json.loads(line))
    assert keys == sorted(keys)
    assert json.loads(line)["ratio_exact"] == "12/5"


def test_unknown_format_rejected():
    with pytest.raises(InvalidParameterError):
        render([_row()], "yaml")


# ---------------------------------------------------------------------------
# the command line, run in-process
# ---------------------------------------------------------------------------


def _main(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_run_csv_rows(capsys):
    rc, out, _ = _main(capsys, "run", "--instance", DEMO, "--alg", "greedy-lwdpa",
                       "--seed", "0")
    assert rc == 0
    assert out.splitlines() == [
        "graph,algorithm,instance_hash,gain_alg,gain_opt,ratio,advice_bits,ms",
        "path:15,greedy-lwdpa,efd13ab4775c,5,12,2.4,0,0",
    ]
    rc, out, _ = _main(capsys, "run", "--instance", DEMO, "--alg", "greedy-path",
                       "--seed", "0")
    assert rc == 0
    assert out.splitlines()[1] == "path:15,greedy-path,efd13ab4775c,3,3,1.0,0,0"


def test_run_json_row(capsys):
    rc, out, _ = _main(capsys, "run", "--instance", DEMO, "--alg", "greedy-lwdpa",
                       "--format", "json", "--seed", "0")
    assert rc == 0
    obj = json.loads(out)
    assert obj["ratio_exact"] == "12/5"
    assert obj["gain_alg"] == 5 and obj["gain_opt"] == 12
    assert list(obj) == sorted(obj)


def test_run_on_no_requests_has_ratio_one(capsys, tmp_path):
    inst = tmp_path / "empty.json"
    inst.write_text(json.dumps({"graph": {"kind": "path", "length": 4}, "requests": []}))
    rc, out, _ = _main(capsys, "run", "--instance", str(inst), "--alg", "greedy-lwdpa",
                       "--seed", "0")
    assert rc == 0
    assert out.splitlines()[1] == "path:4,greedy-lwdpa,8416be156ad6,0,0,1.0,0,0"
    rc, out, _ = _main(capsys, "run", "--instance", str(inst), "--alg", "greedy-lwdpa",
                       "--format", "json", "--seed", "0")
    obj = json.loads(out)
    assert rc == 0 and obj["ratio"] == 1.0
    assert obj["infinite"] is False and obj["ratio_exact"] == "1/1"


def test_advice_encode_then_decode(capsys, tmp_path):
    rc, out, _ = _main(capsys, "advice", "--problem", "lwdpa", "--encode",
                       "--instance", DEMO)
    assert rc == 0
    assert json.loads(out) == {"bits": 12, "hex": "488"}

    tape = tmp_path / "tape.json"
    tape.write_text(out)
    rc, out, _ = _main(capsys, "advice", "--problem", "lwdpa", "--decode",
                       "--instance", DEMO, "--tape", str(tape), "--seed", "0")
    assert rc == 0
    assert out.splitlines()[1] == "path:15,decode-lwdpa,efd13ab4775c,12,12,1.0,12,0"


def test_past_the_oracle_cap_the_optimum_cells_are_empty(capsys, tmp_path):
    # 24 chained unit requests exceed the oracle's cap of 22
    inst = tmp_path / "chain.json"
    inst.write_text(json.dumps({"graph": {"kind": "path", "length": 30},
                                "requests": [[i, i + 1] for i in range(24)]}))
    tape = tmp_path / "tape.json"
    tape.write_text(json.dumps({"bits": 24, "hex": "000000"}))
    commands = {
        "path:30,greedy-lwdpa,5773e3be3eeb,24,,,0,0": [
            "run", "--instance", str(inst), "--alg", "greedy-lwdpa", "--seed", "1"],
        "path:30,decode-lwdpa,5773e3be3eeb,24,,,24,0": [
            "advice", "--problem", "lwdpa", "--decode", "--instance", str(inst),
            "--tape", str(tape), "--seed", "1"],
    }
    for row, argv in commands.items():
        rc, out, err = _main(capsys, *argv)
        assert (rc, err) == (0, "")
        assert out.splitlines()[1:] == [row]
        rc, out, err = _main(capsys, *argv, "--format", "json")
        assert (rc, err) == (0, "")
        obj = json.loads(out)
        assert (obj["gain_alg"], obj["advice_bits"]) == (24, int(row.split(",")[-2]))
        assert obj["gain_opt"] is None and obj["ratio"] is None
        assert obj["ratio_exact"] is None and obj["infinite"] is False


def test_adversary_families(capsys):
    rc, out, _ = _main(capsys, "adversary", "--family", "pab", "--alg", "greedy",
                       "--a", "3", "--b", "8", "--seed", "1")
    assert rc == 0
    assert out.splitlines()[1].startswith("path:178,greedy,")
    assert ",24,64," in out

    rc, out, _ = _main(capsys, "adversary", "--family", "tree", "--alg", "greedy",
                       "--tree", CATERPILLAR, "--seed", "1")
    assert rc == 0
    assert out.splitlines()[1] == "tree:14,greedy,27ba3107fc57,1,2,2.0,0,0"

    rc, out, _ = _main(capsys, "adversary", "--family", "grid", "--alg",
                       "grid-first", "--seed", "1")
    assert rc == 0
    assert out.splitlines()[1].startswith("grid:3x3,grid-first,")
    assert ",1,3,3.0,0,0" in out

    rc, out, _ = _main(capsys, "adversary", "--family", "grid", "--alg",
                       "grid-reject-first", "--seed", "1")
    assert rc == 0
    assert ",0,1,inf,0,0" in out

    rc, out, _ = _main(capsys, "adversary", "--family", "grid", "--alg",
                       "grid-via-center", "--format", "json", "--seed", "1")
    assert rc == 0
    assert json.loads(out)["ratio_exact"] == "3/1"


def test_reduce_prints_per_block_accounting(capsys):
    rc, out, _ = _main(capsys, "reduce", "--problem", "lwdpa", "--alg", "greedy",
                       "--n", "4", "--seed", "3")
    assert rc == 0
    assert out.splitlines() == [
        "block,m,guess,hidden,correct,alg_gain,opt_gain",
        "1,0-2,1,0,0,2,3",
        "2,3-5,1,0,0,2,3",
        "3,6-8,1,1,1,3,3",
        "4,9-11,1,1,1,3,3",
        "total,,,,2,10,12",
        "# ratio 1.2 wrong 2 of 4",
    ]


def test_pack_s4_output(capsys):
    rc, out, _ = _main(capsys, "pack-s4", "--tree", CATERPILLAR)
    assert rc == 0
    assert out.splitlines() == [
        "sigma 2",
        "copies 2",
        "star 1: 0 2 6 7",
        "star 3: 2 4 10 11",
    ]


def test_reduce_exits_1_when_a_block_beats_its_cap(capsys, monkeypatch):
    real = cli.run_guess

    def beaten(alg, bits):
        # block 1's guess is wrong, so it may gain at most opt_gain - 1 = 2
        outcome = real(alg, bits)
        first = replace(outcome.records[0], alg_gain=3)
        return replace(outcome, records=(first, *outcome.records[1:]))

    monkeypatch.setattr(cli, "run_guess", beaten)
    rc, out, err = _main(capsys, "reduce", "--problem", "lwdpa", "--alg", "greedy",
                         "--n", "4", "--seed", "3")
    assert (rc, err) == (1, "")
    lines = out.splitlines()
    assert lines[:2] == ["block,m,guess,hidden,correct,alg_gain,opt_gain", "1,0-2,1,0,0,3,3"]
    assert len(lines) == 7 and lines[-1] == "# ratio 1.2 wrong 2 of 4"


def test_verify_instance(capsys):
    rc, out, _ = _main(capsys, "verify", "--instance", DEMO, "--mode", "length")
    assert rc == 0
    assert out.splitlines() == [
        "optimum 12",
        "accept 1-5",
        "accept 5-8",
        "accept 8-13",
    ]


def test_verify_grid_table(capsys):
    rc, out, _ = _main(capsys, "verify", "--grid-3x3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "request,path,case,alg_total,followups_only,opt,ratio,ok"
    assert lines[1] == "(0, 0)->(1, 2),00-01-02-12,corner,1,2,3,3,1"
    assert len(lines) == 82  # header + 80 cases + footer
    assert lines[-1] == (
        "# pairs 8, corner cases 16, center cases 64, passed True"
    )


def test_verify_grid_exits_1_when_the_case_analysis_fails(capsys, monkeypatch):
    real = cli.exhaustive_verify_3x3
    monkeypatch.setattr(cli, "exhaustive_verify_3x3", lambda: replace(real(), passed=False))
    rc, out, err = _main(capsys, "verify", "--grid-3x3")
    assert (rc, err) == (1, "")
    lines = out.splitlines()
    assert lines[0] == "request,path,case,alg_total,followups_only,opt,ratio,ok"
    assert len(lines) == 82 and lines[-1].endswith(", passed False")


def test_out_flag_writes_the_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "row.csv"
    rc, out, _ = _main(capsys, "run", "--instance", DEMO, "--alg", "greedy-lwdpa",
                       "--seed", "0", "--out", str(target))
    assert rc == 0 and out == ""
    assert target.read_text().splitlines()[1].endswith(",5,12,2.4,0,0")


def test_usage_and_input_errors_exit_2(capsys, tmp_path):
    rc, _, err = _main(capsys, "run", "--instance", str(tmp_path / "nope.json"),
                       "--alg", "greedy-path")
    assert rc == 2 and "error:" in err

    rc, _, err = _main(capsys, "run", "--instance", DEMO, "--alg", "bogus")
    assert rc == 2 and "unknown algorithm 'bogus'" in err

    rc, _, err = _main(capsys, "adversary", "--family", "grid", "--alg", "X")
    assert rc == 2
    assert err.strip() == (
        "error: unknown grid algorithm 'X'; known: grid-first, "
        "grid-via-center, grid-avoid-center, grid-reject-first"
    )

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = _main(capsys, "run", "--instance", str(bad), "--alg",
                       "greedy-path")
    assert rc == 2 and "malformed JSON" in err

    # hosts built from parameters are capped like hosts read from files,
    # before anything is allocated
    too_large = [
        ["adversary", "--family", "pab", "--alg", "greedy", "--a", "1000", "--b", "1000"],
        ["adversary", "--family", "pab", "--alg", "greedy", "--a", "3", "--b", "105"],
        ["reduce", "--problem", "lwdpa", "--alg", "greedy", "--n", str(10**9)],
        ["reduce", "--problem", "lwdpa", "--alg", "greedy", "--bits", "01" * 5500],
        ["reduce", "--problem", "cat", "--alg", "greedy", "--n", "5462"],
        ["reduce", "--problem", "cat", "--alg", "greedy", "--n", str(10**9),
         "--tree", CATERPILLAR],
    ]
    for argv in too_large:
        rc, out, err = _main(capsys, *argv)
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: a host ") and "needs fewer than 32768 edges" in err

    # reduce refuses flags it would otherwise ignore
    ignored = {
        "error: reduce takes --bits or --n, not both": [
            "reduce", "--problem", "lwdpa", "--alg", "greedy", "--bits", "01", "--n", "5"],
        "error: --tree is for --problem cat": [
            "reduce", "--problem", "lwdpa", "--alg", "greedy", "--n", "2", "--tree", CATERPILLAR],
    }
    for line, argv in ignored.items():
        rc, out, err = _main(capsys, *argv)
        assert (rc, out, err) == (2, "", line + "\n")

    # advice --encode prints a tape: it reads no tape and has no row format
    encode = ["advice", "--problem", "lwdpa", "--encode", "--instance", DEMO]
    refused = {
        "error: advice --encode takes no --tape": ["--tape", str(tmp_path / "nope.json")],
        "error: advice --encode takes no --format": ["--format", "csv"],
        "error: advice --encode takes no --tape or --format": [
            "--format", "json", "--tape", str(tmp_path / "nope.json"), "--seed", "3"],
    }
    for line, extra in refused.items():
        assert _main(capsys, *encode, *extra) == (2, "", line + "\n")
    assert _main(capsys, *encode, "--seed", "3") == (0, '{"bits": 12, "hex": "488"}\n', "")


def test_a_host_of_the_wrong_kind_exits_2_and_verify_routes_a_grid(capsys, tmp_path):
    # the fuzz test reaches these only when its random draws do, so they
    # are played here on fixed inputs
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"graph": {"kind": "grid", "rows": 3, "cols": 3},
                                "requests": [[[0, 0], [2, 1]], [[0, 1], [2, 2]]]}))
    tape = tmp_path / "tape.json"
    tape.write_text(json.dumps({"bits": 4, "hex": "a"}))
    refused = {
        "greedy-lwdpa runs on path hosts, not grid": [
            "run", "--instance", str(grid), "--alg", "greedy-lwdpa", "--seed", "0"],
        "no named algorithms for grid hosts": [
            "run", "--instance", str(grid), "--alg", "greedy", "--seed", "0"],
        "this codec works on tree hosts": [
            "advice", "--problem", "cat", "--encode", "--instance", DEMO],
    }
    for line, argv in refused.items():
        assert _main(capsys, *argv) == (2, "", f"error: {line}\n")
    assert _main(capsys, "advice", "--problem", "cat", "--decode", "--instance", DEMO,
                 "--tape", str(tape), "--seed", "0") == (2, "", "error: this codec works on tree hosts\n")
    # verify asks the grid oracle, which routes both requests
    rc, out, _ = _main(capsys, "verify", "--instance", str(grid))
    assert rc == 0
    assert out.splitlines() == ["optimum 2", "accept (0, 0)-(2, 1)", "accept (0, 1)-(2, 2)"]


def test_a_missing_required_input_exits_2_with_one_line(capsys):
    pab = ["adversary", "--family", "pab", "--alg", "greedy"]
    missing = [
        ("error: --family pab needs --a and --b", pab),
        ("error: --family pab needs --a and --b", pab + ["--a", "3"]),
        ("error: --decode needs --tape FILE",
         ["advice", "--problem", "lwdpa", "--decode", "--instance", DEMO]),
        ("error: reduce needs --bits or --n", ["reduce", "--problem", "lwdpa", "--alg", "greedy"]),
        ("error: verify needs --instance FILE or --grid-3x3", ["verify"]),
        ("error: a tree file is required", ["adversary", "--family", "tree", "--alg", "greedy"]),
    ]
    for line, argv in missing:
        assert _main(capsys, *argv) == (2, "", line + "\n")


def test_flags_a_command_would_ignore_exit_2(capsys):
    hub = str(DATA / "hub-tree.json")
    # --format chooses between CSV and JSON report rows, which only run,
    # adversary and advice print; --seed fixes randomness and zeroes the ms
    # column, and verify and pack-s4 have neither
    for argv in (
        ["verify", "--instance", DEMO, "--format", "json"],
        ["reduce", "--problem", "lwdpa", "--alg", "greedy", "--n", "2", "--format", "json"],
        ["pack-s4", "--tree", CATERPILLAR, "--format", "json"],
        ["verify", "--instance", DEMO, "--seed", "0"],
        ["verify", "--grid-3x3", "--seed", "0"],
        ["pack-s4", "--tree", CATERPILLAR, "--seed", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    ignored = {
        "error: --family grid takes no --a": [
            "adversary", "--family", "grid", "--alg", "grid-first", "--a", "3"],
        "error: --family grid takes no --b": [
            "adversary", "--family", "grid", "--alg", "grid-first", "--b", "8"],
        "error: --family grid takes no --tree": [
            "adversary", "--family", "grid", "--alg", "grid-first", "--tree", hub],
        "error: --family pab takes no --tree": [
            "adversary", "--family", "pab", "--alg", "greedy", "--a", "3", "--b", "8",
            "--tree", hub],
        "error: --family tree takes no --a or --b": [
            "adversary", "--family", "tree", "--alg", "greedy", "--tree", hub, "--a", "3",
            "--b", "8"],
        "error: verify --grid-3x3 takes no --instance or --mode": [
            "verify", "--grid-3x3", "--instance", DEMO],
    }
    for line, argv in ignored.items():
        assert _main(capsys, *argv) == (2, "", line + "\n")
    rc, _, err = _main(capsys, "verify", "--grid-3x3", "--mode", "length")
    assert rc == 2 and err.startswith("error: verify --grid-3x3 takes no")


def test_main_builds_its_parser_once(capsys, monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    tape, hub = tmp_path / "tape.json", str(DATA / "hub-tree.json")
    calls = [
        ["run", "--instance", DEMO, "--alg", "greedy-lwdpa", "--seed", "0"],
        ["run", "--instance", DEMO, "--alg", "greedy-path", "--seed", "0"],
        ["run", "--instance", hub, "--alg", "greedy-cat", "--seed", "0"],
        ["verify", "--instance", DEMO],
        ["verify", "--instance", DEMO, "--mode", "length"],
        ["advice", "--problem", "lwdpa", "--encode", "--instance", DEMO, "--out", str(tape)],
        ["advice", "--problem", "lwdpa", "--decode", "--instance", DEMO, "--tape", str(tape),
         "--seed", "0"],
        ["advice", "--problem", "cat", "--encode", "--instance", hub],
        ["pack-s4", "--tree", CATERPILLAR],
        ["pack-s4", "--tree", hub],
    ]
    for argv in calls:
        assert _main(capsys, *argv)[0] == 0
    # one build is the root parser and its six subcommand parsers
    assert len(built) <= 7
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_carries_nothing_between_calls(capsys, tmp_path):
    bare = ["run", "--instance", DEMO, "--alg", "greedy-lwdpa"]
    row = tmp_path / "row.json"
    rc, out, _ = _main(capsys, *bare, "--seed", "1", "--format", "json", "--out", str(row))
    assert rc == 0 and out == "" and json.loads(row.read_text())["gain_opt"] == 12
    args = cli.build_parser().parse_args(bare)
    assert vars(args) == {"command": "run", "instance": DEMO, "alg": "greedy-lwdpa",
                          "format": "csv", "out": None, "seed": None, "fn": cli.cmd_run}
    rc, out, _ = _main(capsys, *bare)
    header, row = out.splitlines()
    assert rc == 0 and header.startswith("graph,algorithm,instance_hash,")
    assert row.startswith("path:15,greedy-lwdpa,efd13ab4775c,5,12,2.4,0,")


def test_usage_error_leaves_the_shared_parser_intact(capsys):
    good = ["advice", "--problem", "lwdpa", "--encode", "--instance", DEMO]
    first = _main(capsys, *good)
    assert first == (0, '{"bits": 12, "hex": "488"}\n', "")
    for bad in (good + ["--decode"], good + ["--format", "xml"], ["advice", "--problem", "cat"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: priodpa advice")
    assert _main(capsys, *good) == first


_PATH4 = {"kind": "path", "length": 4}
_NOT_UTF8 = b'\xff\xfe{"bits": 0, "hex": ""}'
_DEEP = b"[" * 200_000
# name -> (instance JSON or raw file bytes, or "dir" for a directory, or None
#          for the demo; advice tape JSON or raw file bytes, or None to run
#          greedy-lwdpa, verify and pack-s4 instead of decoding)
MALFORMED = {
    "no-requests-key": ({"graph": _PATH4}, None),
    "three-endpoints": ({"graph": _PATH4, "requests": [[0, 1, 2]]}, None),
    "bool-path-length": ({"graph": {"kind": "path", "length": True}, "requests": [[0, 1]]},
                         None),
    "directory-instance": ("dir", None),
    "non-hex-tape": (None, {"bits": 12, "hex": "zz"}),
    "short-tape": (None, {"bits": 4, "hex": "0"}),
    "bits-left-over": (None, {"bits": 20, "hex": "48800"}),
    "hex-past-the-bits": (None, {"bits": 12, "hex": "488ffff"}),
    "path-too-long-for-a-file": ({"graph": {"kind": "path", "length": 10**18},
                                  "requests": [[0, 10**18 - 1]]}, None),
    "lwdpa-tape-on-a-tree": ({"graph": {"kind": "tree", "edges": [[0, 1]]},
                              "requests": [[0, 1]]}, {"bits": 0, "hex": ""}),
    "grid-of-2-rows": ({"graph": {"kind": "grid", "rows": 2, "cols": 3},
                        "requests": [[[0, 0], [1, 2]]]}, None),
    "grid-of-4-rows": ({"graph": {"kind": "grid", "rows": 4, "cols": 3},
                        "requests": [[[0, 0], [3, 2]]]}, None),
    "instance-not-utf8": (_NOT_UTF8, None),
    "instance-nested-too-deep": (_DEEP, None),
    "path-length-of-5000-digits": (
        b'{"graph": {"kind": "path", "length": ' + b"9" * 5000 + b'}, "requests": []}', None),
    "tape-not-utf8": (None, _NOT_UTF8),
    "tape-nested-too-deep": (None, _DEEP),
    "tape-bits-of-5000-digits": (None, b'{"bits": ' + b"9" * 5000 + b', "hex": ""}'),
}


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    return str(path)


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_input_exits_2_with_one_line(name, capsys, tmp_path):
    instance, tape = MALFORMED[name]
    path = DEMO
    if instance == "dir":
        path = str(tmp_path)
    elif instance is not None:
        path = _write(tmp_path / "instance.json", instance)
    commands = [["run", "--alg", "greedy-lwdpa", "--instance", path],
                ["verify", "--instance", path],
                ["pack-s4", "--tree", path]]
    if tape is not None:
        commands = [["advice", "--problem", "lwdpa", "--decode", "--instance", path,
                     "--tape", _write(tmp_path / "tape.json", tape)]]
    for argv in commands:
        rc, out, err = _main(capsys, *argv)
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err


# a shell cannot pass a NUL byte in an argument, but a caller of cli.main can
NUL_PATHS = {
    "instance": ["run", "--alg", "greedy-lwdpa", "--instance", "a\0b"],
    "verify-instance": ["verify", "--instance", "a\0b"],
    "tape": ["advice", "--problem", "lwdpa", "--decode", "--instance", DEMO, "--tape", "t\0"],
    "tree": ["pack-s4", "--tree", "\0tree.json"],
    "reduce-tree": ["reduce", "--problem", "cat", "--alg", "greedy", "--n", "2",
                    "--tree", "tree\0.json"],
    "out": ["verify", "--grid-3x3", "--out", "x\0y"],
    "run-out": ["run", "--alg", "greedy-lwdpa", "--instance", DEMO, "--out", "row\0.csv"],
}


@pytest.mark.parametrize("name", NUL_PATHS)
def test_path_with_a_nul_byte_exits_2_with_one_line(name, capsys):
    rc, out, err = _main(capsys, *NUL_PATHS[name])
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: path ")
    assert err.rstrip().endswith("holds a NUL byte")


def test_package_checks_properties_without_assert():
    # ``python -O`` strips assert statements; checked properties raise
    # PropertyViolation instead
    package = Path(priodpa.__file__).parent
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text())
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{source.name}: assert on lines {asserts}"


def test_violated_property_exits_1_with_one_line(capsys, monkeypatch):
    # an encoder handed a non-canonical optimum cannot make its labeled
    # run accept it
    monkeypatch.setattr(trees, "greediest_opt", lambda inst, order, mode: Solution(inst.graph, ()))
    rc, out, err = _main(capsys, "advice", "--problem", "cat", "--encode",
                         "--instance", str(DATA / "hub-tree.json"))
    assert rc == 1 and out == ""
    assert err == "property failed: the labeled run must accept the canonical optimum\n"


def test_violated_lwdpa_property_exits_1_with_one_line(capsys, monkeypatch, tmp_path):
    # the decoder accepts the unit request whatever the tape says, so its
    # run cannot match an empty optimum
    monkeypatch.setattr(lwdpa, "greediest_opt", lambda inst, order, mode: Solution(inst.graph, ()))
    path = _write(tmp_path / "instance.json", {"graph": _PATH4, "requests": [[0, 1], [1, 3]]})
    rc, out, err = _main(capsys, "advice", "--problem", "lwdpa", "--encode", "--instance", path)
    assert rc == 1 and out == ""
    assert err == "property failed: the labeled run must accept the canonical optimum\n"
