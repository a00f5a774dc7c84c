import json
import math
from fractions import Fraction

import pytest

from priodpa import cli
from priodpa.graphs import InvalidParameterError
from priodpa.report import RatioReport, render, render_csv, render_json_lines

from helpers import CATERPILLAR, DEMO


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


_PATH4 = {"kind": "path", "length": 4}
# name -> (instance JSON, or "dir" for a directory, or None for the demo;
#          advice tape JSON, or None to run greedy-lwdpa instead of decoding)
MALFORMED = {
    "no-requests-key": ({"graph": _PATH4}, None),
    "three-endpoints": ({"graph": _PATH4, "requests": [[0, 1, 2]]}, None),
    "bool-path-length": ({"graph": {"kind": "path", "length": True}, "requests": [[0, 1]]},
                         None),
    "directory-instance": ("dir", None),
    "non-hex-tape": (None, {"bits": 12, "hex": "zz"}),
    "short-tape": (None, {"bits": 4, "hex": "0"}),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_input_exits_2_with_one_line(name, capsys, tmp_path):
    instance, tape = MALFORMED[name]
    path = DEMO
    if instance == "dir":
        path = str(tmp_path)
    elif instance is not None:
        path = str(tmp_path / "instance.json")
        (tmp_path / "instance.json").write_text(json.dumps(instance))
    argv = ["run", "--alg", "greedy-lwdpa", "--instance", path]
    if tape is not None:
        (tmp_path / "tape.json").write_text(json.dumps(tape))
        argv = ["advice", "--problem", "lwdpa", "--decode", "--instance", path,
                "--tape", str(tmp_path / "tape.json")]
    rc, out, err = _main(capsys, *argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err
