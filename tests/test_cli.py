"""CLI subcommands: thin-adapter equivalence, exit codes, JSON schemas."""

import json
import time

import pytest

from cb_lab import (
    Matroid,
    PointSet,
    exists_cover,
    gen_plane_curve_ci,
    gen_skew_lines,
    is_cb,
    is_mcb,
)
from cb_lab.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _write_points(tmp_path, gamma, name="pts.json"):
    path = tmp_path / name
    path.write_text(json.dumps(gamma.to_json()))
    return str(path)


def test_generate_and_check_cb_roundtrip(tmp_path, capsys, gf101):
    out_path = str(tmp_path / "pts.json")
    code, _ = _run(
        capsys, "generate", "--family", "plane_curve_ci",
        "--params", "deg_d=3,deg_e=3", "--field", "101", "--seed", "5",
        "-o", out_path,
    )
    assert code == 0
    with open(out_path) as fh:
        gamma = PointSet.from_json(json.load(fh))
    direct = gen_plane_curve_ci(3, 3, gf101, seed=5)
    assert gamma == direct  # CLI is a thin adapter

    code, out = _run(capsys, "check-cb", "-i", out_path, "--r", "3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj == is_cb(direct, 3).to_json(gf101)


def test_check_cb_false_exit_code(tmp_path, capsys, gf101):
    gamma = PointSet.from_coords(gf101, [[1, 2, 3]])
    path = _write_points(tmp_path, gamma)
    code, out = _run(capsys, "check-cb", "-i", path, "--r", "1", "--json")
    assert code == 1
    obj = json.loads(out)
    assert obj["verdict"] is False and obj["witness"]["omitted"] == 0


def test_cover_matches_library(tmp_path, capsys, gf101):
    pts, _ = gen_skew_lines(2, (5, 5), gf101, seed=3)
    path = _write_points(tmp_path, pts)
    code, out = _run(capsys, "cover", "-i", path, "--dim", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    lib = exists_cover(pts, 2, 2).to_json()
    assert obj == lib
    code, _ = _run(capsys, "cover", "-i", path, "--dim", "2", "--max-length", "1")
    assert code == 1  # no single plane of dim <= 2 covers ten such points


def test_cover_min_flag(tmp_path, capsys, gf101):
    from cb_lab import gen_two_plane_conics

    pts, _ = gen_two_plane_conics(6, gf101, seed=12)
    path = _write_points(tmp_path, pts)
    code, out = _run(capsys, "cover", "-i", path, "--min", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 4 and obj["length"] == 2
    assert obj["proof_of_minimality"] is True


def test_verify_conjecture_and_replay(tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    code, out = _run(
        capsys, "verify-conjecture", "--d", "2", "--r", "2", "--r", "3",
        "--trials", "4", "--seed", "9", "--field", "101", "--json",
        "-o", report_path,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["summary"]["violations"] == 0
    record = obj["records"][0]
    rec_path = tmp_path / "record.json"
    rec_path.write_text(json.dumps(record))
    code, out = _run(capsys, "verify-conjecture", "--replay", str(rec_path), "--json")
    assert code == 0
    assert json.loads(out)["matches"] is True


def test_matroid_subcommand(tmp_path, capsys, gf101):
    pts, _ = gen_skew_lines(2, (5, 5), gf101, seed=3)
    path = _write_points(tmp_path, pts)
    code, out = _run(
        capsys, "matroid", "-i", path, "--mcb", "3", "--flat-cover", "1,1", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["mcb"]["verdict"] is True
    assert sorted(map(sorted, obj["flat_cover"])) == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]


def test_matroid_hyperplanes_only_flag_is_gone(tmp_path, capsys, gf101):
    # MCB always searches hyperplanes now, so the old mode flag is a usage error.
    path = _write_points(tmp_path, gen_skew_lines(2, (3, 3), gf101, seed=3)[0])
    assert main(["matroid", "-i", path, "--mcb", "1", "--hyperplanes-only"]) == 2
    assert "--hyperplanes-only" in capsys.readouterr().err


def test_huge_budgets_return_quickly(tmp_path, capsys, gf101):
    pts, _ = gen_skew_lines(3, (2, 2, 2), gf101, seed=0)
    path = _write_points(tmp_path, pts)
    start = time.perf_counter()
    code, out = _run(capsys, "cover", "-i", path, "--dim", "1000000000", "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out) == exists_cover(pts, 30, 30).to_json()
    start = time.perf_counter()
    code, out = _run(capsys, "matroid", "-i", path, "--mcb", "1000000000", "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    expect = is_mcb(Matroid.from_points(pts), len(pts)).to_json()
    assert json.loads(out)["mcb"] == {**expect, "r": 10**9}


def test_search_modes(capsys):
    code, out = _run(
        capsys, "search", "--mode", "lower-bound", "--field", "3",
        "--ambient", "2", "--r", "1", "--json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["summary"]["violations"] == 0
    code, out = _run(
        capsys, "search", "--mode", "counterexample", "--field", "2",
        "--ambient", "3", "--r", "2", "--d", "2", "--size-cap", "4", "--json",
    )
    assert code == 0


def test_usage_errors(capsys, tmp_path):
    assert main(["no-such-command"]) == 2
    assert main(["cover", "-i", "nope.json"]) == 2  # missing --dim
    assert main(["check-cb", "-i", str(tmp_path / "missing.json"), "--r", "1"]) == 2
    assert main(["verify-conjecture", "--trials", "2"]) == 2  # missing --d/--r
    assert main(["search", "--mode", "counterexample", "--field", "2",
                 "--ambient", "3", "--r", "2"]) == 2  # missing --d/--size-cap


_GF101 = {"kind": "prime", "p": 101}
_BAD_POINT_SETS = {
    "empty_object": {},
    "list": [],
    "no_points": {"field": _GF101, "ambient_dim": 2},
    "points_not_list": {"field": _GF101, "ambient_dim": 2, "points": 5},
    "zero_denominator": {
        "field": {"kind": "rational"}, "ambient_dim": 2, "points": [["1/0", "1", "1"]],
    },
}
_RNC_WITHOUT_M = {"family": "rnc", "params": {"k": 2}, "field": _GF101, "seed": 1}
_SKEW_SCALAR_COUNTS = {
    "family": "skew_lines", "params": {"d": 2, "counts": 5}, "field": _GF101, "seed": 1,
}
_POINTS = {"field": _GF101, "ambient_dim": 2, "points": [["1", "0", "0"], ["0", "1", "0"]]}


def _on_plane(field, basis):
    """An on_configuration GenSpec whose one plane of P^3 has the given basis rows."""
    return {
        "family": "on_configuration", "params": {"counts": [3]}, "field": field, "seed": 1,
        "config": {"field": field, "planes": [{"ambient_dim": 3, "basis": basis}]},
    }

_MALFORMED = [
    pytest.param([cmd, "-i", "{path}", *extra], bad, id=f"{cmd}-{name}")
    for cmd, extra in (
        ("check-cb", ["--r", "1"]), ("cover", ["--dim", "1"]), ("matroid", ["--mcb", "1"])
    )
    for name, bad in _BAD_POINT_SETS.items()
] + [
    pytest.param(["generate", "--spec", "{path}"], {}, id="genspec-empty"),
    pytest.param(["generate", "--spec", "{path}"], _RNC_WITHOUT_M, id="genspec-rnc-no-m"),
    pytest.param(["generate", "--family", "rnc", "--params", "k=2"], None, id="flags-rnc-no-m"),
    pytest.param(["generate", "--spec", "{path}"], _SKEW_SCALAR_COUNTS,
                 id="genspec-scalar-counts"),
    pytest.param(["generate", "--family", "skew_lines", "--params", "d=2,counts=5"], None,
                 id="flags-scalar-counts"),
    pytest.param(["generate", "--family", "rnc", "--params", "k=2,m=3:4"], None,
                 id="flags-list-m"),
    pytest.param(["generate", "--family", "rnc", "--params", "k=2,m=3,typo_seed=4"], None,
                 id="flags-unknown-param"),
    pytest.param(["cover", "-i", "{path}", "--dim", "2", "--max-length", "0"], _POINTS,
                 id="cover-max-length-0"),
    pytest.param(["verify-conjecture", "--replay", "{path}"], {"genspec": {}, "r": 1},
                 id="replay-empty-genspec"),
    pytest.param(["verify-conjecture", "--replay", "{path}"],
                 {"points": _POINTS, "d": "2", "cover_found": True}, id="replay-string-d"),
    pytest.param(["verify-conjecture", "--replay", "{path}"],
                 {"points": _POINTS, "r": 2.5, "cb": True}, id="replay-float-r"),
] + [
    pytest.param(["generate", "--spec", "{path}"], _on_plane(field, basis), id=f"genspec-{name}")
    for name, field, basis in (
        ("ragged-basis-gf101", _GF101, [[1, 0, 0, 0], [0, 1]]),
        ("ragged-basis-q", {"kind": "rational"}, [[1, 0, 0, 0], [0, 1]]),
        ("short-basis", _GF101, [[1, 0, 0], [0, 1, 0]]),
    )
]


@pytest.mark.parametrize("argv, payload", _MALFORMED)
def test_malformed_json_is_usage_error(tmp_path, capsys, argv, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code = main([arg.replace("{path}", str(path)) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback


def test_budget_exit_code(tmp_path, capsys, gf101, monkeypatch):
    monkeypatch.setenv("CB_LAB_NODE_BUDGET", "1")
    pts, _ = gen_skew_lines(2, (5, 5), gf101, seed=3)
    path = _write_points(tmp_path, pts)
    code = main(["cover", "-i", path, "--dim", "2"])
    assert code == 3


def test_generate_spec_file(tmp_path, capsys, gf101):
    from cb_lab import GenSpec, generate

    spec = GenSpec.make("rnc", {"k": 2, "m": 6}, gf101, 21)
    spec_path = tmp_path / "genspec.json"
    spec_path.write_text(json.dumps(spec.to_json()))
    code, out = _run(capsys, "generate", "--spec", str(spec_path), "--json")
    assert code == 0
    assert PointSet.from_json(json.loads(out)) == generate(spec)[0]


def test_generate_deterministic_bytes(tmp_path, capsys):
    args = ["generate", "--family", "rnc", "--params", "k=3,m=8",
            "--field", "101", "--seed", "7", "--json"]
    code1, out1 = _run(capsys, *args)
    code2, out2 = _run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2


def test_generate_spec_with_embedded_config(tmp_path, capsys, gf101):
    from cb_lab import GenSpec, PlaneConfiguration, gen_skew_lines, generate, verify_cover

    _pts, cfg = gen_skew_lines(2, (2, 2), gf101, seed=3)
    spec = GenSpec.make("on_configuration", {"counts": [3, 3]}, gf101, 4, config=cfg)
    spec_path = tmp_path / "genspec.json"
    spec_path.write_text(json.dumps(spec.to_json()))
    code, out = _run(capsys, "generate", "--spec", str(spec_path), "--json")
    assert code == 0
    gamma = PointSet.from_json(json.loads(out))
    assert gamma == generate(spec)[0]
    assert verify_cover(gamma, cfg)
