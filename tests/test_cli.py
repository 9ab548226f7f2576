import json
import math
import os
import subprocess
import sys

import pytest

import statent
from statent.cli import RunConfig, main

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_su2(capsys):
    code, out, _ = run_cli(
        ["compute", "--family", "su2", "--L", "8", "--quantities", "en,r3,sop"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["quantities"]["en"] == pytest.approx(0.944461608841, abs=1e-9)
    assert doc["quantities"]["r"]["3"] == pytest.approx(math.log(25 / 9), abs=1e-9)
    assert doc["mode"] == "exact"


def test_compute_u1_zero(capsys):
    code, out, _ = run_cli(["compute", "--family", "u1", "--L", "8", "--quantities", "en"], capsys)
    assert code == 0
    assert json.loads(out)["quantities"]["en"] == 0.0


def test_compute_inadmissible_exit_2(capsys):
    code, _, err = run_cli(["compute", "--family", "sun", "--N", "3", "--L", "7"], capsys)
    assert code == 2
    assert "inadmissible" in err


@pytest.mark.parametrize("token", ["rx", "r0", "rt", "rt-1"])
def test_malformed_quantity_exit_2(token, capsys):
    code, out, err = run_cli(
        ["compute", "--family", "su2", "--L", "8", "--quantities", token], capsys
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and token in err


@pytest.mark.parametrize("args", [
    ["scan", "--family", "su2", "--L-list", "8,x"],
    ["compute", "--family", "su2", "--L", "8", "--quantities", "rtilde", "--n-grid", "0.5,x"],
    ["haar", "--family", "su2", "--L", "0"],
    ["haar", "--family", "su2", "--L", "4", "--lambda-max", "9"],
    ["haar", "--family", "su2", "--L", "4", "--samples", "0"],
])
def test_bad_input_exit_2(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("inadmissible")


@pytest.mark.parametrize("grid", [
    ["--L-min", "8", "--L-max", "16", "--L-step", "0"],
    ["--L-min", "8", "--L-max", "16", "--L-step", "-2"],
    ["--L-min", "0", "--L-max", "16", "--geometric"],
])
def test_endless_scan_grid_exit_2(grid):
    # a grid that never reaches L_max must be refused, not built; the child
    # runs under a memory cap and a timeout in case it is not
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            "from statent.cli import main; sys.exit(main(sys.argv[1:]))")
    out = subprocess.run(
        [sys.executable, "-c", code, "scan", "--family", "su2", "--quantities", "en", *grid],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(statent.__file__))},
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.count("\n") == 1 and out.stderr.startswith("inadmissible")


def test_compute_json_schema(capsys):
    if jsonschema is None:
        pytest.skip("jsonschema not installed")
    from importlib import resources

    schema = json.loads(
        resources.files("statent.schemas").joinpath("compute.schema.json").read_text()
    )
    _, out, _ = run_cli(
        ["compute", "--family", "tl", "--N", "3", "--L", "8",
         "--quantities", "en,r3,rt1.5,sop"], capsys
    )
    jsonschema.validate(json.loads(out), schema)


def test_log2_rescales_display(capsys):
    _, out_e, _ = run_cli(["compute", "--family", "su2", "--L", "8", "--quantities", "en"], capsys)
    _, out_2, _ = run_cli(
        ["compute", "--family", "su2", "--L", "8", "--quantities", "en", "--log2"], capsys
    )
    e = json.loads(out_e)["quantities"]["en"]
    b = json.loads(out_2)["quantities"]["en"]
    assert b == pytest.approx(e / math.log(2), rel=1e-9)


def test_scan_csv_and_determinism(tmp_path, capsys):
    args = ["scan", "--family", "tl", "--N", "3", "--L-min", "8", "--L-max", "32",
            "--geometric", "--quantities", "en,sop", "--seed", "7"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(f1)]) == 0
    assert main(args + ["--output", str(f2)]) == 0
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "L,quantity,value"
    assert [ln.split(",")[:2] for ln in lines[1:]] == [
        ["8", "en"], ["8", "sop"], ["16", "en"], ["16", "sop"], ["32", "en"], ["32", "sop"]
    ]
    for ln in lines[1:]:
        assert math.isfinite(float(ln.split(",")[2]))


def test_scan_filters_inadmissible(capsys):
    # TL needs L = 0 mod 4 at half chain; odd-half L are dropped silently
    code, out, _ = run_cli(
        ["scan", "--family", "tl", "--N", "3", "--L-min", "6", "--L-max", "14",
         "--L-step", "2", "--quantities", "en"], capsys
    )
    assert code == 0
    assert [ln.split(",")[0] for ln in out.splitlines()[1:]] == ["8", "12"]


def test_scan_empty_exit_2(capsys):
    code, _, err = run_cli(
        ["scan", "--family", "sun", "--N", "3", "--L-min", "7", "--L-max", "8",
         "--quantities", "en"], capsys
    )
    assert code == 2


def test_oracle_pass_and_cap(capsys):
    code, out, _ = run_cli(["oracle", "--family", "su2", "--L", "4"], capsys)
    assert code == 0
    assert out.count("PASS") == 5
    code, _, err = run_cli(["oracle", "--family", "tl", "--N", "3", "--L", "12"], capsys)
    assert code == 4
    assert "resource cap" in err


def test_haar_emits_points_and_crossing(capsys):
    code, out, _ = run_cli(
        ["haar", "--family", "su2", "--L-list", "12,16", "--samples", "25", "--seed", "3"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("row,L,L2")
    kinds = {ln.split(",")[0] for ln in lines[1:]}
    assert kinds == {"point", "crossing"}
    cross = [ln for ln in lines[1:] if ln.startswith("crossing")][0]
    x = float(cross.split(",")[-1])
    assert 0.0 < x < 0.5


def test_dynamics_trajectory(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    code = main(["dynamics", "--family", "tl", "--N", "3", "--L", "4",
                 "--output", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "sweep,E_N,R3,S_OP,defect"
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(math.log(9 / 2), abs=1e-6)


def test_asymptote_su2(capsys):
    code, out, _ = run_cli(
        ["asymptote", "--family", "su2", "--quantities", "en",
         "--L-min", "64", "--L-max", "4096", "--geometric"], capsys
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == "en" and row[1] == "log"
    assert float(row[3]) == 0.5
    assert abs(float(row[4]) - 0.5) <= 0.02


def test_asymptote_rows_match_single_quantity_runs(capsys):
    base = ["asymptote", "--family", "tl", "--N", "3"]
    code, out, _ = run_cli(base + ["--quantities", "en,r3,rt0.5,sop"], capsys)
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 5
    for q, row in zip(["en", "r3", "rt0.5", "sop"], rows[1:]):
        code, single, _ = run_cli(base + ["--quantities", q], capsys)
        assert code == 0
        assert single.splitlines() == [rows[0], row]


def test_asymptote_without_law_exit_2(capsys):
    code, out, err = run_cli(
        ["asymptote", "--family", "u1", "--quantities", "rt0.5"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "no law" in err


def test_scan_sun_fast_path_matches_generic(capsys):
    _, fast, _ = run_cli(
        ["scan", "--family", "sun", "--N", "3", "--L-list", "96", "--quantities", "r3"],
        capsys,
    )
    _, generic, _ = run_cli(
        ["scan", "--family", "sun", "--N", "3", "--L-list", "96",
         "--quantities", "r3,sop", "--backend", "log"], capsys
    )
    v_fast = float(fast.splitlines()[1].split(",")[2])
    v_gen = float([ln for ln in generic.splitlines() if ",r3," in ln][0].split(",")[2])
    assert v_fast == pytest.approx(v_gen, rel=1e-10)


def test_scan_sun_resource_cap_exit_4(capsys):
    code, _, err = run_cli(
        ["scan", "--family", "sun", "--N", "5", "--L-list", "10000",
         "--quantities", "en"], capsys
    )
    assert code == 4
    assert "resource cap" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"family": "su2", "L": 8, "quantities": ["en"]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    _, out, _ = run_cli(["compute", "--config", str(path)], capsys)
    assert json.loads(out)["spec"]["L"] == 8
    _, out, _ = run_cli(["compute", "--config", str(path), "--L", "12"], capsys)
    assert json.loads(out)["spec"]["L"] == 12  # explicit flag wins


def test_config_unknown_key_exit_2(tmp_path, capsys):
    for key, value in (("colour", "red"), ("jobs", 2)):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"family": "su2", "L": 8, key: value}))
        code, out, err = run_cli(["compute", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and key in err


@pytest.mark.parametrize("sub, text", [
    ("compute", None),  # no such file
    ("compute", "{not json"),
    ("compute", "[8]"),
    ("compute", '{"family": "su2", "L": "8"}'),
    ("compute", '{"family": "su2", "L": true}'),
    ("compute", '{"family": "su2", "L": 8, "cut": "4"}'),
    ("scan", '{"family": "su2", "L_list": ["8", "x"]}'),
    ("haar", '{"family": "su2", "L": 8, "samples": "5"}'),
    ("compute", '{"family": "su2", "L": 8, "backend": "fast"}'),
    ("compute", '{"family": "su2", "L": 8, "fmt": "xml"}'),
], ids=["missing", "not-json", "array", "L-text", "L-bool", "cut-text", "L_list-text",
        "samples-text", "backend-choice", "fmt-choice"])
def test_config_bad_file_exit_2(sub, text, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli([sub, "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("inadmissible")


def test_config_int_for_float_field(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": "tl", "N": 3, "L": 8, "quantities": ["rtilde"],
                                "n_grid": [3, 0.5]}))
    code, out, _ = run_cli(["compute", "--config", str(path)], capsys)
    assert code == 0
    assert set(json.loads(out)["quantities"]["rtilde"]) == {"3", "0.5"}


def test_runconfig_roundtrip():
    cfg = RunConfig(subcommand="scan", family="tl", N=3, L_min=8, L_max=64,
                    geometric=True, quantities=["en", "r3"], seed=9)
    assert RunConfig.from_json(cfg.to_json()) == cfg


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "statent.cli", "compute", "--family", "u1", "--L", "4",
         "--quantities", "en,sop"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["quantities"]["en"] == 0.0
