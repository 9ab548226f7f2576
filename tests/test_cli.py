import json
import math
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import fields

import pytest

import statent
from statent.cli import OPTIONS, SUBCOMMANDS, RunConfig, main
from statent.su2cg import HaarEnsembleSpec, haar_average_negativity

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
    ["haar", "--family", "su2", "--L", "4", "--seed", "-1"],
    ["asymptote", "--family", "tl", "--N", "3", "--quantities", "rt2"],
    ["asymptote", "--family", "tl", "--N", "2", "--quantities", "rt0.5"],
    ["oracle", "--family", "su2", "--L", "4", "--dim-cap", "-1"],
    ["oracle", "--family", "su2", "--L", "4", "--dim-cap", "0"],
    ["compute", "--family", "su2", "--N", "3", "--L", "6"],
    ["compute", "--family", "u1", "--N", "3", "--L", "6"],
    ["asymptote", "--family", "sun", "--N", "3"],
    ["asymptote", "--family", "su2", "--quantities", "en", "--L-list", "64,64,128,256,512"],
])
def test_bad_input_exit_2(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("inadmissible")


@pytest.mark.parametrize("args", [
    ["--family", "bogus"], ["--family", "su2", "--N", "3"], ["--family", "u1", "--N", "3"],
    ["--family", "sun", "--N", "1"],
])
def test_scan_refuses_family_and_N_as_compute_does(args, capsys):
    # no length makes these admissible, so scan says why, not "no admissible L"
    scan = run_cli(["scan", *args, "--L-list", "8,16"], capsys)
    compute = run_cli(["compute", *args, "--L", "8"], capsys)
    assert scan == compute
    assert scan[0] == 2 and scan[1] == "" and scan[2].startswith("inadmissible")


@pytest.mark.parametrize("args", [
    ["compute", "--family", "u1", "--L", "8"],
    ["scan", "--family", "su2", "--L-list", "8"],
])
def test_unwritable_output_exit_2(args, tmp_path, capsys):
    path = str(tmp_path / "missing" / "x.json")
    code, out, err = run_cli(args + ["--output", path], capsys)
    assert code == 2 and out == ""
    assert err == f"inadmissible: cannot write output {path}: No such file or directory\n"


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


def _flat(doc: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in doc.items():
        out.update(_flat(v, f"{prefix}{k}.") if isinstance(v, dict) else {prefix + k: v})
    return out


def test_compute_csv_rows_are_the_flattened_json(capsys):
    args = ["compute", "--family", "tl", "--N", "3", "--L", "12",
            "--quantities", "en,r3,r5,rt0.5,rt3,sop"]
    code, out_json, _ = run_cli(args, capsys)
    assert code == 0
    code, out_csv, _ = run_cli(args + ["--format", "csv"], capsys)
    assert code == 0
    lines = out_csv.splitlines()
    assert lines[0] == "key,value"
    rows = dict(ln.split(",") for ln in lines[1:])
    assert list(rows) == sorted(rows)
    flat = _flat(json.loads(out_json))
    assert set(rows) == set(flat) and "quantities.rtilde.0.5" in rows
    for key, value in flat.items():
        # JSON holds each float rounded to the 12 digits that the CSV prints
        assert (float(rows[key]) if isinstance(value, float) else rows[key]) == (
            value if isinstance(value, float) else str(value)), key


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_timing_adds_only_wall_time(fmt, capsys):
    args = ["compute", "--family", "su2", "--L", "8", "--quantities", "en,r3,rt1.5,sop",
            "--format", fmt]
    _, plain, _ = run_cli(args, capsys)
    code, timed, _ = run_cli(args + ["--timing"], capsys)
    assert code == 0
    if fmt == "json":
        doc = json.loads(timed)
        assert doc.pop("wall_time_s") >= 0.0
        assert doc == json.loads(plain)
    else:
        extra = set(timed.splitlines()) - set(plain.splitlines())
        assert [ln.split(",")[0] for ln in extra] == ["wall_time_s"]
        assert set(plain.splitlines()) < set(timed.splitlines())


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
            "--geometric", "--quantities", "en,sop"]
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


def test_scan_one_length_matches_compute(capsys):
    # --L without --L-min is a one-point grid
    code, out, _ = run_cli(["scan", "--family", "su2", "--L", "8"], capsys)
    assert code == 0
    _, doc, _ = run_cli(["compute", "--family", "su2", "--L", "8"], capsys)
    q = json.loads(doc)["quantities"]
    assert out.splitlines() == ["L,quantity,value"] + [
        f"8,{name},{value!r}" for name, value in
        (("en", q["en"]), ("r3", q["r"]["3"]), ("sop", q["sop"]))]


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


@pytest.mark.parametrize("args", [["--family", "u1", "--L", "4"],
                                  ["--family", "pf", "--N", "3", "--L", "4"]])
def test_oracle_prints_no_signed_zero(args, capsys):
    # the dense R_3 and R_4 of these stationary states are -0.0; both columns print 0
    code, out, _ = run_cli(["oracle", *args], capsys)
    assert code == 0
    rows = {line.split(",")[0]: line.split(",")[1:3] for line in out.splitlines()[1:]}
    assert rows["r3"] == rows["r4"] == ["0", "0"]
    assert "-0" not in [v for pair in rows.values() for v in pair]


def test_oracle_refuses_max_sweeps(capsys):
    # the oracle's state comes from the orbit closure; --max-sweeps bounds only dynamics
    code, out, _ = run_cli(["oracle", "--family", "su2", "--L", "4", "--max-sweeps", "1"], capsys)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("args", [
    ["oracle", "--tol", "nan"],
    ["oracle", "--tol", "inf"],
    ["oracle", "--tol=-1e-12"],
    ["dynamics", "--tol", "nan"],
    ["dynamics", "--max-sweeps", "0"],
], ids=["oracle-tol-nan", "oracle-tol-inf", "oracle-tol-negative", "dynamics-tol-nan",
        "dynamics-max-sweeps-0"])
def test_sweep_options_exit_2(args, capsys):
    # a NaN tolerance would pass every "defect > tol" check unseen
    code, out, err = run_cli(args + ["--family", "su2", "--L", "4"], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("inadmissible")


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


def test_haar_reports_a_failed_crossing_as_a_row(capsys):
    # two equal lengths give the same curve twice, which has no crossing
    code, out, _ = run_cli(["haar", "--family", "su2", "--L-list", "12,12", "--samples", "5"],
                           capsys)
    assert code == 0
    assert out.splitlines()[-1] == "crossing,12,12,,,,5,12345,error:NoCrossing"


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


@pytest.mark.parametrize("args, laws", [
    (["--family", "u1"],
     [("en", "const", "asymptote", "0"), ("r3", "const", "asymptote", "0"),
      ("sop", "log", "asymptote", "0.5")]),
    (["--family", "pf", "--N", "3"],
     [("en", "const", "asymptote", "0"), ("r3", "const", "asymptote", "0"),
      ("sop", "sqrt", "asymptote", "")]),
    (["--family", "sun", "--N", "3", "--L-list", "48,96,192,384"],
     [("en", "log", "upper_bound", "6"), ("r3", "log", "asymptote", "3"),
      ("sop", "log", "asymptote", "4")]),
], ids=["u1", "pf3", "sun3"])
def test_asymptote_prints_the_documented_laws(args, laws, capsys):
    # form, kind and coefficient of predicted_law, one row per default quantity
    code, out, _ = run_cli(["asymptote", *args], capsys)
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()[1:]]
    assert [tuple(r[:4]) for r in rows] == laws
    for r in rows:
        assert all(math.isfinite(float(x)) for x in r[4:7])


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


def test_asymptote_tl2_reads_the_su2_laws(capsys):
    # TL(2) is SU(2) at q = 1: same reports, so the same laws and fits
    args = ["asymptote", "--quantities", "en,r3,sop"]
    code, su2, _ = run_cli(args + ["--family", "su2"], capsys)
    assert code == 0
    assert run_cli(args + ["--family", "tl", "--N", "2"], capsys) == (0, su2, "")


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


def test_sun_partition_count_caps_large_N():
    # the binomial estimate reads 1 partition here against the true 1.9e8; a
    # child interpreter with a timeout, since an uncapped enumeration never returns
    out = subprocess.run(
        [sys.executable, "-m", "statent.cli", "compute", "--family", "sun", "--N", "100",
         "--L", "200"],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(statent.__file__))},
    )
    assert out.returncode == 4, out.stderr
    assert "resource cap" in out.stderr


def test_exact_backend_refuses_past_its_sector_cap():
    # a child interpreter under a 3 GB address-space cap: the irrep count is
    # estimated without building the labels, so both refusals take well under a second
    code = textwrap.dedent("""
        import json, resource, time
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
        from statent.cli import main
        runs = []
        for extra in (["--L", "1000000000"], ["--L", "2000000", "--quantities", "en"]):
            t0 = time.perf_counter()
            code = main(["compute", "--family", "su2", "--backend", "exact", *extra])
            runs.append([code, time.perf_counter() - t0])
        print(json.dumps(runs))
    """)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(statent.__file__))},
    )
    assert out.returncode == 0, out.stderr
    runs = json.loads(out.stdout)
    assert [c for c, _ in runs] == [4, 4] and max(t for _, t in runs) < 1.0, runs
    assert out.stderr.count("resource cap: ") == 2 and "EXACT_SECTOR_CAP" in out.stderr


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


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "statent.cli", "compute", "--family", "u1", "--L", "4",
         "--quantities", "en,sop"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["quantities"]["en"] == 0.0


def test_every_option_is_a_field_some_subcommand_reads():
    # an option declared in one table only would be offered and ignored, or read and not offered
    names = {f.name for f in fields(RunConfig)} - {"subcommand"}
    assert set(OPTIONS) == names
    assert set().union(*(reads for _, reads in SUBCOMMANDS.values())) == names


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_subcommand_offers_the_flags_it_reads(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    offered = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert offered == {"--help", "--config"} | {OPTIONS[k][0] for k in SUBCOMMANDS[sub][1]}


_UNREAD = [(sub, key) for sub, (_, reads) in SUBCOMMANDS.items()
           for key in OPTIONS if key not in reads]


@pytest.mark.parametrize("sub, key", _UNREAD, ids=[f"{s}-{k}" for s, k in _UNREAD])
def test_unread_flag_exit_2(sub, key, capsys):
    flag, kwargs = OPTIONS[key]
    value = [] if kwargs.get("action") == "store_const" else ["1"]
    code, out, err = run_cli([sub, "--family", "su2", flag, *value], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("inadmissible")
    assert f"unrecognized arguments: {flag}" in err  # not "ambiguous option" (asymptote --L)


@pytest.mark.parametrize("sub, key, value", [
    ("haar", "log2", True), ("scan", "seed", 7), ("oracle", "max_sweeps", 1),
    ("compute", "samples", 5), ("dynamics", "fmt", "json"), ("asymptote", "L", 64),
])
def test_config_unread_key_exit_2(sub, key, value, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": "su2", key: value}))
    code, out, err = run_cli([sub, "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("inadmissible") and key in err


@pytest.mark.parametrize("args", [
    ["compute", "--backend", "bogus"],
    ["compute", "--L", "x"],
    ["compute", "--bogus", "1"],
    ["bogus"],
    [],
    ["compute", "--family", "su2", "--L", "8", "--quant", "en"],  # no abbreviated flags
    ["scan", "--fam", "su2", "--L-list", "8"],
])
def test_parser_errors_take_one_line(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("inadmissible")


@pytest.mark.parametrize("family", [["tl", "--N", "3"], ["tl", "--N", "2"], ["sun", "--N", "3"],
                                    ["u1"], ["pf", "--N", "2"]])
def test_haar_refuses_other_families(family, capsys):
    code, out, err = run_cli(["haar", "--L", "8", "--family", *family], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "haar needs su2" in err


@pytest.mark.parametrize("cut, mean", [(None, "0.274108913262"), (2, "0.225270910844")])
def test_haar_reads_family_and_cut(cut, mean, capsys):
    args = ["haar", "--L", "8", "--lambda-max", "2", "--samples", "3"]
    args += [] if cut is None else ["--cut", str(cut)]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert run_cli(args + ["--family", "sun", "--N", "2"], capsys) == (0, out, "")
    spec = HaarEnsembleSpec(L=8, lambda_max=2, samples=3, seed=12345, L_A=cut)
    row = out.splitlines()[-1].split(",")
    curve = haar_average_negativity(spec)
    assert row[4] == mean == f"{curve[-1][0]:.12g}"
    # one point row per lambda_max' = 0..2, in the curve's order
    points = [r.split(",") for r in out.splitlines()[1:] if r.startswith("point")]
    assert [(p[3], p[4], p[5]) for p in points] == [
        (f"{lam / 8:.12g}", f"{m:.12g}", f"{se:.12g}") for lam, (m, se) in enumerate(curve)]


def test_haar_refuses_sector_dims_past_the_float_range(capsys):
    code, out, err = run_cli(["haar", "--family", "su2", "--L", "1040", "--samples", "2",
                              "--lambda-max", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "float range" in err


def test_log_backend_length_cap_exit_4():
    # the log backend needs about 15 B per site; the child runs under a memory
    # cap in case the table is built rather than refused
    code = ("import resource, sys, time; "
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            "from statent.cli import main; t = time.perf_counter(); rc = main(sys.argv[1:]); "
            "print(time.perf_counter() - t); sys.exit(rc)")
    out = subprocess.run(
        [sys.executable, "-c", code, "compute", "--family", "su2", "--L", "1000000000"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(statent.__file__))},
    )
    assert out.returncode == 4, out.stderr
    assert out.stderr.count("\n") == 1 and out.stderr.startswith("resource cap")
    assert float(out.stdout) < 1.0
