import json
import subprocess
import sys

import pytest

from knotsig.cli import main


def run_cli(*args, env_extra=None, cwd=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "knotsig.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


def test_bounds_json_example():
    r = run_cli("bounds", "-5_1 # -10_132", "--format", "json")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["u1"] == 2
    assert data["u2"] == 3
    f = data["factors"][0]
    assert f["coefficients"] == [1, -1, 1, -1, 1]
    assert f["cyclotomic"] == 10
    assert (f["jump_max"], f["sigma_min"], f["sigma_max"]) == (2, 0, 2)
    assert (f["negative_to_positive"], f["positive_to_negative"]) == (2, 1)
    assert [r["t_exact"] for r in f["roots"]] == ["1/10", "3/10"]


def test_bounds_unknot():
    r = run_cli("bounds", "unknot", "--format", "json")
    data = json.loads(r.stdout)
    assert data["u1"] == data["u2"] == data["g4"] == data["clasp"] == 0
    assert data["nonbalanced"] == data["double_slice"] == 0
    assert data["factors"] == []


def test_gordian_text():
    r = run_cli("gordian", "T(2,3)", "unknot")
    assert r.returncode == 0
    assert "gordian distance >= 1" in r.stdout


def test_exit_codes():
    r = run_cli("bounds", "99_99")
    assert r.returncode == 1
    assert "unknown" in r.stderr

    r = run_cli("bounds")  # missing argument
    assert r.returncode == 2

    r = run_cli("nonsense")
    assert r.returncode == 2

    r = run_cli("bounds", "3_1 @@")
    assert r.returncode == 1

    r = run_cli("bounds", "T(-2,3)")
    assert r.returncode == 1
    assert "Traceback" not in r.stderr

    # a multiplier too large to be an index is an expression error
    r = run_cli("bounds", "99999999999999999999*3_1")
    assert r.returncode == 1
    assert "multiplier 99999999999999999999" in r.stderr and "Traceback" not in r.stderr

    # an index, but a list too long for CPython to make: refused, not allocated
    r = run_cli("bounds", "1000000000000000000*3_1")
    assert r.returncode == 1
    assert "multiplier 1000000000000000000 is too large" in r.stderr
    assert "Traceback" not in r.stderr

    r = run_cli("oracle-check", "--range", "-1")
    assert r.returncode == 1
    assert r.stderr.startswith("knotsig oracle-check: error: ")
    assert "Traceback" not in r.stderr

    r = run_cli("bounds", "8_20", "--format", "json", "--precision", "-3")
    assert r.returncode == 2
    assert "--precision" in r.stderr and r.stdout == ""

    # a negative margin is a usage error, not an unreachable lattice state
    r = run_cli("oracle-check", "--range", "2", "--margin", "-9")
    assert r.returncode == 2
    assert "--margin: must be nonnegative" in r.stderr and r.stdout == ""


def test_mixed_table_query_is_pinned():
    # 8m1 is a congruence-mixed 2*T(2,5): one 8x8 block with Phi_10^2 inside
    # it, so its non-balanced values come from the ScaledOrder path.  The
    # config's relative table_path resolves against the repository root.
    from pathlib import Path

    from knotsig.knotio import read_seifert_file

    root = Path(__file__).resolve().parent.parent
    [(name, V)] = read_seifert_file(root / "tests" / "data" / "mixed.json")
    assert name == "8m1" and [len(B) for B in V.blocks] == [8]
    r = run_cli("--config", "tests/data/mixed.cfg", "bounds", "8m1", "--format", "json",
                "--precision", "30", cwd=root)
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout == (root / "tests" / "data" / "8m1_bounds.json").read_text()


def test_signature_csv():
    r = run_cli("signature", "5_1", "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "plateau,0,1/10,0"
    assert lines[1] == "breakpoint,1/10,-1,-2,-1"
    assert lines[2] == "plateau,1/10,3/10,-2"
    assert lines[3] == "breakpoint,3/10,-1,-6,-3"
    assert lines[4] == "plateau,3/10,1/2,-4"


def test_signature_csv_decimal_roots():
    r = run_cli("signature", "7_4", "--format", "csv", "--precision", "5")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    # arccos(7/8)/(2 pi) = 0.08043...
    assert lines[1].startswith("breakpoint,0.08043,")


def test_signature_svg(tmp_path):
    out = tmp_path / "plot.svg"
    r = run_cli("signature", "-5_1 # -10_132", "--format", "svg", "-o", str(out))
    assert r.returncode == 0
    text = out.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert "circle" in text


def test_output_dir_env(tmp_path):
    r = run_cli("signature", "3_1", "--format", "csv", "-o", "sub/out.csv",
                env_extra={"KNOTSIG_OUTPUT_DIR": str(tmp_path)})
    assert r.returncode == 0
    assert (tmp_path / "sub" / "out.csv").exists()


def test_table_listing():
    r = run_cli("table")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "name      size  signature(-1)  alexander (symmetric form)",
        "3_1          2             -2  x^-1 * (x^2 - x + 1)",
        "4_1          2              0  x^-1 * (-x^2 + 3*x - 1)",
        "5_1          4             -4  x^-2 * (x^4 - x^3 + x^2 - x + 1)",
        "7_4          2             -2  x^-1 * (4*x^2 - 7*x + 4)",
        "8_2          6             -4  x^-3 * (-x^6 + 3*x^5 - 3*x^4 + 3*x^3 - 3*x^2 + 3*x - 1)",
        "8_20         6              0  x^-2 * (x^4 - 2*x^3 + 3*x^2 - 2*x + 1)",
        "10_132       4              0  x^-2 * (x^4 - x^3 + x^2 - x + 1)",
        "11n6         6              0  x^-3 * (-x^6 + 3*x^5 - 3*x^4 + 3*x^3 - 3*x^2 + 3*x - 1)",
    ]
    r = run_cli("table", "--format", "json")
    data = json.loads(r.stdout)
    names = [e["name"] for e in data]
    assert names == ["3_1", "4_1", "5_1", "7_4", "8_2", "8_20", "10_132", "11n6"]
    assert [e["lowest_exponent"] for e in data] == [-1, -1, -2, -1, -3, -2, -2, -3]
    assert data[5]["alexander"] == [1, -2, 3, -2, 1]


def test_oracle_check_cli():
    r = run_cli("oracle-check", "--range", "4", "--format", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["ok"] is True and data["mismatch_count"] == 0


def test_config_file(tmp_path):
    knots = tmp_path / "extra.json"
    knots.write_text(json.dumps([{"name": "9_42", "matrix": [[-1, 0], [1, -1]]}]))
    cfg = tmp_path / "knotsig.conf"
    cfg.write_text(f"# comment\noracle_range = 2\ntable_path = {knots}\n")
    r = run_cli("--config", str(cfg), "bounds", "9_42", "--format", "json")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["u2"] == 1
    r = run_cli("--config", str(cfg), "oracle-check", "--format", "json")
    assert json.loads(r.stdout)["range"] == 2
    # names match without regard to case, so two that differ only in case clash
    knots.write_text(json.dumps([{"name": "9K1", "matrix": [[-1, 0], [1, -1]]}]))
    for spelling in ("9K1", "9k1"):
        r = run_cli("--config", str(cfg), "bounds", spelling, "--format", "json")
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["u2"] == 1
    knots.write_text(json.dumps([{"name": "9K1", "matrix": [[-1, 0], [1, -1]]},
                                 {"name": "9k1", "matrix": [[-1, 0], [1, -1]]}]))
    r = run_cli("--config", str(cfg), "bounds", "9k1")
    assert r.returncode == 1
    assert "entry 1: name '9k1' repeats entry 0" in r.stderr, r.stderr
    for bad in ("abc", "-1", "2.5"):
        cfg.write_text(f"oracle_range = {bad}\n")
        r = run_cli("--config", str(cfg), "oracle-check")
        assert r.returncode == 1, bad
        assert r.stderr.startswith("knotsig oracle-check: error: "), r.stderr
        assert "Traceback" not in r.stderr


def test_config_file_not_utf8(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe=1\n")
    r = run_cli("--config", str(cfg), "bounds", "3_1")
    assert r.returncode == 1
    assert r.stderr == f"knotsig bounds: error: {cfg}: not UTF-8 text (byte 0)\n"


def test_table_file_not_utf8(tmp_path):
    knots = tmp_path / "extra.json"
    knots.write_bytes(b'[{"name": "9_42\xff", "matrix": [[-1, 0], [1, -1]]}]')
    cfg = tmp_path / "knotsig.conf"
    cfg.write_text(f"table_path = {knots}\n")
    r = run_cli("--config", str(cfg), "bounds", "3_1")
    assert r.returncode == 1
    assert r.stderr == f"knotsig bounds: error: {knots}: not UTF-8 text (byte 15)\n"


def test_table_path_read_only_by_knot_commands(tmp_path, capsys):
    # a missing or invalid table fails the commands that resolve expressions;
    # oracle-check and table resolve none, so it does not touch them
    plain = {}
    for argv in (["oracle-check", "--range", "2"], ["table"]):
        assert main(argv) == 0
        plain[argv[0]] = capsys.readouterr().out
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("[{")
    cfg = tmp_path / "knotsig.conf"
    for table in (tmp_path / "missing.json", bad_json):
        cfg.write_text(f"table_path = {table}\n")
        assert main(["--config", str(cfg), "bounds", "3_1"]) == 1
        assert str(table) in capsys.readouterr().err
        for argv in (["oracle-check", "--range", "2"], ["table"]):
            assert main(["--config", str(cfg), *argv]) == 0
            assert capsys.readouterr() == (plain[argv[0]], "")


def test_bounds_json_rational_trace_roots(tmp_path):
    # Delta = (x - 2)(2x - 1)(5x^2 - 9x + 5)(9x^2 - 17x + 9): the circle roots
    # sit at z = 9/5 and z = 17/9, and 9/5 is a decimal that no dyadic
    # isolating interval can truncate
    V = [[1, 0, 1, -1, -1, -2], [-1, 1, 1, 2, 1, 2], [1, 1, -1, 0, 0, -1],
         [-1, 2, -1, -1, 2, 2], [-1, 1, 0, 2, 0, 0], [-2, 2, -1, 2, -1, 2]]
    knots = tmp_path / "extra.json"
    knots.write_text(json.dumps([{"name": "6g2", "matrix": V}]))
    cfg = tmp_path / "knotsig.conf"
    cfg.write_text(f"table_path = {knots}\n")
    r = subprocess.run([sys.executable, "-m", "knotsig.cli", "--config", str(cfg), "bounds",
                        "6g2", "--format", "json", "--precision", "20"],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    zs = sorted(root["z"] for f in json.loads(r.stdout)["factors"] for root in f["roots"])
    assert zs == ["1.80000000000000000000", "1.88888888888888888888"]


def test_json_roundtrip_byte_identical():
    r = run_cli("bounds", "8_2 # -5_1", "--format", "json")
    reparsed = json.dumps(json.loads(r.stdout), indent=2, ensure_ascii=False) + "\n"
    assert reparsed == r.stdout


def test_determinism_three_runs_and_threads():
    outputs = set()
    for _ in range(3):
        r = run_cli("bounds", "-8_2 # 10_132", "--format", "json", "--jobs", "1")
        outputs.add(r.stdout)
    r = run_cli("bounds", "-8_2 # 10_132", "--format", "json", "--jobs", "4")
    outputs.add(r.stdout)
    assert len(outputs) == 1


def test_main_callable_directly(capsys):
    rc = main(["table"])
    assert rc == 0
    assert "3_1" in capsys.readouterr().out


# `knotsig <command> --help` at 80 columns, as printed before the option blocks of
# the knot commands were built in one loop; Python 3.10 to 3.12 print the same
# bytes, and 3.13 writes "--output, -o OUTPUT" for "--output OUTPUT, -o OUTPUT"
HELP_TEXT = {
    'signature': (
        'usage: knotsig signature [-h] [--format {text,json,csv,svg}]\n'
        '                         [--precision PRECISION] [--output OUTPUT]\n'
        '                         [--jobs JOBS]\n'
        '                         expression\n'
        '\n'
        'positional arguments:\n'
        '  expression\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --format {text,json,csv,svg}\n'
        '  --precision PRECISION\n'
        '                        certified decimal digits for algebraic angles\n'
        '  --output OUTPUT, -o OUTPUT\n'
        '  --jobs JOBS\n'
    ),
    'bounds': (
        'usage: knotsig bounds [-h] [--format {text,json}] [--precision PRECISION]\n'
        '                      [--output OUTPUT] [--jobs JOBS]\n'
        '                      expression\n'
        '\n'
        'positional arguments:\n'
        '  expression\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --format {text,json}\n'
        '  --precision PRECISION\n'
        '  --output OUTPUT, -o OUTPUT\n'
        '  --jobs JOBS\n'
    ),
    'gordian': (
        'usage: knotsig gordian [-h] [--format {text,json}] [--precision PRECISION]\n'
        '                       [--output OUTPUT] [--jobs JOBS]\n'
        '                       expression expression2\n'
        '\n'
        'positional arguments:\n'
        '  expression\n'
        '  expression2\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --format {text,json}\n'
        '  --precision PRECISION\n'
        '  --output OUTPUT, -o OUTPUT\n'
        '  --jobs JOBS\n'
    ),
    'clasp': (
        'usage: knotsig clasp [-h] [--format {text,json}] [--precision PRECISION]\n'
        '                     [--output OUTPUT] [--jobs JOBS]\n'
        '                     expression expression2\n'
        '\n'
        'positional arguments:\n'
        '  expression\n'
        '  expression2\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --format {text,json}\n'
        '  --precision PRECISION\n'
        '  --output OUTPUT, -o OUTPUT\n'
        '  --jobs JOBS\n'
    ),
    'oracle-check': (
        'usage: knotsig oracle-check [-h] [--range BOUND_RANGE] [--margin MARGIN]\n'
        '                            [--format {text,json}] [--output OUTPUT]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --range BOUND_RANGE\n'
        '  --margin MARGIN\n'
        '  --format {text,json}\n'
        '  --output OUTPUT, -o OUTPUT\n'
    ),
    'table': (
        'usage: knotsig table [-h] [--format {text,json}] [--output OUTPUT]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --format {text,json}\n'
        '  --output OUTPUT, -o OUTPUT\n'
    ),
    None: (
        'usage: knotsig [-h] [--config CONFIG]\n'
        '               {signature,bounds,gordian,clasp,oracle-check,table} ...\n'
        '\n'
        'Exact knot signature functions and unknotting bounds from Seifert matrices.\n'
        '\n'
        'positional arguments:\n'
        '  {signature,bounds,gordian,clasp,oracle-check,table}\n'
        '    signature           signature step function of a knot\n'
        '    bounds              all lower bounds for one knot\n'
        '    gordian             Gordian distance bound for two knots\n'
        '    clasp               singular-concordance (clasp) distance bound\n'
        '    oracle-check        verify bound formulas by exhaustive search\n'
        '    table               list built-in knots\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --config CONFIG       key=value file (oracle_range, table_path)\n'
    ),
}


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse help layout of 3.13")
@pytest.mark.parametrize("command", list(HELP_TEXT))
def test_help_text_is_unchanged(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"] if command is None else [command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == HELP_TEXT[command]
