import ast
import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from semiflow import (FlowPoint, cli, genericity, mixing, parallel, spectral,
                      transversality)
from semiflow.canon import canonical_csv, canonical_json
from semiflow.cli import (ParseError, ValidationError, emit, main,
                          parse_config, run)
from semiflow.dynamics import word_strings
from semiflow.errors import InvalidArgument, NumericalFailure

from oracles import Word, branch_point, branches_payload


def _config(**over):
    base = {
        "ceiling": {"ell": 2, "mean": 1.0, "harmonics": []},
        "gamma0": 0.9,
        "experiment": "mixing",
        "params": {"grid": 256, "depth": 8},
        "seed": 0,
        "workers": 1,
    }
    base.update(over)
    return base


def test_parse_minimal_config():
    cfg = parse_config(json.dumps(_config()))
    assert cfg.experiment == "mixing"
    assert cfg.ceiling.ell == 2
    assert cfg.params["grid"] == 256


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_config('{"ceiling": }')
    assert info.value.line == 1
    assert info.value.column is not None


def test_validation_gamma0_range():
    with pytest.raises(ValidationError) as info:
        parse_config(json.dumps(_config(gamma0=0.4)))
    assert any("gamma0" in v for v in info.value.violations)


def test_validation_positivity():
    bad = _config(ceiling={"ell": 2, "mean": -1.0, "harmonics": []})
    with pytest.raises(ValidationError) as info:
        parse_config(json.dumps(bad))
    assert any("positiv" in v for v in info.value.violations)


# f = 0.999999 + cos(6 pi x + a): its minimum, -1e-6, falls between the points
# of a 1024-point grid
DIP_CEILING = {"ell": 2, "mean": 0.999999,
               "harmonics": [[3, 0.9999576445519639, 0.00920375478205982]]}


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_every_subcommand_refuses_a_ceiling_dipping_below_zero_between_grid_points(
        experiment, capsys):
    assert main([experiment, "--set", "ceiling=" + json.dumps(DIP_CEILING)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ceiling violates positivity")
    assert "Traceback" not in err


def test_harmonic_index_up_to_1024_accepted():
    ceiling = {"ell": 2, "mean": 1.0, "harmonics": [[1024, 0.0, 0.2]]}
    cfg = parse_config(json.dumps(_config(ceiling=ceiling)))
    assert max(k for k, _, _ in cfg.ceiling.harmonics) == 1024


def test_each_ceiling_certified_once_per_order_across_every_subcommand():
    from semiflow.ceiling import extrema
    small = {
        "transversality": {"t_values": [2.0, 3.0], "nx": 8, "ns": 8},
        "mixing": {"grid": 256, "depth": 8},
        "spectrum": {"t": 1.0, "nx": 8, "ns": 2, "points_per_box": 16, "k": 4},
        "correlations": {"t_values": [0.0, 0.5], "nx": 16, "ns": 2},
        "norms": {"grid_n": 32, "num_functions": 1},
        "genericity": {"cluster_n_values": [4], "probe": True, "probe_n_values": [4],
                       "probe_samples": 10},
        "branches": {"t": 3.0},
    }
    ceilings = [{"ell": 2, "mean": 1.0, "harmonics": [[1, 0.0, 0.3], [2, 0.1, 0.0]]},
                {"ell": 3, "mean": 1.3,
                 "harmonics": [[1, 0.0, 0.3], [2, 0.1, 0.0], [3, 0.05, 0.05]]}]
    extrema.cache_clear()
    for ceiling in ceilings:
        for experiment, params in small.items():
            config = _config(ceiling=ceiling, experiment=experiment, params=params)
            run(parse_config(json.dumps(config)))
    info = extrema.cache_info()
    assert info.misses == 4 * len(ceilings)     # orders 0 to 3, the last two for classify
    assert info.hits > 0


def test_validation_unknown_keys_rejected():
    with pytest.raises(ValidationError) as info:
        parse_config(json.dumps(_config(mystery=1)))
    assert any("unknown key" in v for v in info.value.violations)


def test_validation_collects_all_violations():
    bad = _config(gamma0=0.3, seed=-1, mystery=2)
    with pytest.raises(ValidationError) as info:
        parse_config(json.dumps(bad))
    assert len(info.value.violations) >= 3


def test_run_mixing_constant_not_weakly_mixing():
    cfg = parse_config(json.dumps(_config()))
    report = run(cfg)
    assert report.payload["verdict"] == "NotWeaklyMixing"
    assert report.payload["residual_sup"] <= 1e-12
    assert "eigenfunction_defect" in report.payload


def test_emit_json_round_trip():
    cfg = parse_config(json.dumps(_config()))
    report = run(cfg)
    data = emit(report, "json")
    doc = json.loads(data)
    assert doc["payload"]["verdict"] == "NotWeaklyMixing"
    assert doc["config_hash"] == report.config_hash
    assert "wall_time_s" not in doc
    # the parsed payload reproduces the in-memory payload exactly (each
    # float's shortest repr round-trips it)
    assert doc["payload"] == json.loads(json.dumps(report.payload))


def test_emit_csv_correlation_schema():
    cfg = parse_config(json.dumps(_config(
        experiment="correlations",
        params={"t_values": [0.0, 0.5, 1.0], "nx": 32, "ns": 4,
                "psi": {"s": ["cos", 1.0]}, "phi": {"s": ["cos", 1.0]}})))
    report = run(cfg)
    text = emit(report, "csv").decode()
    lines = text.splitlines()
    assert lines[0] == "t,re,im"
    assert len(lines) == 4
    assert lines[1].endswith(",0.0")  # imaginary part of a real observable


def test_emit_rejects_unknown_format():
    cfg = parse_config(json.dumps(_config()))
    report = run(cfg)
    with pytest.raises(InvalidArgument):
        emit(report, "yaml")


def test_emit_csv_branch_schema():
    cfg = parse_config(json.dumps(_config(
        experiment="branches", params={"x": 0.3, "s": 0.0, "t": 3.0})))
    report = run(cfg)
    text = emit(report, "csv").decode()
    header = text.splitlines()[0]
    assert header == "word,n,y,s_prime,slope"
    assert len(text.splitlines()) == 1 + 8  # eight level-3 branches


BRANCH_CASES = [
    # ell = 2; t = 0 leaves only the empty word ""
    pytest.param({"ell": 2, "mean": 1.0, "harmonics": [[1, 0.0, 0.2]]},
                 {"x": 0.3, "s": 0.0, "t": 6.0}, id="sin-t6"),
    pytest.param({"ell": 2, "mean": 1.0, "harmonics": [[1, 0.0, 0.2]]},
                 {"x": 0.3, "s": 0.0, "t": 0.0}, id="sin-t0-empty-word"),
    pytest.param({"ell": 3, "mean": 1.3, "harmonics": [[1, 0.0, 0.3], [2, 0.1, 0.0]]},
                 {"x": 0.42, "s": 0.1, "t": 4.0}, id="base-three-t4"),
    # ell = 12: the letters 10, 11 and 12 print as two digits
    pytest.param({"ell": 12, "mean": 1.0, "harmonics": [[1, 0.0, 0.2]]},
                 {"x": 0.7, "s": 0.0, "t": 2.5}, id="base-twelve-two-digit-letters"),
]


@pytest.mark.parametrize("fmt", ["json", "jsonl", "csv"])
@pytest.mark.parametrize("ceiling, params", BRANCH_CASES)
def test_branches_report_bytes_equal_per_row_oracle(ceiling, params, fmt):
    # the rows built from the table's columns are the rows of a Word per
    # branch, sorted by letters
    cfg = parse_config(json.dumps(_config(experiment="branches", params=params,
                                          ceiling=ceiling)))
    report = run(cfg)
    payload = branches_payload(cfg.ceiling, FlowPoint(params["x"], params["s"]), params["t"])
    rows = payload["rows"]
    # the oracle adds the weights as fractions, and the report states the
    # identity inverse_branches checks; a float sum of the rows' ell^-n read
    # 1.0000000000000333 at ell = 12
    assert payload["weight_sum"] == report.payload["weight_sum"] == 1.0
    if params["t"] == 0.0:
        assert [row["word"] for row in rows] == [""]
    if ceiling["ell"] == 12:
        assert {"10", "11", "12"} <= {row["word"][:2] for row in rows}
    if fmt == "json":
        want = canonical_json({"config": report.config, "config_hash": report.config_hash,
                               "caveats": report.caveats, "payload": payload}) + "\n"
    elif fmt == "jsonl":
        want = "\n".join(canonical_json(row) for row in rows) + "\n"
    else:
        want = canonical_csv(rows, list(rows[0]))
    assert emit(report, fmt) == want.encode()


@pytest.mark.parametrize("ell, params", [
    pytest.param(11, {"x": 0.3, "s": 0.0, "t": 2.5}, id="base-eleven"),
    pytest.param(12, {"x": 0.7, "s": 0.0, "t": 2.5}, id="base-twelve"),
])
def test_two_digit_branch_words_are_distinct_and_decode_to_their_rows(ell, params):
    # every letter prints as two digits; unpadded, (1, 1, 11), (1, 11, 1) and
    # (11, 1, 1) all read "1111"
    ceiling = {"ell": ell, "mean": 1.0, "harmonics": [[1, 0.0, 0.2]]}
    cfg = parse_config(json.dumps(_config(experiment="branches", params=params,
                                          ceiling=ceiling)))
    rows = run(cfg).payload["rows"]
    assert len({row["word"] for row in rows}) == len(rows) > 1000
    for row in rows:
        text = row["word"]
        word = Word([int(text[i:i + 2]) for i in range(0, len(text), 2)], ell)
        assert len(word) == row["n"]
        assert branch_point(word, params["x"]) == pytest.approx(row["y"], rel=1e-14)


def test_word_strings_pad_each_letter_to_the_width_of_ell(capsys):
    # a zero letter ends its row's word; below ell = 10 a letter is one digit
    assert word_strings([[1, 10, 0], [10, 12, 3]], 12) == ["0110", "101203"]
    assert word_strings([[1, 2, 3], [9, 0, 0]], 9) == ["123", "9"]
    # genericity's base_word is printed the same way; unpadded, [1, 11] and
    # [11, 1] both read "111"
    words = []
    for letters in ("[1,11]", "[11,1]"):
        assert main(["genericity", "--set", "ceiling.ell=12", "--set",
                     f"params.cluster_word={letters}", "--set", "params.cluster_n_values=[3]",
                     "--format", "jsonl"]) == 0
        words.append(json.loads(capsys.readouterr().out)["base_word"])
    assert words == ["0111", "1101"]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
@example(x=-0.0)
@example(x=5e-324)
@example(x=2.2250738585072009e-308)
@example(x=0.05)
def test_canonical_json_contract(x):
    # every finite float, -0.0 and the subnormals included, comes back bit
    # for bit
    assert float.hex(json.loads(canonical_json(x))) == float.hex(x)
    # a complex is [re, im], a numpy scalar its Python value; keys keep
    # their insertion order and no whitespace is added
    obj = {"z": complex(x, -x), "b": np.float64(x),
           "a": [np.int64(3), np.bool_(True), np.float32(0.5), None], "s": 'q"\n'}
    assert canonical_json(obj) == (f'{{"z":[{x!r},{-x!r}],"b":{x!r},'
                                   f'"a":[3,true,0.5,null],"s":"q\\"\\n"}}')
    # a report holds only finite numbers
    for bad in (math.nan, math.inf, -math.inf, complex(x, math.inf), np.float64(math.nan)):
        with pytest.raises(NumericalFailure):
            canonical_json({"payload": [x, bad]})
    with pytest.raises(InvalidArgument):
        canonical_json({"payload": object()})


def test_canonical_json_stability():
    obj = {"b": 1.0, "a": [0.1, 2, None, True], "s": 'quote"inside'}
    one = canonical_json(obj)
    two = canonical_json(json.loads(json.dumps(obj)))
    assert one == two
    assert json.loads(one) == json.loads(two)


def test_canonical_json_shortest_repr():
    # each float prints as its shortest round-trip repr, no longer at 17
    # significant digits ("0.20000000000000001"); both parse to the same bits
    assert canonical_json(0.2) == "0.2"
    assert canonical_json(1.0) == "1.0"
    assert canonical_json(1e16) == "1e+16"


def test_canonical_csv_no_locale():
    rows = [{"a": 0.5, "b": "x,y"}, {"a": 1.0, "b": "plain"}]
    text = canonical_csv(rows, ["a", "b"])
    assert text.splitlines()[0] == "a,b"
    assert '"x,y"' in text


def test_empty_payload_valid_json():
    assert canonical_json([]) == "[]"
    assert json.loads(canonical_json([])) == []


def test_determinism_byte_identical():
    cfg_text = json.dumps(_config(
        experiment="spectrum",
        params={"t": 1.0, "nx": 8, "ns": 2, "points_per_box": 32, "k": 4}))
    a = emit(run(parse_config(cfg_text)), "json")
    b = emit(run(parse_config(cfg_text)), "json")
    assert a == b


def test_determinism_across_worker_counts():
    base = _config(experiment="transversality",
                   params={"t_values": [3.0, 4.0], "nx": 8, "ns": 8})
    one = emit(run(parse_config(json.dumps(dict(base, workers=1)))), "json")
    two = emit(run(parse_config(json.dumps(dict(base, workers=2)))), "json")
    assert one == two


@pytest.mark.parametrize("harmonics", [pytest.param([], id="harmonics0"),
                                       pytest.param([[1, 0.0, 0.2]], id="harmonics1")])
def test_transversality_bytes_independent_of_worker_count(harmonics):
    # nx = 9 columns split into chunks of 4 and 5; on the constant ceiling
    # every grid point ties and the argmax must stay at the first one
    base = _config(ceiling={"ell": 2, "mean": 1.0, "harmonics": harmonics},
                   experiment="transversality",
                   params={"t_values": [2.0, 3.5, 5.0], "nx": 9, "ns": 8})
    one = emit(run(parse_config(json.dumps(dict(base, workers=1)))), "json")
    two = emit(run(parse_config(json.dumps(dict(base, workers=2)))), "json")
    assert one == two
    if not harmonics:
        for rec in json.loads(one)["payload"]["records"]:
            assert rec["argmax"] == {"x": 0.0, "s": 0.0}


def test_caveat_strings_appear_verbatim():
    spec_cfg = _config(experiment="spectrum",
                       params={"t": 1.0, "nx": 8, "ns": 2, "points_per_box": 32,
                               "k": 4})
    report = run(parse_config(json.dumps(spec_cfg)))
    assert "discretized spectrum" in report.caveats

    trans_cfg = _config(experiment="transversality",
                        params={"t_values": [3.0, 4.0, 5.0], "nx": 8, "ns": 8})
    report = run(parse_config(json.dumps(trans_cfg)))
    assert "grid lower bound" in report.caveats
    assert "C^r norm surrogate truncated at order 3" in report.caveats


def test_transversality_records_schema():
    cfg = parse_config(json.dumps(_config(
        experiment="transversality",
        params={"t_values": [2.5, 3.5, 4.5], "nx": 8, "ns": 8})))
    report = run(cfg)
    # no derived fields: the grid is the config's nx and ns, and the argmax
    # lies on the section exactly when its s is 0
    for rec in report.payload["records"]:
        assert list(rec) == ["t", "m_value", "m_upper", "n_value", "slack", "argmax",
                             "fitted_rate"]
        assert list(rec["argmax"]) == ["x", "s"]
    assert report.payload["fitted_rate"] == pytest.approx(1.0, abs=1e-9)


def test_cli_main_resource_limit_exit_code(tmp_path, capsys):
    cfg = _config(experiment="transversality",
                  params={"t_values": [60.0], "nx": 8, "ns": 8})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["transversality", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "t_limit" in captured.out


def test_cli_main_branch_cap_refusal_stays_small():
    # f = 1 at t = 60 needs a level of 2^60 words; the scan builds at most
    # one level of 2^20 candidate words before it refuses, so the refusal
    # peaks below 200 MiB.  A fresh interpreter, which reads its own peak
    # resident size VmHWM: its ru_maxrss would carry the pytest parent's
    # peak over the fork and exec of subprocess.run
    script = """
import sys
from semiflow.cli import main
code = main(["transversality", "--set", "params.t_values=[60.0]",
             "--set", "params.nx=8", "--set", "params.ns=8"])
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, peak, file=sys.stderr)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    code, peak_kib = map(int, proc.stderr.split())
    assert code == 2
    doc = json.loads(proc.stdout)
    assert doc["cap"] == 2 ** 20 and doc["t_limit"] == 19.0
    assert peak_kib < 200 * 1024


def test_cli_main_resource_limit_names_largest_t(monkeypatch, capsys):
    from semiflow import dynamics
    monkeypatch.setattr(dynamics, "BRANCH_CAP", 2 ** 12)
    assert main(["transversality", "--set", "params.t_values=[3.0,40.0,5.0]"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "resource-limit" and doc["cap"] == 2 ** 12
    assert "t_limit" in doc and "at t=40.0 " in doc["message"]


def test_cli_main_word_length_limit_exit_code(capsys):
    # f(0) = 0.05: the branches at x = 0, t = 3.5 need words longer than an
    # int64 index can hold; that ends in exit 2, not a traceback
    argv = ["branches", "--set", 'ceiling={"ell": 2, "mean": 1.0, "harmonics": [[1, -0.95, 0.0]]}',
            "--set", "params.x=0.0", "--set", "params.t=3.5"]
    assert main(argv) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "resource-limit" and doc["max_length"] == 62


def test_cli_main_validation_exit_code(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config(gamma0=2.0)))
    code = main(["mixing", str(path)])
    assert code == 1
    assert "validation error" in capsys.readouterr().err


def test_cli_main_parse_exit_code(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    code = main(["mixing", str(path)])
    assert code == 1
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["branches", "--workers", "x"], "argument --workers: invalid int value: 'x'",
                 id="workers-not-an-integer"),
    pytest.param(["branches", "--format", "xml"], "argument --format: invalid choice: 'xml'",
                 id="unknown-format"),
    pytest.param(["ulam"], "argument experiment: invalid choice: 'ulam'",
                 id="unknown-subcommand"),
    pytest.param(["branches", "--seed"], "unrecognized arguments: --seed",
                 id="unknown-flag"),
    pytest.param([], "the following arguments are required: experiment",
                 id="missing-subcommand"),
])
def test_cli_usage_errors_exit_1(argv, message, capsys):
    # exit 2 is the resource limit's alone; a usage error is rejected input
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: semiflow") and f"error: {message}" in err


@pytest.mark.parametrize("argv", [pytest.param(["--help"], id="semiflow"),
                                  pytest.param(["branches", "--help"], id="subcommand")])
def test_cli_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: semiflow")


@pytest.mark.parametrize("argv, message", [
    # the probe family's bumps reach below a ceiling of height 0.01
    pytest.param(["genericity", "--set", "ceiling.mean=0.01", "--set", "params.probe=true"],
                 "error: family leaves the positive ceilings", id="genericity-probe-family"),
    pytest.param(["mixing", "--format", "csv"], "error: payload has no tabular section",
                 id="mixing-csv"),
    pytest.param(["mixing", "--format", "jsonl"], "error: payload has no record section",
                 id="mixing-jsonl"),
])
def test_cli_main_runner_error_exit_code(argv, message, capsys):
    # errors raised once the config has passed end in a message, not a traceback
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err


def _set(*items):
    """``--set`` arguments for override items."""
    return [a for item in items for a in ("--set", item)]


# per kind of cli._KINDS, values of other kinds
_NOT_OF_KIND = {
    "an integer": [1.5, True, "3"],
    "a power of two": [48, 0, 64.0, True],
    "a number": ["1", True, None, math.nan, math.inf, 10 ** 400],
    "true or false": [1, "no", None],
    "a path, or - for stdout": [7, "report\0.json"],
    "an object": [[1], None],
    "a list of integers": [5, [1.5], [True]],
    "a nonempty list of integers": [[], [1.5], [True], 1],
    "a list of numbers": [5, ["a"], [True], [math.nan]],
    "a nonempty list of numbers": [[], [True], "3", [0, 1, "a"], [math.inf], [math.nan],
                                   [10 ** 400]],
    "one of transversality, mixing, spectrum, correlations, norms, genericity, branches":
        [[1], "ulam"],
    "a list of [integer, number, number]": [5, [1], [[1, 0.0]], [[1, "a", 0]], [[1.5, 0, 0.1]]],
    # a wave's frequency is bounded with its kind: 2 pi a s overflowed at a = 1e308
    'null or ["cos" or "sin", integer in [-1024, 1024]]':
        ["cos", ["cos"], ["tan", 1], ["cos", 0.5], ["cos", 1025], ["sin", -10 ** 300]],
    'null or ["cos" or "sin", number in [-1024, 1024]]':
        [["cos"], ["cos", "a"], ["cos", math.nan], ["cos", math.nextafter(1024.0, math.inf)],
         ["cos", 1e308], ["sin", -1024.5]],
}

# table -> (its entries, the subcommand, the --set path of a key, the prefix
# of the key's violations)
_TABLES = {
    "top": (cli._TOP, "branches", "{}", ""),
    "ceiling": (cli._CEILING, "branches", "ceiling.{}", "bad ceiling: "),
    "psi": (cli._OBSERVABLE, "correlations", "params.psi.{}", "bad psi: "),
    **{exp: (table, exp, "params.{}", "") for exp, table in cli._SCHEMA.items()},
}


def _either_side(kind, bound):
    """The values of ``kind`` just inside and just across ``bound``, such as
    ">= 1": integers step by 1, powers of two halve or double, numbers move
    to the next float, and a list holds one such item."""
    op, limit = bound.split()
    if "power" in kind:
        edge, step = int(limit), lambda v, up: v * 2 if up else v // 2
    elif "integer" in kind:
        edge, step = int(limit), lambda v, up: v + 1 if up else v - 1
    else:
        edge, step = float(limit), lambda v, up: math.nextafter(v, math.inf if up else -math.inf)
    up = op.startswith("<")  # the values across an upper bound lie above it
    inside, across = (edge, step(edge, up)) if op.endswith("=") else (step(edge, not up), edge)
    return ([inside], [across]) if "list" in kind else (inside, across)


def _short(value) -> str:
    """A sample's JSON text for a test id, cut past 32 characters."""
    text = json.dumps(value, separators=(",", ":"))
    return text if len(text) <= 32 else f"{text[:12]}...{len(text)}chars"


# per entry of every table, one case per wrong-kind sample and one per bound:
# (table, key, the refused value, the value just inside the bound or None)
_TABLE_CASES = [
    *(pytest.param(name, key, value, None, id=f"{name}-{key}-kind-{_short(value)}")
      for name, (table, *_) in _TABLES.items() for key, param in table.items()
      for value in _NOT_OF_KIND.get(param.kind, [])),
    *(pytest.param(name, key, *_either_side(param.kind, bound)[::-1],
                   id=f"{name}-{key}-{bound.replace(' ', '')}")
      for name, (table, *_) in _TABLES.items() for key, param in table.items()
      for bound in filter(None, param.bounds.split(" and "))),
]


@pytest.mark.parametrize("table, key, value, inside", _TABLE_CASES)
def test_table_refusal(table, key, value, inside, monkeypatch, capsys):
    # the value is refused in its entry's own words, and the value just
    # inside the bound parses once no rule relates values (at ell = 2 and
    # with the probe on, its rule refuses probe_n_values = [1])
    entries, experiment, path, prefix = _TABLES[table]
    for name in cli._RUNNERS:
        monkeypatch.setitem(cli._RUNNERS, name, lambda cfg: ({}, []))
    assert main([experiment, *_set(f"{path.format(key)}={json.dumps(value)}")]) == 1
    err = capsys.readouterr().err
    assert f"validation error: {prefix}{key} must be {entries[key].rule}, got {value!r}" \
        in err.splitlines()
    assert "Traceback" not in err
    if inside is not None:
        monkeypatch.setattr(cli, "_RULES", {})
        assert main([experiment, *_set(f"{path.format(key)}={json.dumps(inside)}")]) == 0
        assert capsys.readouterr().err == ""


JUST_OVER = 2.0 ** 256 * (1 + 2.0 ** -52)

# the refusals the tables cannot express, with f = 1 and ell = 2 unless set:
# (id, the start of the cli._RULES text broken or None, the subcommand, the
# overrides, the start of the first violation).  The three lists run under
# the three test names their cases have always had, and each id is written
# out, so that deleting a case renames no other.

# cli._RULES: the rules that read the ceiling, each broken alone
_CEILING_RULE_BREAKERS = [
    ("letters", "cluster_word letters must lie in", "genericity",
     ["params.cluster_word=[1,3]"], "cluster_word letters must lie in 1..2, got [1, 3]"),
    ("word-index", "ell^m must be <= 2^63 - 1", "genericity",
     ["params.cluster_word=" + json.dumps([1] * 63)],
     "cluster_word of m = 63 letters: ell^m = 2^63 exceeds the int64 word index"),
    ("cluster-cap", "ell^n must be <= 1048576", "genericity",
     ['ceiling={"ell":3,"mean":1.0,"harmonics":[]}', "params.cluster_n_values=[12,13]"],
     "cluster_n_values entry n = 13: ell^n = 3^13 exceeds the cluster cap 1048576"),
    ("probe-index", "ell^n must be <= 2^63 - 1", "genericity",
     ["params.probe=true", "params.probe_n_values=[8,63]"],
     "probe level n = 63: ell^n = 2^63 exceeds the int64 word index"),
    ("probe-room", "ell^n must be >= p + 1", "genericity",
     ["params.probe=true", "params.probe_n_values=[2,8]"],
     "probe level n = 2 gives fewer than the p + 1 = 6 distinct words a combination needs"),
    ("target-above-roof", "(x, s) must lie under the roof", "branches", ["params.s=1.5"],
     "target (x=0.3, s=1.5) is outside the region under the ceiling"),
    # a target on the roof is the base point (tau x, 0), which must be passed instead
    ("target-on-roof", "(x, s) must lie under the roof", "branches",
     ["params.s=0.9999999999999"], "target (x=0.3, s=0.9999999999999) lies on the roof"),
]

# a violation quotes a long list, object or string by its start and its length
_ECHO_CUTS = [
    ("cluster-word", None, "genericity", ["params.cluster_word=" + json.dumps([3] + [1] * 60000)],
     f"cluster_word letters must lie in 1..2, got [3, {'1, ' * 7}… (60001 entries)]"),
    ("schema", None, "transversality", ["params.t_values=" + json.dumps([-1] * 60001)],
     f"t_values must be a nonempty list of numbers >= 0, got [{'-1, ' * 8}… (60001 entries)]"),
    ("object", None, "transversality",
     ["params.nx=" + json.dumps({str(i): i for i in range(60001)})],
     "nx must be an integer >= 8, got {" + "".join(f"'{i}': {i}, " for i in range(8))
     + "… (60001 entries)}"),
    ("string", None, "transversality", ["params.nx=" + "x" * 60001],
     f"nx must be an integer >= 8, got {'x' * 64!r}… (60001 characters)"),
    ("mixing-unknown-key", None, "mixing", [f"params.{'k' * 60000}=1"],
     f"unknown mixing parameter {'k' * 64!r}… (60000 characters)"),
]

_BAD_PARAMS = [
    # cli._RULES: the product caps, which size one allocation before it is made
    ("argv47-validation error: nx*ns must be <= 65536", "nx*ns must be <= 65536",
     "transversality", ["params.nx=8193", "params.ns=8"], "nx*ns must be <= 65536"),
    ("argv45-validation error: nx*ns*points_per_box must be <= 4194304",
     "nx*ns*points_per_box must be <= 4194304", "spectrum", ["params.points_per_box=32769"],
     "nx*ns*points_per_box must be <= 4194304"),
    ("argv36-validation error: nx*ns must be <= 4194304", "nx*ns must be <= 4194304",
     "correlations", ["params.nx=524289"], "nx*ns must be <= 4194304"),
    # cli._RULES: the norms' cones, whose rounded angle arcs meet just below 2
    ("norms-cones-meet", "the cones' angle arcs", "norms",
     ["params.slope_margin=1.9999999999999998"],
     "the cones' angle arcs meet at slope_margin = 1.9999999999999998"),
    # cli._RULES that read the ceiling, past the cases above
    ("argv69-validation error: cluster_word letters must lie in 1..2",
     "cluster_word letters must lie in", "genericity", ["params.cluster_word=[3]"],
     "cluster_word letters must lie in 1..2, got [3]"),
    ("probe-level-70-index", "ell^n must be <= 2^63 - 1", "genericity",
     ["params.probe=true", "params.probe_n_values=[70]"], "probe level n = 70:"),
    ("probe-level-1-room", "ell^n must be >= p + 1", "genericity",
     ["params.probe=true", "params.probe_n_values=[1]"], "probe level n = 1 "),
    ("argv68-validation error: target outside the region", "(x, s) must lie under the roof",
     "branches", ["params.s=5.0"], "target (x=0.3, s=5.0) is outside the region under the ceiling"),
    ("argv70-validation error: target on the roof at t = 0", "(x, s) must lie under the roof",
     "branches", ["params.s=1.0", "params.t=0"], "target (x=0.3, s=1.0) lies on the roof"),
    ("argv71-validation error: target on the roof at t = 0.5", "(x, s) must lie under the roof",
     "branches", ["params.s=1.0", "params.t=0.5"], "target (x=0.3, s=1.0) lies on the roof"),
    # cli._ceiling past the entries: the TrigPolynomial invariants, the
    # coefficient magnitudes, positivity and the certified range
    ("argv44-validation error: bad ceiling: ell must be an integer in [2, 9223372036854775807]",
     None, "branches", ["ceiling.ell=9223372036854775808"],
     "bad ceiling: ell must be an integer in [2, 9223372036854775807], a 64-bit word index"),
    ("argv35-validation error: bad ceiling: ", None, "branches",
     ["ceiling.harmonics=[[1025,0,0.1]]"],
     "bad ceiling: harmonic index must be an integer in [1, 1024], got 1025"),
    ("ceiling-harmonics-index-below", None, "branches", ["ceiling.harmonics=[[0,0,0.1]]"],
     "bad ceiling: harmonic index must be an integer in [1, 1024], got 0"),
    ("ceiling-harmonics-repeated-index", None, "branches",
     ["ceiling.harmonics=[[3,0,0.1],[3,0.1,0]]"], "bad ceiling: duplicate harmonic index 3"),
    ("argv38-validation error: bad ceiling: mean and harmonic", None, "branches",
     [f"ceiling.mean={JUST_OVER!r}"],
     "bad ceiling: mean and harmonic coefficients must be at most 2^256 in magnitude"),
    ("argv39-validation error: bad ceiling: mean and harmonic", None, "genericity",
     ['ceiling={"ell":2,"mean":1e308,"harmonics":[]}'],
     "bad ceiling: mean and harmonic coefficients must be at most 2^256 in magnitude"),
    ("argv42-validation error: bad ceiling: mean and harmonic", None, "branches",
     [f"ceiling.harmonics=[[1,{JUST_OVER!r},0]]"],
     "bad ceiling: mean and harmonic coefficients must be at most 2^256 in magnitude"),
    ("argv65-validation error: ceiling violates positivity", None, "branches",
     ["ceiling.harmonics=[[1,1.0,0]]"],
     "ceiling violates positivity: it must be strictly positive"),
    ("argv40-validation error: bad ceiling: certified range", None, "branches",
     [f"ceiling.mean={2.0 ** -257!r}"],
     "bad ceiling: certified range [4.31808e-78, 4.31808e-78] must lie in [2^-256, 2^256]"),
    ("argv41-validation error: bad ceiling: certified range", None, "genericity",
     ['ceiling={"ell":2,"mean":1e-310,"harmonics":[]}'], "bad ceiling: certified range"),
    ("argv43-validation error: bad ceiling: certified range", None, "branches",
     ["ceiling.mean=1e77", "ceiling.harmonics=[[1,5e76,0]]"],
     "bad ceiling: certified range [5e+76, 1.5e+77] must lie in [2^-256, 2^256]"),
    # the standing hypothesis gamma0 in (1/ell, 1), at both open ends
    ("argv64-validation error: gamma0 must lie in (1/ell, 1)", None, "branches", ["gamma0=0.5"],
     "gamma0 must lie in (1/ell, 1) = (1/2, 1), got 0.5"),
    ("top-gamma0-interval-above", None, "branches", ["gamma0=1.0"],
     "gamma0 must lie in (1/ell, 1) = (1/2, 1), got 1.0"),
    # removed knobs stay refused: the mixing verdict has no thresholds,
    # the spectrum's essential bound was never certified, its one sampler is
    # the lattice, and no other has an effect
    ("argv12-validation error: unknown spectrum parameter 'bound_ns'", None, "spectrum",
     ["params.bound_ns=0"], "unknown spectrum parameter 'bound_ns'"),
    ("argv46-validation error: unknown spectrum parameter 'bound_nx'", None, "spectrum",
     ["params.bound_nx=100000"], "unknown spectrum parameter 'bound_nx'"),
    ("argv54-validation error: unknown spectrum parameter 'with_bound'", None, "spectrum",
     ["params.with_bound=true"], "unknown spectrum parameter 'with_bound'"),
    ("spectrum-mode-removed", None, "spectrum", ['params.mode="lattice"'],
     "unknown spectrum parameter 'mode'"),
    ("argv57-validation error: unknown mixing parameter 'tol_strict'", None, "mixing",
     ["params.tol_strict=5"], "unknown mixing parameter 'tol_strict'"),
    ("argv58-validation error: unknown mixing parameter 'tol_clear'", None, "mixing",
     ["params.tol_clear=1e-9"], "unknown mixing parameter 'tol_clear'"),
    ("argv18-validation error: unknown branches parameter 'theta'", None, "branches",
     ["params.theta=true"], "unknown branches parameter 'theta'"),
    ("argv27-validation error: unknown transversality parameter 'nL'", None, "transversality",
     ["params.nL=8"], "unknown transversality parameter 'nL'"),
    # an integer literal too long to convert stays the string it was, cut
    ("argv30-validation error: x", None, "branches", ["params.x=1" + "0" * 5000],
     f"x must be a number >= 0 and < 1, got {'1' + '0' * 63!r}… (5001 characters)"),
]

_REFUSALS = _CEILING_RULE_BREAKERS + _ECHO_CUTS + _BAD_PARAMS


def _refused(experiment, sets, message, monkeypatch, capsys):
    # each refusal is a short validation error at parse: no runner starts
    calls = []
    for name in cli._RUNNERS:
        monkeypatch.setitem(cli._RUNNERS, name, lambda cfg: calls.append(cfg) or ({}, []))
    assert main([experiment, *_set(*sets)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {message}") and "Traceback" not in err
    assert len(err.encode()) < 1000 and calls == []
    return err


def _refusal_params(cases):
    return [pytest.param(*case[2:], id=case[0]) for case in cases]


@pytest.mark.parametrize("experiment, sets, message", _refusal_params(_CEILING_RULE_BREAKERS))
def test_cli_main_ceiling_rules_refuse_before_any_run(experiment, sets, message, monkeypatch,
                                                      capsys):
    # each config breaks its rule alone
    assert len(_refused(experiment, sets, message, monkeypatch, capsys).splitlines()) == 1


@pytest.mark.parametrize("experiment, sets, message", _refusal_params(_ECHO_CUTS))
def test_violation_messages_cut_long_values(experiment, sets, message, monkeypatch, capsys):
    _refused(experiment, sets, message, monkeypatch, capsys)


@pytest.mark.parametrize("experiment, sets, message", _refusal_params(_BAD_PARAMS))
def test_cli_main_bad_norms_and_genericity_params(experiment, sets, message, monkeypatch, capsys):
    _refused(experiment, sets, message, monkeypatch, capsys)


def test_every_kind_entry_and_rule_has_its_refusal_cases():
    # a kind without samples leaves its entries untested, and a rule that
    # relates values has no case unless one is written for it
    assert set(_NOT_OF_KIND) == set(cli._KINDS)
    for kind, samples in _NOT_OF_KIND.items():
        assert samples and not any(map(cli._KINDS[kind], samples)), kind
    assert {tuple(case.values[:2]) for case in _TABLE_CASES} == {
        (name, key) for name, (table, *_) in _TABLES.items() for key in table}
    for experiment, rules in cli._RULES.items():
        for text, *_ in rules:
            assert [case for case in _REFUSALS
                    if case[2] == experiment and case[1] and text.startswith(case[1])], text
    for case_id, start, experiment, *_ in _REFUSALS:
        texts = [text for text, *_ in cli._RULES.get(experiment, ())]
        assert start is None or sum(text.startswith(start) for text in texts) == 1, case_id


@pytest.mark.parametrize("argv, code, error", [
    # at this size s + S - t rounds to S, so no word is a branch
    pytest.param(["branches", "--set", "ceiling.mean=1e77"], 3, "numerical-failure",
                 id="branches-mean-1e77-numerical-failure"),
    pytest.param(["spectrum", "--set", "params.t=1e6"], 2, "resource-limit",
                 id="spectrum-t-1e6-resource-limit"),
    pytest.param(["mixing", "--set", "params.eigenfunction_times=[1e300]"], 2, "resource-limit",
                 id="mixing-eigenfunction-time-1e300-resource-limit"),
])
def test_cli_main_runaway_inputs_end_in_their_exit_code(argv, code, error, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["error"] == error
    assert "Traceback" not in captured.err
    if code == 2:
        # the flow would cross the roof more than 2^14 times; f = 1 here, and
        # the limit on the time is net of the tallest starting height
        assert doc["max_crossings"] == 2 ** 14 and doc["t_limit"] <= 2 ** 14
        if argv[0] == "spectrum":
            assert doc["t_limit"] < 2 ** 14 - 0.9
    else:
        assert doc["weight_sum"] == 0.0


def test_cli_main_branch_cap_t_limit_is_never_negative(capsys):
    # with ell above the branch cap even level 1 exceeds it, so no t beyond
    # s = 0 is admissible
    ceiling = {"ell": 2 ** 62, "mean": 1.0, "harmonics": []}
    assert main(["branches", "--set", "ceiling=" + json.dumps(ceiling)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "resource-limit" and doc["t_limit"] == 0.0


@pytest.mark.parametrize("nx, ns", [(256, 128), (512, 256)])
def test_cli_main_spectrum_dimension_cap_is_a_run_time_limit(nx, ns, capsys):
    # the one cap on the Ulam dimension nx*ns is 2^14, checked before the
    # matrix is built; 512*256 = 2^17 passes parse, as every size up to 2^18
    # at 16 points per box does
    argv = ["spectrum", "--set", f"params.nx={nx}", "--set", f"params.ns={ns}",
            "--set", "params.points_per_box=16"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["error"] == "resource-limit" and doc["max_dim"] == 2 ** 14
    assert doc["message"] == f"nx*ns = {nx * ns} exceeds the cap 16384"
    assert captured.err == ""


@pytest.mark.parametrize("experiment, caveat", [
    ("transversality", "grid lower bound"),
    ("genericity", "C^r norm surrogate truncated at order 3"),
])
def test_cli_main_default_report_keeps_its_caveats(experiment, caveat, capsys):
    small = {"transversality": ["params.t_values=[2.0]", "params.nx=8"],
             "genericity": ["params.cluster_n_values=[4]"]}[experiment]
    assert main([experiment, *(a for item in small for a in ("--set", item))]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert caveat in doc["caveats"]
    assert len(doc["config_hash"]) == 64


def test_cli_main_csv_keeps_every_record_key(capsys):
    # cluster and probe records have different keys: the header is their
    # union in first-seen order, and a key a row lacks is an empty cell
    argv = ["genericity", "--format", "csv", "--set", "params.probe=true",
            "--set", "params.cluster_n_values=[4]", "--set", "params.probe_n_values=[4]",
            "--set", "params.probe_samples=10"]
    assert main(argv) == 0
    header, cluster, probe = capsys.readouterr().out.splitlines()
    assert header == ("kind,n,base_word,window,max_cluster,growth_rate,"
                      "fraction,ci_low,ci_high,combos")

    def empty_cells(row):
        return [i for i, cell in enumerate(row.split(",")) if not cell]
    assert cluster.startswith("cluster,4,1,") and empty_cells(cluster) == [6, 7, 8, 9]
    assert probe.startswith("probe,4,") and empty_cells(probe) == [2, 4, 5]


def test_slope_margin_schema_admits_exactly_the_disjoint_cones(capsys):
    # the plus cone |slope| <= margin and the minus cone |slope| >= 2 meet
    # only at the origin for margins in [0, 2), whose ends the table's bound
    # cases cross; but the cones' angle arcs are rounded, and at the 9
    # floats below 2 they meet, which parse refuses before any run
    def argv(margin):
        return ["norms", "--set", f"params.slope_margin={margin!r}", "--set", "params.grid_n=32",
                "--set", "params.num_functions=1"]
    for margin in (0, 1.99, 1.9999999999999978):
        assert main(argv(margin)) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["functions"]
    for margin in (1.999999999999998, 1.999999999999999, 1.9999999999999998):
        assert main(argv(margin)) == 1
        assert capsys.readouterr().err == ("validation error: the cones' angle arcs meet at "
                                           f"slope_margin = {margin!r}\n")


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_cli_main_empty_record_list_prints_nothing(fmt, capsys):
    # the json report holds "records": [], so there is no line to print
    argv = ["genericity", "--set", "params.cluster_n_values=[]"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["records"] == []
    assert main(argv + ["--format", fmt]) == 0
    assert capsys.readouterr() == ("", "")


def test_cli_main_norms_renders_its_function_records(capsys):
    argv = ["norms", "--set", "params.grid_n=32", "--set", "params.num_functions=2"]
    assert main(argv) == 0
    functions = json.loads(capsys.readouterr().out)["payload"]["functions"]
    assert main(argv + ["--format", "jsonl"]) == 0
    assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == functions
    assert main(argv + ["--format", "csv"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "id,strong_norm,weak_norm,embedding_ratio,weak_le_strong"
    # an id holds a comma, so its cell is quoted
    assert [row.split('",')[0] for row in rows] == ['"' + r["id"] for r in functions]
    assert all(row.endswith(",true") for row in rows)
    # the spectrum payload has no record list: it keeps its refusal
    assert main(["spectrum", "--set", "params.nx=8", "--set", "params.ns=2",
                 "--format", "jsonl"]) == 1
    assert capsys.readouterr().err.startswith("error: payload has no record section")


@pytest.mark.parametrize("experiment, caps", [
    pytest.param("transversality", ["nx*ns must be <= 65536"], id="transversality-caps0"),
    pytest.param("spectrum", ["nx*ns*points_per_box must be <= 4194304"], id="spectrum-caps1"),
    pytest.param("correlations", ["nx*ns must be <= 4194304"], id="correlations-caps2"),
    pytest.param("genericity", ["ell^m must be <= 2^63 - 1 for a cluster_word of m letters",
                                "ell^n must be <= 1048576 for each n in cluster_n_values",
                                "ell^n must be <= 2^63 - 1 for each n in probe_n_values, "
                                "when probe is true"],
                 id="genericity-caps3"),
])
def test_subcommand_help_lists_its_product_caps(experiment, caps, capsys):
    with pytest.raises(SystemExit):
        main([experiment, "--help"])
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    assert [line for line in lines if " must be <= " in line] == caps


@pytest.mark.parametrize("experiment, first_rule", [
    ("genericity", "cluster_word letters must lie in 1..ell"),
    ("branches", "(x, s) must lie under the roof, s < f(x) - 1e-12; on it, pass (tau x, 0) instead"),
])
def test_subcommand_help_lists_the_rules_that_read_the_ceiling(experiment, first_rule, capsys):
    # the epilog ends with the rules that read the ceiling, in the words of
    # the table the parser checks
    with pytest.raises(SystemExit):
        main([experiment, "--help"])
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    texts = [text for text, names, _ in cli._RULES[experiment] if "ceiling" in names]
    assert texts[0] == first_rule and lines[-len(texts):] == texts


def test_cli_main_reports_every_ceiling_rule_violation(capsys):
    # every rule that reads the ceiling is checked, not only the first one
    # broken: at ell = 3, one config breaks all five genericity rules
    argv = ["genericity", "--set", 'ceiling={"ell":3,"mean":1.0,"harmonics":[]}',
            "--set", "params.cluster_word=" + json.dumps([4] * 40),
            "--set", "params.cluster_n_values=[13]", "--set", "params.probe=true",
            "--set", "params.probe_n_values=[1,40]"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    prefixes = ["cluster_word letters must lie in 1..3,", "cluster_word of m = 40 letters:",
                "cluster_n_values entry n = 13:", "probe level n = 40:",
                "probe level n = 1 gives fewer than the p + 1 = 5 distinct words"]
    assert len(err) == len(prefixes)
    assert all(line.startswith(f"validation error: {prefix}") for line, prefix in zip(err, prefixes))


def test_cli_main_names_each_offending_entry_once(capsys):
    # a per-entry rule prints one line per distinct entry, however often it repeats
    argv = ["genericity", "--set", 'ceiling={"ell":3,"mean":1.0,"harmonics":[]}',
            "--set", "params.cluster_n_values=" + json.dumps([13, 14, 13] * 500),
            "--set", "params.probe=true",
            "--set", "params.probe_n_values=" + json.dumps([1, 40] * 500)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    prefixes = ["cluster_n_values entry n = 13:", "cluster_n_values entry n = 14:",
                "probe level n = 40:", "probe level n = 1 gives fewer"]
    assert len(err) == len(prefixes)
    assert all(line.startswith(f"validation error: {prefix}") for line, prefix in zip(err, prefixes))


def test_probe_rules_judge_probe_n_values_only_when_probe_is_true(monkeypatch, capsys):
    # with the probe off no probe level runs, so neither probe rule refuses one
    for name in cli._RUNNERS:
        monkeypatch.setitem(cli._RUNNERS, name, lambda cfg: ({}, []))
    argv = ["genericity", "--set", "params.probe_n_values=[1,70]"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert main(argv + ["--set", "params.probe=true"]) == 1
    err = capsys.readouterr().err.splitlines()
    prefixes = ["probe level n = 70: ell^n = 2^70 exceeds", "probe level n = 1 gives fewer"]
    assert len(err) == len(prefixes)
    assert all(line.startswith(f"validation error: {prefix}") for line, prefix in zip(err, prefixes))


def test_help_states_the_ceiling_rules_that_parse_checks(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    assert lines[-4:] == [
        "ell must be <= 2^63 - 1, a 64-bit word index",
        "harmonic indices must be distinct integers in 1..1024",
        "mean and harmonic coefficients must be at most 2^256 in magnitude",
        "f must be > 0, with its certified range in [2^-256, 2^256]"]
    # each rule holds at the bound it states; the ceiling refusal cases
    # cross each bound
    for ceiling in [{"ell": 2 ** 63 - 1}, {"harmonics": [[1024, 0.0, 0.1]]},
                    {"mean": 2.0 ** 256}, {"mean": 2.0 ** -256}]:
        config = _config(ceiling={"ell": 2, "mean": 1.0, "harmonics": [], **ceiling})
        assert parse_config(json.dumps(config)).ceiling is not None


def test_unknown_keys_are_named_up_to_the_echo_cap(tmp_path, capsys):
    # 60,000 unknown keys printed 60,000 lines (3.1 MB), one per key
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": {f"k{i}": 0 for i in range(60000)}}))
    assert main(["mixing", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.encode()) < 1000
    assert err.splitlines() == (
        [f"validation error: unknown mixing parameter 'k{i}'" for i in range(cli._ECHO_ITEMS)]
        + ["validation error: … 60000 unknown mixing parameters in all"])


@pytest.mark.parametrize("argv, lines", [
    pytest.param(["branches", "--set", "ceiling.ell=true", "--set", 'ceiling.mean="1"',
                  "--set", "ceiling.harmonics=[[1.5,0,0.1]]"],
                 ["bad ceiling: ell must be an integer >= 2, got True",
                  "bad ceiling: mean must be a number, got '1'",
                  "bad ceiling: harmonics must be a list of [integer, number, number], "
                  "got [[1.5, 0, 0.1]]"], id="ceiling"),
    pytest.param(["correlations", "--set", 'params.psi.x=["cos",0.5]', "--set",
                  'params.psi.cutoff="no"', "--set", 'params.phi.s=["cos"]', "--set", "params.nx=8"],
                 ['bad psi: x must be null or ["cos" or "sin", integer in [-1024, 1024]], '
                  "got ['cos', 0.5]",
                  "bad psi: cutoff must be true or false, got 'no'",
                  'bad phi: s must be null or ["cos" or "sin", number in [-1024, 1024]], '
                  "got ['cos']"], id="observables"),
    pytest.param(["branches", "--set", 'ceiling={"mean":1,"k":2}'],
                 ["bad ceiling: unknown key 'k'",
                  "bad ceiling: ell must be an integer >= 2, got None"], id="missing-ell"),
])
def test_cli_main_reports_every_nested_spec_violation(argv, lines, capsys):
    # the ceiling and observable specs are schema tables, checked like every other value
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"validation error: {v}" for v in lines]


@pytest.mark.parametrize("spec", [
    pytest.param({"s": ["cos", 1e308]}, id="s-cos-1e308"),
    pytest.param({"s": ["sin", -1024.5]}, id="s-sin-minus-1024.5"),
    pytest.param({"x": ["cos", 1025]}, id="x-cos-1025"),
    pytest.param({"x": ["sin", -10 ** 300]}, id="x-sin-minus-1e300"),
])
def test_observable_frequencies_are_bounded(spec):
    # 2 pi a s overflowed to inf at a = 1e308, and every sample read nan
    config = _config(experiment="correlations", params={"psi": spec, "nx": 16, "ns": 2})
    with pytest.raises(ValidationError) as info:
        parse_config(json.dumps(config))
    (violation,) = info.value.violations
    assert violation.startswith(f"bad psi: {next(iter(spec))} must be null or")
    assert "in [-1024, 1024]]" in violation


def test_observable_frequencies_at_the_bound_give_finite_samples(capsys):
    argv = ["correlations", "--set", 'params.psi={"x":["cos",-1024],"s":["sin",1024]}',
            "--set", 'params.t_values=[0,1]', "--set", "params.nx=16", "--set", "params.ns=2"]
    assert main(argv) == 0
    samples = json.loads(capsys.readouterr().out)["payload"]["samples"]
    assert all(math.isfinite(v) for _, v, _ in samples)


@pytest.mark.parametrize("function, names", [
    pytest.param(mixing.weak_mixing_test, ("grid", "depth"), id="weak_mixing_test"),
    pytest.param(spectral.build_ulam, ("points_per_box",), id="build_ulam"),
    pytest.param(genericity.slope_clusters, ("window_factor",), id="slope_clusters"),
    pytest.param(genericity.bad_set_probe, ("combos",), id="bad_set_probe"),
    pytest.param(transversality.grid_estimates, ("certified", "workers"), id="grid_estimates"),
    pytest.param(parallel.pmap, ("workers",), id="pmap"),
])
def test_library_repeats_no_schema_default(function, names):
    # the schema is the one place a default lives: the runners pass these
    # values, so the library declares none of its own
    params = inspect.signature(function).parameters
    assert [name for name in names if params[name].default is not inspect.Parameter.empty] == []


def test_every_schema_parameter_is_read_by_its_runner():
    # a parameter that its runner never reads cannot change a result; it
    # only lets a config claim a setting the run ignored
    for experiment, table in cli._SCHEMA.items():
        tree = ast.parse(inspect.getsource(cli._RUNNERS[experiment]))
        read = {node.slice.value for node in ast.walk(tree)
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == "p"
                and isinstance(node.slice, ast.Constant)}
        assert set(table) - read == set(), experiment


def test_every_table_entry_is_well_formed():
    # a typo in a kind or a bound fails here, not as a KeyError at parse time
    for name, table in [("top", cli._TOP), *cli._SCHEMA.items(), ("ceiling", cli._CEILING),
                        ("observable", cli._OBSERVABLE)]:
        for key, param in table.items():
            assert param.kind in cli._KINDS, (name, key)
            for bound in filter(None, param.bounds.split(" and ")):
                op, limit = bound.split()
                assert op in cli._COMPARE and math.isfinite(float(limit)), (name, key, bound)
            if param.default is not None:
                problems = []
                cli._checked({key: param}, {}, "key", problems)
                assert problems == [], (name, key)


def _semiflow(argv, timeout=120):
    """``python -m semiflow`` with argv in a fresh interpreter."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "semiflow", *argv],
                          capture_output=True, env=env, timeout=timeout)


def test_arnoldi_spectrum_repeats_across_runs_and_processes(capsys):
    # f = 1 at dim 160: the Ulam matrix has rank 40, so ARPACK's basis meets
    # an invariant subspace and it draws a new vector, from a seeded
    # generator: two fresh processes and two runs in this one emit the same
    # bytes
    argv = ["spectrum", "--set", "params.nx=40", "--set", "params.points_per_box=32"]
    reports = []
    for _ in range(2):
        proc = _semiflow(argv)
        assert proc.returncode == 0, proc.stderr.decode()
        assert main(argv) == 0
        reports += [proc.stdout, capsys.readouterr().out.encode()]
    assert len(set(reports)) == 1
    # the double eigenvalue -1/4 counts 2 although rounding puts its two
    # values apart in the modulus order
    assert json.loads(reports[0])["payload"]["multiplicities"] == [4, 4, 4, 4, 2, 2, 2, 2]


@pytest.mark.parametrize("argv, code", [
    # min f = 1e-12 admits only 2^14 * 1e-12 of flow time; an advance for
    # 1e-5 would take 10^7 roof crossings
    (["correlations", "--set", 'ceiling={"ell":2,"mean":1e-12,"harmonics":[]}',
      "--set", "params.t_values=[0.0,1e-5]", "--set", "params.nx=8", "--set", "params.ns=1"], 2),
    # mean 1e308 would put the eigenfunction check's start heights at inf, which
    # the crossing check must never let into the advance loop
    (["mixing", "--set", 'ceiling={"ell":2,"mean":1e308,"harmonics":[]}'], 1),
    # words too long for an int64 index are refused before ell^n is formed: at
    # ell = 3 the probe level's 3^(10^8) takes minutes, and the index sum of a
    # 60,000-letter cluster word 30 s
    (["genericity", "--set", 'ceiling={"ell":3,"mean":1.0,"harmonics":[]}',
      "--set", "params.probe=true", "--set", "params.probe_n_values=[100000000]"], 1),
    (["genericity", "--set", "params.cluster_word=" + json.dumps([1] * 60000).replace(" ", "")],
     1),
], ids=["tiny-min-f", "huge-mean", "long-probe-level", "long-cluster-word"])
def test_cli_main_runaway_flows_end_promptly(argv, code):
    # in a subprocess, so that a regression fails on the timeout instead of stalling
    proc = _semiflow(argv, timeout=60)
    assert proc.returncode == code, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr
    if code == 2:
        doc = json.loads(proc.stdout)
        assert doc["error"] == "resource-limit"
        assert doc["t_limit"] == pytest.approx(2 ** 14 * 1e-12, rel=1e-3)


@pytest.mark.parametrize("content, sets, message", [
    (b"{not json", [], "at line 1, column 2: config is not valid JSON: Expecting property name"),
    (b"[1]", [], "config must be a JSON object"),
    (b'{"seed": 1' + b"0" * 5000 + b"}", [], "config is not valid JSON: Exceeds the limit"),
    (b"\xff{}", [], "config is not valid JSON: 'utf-8' codec can't decode"),
    (b"{}", ["ceiling.mean.x=1"], "override 'ceiling.mean.x=1' reaches into 'mean'"),
], ids=["not-json", "not-an-object", "integer-too-long", "not-utf-8", "override-into-a-number"])
def test_cli_main_unparsable_config_file(content, sets, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert main(["branches", str(path), *_set(*sets)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error") and message in err


def test_cli_main_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["branches", "--set", "params.t=2.0", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=10)


def _of_kind(value, kind) -> bool:
    """Whether ``value`` has the Python type a schema kind names; bools are
    never numbers."""
    def number(v):
        return type(v) in (int, float) and math.isfinite(v)
    if kind.startswith("null or"):
        freq = (lambda v: type(v) is int) if "integer" in kind else number
        return value is None or (type(value) is list and len(value) == 2
                                 and value[0] in ("cos", "sin") and freq(value[1]))
    if kind == "a list of [integer, number, number]":
        return type(value) is list and all(
            type(h) is list and len(h) == 3 and type(h[0]) is int and all(map(number, h[1:]))
            for h in value)
    if "list" in kind:
        item = (lambda v: type(v) is int) if "integers" in kind else number
        return type(value) is list and all(map(item, value))
    if kind in ("an integer", "a power of two"):
        return type(value) is int
    return {"a number": number, "true or false": lambda v: type(v) is bool,
            "an object": lambda v: type(v) is dict}.get(kind, lambda v: type(v) is str)(value)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(value=_JSON_VALUES)
def test_parse_config_any_value_in_any_key(value):
    # every key of every table, and every key of the nested ceiling and
    # observable specs, gets the value; parse_config either refuses it with
    # its own errors or accepts it, and then a table's key has its kind
    ceiling = {"ell": 2, "mean": 1.0, "harmonics": [[1, 0.0, 0.2]]}
    for experiment in cli.EXPERIMENTS:
        cases = [({"ceiling": ceiling, key: value}, param.kind)
                 for key, param in cli._TOP.items()]
        cases += [({"ceiling": ceiling, "params": {key: value}}, param.kind)
                  for key, param in cli._SCHEMA[experiment].items()]
        cases += [({"ceiling": dict(ceiling, **{key: value})}, param.kind)
                  for key, param in cli._CEILING.items()]
        if experiment == "correlations":
            cases += [({"ceiling": ceiling, "params": {"psi": {key: value}}}, param.kind)
                      for key, param in cli._OBSERVABLE.items()]
        for config, kind in cases:
            try:
                cfg = cli.parse_config(json.dumps(config), experiment)
            except (ParseError, ValidationError):
                continue
            assert cfg.experiment == experiment
            assert kind is None or _of_kind(value, kind), (experiment, config)


_OVERRIDE_PATHS = sorted({*cli._TOP, *(f"params.{key}" for table in cli._SCHEMA.values()
                                        for key in table),
                          "ceiling.ell", "ceiling.mean", "ceiling.harmonics"})

# no "=", an empty key, and paths into a number, a list and a string
_OVERRIDES = (st.sampled_from(_OVERRIDE_PATHS)
              | st.builds(lambda path, value: f"{path}={json.dumps(value)}",
                          st.sampled_from(_OVERRIDE_PATHS + ["", "params.", "ceiling.mean.x",
                                                             "ceiling.harmonics.k", "out.x"]),
                          _JSON_VALUES))


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(experiment=st.sampled_from(cli.EXPERIMENTS),
       overrides=st.lists(_OVERRIDES, min_size=1, max_size=3))
def test_cli_main_any_override(experiment, overrides, monkeypatch, tmp_path, capsys):
    # every runner is a stub, so only parsing, validation and emission run;
    # a drawn out path lands in tmp_path
    for name in cli._RUNNERS:
        monkeypatch.setitem(cli._RUNNERS, name, lambda cfg: ({}, []))
    monkeypatch.chdir(tmp_path)
    argv = [experiment]
    for item in overrides:
        argv += ["--set", item]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1), (argv, err)
    assert "Traceback" not in err


def test_cli_main_mixing_refuses_bool_depth(capsys):
    assert main(["mixing", "--set", "params.depth=true"]) == 1
    assert capsys.readouterr().err.startswith("validation error: depth")


def test_norms_run_builds_each_mask_once(monkeypatch, capsys):
    # one bank per run, and no radial bump evaluated outside it
    from semiflow import aniso
    banks, bumps = [], []
    real_bank, real_chi = aniso.mask_bank, aniso.chi

    def counting_bank(*args):
        banks.append(args)
        return real_bank(*args)

    def counting_chi(s):
        bumps.append(s)
        return real_chi(s)

    monkeypatch.setattr(aniso, "mask_bank", counting_bank)
    monkeypatch.setattr(aniso, "chi", counting_chi)
    top = aniso._top_band(aniso.make_grid(1.0, 1.0, 32))
    for num_functions in (1, 3):
        banks.clear()
        bumps.clear()
        argv = ["norms", "--set", "params.grid_n=32",
                "--set", f"params.num_functions={num_functions}"]
        assert main(argv) == 0
        assert len(banks) == 1
        assert len(bumps) == top + 1
    capsys.readouterr()


def test_norms_run_decomposes_each_function_once(monkeypatch, capsys):
    # one support check and one FFT per function give both norms and the
    # embedding ratio
    from semiflow import aniso
    ffts, supports = [], []
    real_fft2, real_support = np.fft.fft2, aniso._support_ok

    def counting_fft2(*args, **kwargs):
        ffts.append(args)
        return real_fft2(*args, **kwargs)

    def counting_support(*args, **kwargs):
        supports.append(args)
        return real_support(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft2", counting_fft2)
    monkeypatch.setattr(aniso, "_support_ok", counting_support)
    for num_functions in (1, 3):
        ffts.clear()
        supports.clear()
        argv = ["norms", "--set", "params.grid_n=32",
                "--set", f"params.num_functions={num_functions}"]
        assert main(argv) == 0
        assert len(ffts) == len(supports) == num_functions
    capsys.readouterr()


def test_genericity_run_classifies_once(monkeypatch, capsys):
    from semiflow import cli, genericity
    calls = []
    real = cli.classify

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "classify", counting)
    monkeypatch.setattr(genericity, "classify", counting)
    argv = ["genericity", "--set", "params.probe=true", "--set", "params.cluster_n_values=[4,6]",
            "--set", "params.probe_n_values=[4,6]", "--set", "params.probe_samples=20"]
    assert main(argv) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_genericity_probe_window_uses_config_gamma0(capsys):
    # the probe classifies with the run's gamma0, not a fixed 0.9: at 0.7
    # theta_K of the constant ceiling is twice its value at 0.9
    from semiflow.ceiling import TrigPolynomial, classify
    argv = ["genericity", "--set", "gamma0=0.7", "--set", "params.probe=true",
            "--set", "params.cluster_n_values=[4]", "--set", "params.probe_n_values=[4,6]",
            "--set", "params.probe_samples=10"]
    assert main(argv) == 0
    records = json.loads(capsys.readouterr().out)["payload"]["records"]
    probes = [r for r in records if r["kind"] == "probe"]
    f = TrigPolynomial(1.0, (), 2)
    theta_k = classify(f, 0.7).theta_K
    assert theta_k != classify(f, 0.9).theta_K
    assert [r["n"] for r in probes] == [4, 6]
    for r in probes:
        assert r["window"] == 10.0 * theta_k * 2 ** float(-r["n"])


def test_cli_main_writes_output(tmp_path):
    cfg = _config()
    path = tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    path.write_text(json.dumps(cfg))
    code = main(["mixing", str(path), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["payload"]["verdict"] == "NotWeaklyMixing"


def test_cli_set_overrides(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config()))
    code = main(["mixing", str(path), "--set", "params.depth=12"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["depth"] == 12


def test_subcommand_experiment_mismatch(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config(experiment="norms")))
    code = main(["mixing", str(path)])
    assert code == 1


def test_pmap_pool_never_exceeds_the_cpu_count(monkeypatch):
    # a fake pool records the size it was asked for; no process starts
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    assert parallel.pmap(abs, range(-500, 500), 10 ** 6) == [abs(i) for i in range(-500, 500)]
    assert all(size <= (os.cpu_count() or 1) for size in sizes)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    parallel.pmap(abs, range(1000), 10 ** 6)
    parallel.pmap(abs, range(3), 10 ** 6)
    assert sizes[-2:] == [4, 3]


@pytest.mark.parametrize("experiment", ["transversality", "correlations"])
@pytest.mark.parametrize("t_values", ['[0,1,"a"]', "[]", "[true]", "[-1.0]", '"3"',
                                      "[Infinity]", "[NaN]", "[1" + "0" * 400 + "]"])
def test_cli_main_bad_t_values(experiment, t_values, capsys):
    assert main([experiment, "--set", f"params.t_values={t_values}"]) == 1
    err = capsys.readouterr().err
    assert "validation error: t_values" in err
    assert "Traceback" not in err


def test_python_dash_m_runs_cli():
    proc = _semiflow(["spectrum"])
    assert proc.returncode == 0, proc.stderr.decode()
    assert "eigenvalues" in json.loads(proc.stdout)["payload"]


def test_only_spectrum_loads_scipy_and_one_worker_starts_no_pool():
    # a fresh interpreter, since this one has loaded scipy for other tests
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = """
import json, sys
from semiflow import cli
for name in cli.EXPERIMENTS:
    cli.parse_config("{}", name)
cfg = cli.parse_config(json.dumps({"params": {"t": 3.0, "x": 0.3}}), "branches")
assert cli.emit(cli.run(cfg), "json")
heavy = ("scipy", "concurrent.futures.process")
print(json.dumps([name for name in heavy if name in sys.modules]))
cfg = cli.parse_config(json.dumps({"params": {"t": 1.0, "nx": 8, "ns": 2,
                                              "points_per_box": 16, "k": 4}}), "spectrum")
assert cli.emit(cli.run(cfg), "json")
print(json.dumps("scipy.sparse.linalg" in sys.modules))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    loaded_before, loaded_after = map(json.loads, proc.stdout.splitlines())
    assert loaded_before == []
    assert loaded_after is True


def _loaded_modules(script, *args):
    """The JSON line ``script`` prints in a fresh interpreter, where
    ``loaded()`` lists the semiflow submodules loaded so far."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    prelude = ("import json, os, sys\n"
               "def loaded():\n"
               "    return sorted(name.split('.', 1)[1] for name in sys.modules\n"
               "                  if name.startswith('semiflow.'))\n")
    proc = subprocess.run([sys.executable, "-c", prelude + script, *args], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.splitlines()[-1])


# what cli imports for every parse, so what --help loads
_CLI_MODULES = ["canon", "ceiling", "cli", "dynamics", "errors"]


# experiment -> (a small config's params, the modules its run must not load)
_OWN_MODULES = {
    "branches": ({"t": 2.0}, {"spectral", "aniso", "genericity", "mixing", "smooth"}),
    "transversality": ({"t_values": [2.0], "nx": 8, "ns": 8},
                       {"spectral", "aniso", "genericity", "mixing", "smooth"}),
    "spectrum": ({"t": 1.0, "nx": 8, "ns": 2, "points_per_box": 16, "k": 4},
                 {"aniso", "genericity", "transversality", "parallel"}),
    "correlations": ({"t_values": [0.0, 0.5], "nx": 8, "ns": 1},
                     {"aniso", "genericity", "transversality", "parallel"}),
    "mixing": ({"grid": 256, "depth": 4}, {"aniso", "genericity"}),
    "norms": ({"grid_n": 32, "num_functions": 1}, {"spectral", "genericity", "mixing"}),
    "genericity": ({"cluster_n_values": [4], "probe": True, "probe_n_values": [4],
                    "probe_samples": 10}, {"spectral", "aniso", "mixing"}),
}


@pytest.mark.parametrize("experiment", [
    pytest.param("branches", id="branches-params0-unloaded0"),
    pytest.param("transversality", id="transversality-params1-unloaded1"),
    pytest.param("spectrum", id="spectrum-params2-unloaded2"),
    pytest.param("correlations", id="correlations-params3-unloaded3"),
    pytest.param("mixing", id="mixing-params4-unloaded4"),
    pytest.param("norms", id="norms-params5-unloaded5"),
    pytest.param("genericity", id="genericity-params6-unloaded6"),
])
def test_each_subcommand_loads_only_its_own_modules(experiment):
    # a bare import loads no submodule; parsing a config loads its
    # experiment's modules, so that running it loads none.  numpy.ma costs
    # 13-15 ms of a one-shot process, and only spectrum's scipy needs it
    params, unloaded = _OWN_MODULES[experiment]
    script = """
import semiflow
bare = loaded()
from semiflow import cli
experiment, params = sys.argv[1], json.loads(sys.argv[2])
cli.parse_config(json.dumps({"params": params}), experiment)
parsed = loaded()
code = cli.main([experiment, "--set", "params=" + json.dumps(params), "--out", os.devnull])
print(json.dumps([bare, parsed, loaded(), code, "numpy.ma" in sys.modules]))
"""
    bare, parsed, ran, code, ma = _loaded_modules(script, experiment, json.dumps(params))
    assert code == 0
    assert experiment == "spectrum" or not ma
    assert bare == []
    assert ran == parsed
    assert set(_CLI_MODULES) <= set(ran)
    assert not unloaded & set(ran), unloaded & set(ran)


def test_help_loads_no_experiment_module():
    # every epilog, the size caps included, comes from cli's own tables
    script = """
from semiflow import cli
for argv in [["--help"]] + [[name, "--help"] for name in cli.EXPERIMENTS]:
    try:
        cli.main(argv)
    except SystemExit:
        pass
print(json.dumps(loaded()))
"""
    assert _loaded_modules(script) == _CLI_MODULES


def test_cli_main_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    from semiflow import cli as climod

    def boom(cfg):
        raise NumericalFailure("solver diverged", iterations=7)

    monkeypatch.setitem(climod._RUNNERS, "mixing", boom)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config()))
    code = main(["mixing", str(path)])
    assert code == 3
    assert "numerical-failure" in capsys.readouterr().out


def test_emit_jsonl_record_lines():
    cfg = parse_config(json.dumps(_config(
        experiment="transversality",
        params={"t_values": [2.5, 3.5, 4.5], "nx": 8, "ns": 8})))
    report = run(cfg)
    lines = emit(report, "jsonl").decode().splitlines()
    assert len(lines) == 3
    for line in lines:
        rec = json.loads(line)
        assert set(rec) >= {"t", "m_value", "m_upper", "n_value", "slack", "fitted_rate"}


def test_csv_seventeen_digit_floats():
    cfg = parse_config(json.dumps(_config(
        experiment="branches",
        params={"x": 0.1, "s": 0.0, "t": 3.0})))
    report = run(cfg)
    text = emit(report, "csv").decode()
    # y = 0.1/8 = 0.0125 has an inexact binary expansion; its shortest repr
    # round-trips it exactly
    row = text.splitlines()[1].split(",")
    assert float(row[2]) == 0.1 / 8


def test_spectrum_deterministic_eigenvalues():
    cfg_text = json.dumps(_config(
        experiment="spectrum",
        params={"t": 2.0, "nx": 24, "ns": 4, "points_per_box": 32, "k": 6}))
    a = run(parse_config(cfg_text)).payload["eigenvalues"]
    b = run(parse_config(cfg_text)).payload["eigenvalues"]
    assert a == b


def test_cli_main_norms_and_correlations_exit_zero(tmp_path):
    for experiment, params in [
        ("norms", {"grid_n": 32, "num_functions": 2}),
        ("correlations", {"t_values": [0.0, 1.0], "nx": 32, "ns": 4,
                          "psi": {"s": ["cos", 1.0]}, "phi": {"s": ["cos", 1.0]}}),
    ]:
        cfg = _config(experiment=experiment, params=params)
        path = tmp_path / f"{experiment}.json"
        out = tmp_path / f"{experiment}_report.json"
        path.write_text(json.dumps(cfg))
        assert main([experiment, str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["payload"]
