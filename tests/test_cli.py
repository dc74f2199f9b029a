import collections
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semiflow import FlowPoint, canon, cli
from semiflow.canon import canonical_csv, canonical_json
from semiflow.cli import (ParseError, ValidationError, emit, main,
                          parse_config, run)
from semiflow.errors import InvalidArgument

from oracles import branches_payload, per_value_json


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
    assert info.misses == 2 * len(ceilings)
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
    # the parsed payload reproduces the in-memory payload exactly (floats
    # round-trip at 17 significant digits)
    assert doc["payload"] == json.loads(json.dumps(report.payload))
    timed = json.loads(emit(report, "json", include_timing=True))
    assert "wall_time_s" in timed


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
    assert header == "word,n,y,s_prime,E,slope"
    assert len(text.splitlines()) == 1 + 8  # eight level-3 branches


BRANCH_CASES = [
    # ell = 2; t = 0 leaves only the empty word ""
    ({"ell": 2, "mean": 1.0, "harmonics": [[1, 0.0, 0.2]]}, {"x": 0.3, "s": 0.0, "t": 6.0}),
    ({"ell": 2, "mean": 1.0, "harmonics": [[1, 0.0, 0.2]]}, {"x": 0.3, "s": 0.0, "t": 0.0}),
    ({"ell": 3, "mean": 1.3, "harmonics": [[1, 0.0, 0.3], [2, 0.1, 0.0]]},
     {"x": 0.42, "s": 0.1, "t": 4.0}),
    # ell = 12: the letters 10, 11 and 12 print as two digits
    ({"ell": 12, "mean": 1.0, "harmonics": [[1, 0.0, 0.2]]}, {"x": 0.7, "s": 0.0, "t": 2.5}),
]


@pytest.mark.parametrize("fmt", ["json", "jsonl", "csv"])
@pytest.mark.parametrize("ceiling, params", BRANCH_CASES)
def test_branches_report_bytes_equal_per_row_oracle(ceiling, params, fmt):
    # the rows built from the table's columns and rendered column by column
    # are the rows of a Word per branch, sorted by letters and rendered one
    # value at a time
    cfg = parse_config(json.dumps(_config(experiment="branches", params=params,
                                          ceiling=ceiling)))
    report = run(cfg)
    payload = branches_payload(cfg.ceiling, FlowPoint(params["x"], params["s"]), params["t"])
    rows = payload["rows"]
    if params["t"] == 0.0:
        assert [row["word"] for row in rows] == [""]
    if ceiling["ell"] == 12:
        assert {"10", "11", "12"} <= {row["word"][:2] for row in rows}
    if fmt == "json":
        want = per_value_json({"config": report.config, "config_hash": report.config_hash,
                               "caveats": report.caveats, "payload": payload}) + "\n"
    elif fmt == "jsonl":
        want = "\n".join(per_value_json(row) for row in rows) + "\n"
    else:
        want = canonical_csv(rows, list(rows[0]))
    assert emit(report, fmt) == want.encode()


class _Key(str):
    """A dict key that is not exactly a str."""


COLUMN_CASES = {
    "floats": [float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 2.0 ** 53, 0.1, -3.0],
    "ints": [0, -1, 2 ** 53, 2 ** 64, 7, 1, 3, 10 ** 20],
    "strings": ['a"b', "back\\slash", "line\nbreak", "\x00\x1f\x7f", "pct %s %d",
                "", "caf\u00e9", "{}"],
    "bools": [True, False, True, True, False, False, True, False],
    "numpy": [np.float64(0.1), np.float64(2.0), np.int64(5), np.float32(0.5),
              np.bool_(True), np.int32(-2), np.float64("nan"), np.uint8(255)],
    "mixed": [1, 1.0, True, None, "1", np.float64(1.0), 2 ** 53, -0.0],
    "dicts": [{"a": 1.0, "b": [1, {"c": "d"}]}, {}, {"x": None}, {"a": 1.0, "b": []},
              {"n": {"m": {"k": float("inf")}}}, {"q": 'q"'}, {"a": 2}, {"z": 0.1}],
    "lists": [[{"a": 1}, {"a": 2}], [], [1, 2.5], [{"a": 1}, {"b": 2}], (0.1, "x"),
              [[]], [None], [{"k": True}]],
}


def test_canonical_json_column_path_matches_per_value_path(monkeypatch):
    # rows sharing one key order go column by column; keys that need escapes,
    # hold a % or are not strings are escaped once; every column kind gives
    # the per-value bytes
    tabled = []
    real = canon._rows_json
    monkeypatch.setattr(canon, "_rows_json", lambda rows: tabled.append(1) or real(rows))
    keys = list(COLUMN_CASES) + ['k"ey', "ctl\n", "%s%%", 3, _Key("sub")]
    extra = {'k"ey': 1.5, "ctl\n": "v", "%s%%": "%s", 3: 4, _Key("sub"): -0.0}
    rows = [{**{k: COLUMN_CASES[k][i] for k in COLUMN_CASES}, **extra} for i in range(8)]
    assert list(rows[0]) == keys
    for obj in (rows, rows[:1], tuple(rows), {"payload": {"rows": rows}}):
        tabled.clear()
        assert canonical_json(obj) == per_value_json(obj)
        assert tabled
    # one row per column kind, so every column is also a single-type list
    for name, column in COLUMN_CASES.items():
        assert canonical_json([{name: v} for v in column]) == per_value_json(
            [{name: v} for v in column])


@pytest.mark.parametrize("rows", [
    [{"a": 1, "b": 2}, {"b": 2, "a": 1}],          # same keys, another order
    [{"a": 1, "b": 2}, {"a": 1}],                  # a key missing
    [{"a": 1}, {"a": 1, "b": 2}],                  # a key more
    [{"a": 1}, {"b": 1}],                          # other keys
    [{"a": 1}, [1]],                               # not every item a dict
    [{"a": 1}, collections.OrderedDict(a=1)],      # a dict subclass
    [1.0, "x", None],
    [],
])
def test_canonical_json_other_lists_keep_per_value_path(rows, monkeypatch):
    monkeypatch.setattr(canon, "_rows_json", None)  # any call would fail
    assert canonical_json(rows) == per_value_json(rows)


def test_canonical_json_stability():
    obj = {"b": 1.0, "a": [0.1, 2, None, True], "s": 'quote"inside'}
    one = canonical_json(obj)
    two = canonical_json(json.loads(json.dumps(obj)))
    assert one == two
    assert json.loads(one) == json.loads(two)


def test_canonical_json_17_digits():
    assert canonical_json(0.2) == "0.20000000000000001"
    assert canonical_json(1.0) == "1.0"


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
        params={"t": 1.0, "nx": 8, "ns": 2, "points_per_box": 32, "k": 4,
                "mode": "lattice"}))
    a = emit(run(parse_config(cfg_text)), "json")
    b = emit(run(parse_config(cfg_text)), "json")
    assert a == b


def test_determinism_across_worker_counts():
    base = _config(experiment="transversality",
                   params={"t_values": [3.0, 4.0], "nx": 8, "ns": 8})
    one = emit(run(parse_config(json.dumps(dict(base, workers=1)))), "json")
    two = emit(run(parse_config(json.dumps(dict(base, workers=2)))), "json")
    assert one == two


@pytest.mark.parametrize("harmonics", [[], [[1, 0.0, 0.2]]])
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
            assert rec["argmax"] == {"x": 0.0, "s": 0.0, "on_section": True}


def test_caveat_strings_appear_verbatim():
    spec_cfg = _config(experiment="spectrum",
                       params={"t": 1.0, "nx": 8, "ns": 2, "points_per_box": 32,
                               "k": 4, "mode": "lattice", "with_bound": True,
                               "bound_nx": 8, "bound_ns": 2})
    report = run(parse_config(json.dumps(spec_cfg)))
    assert "discretized spectrum" in report.caveats
    assert "grid lower bound" in report.caveats

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
    for rec in report.payload["records"]:
        assert set(rec) >= {"t", "m_value", "m_upper", "n_value", "grid",
                            "slack", "fitted_rate"}
        assert rec["grid"] == [8, 8]
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


@pytest.mark.parametrize("argv", [
    ["branches", "--set", "params.s=5.0"],
    ["genericity", "--set", "params.cluster_word=[3]"],
    ["norms", "--set", "params.slope_margin=3"],
    # f = 1: a target on the roof is the base point (tau x, 0), which must be passed instead
    ["branches", "--set", "params.s=1.0", "--set", "params.t=0"],
    ["branches", "--set", "params.s=1.0", "--set", "params.t=0.5"],
])
def test_cli_main_runner_error_exit_code(argv, capsys):
    # errors raised inside a runner end in a message, not a traceback
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["norms", "--set", 'params.num_functions="2"'], "validation error: num_functions"),
    (["norms", "--set", "params.num_functions=1.5"], "validation error: num_functions"),
    (["norms", "--set", 'params.slope_margin="a"'], "validation error: slope_margin"),
    (["genericity", "--set", 'params.probe_samples="4"'], "validation error: probe_samples"),
    (["genericity", "--set", 'params.window_factor="8"'], "validation error: window_factor"),
    (["genericity", "--set", "params.probe=true", "--set", "params.probe_n_values=[0]"],
     "validation error: probe_n_values"),
    (["genericity", "--set", "params.probe=true", "--set", "params.probe_n_values=[1]"],
     "error: probe level n = 1 "),
    (["genericity", "--set", "params.probe=true", "--set", "params.probe_n_values=[70]"],
     "error: probe level n = 70:"),
    (["transversality", "--set", 'params.nx="16"'], "validation error: nx"),
    (["spectrum", "--set", "params.nx=1.5"], "validation error: nx"),
    (["spectrum", "--set", "params.k=2.5"], "validation error: k"),
    (["branches", "--set", 'params.x="a"'], "validation error: x"),
    (["mixing", "--set", 'params.tol_strict="a"'], "validation error: tol_strict"),
    (["branches", "--set", 'gamma0="0.9"'], "validation error: gamma0"),
    (["branches", "--set", "out=7"], "validation error: out"),
    (["transversality", "--set", 'params.certified="no"'], "validation error: certified"),
    (["branches", "--set", "seed=true"], "validation error: seed"),
    (["branches", "--set", "workers=true"], "validation error: workers"),
    (["branches", "--set", "params.theta=true"],
     "validation error: unknown branches parameter 'theta'"),
    (["mixing", "--set", "params.eigenfunction_times=5"],
     "validation error: eigenfunction_times"),
    (["correlations", "--set", 'params.psi.s=["cos","a"]'], "validation error: bad psi: "),
    (["correlations", "--set", 'params.psi.s=["cos"]'], "validation error: bad psi: "),
    (["correlations", "--set", 'params.psi.cutoff="no"'], "validation error: bad psi: "),
    (["branches", "--set", "ceiling.ell=true"], "validation error: bad ceiling: "),
    (["branches", "--set", 'ceiling.mean="1"'], "validation error: bad ceiling: "),
    (["branches", "--set", 'ceiling.harmonics=[[1,"a",0]]'], "validation error: bad ceiling: "),
    (["branches", "--set", "ceiling.harmonics=[[1.5,0,0.1]]"], "validation error: bad ceiling: "),
    (["transversality", "--set", "params.nL=8"],
     "validation error: unknown transversality parameter 'nL'"),
    (["branches", "--set", "experiment=[1]"], "validation error: experiment"),
    (["branches", "--set", "ceiling.mean.x=1"], "parse error: override 'ceiling.mean.x=1'"),
    (["branches", "--set", "params.x=1" + "0" * 5000], "validation error: x"),
    (["mixing", "--set", "params.grid=256", "--format", "jsonl"],
     "error: payload has no record section"),
    (["mixing", "--set", "params.grid=1099511627776"], "validation error: grid"),
    (["norms", "--set", "params.grid_n=1048576"], "validation error: grid_n"),
    (["correlations", "--set", 'params.psi.x=["cos",0.5]'], "validation error: bad psi: "),
    (["transversality", "--set", "ceiling.harmonics=[[4096,0,1.2]]"],
     "validation error: bad ceiling: "),
    (["correlations", "--set", "params.nx=100000000", "--set", "params.ns=100"],
     "validation error: nx*ns must be <= 4194304"),
    (["branches", "--set", 'out="report\\u0000.json"'], "validation error: out"),
])
def test_cli_main_bad_norms_and_genericity_params(argv, message, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, code, error", [
    # at this size s + S - t rounds to S, so no word is a branch
    (["branches", "--set", "ceiling.mean=1e200"], 3, "numerical-failure"),
    (["spectrum", "--set", "params.t=1e6"], 2, "resource-limit"),
    (["mixing", "--set", "params.eigenfunction_times=[1e300]"], 2, "resource-limit"),
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


@pytest.mark.parametrize("content", [b"[1]", b'{"seed": 1' + b"0" * 5000 + b"}", b"\xff{}"],
                         ids=["not-an-object", "integer-too-long", "not-utf-8"])
def test_cli_main_unparsable_config_file(content, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert main(["branches", str(path)]) == 1
    assert capsys.readouterr().err.startswith("parse error")


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
    if "list" in kind:
        item = (lambda v: type(v) is int) if "integers" in kind else number
        return type(value) is list and all(map(item, value))
    if kind == "null or a number":
        return value is None or number(value)
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
        cases += [({"ceiling": dict(ceiling, **{key: value})}, None) for key in ceiling]
        if experiment == "correlations":
            cases += [({"ceiling": ceiling, "params": {"psi": {key: value}}}, None)
                      for key in ("x", "s", "cutoff")]
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
    lines = capsys.readouterr().out.splitlines()
    probes = [r for r in map(json.loads, lines) if r["kind"] == "probe"]
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
    from semiflow import parallel
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
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "semiflow", "spectrum"],
                          capture_output=True, env=env, timeout=120)
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


def test_cli_main_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    from semiflow import cli as climod
    from semiflow.errors import NumericalFailure

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
        assert set(rec) >= {"t", "m_value", "m_upper", "n_value", "grid",
                            "slack", "fitted_rate"}


def test_csv_seventeen_digit_floats():
    cfg = parse_config(json.dumps(_config(
        experiment="branches",
        params={"x": 0.1, "s": 0.0, "t": 3.0})))
    report = run(cfg)
    text = emit(report, "csv").decode()
    # y = 0.1/8 = 0.0125 has an inexact binary expansion; 17 significant
    # digits round-trip it exactly
    row = text.splitlines()[1].split(",")
    assert float(row[2]) == 0.1 / 8


def test_spectrum_deterministic_eigenvalues():
    cfg_text = json.dumps(_config(
        experiment="spectrum",
        params={"t": 2.0, "nx": 24, "ns": 4, "points_per_box": 32, "k": 6,
                "mode": "lattice"}))
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
