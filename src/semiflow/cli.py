"""Batch experiment driver: config parsing, dispatch, and report emission.

One subcommand per experiment; a JSON config file fixes the ceiling and the
experiment parameters, and ``--set key=value`` overrides individual entries.
Reports are emitted in a canonical byte-stable form, so identical configs in
the deterministic (lattice) modes reproduce identical bytes across runs and
worker counts.  Exit codes: 0 success, 1 parse, validation or other input
failure, 2 resource limit, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import aniso, ceiling, genericity, mixing, smooth, spectral, transversality
from .canon import canonical_csv, canonical_json
from .ceiling import TrigPolynomial, ceiling_from_config, classify
from .dynamics import FlowPoint, Word, inverse_branches
from .errors import (InvalidArgument, NumericalFailure, ParseError,
                     ResourceLimit, SemiflowError, ValidationError)
from .parallel import worker_count

EXPERIMENTS = ("transversality", "mixing", "spectrum", "correlations",
               "norms", "genericity", "branches")

_TOP_KEYS = {"ceiling", "gamma0", "experiment", "params", "seed", "workers", "out"}

_PARAM_KEYS = {
    "transversality": {"t_values", "nx", "ns", "nL", "certified"},
    "mixing": {"grid", "depth", "tol_strict", "tol_clear", "eigenfunction_times"},
    "spectrum": {"t", "nx", "ns", "points_per_box", "k", "mode", "with_bound",
                 "bound_nx", "bound_ns"},
    "correlations": {"t_values", "nx", "ns", "psi", "phi"},
    "norms": {"grid_n", "num_functions", "slope_margin"},
    "genericity": {"cluster_n_values", "cluster_word", "window_factor",
                   "probe", "probe_n_values", "probe_samples", "probe_combos"},
    "branches": {"x", "s", "t", "theta"},
}

_DEFAULT_PARAMS = {
    "transversality": {"t_values": [4.0, 6.0, 8.0], "nx": 16, "ns": 8,
                       "nL": 16, "certified": True},
    "mixing": {"grid": 4096, "depth": 24, "tol_strict": None, "tol_clear": None,
               "eigenfunction_times": [0.7, 1.3]},
    "spectrum": {"t": 2.0, "nx": 32, "ns": 4, "points_per_box": 64, "k": 8,
                 "mode": "lattice", "with_bound": False, "bound_nx": 16, "bound_ns": 4},
    "correlations": {"t_values": [float(t) / 2 for t in range(0, 17)], "nx": 1024,
                     "ns": 8, "psi": {"s": ["cos", 1.0]}, "phi": {"s": ["cos", 1.0]}},
    "norms": {"grid_n": 64, "num_functions": 6, "slope_margin": 0.5},
    "genericity": {"cluster_n_values": [6, 8, 10], "cluster_word": [1],
                   "window_factor": 8.0, "probe": False,
                   "probe_n_values": [4, 6, 8], "probe_samples": 400, "probe_combos": 8},
    "branches": {"x": 0.3, "s": 0.0, "t": 5.0, "theta": None},
}


@dataclass
class ExperimentConfig:
    ceiling: TrigPolynomial
    gamma0: float
    experiment: str
    params: dict
    seed: int
    workers: int
    out: str
    raw: dict


@dataclass
class RunReport:
    config: dict
    config_hash: str
    payload: object
    caveats: list
    wall_time_s: float


def _merged_params(experiment: str, given: dict) -> dict:
    merged = dict(_DEFAULT_PARAMS[experiment])
    merged.update(given)
    return merged


def parse_config(text: str, experiment: str | None = None) -> ExperimentConfig:
    """Parse and fully validate a JSON config, collecting every violation."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    if not isinstance(raw, dict):
        raise ParseError("config must be a JSON object")

    problems = []
    for key in raw:
        if key not in _TOP_KEYS:
            problems.append(f"unknown key {key!r}")

    exp = raw.get("experiment", experiment)
    if experiment is not None and "experiment" in raw and raw["experiment"] != experiment:
        problems.append(
            f"config experiment {raw['experiment']!r} does not match subcommand {experiment!r}")
    if exp is None:
        problems.append("missing experiment")
    elif exp not in EXPERIMENTS:
        problems.append(f"experiment must be one of {EXPERIMENTS}, got {exp!r}")

    ceiling = None
    cspec = raw.get("ceiling")
    if not isinstance(cspec, dict):
        problems.append("missing or malformed ceiling section")
    else:
        for key in cspec:
            if key not in {"ell", "mean", "harmonics"}:
                problems.append(f"unknown ceiling key {key!r}")
        try:
            ceiling = ceiling_from_config(cspec)
        except (KeyError, TypeError, ValueError, SemiflowError) as exc:
            problems.append(f"bad ceiling: {exc}")
        if ceiling is not None:
            grid = np.arange(1024) / 1024
            if float(np.min(ceiling(grid))) <= 0.0:
                problems.append("ceiling violates positivity: it must be strictly positive")
                ceiling = None

    gamma0 = raw.get("gamma0", 0.9)
    if ceiling is not None and not (1.0 / ceiling.ell < gamma0 < 1.0):
        problems.append(f"gamma0 must lie in (1/ell, 1) = (1/{ceiling.ell}, 1), got {gamma0}")

    params = raw.get("params", {})
    if not isinstance(params, dict):
        problems.append("params must be an object")
        params = {}
    elif exp in _PARAM_KEYS:
        for key in params:
            if key not in _PARAM_KEYS[exp]:
                problems.append(f"unknown {exp} parameter {key!r}")
        params = _merged_params(exp, params)
        problems.extend(_validate_params(exp, params))

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        problems.append(f"seed must be a nonnegative integer, got {seed!r}")
    workers = raw.get("workers", 1)
    if not isinstance(workers, int) or workers < 1:
        problems.append(f"workers must be a positive integer, got {workers!r}")
    out = raw.get("out", "-")

    if problems:
        raise ValidationError(problems)
    return ExperimentConfig(ceiling=ceiling, gamma0=float(gamma0), experiment=exp,
                            params=params, seed=seed, workers=workers, out=out, raw=raw)


def _validate_params(exp: str, p: dict) -> list:
    problems = []

    def need(cond, msg):
        if not cond:
            problems.append(msg)

    if exp in ("transversality", "correlations"):
        ts = p["t_values"]
        need(isinstance(ts, list) and ts and all(_is_number(t) and t >= 0 for t in ts),
             "t_values must be a nonempty list of finite numbers >= 0")
    if exp == "transversality":
        need(p["nx"] >= 8, "nx must be >= 8")
        need(p["ns"] >= 8, "ns must be >= 8")
        need(p["nL"] >= 8, "nL must be >= 8")
    elif exp == "mixing":
        g = p["grid"]
        need(_is_int(g) and g >= 256 and g & (g - 1) == 0,
             "grid must be a power of two >= 256")
        need(_is_int(p["depth"]) and p["depth"] >= 1, "depth must be an integer >= 1")
        if p["tol_strict"] is not None and p["tol_clear"] is not None:
            need(p["tol_strict"] < p["tol_clear"], "tol_strict must be < tol_clear")
    elif exp == "spectrum":
        need(p["t"] >= 0, "t must be >= 0")
        need(p["nx"] * p["ns"] <= spectral.MAX_DIM, f"nx*ns must be <= {spectral.MAX_DIM}")
        need(p["points_per_box"] >= 16, "points_per_box must be >= 16")
        need(1 <= p["k"] <= 32, "k must be in 1..32")
        need(p["mode"] in ("lattice", "monte-carlo"), "mode must be lattice or monte-carlo")
    elif exp == "correlations":
        need(p["nx"] >= 8 and p["ns"] >= 1, "nx must be >= 8 and ns >= 1")
        for name in ("psi", "phi"):
            try:
                _observable_from_spec(p[name])
            except SemiflowError as exc:
                problems.append(f"bad {name}: {exc}")
    elif exp == "norms":
        g = p["grid_n"]
        need(_is_int(g) and g >= 32 and g & (g - 1) == 0,
             "grid_n must be a power of two >= 32")
        need(_is_int(p["num_functions"]) and p["num_functions"] >= 1,
             "num_functions must be an integer >= 1")
        need(_is_number(p["slope_margin"]), "slope_margin must be a finite number")
    elif exp == "genericity":
        ns = p["cluster_n_values"]
        need(isinstance(ns, list) and all(_is_int(n) and 1 <= n <= 20 for n in ns),
             "cluster_n_values must be a list of integers in 1..20")
        word = p["cluster_word"]
        need(isinstance(word, list) and word and all(_is_int(a) for a in word),
             "cluster_word must be a nonempty list of integer letters")
        need(_is_number(p["window_factor"]) and p["window_factor"] > 0,
             "window_factor must be a positive number")
        need(isinstance(p["probe"], bool), "probe must be true or false")
        ns = p["probe_n_values"]
        need(isinstance(ns, list) and all(_is_int(n) and n >= 1 for n in ns),
             "probe_n_values must be a list of integers >= 1")
        for key in ("probe_samples", "probe_combos"):
            need(_is_int(p[key]) and p[key] >= 1, f"{key} must be an integer >= 1")
    elif exp == "branches":
        need(0 <= p["x"] < 1, "x must lie in [0, 1)")
        need(p["s"] >= 0, "s must be >= 0")
        need(p["t"] >= 0, "t must be >= 0")
    return problems


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite real number; refuses bools, strings, nan and ints too big
    for a float."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and -sys.float_info.max <= v <= sys.float_info.max)


def _observable_from_spec(spec: dict) -> spectral.Observable:
    if not isinstance(spec, dict):
        raise InvalidArgument("observable spec must be an object")
    for key in spec:
        if key not in {"x", "s", "cutoff"}:
            raise InvalidArgument(f"unknown observable key {key!r}")

    def wave(entry):
        if entry is None:
            return None
        kind, freq = entry
        if kind not in ("cos", "sin"):
            raise InvalidArgument(f"wave kind must be cos or sin, got {kind!r}")
        return (kind, float(freq))

    return spectral.Observable(x_wave=wave(spec.get("x")), s_wave=wave(spec.get("s")),
                               cutoff=bool(spec.get("cutoff", True)))


# ---------------------------------------------------------------------------
# experiment payloads


def _run_transversality(cfg: ExperimentConfig):
    p = cfg.params
    estimates = transversality.grid_estimates(
        cfg.ceiling, [float(t) for t in p["t_values"]], p["nx"], p["ns"],
        certified=p["certified"], cls=classify(cfg.ceiling, cfg.gamma0),
        workers=worker_count(cfg.workers))
    records = [{
        "t": est.t, "m_value": est.m_value, "m_upper": est.m_upper,
        "n_value": nv, "grid": [p["nx"], p["ns"], p["nL"]], "slack": est.slack,
        "argmax": {"x": est.argmax_x, "s": est.argmax_s,
                   "on_section": est.argmax_on_section},
    } for est, nv in estimates]
    fitted_rate = None
    fit_residual = None
    positive = [(r["t"], r["m_value"]) for r in records if r["m_value"] > 0]
    if len(positive) >= 3:
        fitted_rate, fit_residual = transversality.exponent_fit(positive)
    for r in records:
        r["fitted_rate"] = fitted_rate
    payload = {"records": records, "fitted_rate": fitted_rate,
               "fit_log_residual": fit_residual}
    return payload, [transversality.GRID_LOWER_BOUND_CAVEAT,
                     ceiling.CR_TRUNCATION_CAVEAT]


def _run_mixing(cfg: ExperimentConfig):
    p = cfg.params
    report = mixing.weak_mixing_test(cfg.ceiling, p["tol_strict"], p["tol_clear"],
                                     grid=p["grid"], depth=p["depth"])
    payload = {
        "c": report.c, "depth": report.depth, "tail_bound": report.tail_bound,
        "residual_sup": report.residual_sup, "verdict": report.verdict.value,
        "tol_strict": report.tol_strict, "tol_clear": report.tol_clear,
    }
    if report.verdict is mixing.Verdict.NOT_WEAKLY_MIXING and p["eigenfunction_times"]:
        payload["eigenfunction_defect"] = mixing.eigenfunction_check(
            report, cfg.ceiling, p["eigenfunction_times"])
    return payload, []


def _run_spectrum(cfg: ExperimentConfig):
    p = cfg.params
    op = spectral.build_ulam(cfg.ceiling, p["t"], p["nx"], p["ns"],
                             p["points_per_box"], seed=cfg.seed, mode=p["mode"])
    report = spectral.spectrum(op, p["k"])
    payload = {
        "t": report.t,
        "eigenvalues": [[v.real, v.imag] for v in report.eigenvalues],
        "multiplicities": list(report.multiplicities),
    }
    caveats = list(report.caveats)
    if p["with_bound"]:
        est = transversality.m_of_t(cfg.ceiling, p["t"], p["bound_nx"], p["bound_ns"],
                                    certified=False, gamma0=cfg.gamma0)
        payload["essential_bound"] = est.m_value ** 0.5
        caveats.append(transversality.GRID_LOWER_BOUND_CAVEAT)
    return payload, caveats


def _run_correlations(cfg: ExperimentConfig):
    p = cfg.params
    psi = _observable_from_spec(p["psi"])
    phi = _observable_from_spec(p["phi"])
    curve = spectral.correlation(cfg.ceiling, psi, phi,
                                 [float(t) for t in p["t_values"]], p["nx"], p["ns"])
    payload = {
        "psi_id": curve.psi_id, "phi_id": curve.phi_id,
        "samples": [[t, v, 0.0] for t, v in curve.samples],
    }
    try:
        rate, residual = spectral.decay_fit(curve)
        payload["decay"] = {"rate": rate, "log_residual": residual}
    except InvalidArgument:
        payload["decay"] = None
    return payload, []


def _default_polarization(margin: float):
    plus = aniso.ConeSpec(-margin, margin)
    minus = aniso.ConeSpec(2.0, -2.0)
    return aniso.Polarization(plus, minus)


def _run_norms(cfg: ExperimentConfig):
    p = cfg.params
    theta = _default_polarization(p["slope_margin"])
    grid = aniso.make_grid(1.0, 1.0, p["grid_n"])
    bank = aniso.mask_bank(theta, grid)
    rng = np.random.default_rng(cfg.seed)
    X, Y = grid.coords()
    envelope = smooth.plateau(X, 0.5, 0.95) * smooth.plateau(Y, 0.5, 0.95)
    rows = []
    for i in range(p["num_functions"]):
        k1, k2 = rng.integers(-8, 9, size=2)
        u = aniso.GridFunction2D(
            values=envelope * np.cos(2 * np.pi * (k1 * X + k2 * Y) + rng.random()),
            spacing=grid.spacing, rect=grid.rect)
        strong = aniso.aniso_norm(u, theta, aniso.NormParams.strong(), bank=bank)
        weak = aniso.aniso_norm(u, theta, aniso.NormParams.weak(), bank=bank)
        rows.append({
            "id": f"mode_{i}_({k1},{k2})",
            "strong_norm": strong, "weak_norm": weak,
            "embedding_ratio": aniso.embedding_check(u, theta, bank=bank),
            "weak_le_strong": bool(weak <= strong + 1e-12),
        })
    payload = {
        "partition_defect": aniso.partition_defect(theta, grid, bank=bank),
        "functions": rows,
    }
    return payload, []


def _run_genericity(cfg: ExperimentConfig):
    p = cfg.params
    f = cfg.ceiling
    cls = classify(f, cfg.gamma0)
    word = Word(tuple(p["cluster_word"]), f.ell)
    records = []
    for n in p["cluster_n_values"]:
        rep = genericity.slope_clusters(f, n, word, cls=cls,
                                        window_factor=p["window_factor"])
        records.append({
            "kind": "cluster", "n": n, "base_word": str(word),
            "window": rep.window, "max_cluster": rep.max_cluster,
            "growth_rate": rep.max_cluster ** (1.0 / n),
        })
    if p["probe"]:
        params = genericity.default_params(f.ell)
        family = _default_probe_family(f)
        for n in p["probe_n_values"]:
            res = genericity.bad_set_probe(family, n, p["probe_samples"], params,
                                           cfg.seed, combos=p["probe_combos"], cls=cls)
            records.append({
                "kind": "probe", "n": n, "fraction": res.fraction,
                "ci_low": res.ci_low, "ci_high": res.ci_high,
                "window": res.window, "combos": res.combos_used,
            })
    return {"records": records}, [ceiling.CR_TRUNCATION_CAVEAT]


def _default_probe_family(f: TrigPolynomial):
    centers = [0.05, 0.21, 0.37, 0.53, 0.69, 0.85]
    directions = tuple(
        genericity.BumpDirection(center=c, radius=0.055, deriv_plateau=20.0,
                                 label=f"probe{i}")
        for i, c in enumerate(centers))
    return genericity.PerturbationFamily(base=f, directions=directions,
                                         epsilon=0.05)


def _run_branches(cfg: ExperimentConfig):
    p = cfg.params
    theta = p["theta"]
    if theta is None:
        theta = classify(cfg.ceiling, cfg.gamma0).theta_f
    branches = inverse_branches(cfg.ceiling, FlowPoint(p["x"], p["s"]), p["t"], theta)
    rows = [{
        "word": str(b.word), "n": b.level, "y": b.preimage.x,
        "s_prime": b.preimage.s, "E": b.expansion, "slope": b.slope,
    } for b in branches]
    payload = {"rows": rows, "weight_sum": sum(1.0 / b.expansion for b in branches)}
    return payload, []


_RUNNERS = {
    "transversality": _run_transversality,
    "mixing": _run_mixing,
    "spectrum": _run_spectrum,
    "correlations": _run_correlations,
    "norms": _run_norms,
    "genericity": _run_genericity,
    "branches": _run_branches,
}


def run(cfg: ExperimentConfig) -> RunReport:
    """Dispatch the experiment and wrap the payload in a report.

    Wall time is recorded on the report but excluded from the canonical
    emission so deterministic runs stay byte-identical.
    """
    started = time.perf_counter()
    payload, caveats = _RUNNERS[cfg.experiment](cfg)
    elapsed = time.perf_counter() - started
    # workers and out are execution parameters, not experiment identity;
    # leaving them out keeps reports byte-identical across worker counts
    echo = {k: cfg.raw[k] for k in sorted(cfg.raw) if k not in ("workers", "out")}
    blob = json.dumps(echo, sort_keys=True).encode()
    return RunReport(config=echo, config_hash=hashlib.sha256(blob).hexdigest(),
                     payload=payload, caveats=sorted(set(caveats)),
                     wall_time_s=elapsed)


def _payload_rows(payload):
    if isinstance(payload, dict):
        for key in ("rows", "records", "samples"):
            if key in payload and isinstance(payload[key], list) and payload[key]:
                return payload[key]
    return None


def emit(report: RunReport, format: str = "json", include_timing: bool = False) -> bytes:
    """Serialize a report canonically.

    json renders the whole document; jsonl renders one record per line
    (the native form of the transversality and genericity outputs); csv is
    available for tabular payloads.
    """
    if format == "json":
        doc = {
            "config": report.config,
            "config_hash": report.config_hash,
            "caveats": report.caveats,
            "payload": report.payload,
        }
        if include_timing:
            doc["wall_time_s"] = report.wall_time_s
        return (canonical_json(doc) + "\n").encode()
    if format == "jsonl":
        rows = _payload_rows(report.payload)
        if rows is None:
            raise InvalidArgument("payload has no record section to render as JSON lines")
        return ("\n".join(canonical_json(r) for r in rows) + "\n").encode()
    if format == "csv":
        rows = _payload_rows(report.payload)
        if rows is None:
            raise InvalidArgument("payload has no tabular section to render as CSV")
        if isinstance(rows[0], list):
            header = ["t", "re", "im"]
            rows = [dict(zip(header, r)) for r in rows]
        else:
            header = [k for k in rows[0] if not isinstance(rows[0][k], (dict, list))]
            rows = [{k: r.get(k) for k in header} for r in rows]
        return canonical_csv(rows, header).encode()
    raise InvalidArgument(f"unsupported format {format!r}")


def _apply_overrides(raw: dict, overrides) -> dict:
    for item in overrides or ():
        if "=" not in item:
            raise ParseError(f"override {item!r} is not of the form key=value")
        path, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = raw
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = parsed
    return raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="semiflow",
        description="numerical experiments on suspension semi-flows of angle-multiplying maps")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        s = sub.add_parser(name)
        s.add_argument("config", nargs="?", help="JSON config file (defaults used if omitted)")
        s.add_argument("--set", action="append", dest="overrides", metavar="KEY=VALUE",
                       help="override a config entry (dotted path, JSON value)")
        s.add_argument("--out", help="output path ('-' for stdout)")
        # transversality and genericity natively stream one record per line
        default_fmt = "jsonl" if name in ("transversality", "genericity") else "json"
        s.add_argument("--format", choices=("json", "jsonl", "csv"), default=default_fmt)
        s.add_argument("--workers", type=int, help="worker count override")
        s.add_argument("--timing", action="store_true", help="include wall time in the report")
    args = parser.parse_args(argv)

    try:
        raw_text = None
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw_text = fh.read()
        base = json.loads(raw_text) if raw_text else {}
        if not isinstance(base, dict):
            raise ParseError("config must be a JSON object")
    except json.JSONDecodeError as exc:
        print(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1

    base.setdefault("ceiling", {"ell": 2, "mean": 1.0, "harmonics": []})
    try:
        _apply_overrides(base, args.overrides)
        if args.workers is not None:
            base["workers"] = args.workers
        if args.out is not None:
            base["out"] = args.out
        cfg = parse_config(json.dumps(base), experiment=args.experiment)
    except ParseError as exc:
        where = f" at line {exc.line}, column {exc.column}" if exc.line else ""
        print(f"parse error{where}: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        for v in exc.violations:
            print(f"validation error: {v}", file=sys.stderr)
        return 1

    try:
        report = run(cfg)
    except ResourceLimit as exc:
        doc = {"error": "resource-limit", "message": str(exc), **exc.details}
        print(canonical_json(doc), file=sys.stdout)
        return 2
    except NumericalFailure as exc:
        doc = {"error": "numerical-failure", "message": str(exc), **exc.details}
        print(canonical_json(doc), file=sys.stdout)
        return 3
    except SemiflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    data = emit(report, args.format, include_timing=args.timing)
    if cfg.out in ("-", None):
        sys.stdout.buffer.write(data)
    else:
        with open(cfg.out, "wb") as fh:
            fh.write(data)
        print(f"wrote {cfg.out} ({len(data)} bytes) in {report.wall_time_s:.2f}s",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
