"""Batch experiment driver: config parsing, dispatch, and report emission.

One subcommand per experiment; a JSON config file fixes the ceiling and the
experiment parameters, and ``--set key=value`` overrides individual entries.
Reports are emitted in a canonical byte-stable form, so every config
reproduces identical bytes across runs and worker counts.  Exit codes: 0
success, 1 usage, parse, validation or other input failure, 2 resource
limit, 3 numerical failure.

Importing this module loads only what every parse needs: the ceiling, the
flow and its branches, the errors and the canonical form.  An experiment's
own modules (``_MODULES``) are imported by ``parse_config`` when it parses
a config of that experiment, so a process loads only what the experiments
it parses run, and ``run`` imports none.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import operator
import sys
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ceiling
from .canon import canonical_csv, canonical_json
from .ceiling import MAX_HARMONIC, MAX_WORD_INDEX, TrigPolynomial, classify, extrema
from .dynamics import ROOF_TOL, FlowPoint, inverse_branches
from .errors import (InvalidArgument, NumericalFailure, ParseError,
                     ResourceLimit, SemiflowError, ValidationError)

EXPERIMENTS = ("transversality", "mixing", "spectrum", "correlations",
               "norms", "genericity", "branches")

# experiment -> the modules of this package that its runner imports beyond
# the ones imported above; ``parse_config`` imports them when it parses a
# config of that experiment
_MODULES = {
    "transversality": ("transversality",),
    "mixing": ("mixing",),
    "spectrum": ("spectral",),
    "correlations": ("spectral",),
    "norms": ("aniso", "smooth"),
    "genericity": ("genericity",),
    "branches": (),
}

# A config ceiling's certified range lies in [MIN_HEIGHT, MAX_HEIGHT], so the
# dyadic bound K of ``classify`` and every flow height stay finite floats.
_HEIGHT_EXPONENT = 256
MIN_HEIGHT = 2.0 ** -_HEIGHT_EXPONENT
MAX_HEIGHT = 2.0 ** _HEIGHT_EXPONENT

# A violation message quotes at most this many entries of a list or object,
# and this many characters of a string; at most this many unknown keys of one
# table are named, one message each.
_ECHO_ITEMS = 8
_ECHO_CHARS = 64


class Param(NamedTuple):
    """One config entry of a schema table."""

    default: object
    kind: str          # a key of _KINDS
    bounds: str = ""   # comparisons joined by " and ", met by the value or by each list item

    @property
    def rule(self) -> str:
        return f"{self.kind} {self.bounds}".rstrip()


def is_number(v) -> bool:
    """A finite real number; refuses bools, strings, nan and ints too big
    for a float."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and -sys.float_info.max <= v <= sys.float_info.max)


def is_int(v) -> bool:
    """An integer that is also a finite number, so never a bool."""
    return isinstance(v, int) and is_number(v)


def _list_of(test, min_len=0):
    return lambda v: isinstance(v, list) and len(v) >= min_len and all(map(test, v))


def _wave(test):
    # a frequency of at most MAX_HARMONIC keeps 2 pi a s finite for every s
    # under a ceiling of at most MAX_HEIGHT
    return lambda v: v is None or (isinstance(v, list) and len(v) == 2 and v[0] in ("cos", "sin")
                                   and test(v[1]) and abs(v[1]) <= MAX_HARMONIC)


# the x wave lives on the circle, so only an integer frequency is continuous there
_X_WAVE = f'null or ["cos" or "sin", integer in [-{MAX_HARMONIC}, {MAX_HARMONIC}]]'
_S_WAVE = f'null or ["cos" or "sin", number in [-{MAX_HARMONIC}, {MAX_HARMONIC}]]'

_KINDS = {
    "an integer": is_int,
    "a power of two": lambda v: is_int(v) and v > 0 and v & (v - 1) == 0,
    "a number": is_number,
    "true or false": lambda v: isinstance(v, bool),
    # open() refuses a NUL in a path with ValueError, not OSError
    "a path, or - for stdout": lambda v: isinstance(v, str) and "\0" not in v,
    "an object": lambda v: isinstance(v, dict),
    "a list of integers": _list_of(is_int),
    "a nonempty list of integers": _list_of(is_int, 1),
    "a list of numbers": _list_of(is_number),
    "a nonempty list of numbers": _list_of(is_number, 1),
    "one of " + ", ".join(EXPERIMENTS): lambda v: v in EXPERIMENTS,
    "a list of [integer, number, number]": _list_of(
        lambda h: isinstance(h, list) and len(h) == 3 and is_int(h[0]) and is_number(h[1])
        and is_number(h[2])),
    _X_WAVE: _wave(is_int),
    _S_WAVE: _wave(is_number),
}

_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}

_TOP = {
    "ceiling": Param({"ell": 2, "mean": 1.0, "harmonics": []}, "an object"),
    "gamma0": Param(0.9, "a number"),
    "experiment": Param(None, "one of " + ", ".join(EXPERIMENTS)),
    "params": Param({}, "an object"),
    "seed": Param(0, "an integer", ">= 0"),
    "workers": Param(1, "an integer", ">= 1"),
    "out": Param("-", "a path, or - for stdout"),
}

# the nested specs: a ceiling, with None for a required entry, and an observable
_CEILING = {
    "ell": Param(None, "an integer", ">= 2"),
    "mean": Param(None, "a number"),
    "harmonics": Param([], "a list of [integer, number, number]"),
}
# the ceiling rules beyond each entry's own, as --help lists them: the first
# two are TrigPolynomial invariants, the others ``_ceiling``'s own checks
_COEFFICIENT_RULE = (f"mean and harmonic coefficients must be at most 2^{_HEIGHT_EXPONENT} "
                     "in magnitude")
_CEILING_RULES = (
    f"ell must be <= 2^{MAX_WORD_INDEX.bit_length()} - 1, a 64-bit word index",
    f"harmonic indices must be distinct integers in 1..{MAX_HARMONIC}",
    _COEFFICIENT_RULE,
    f"f must be > 0, with its certified range in [2^-{_HEIGHT_EXPONENT}, 2^{_HEIGHT_EXPONENT}]",
)
_OBSERVABLE = {
    "x": Param(None, _X_WAVE),
    "s": Param(None, _S_WAVE),
    "cutoff": Param(True, "true or false"),
}

# experiment -> parameter -> Param: the one description of every parameter
_SCHEMA = {
    "transversality": {
        "t_values": Param([4.0, 6.0, 8.0], "a nonempty list of numbers", ">= 0"),
        "nx": Param(16, "an integer", ">= 8"),
        "ns": Param(8, "an integer", ">= 8"),
        "certified": Param(True, "true or false"),
    },
    "mixing": {
        "grid": Param(4096, "a power of two", ">= 256 and <= 65536"),
        "depth": Param(24, "an integer", ">= 1"),
        "eigenfunction_times": Param([0.7, 1.3], "a list of numbers", ">= 0"),
    },
    "spectrum": {
        "t": Param(2.0, "a number", ">= 0"),
        "nx": Param(32, "an integer", ">= 1"),
        "ns": Param(4, "an integer", ">= 1"),
        "points_per_box": Param(64, "an integer", ">= 16"),
        "k": Param(8, "an integer", ">= 1 and <= 32"),
    },
    "correlations": {
        "t_values": Param([t / 2 for t in range(17)], "a nonempty list of numbers", ">= 0"),
        "nx": Param(1024, "an integer", ">= 8"),
        "ns": Param(8, "an integer", ">= 1"),
        "psi": Param({"s": ["cos", 1.0]}, "an object"),
        "phi": Param({"s": ["cos", 1.0]}, "an object"),
    },
    "norms": {
        "grid_n": Param(64, "a power of two", ">= 32 and <= 1024"),
        "num_functions": Param(6, "an integer", ">= 1 and <= 4096"),
        # exactly then the plus cone |slope| <= margin and the minus cone
        # |slope| >= 2 meet only at the origin
        "slope_margin": Param(0.5, "a number", ">= 0 and < 2"),
    },
    "genericity": {
        "cluster_n_values": Param([6, 8, 10], "a list of integers", ">= 1 and <= 20"),
        "cluster_word": Param([1], "a nonempty list of integers"),
        "window_factor": Param(8.0, "a number", "> 0"),
        "probe": Param(False, "true or false"),
        "probe_n_values": Param([4, 6, 8], "a list of integers", ">= 1"),
        "probe_samples": Param(400, "an integer", ">= 1 and <= 1048576"),
        "probe_combos": Param(8, "an integer", ">= 1 and <= 4096"),
    },
    "branches": {
        "x": Param(0.3, "a number", ">= 0 and < 1"),
        "s": Param(0.0, "a number", ">= 0"),
        "t": Param(5.0, "a number", ">= 0"),
    },
}


# grid points (nx*ns) of one m(f,t) pass that a config may ask for
MAX_GRID = 2 ** 16
# points one flow run moves: correlation quadrature nodes, a few arrays of
# this many floats each, or Ulam sample points, which the assembly flows a
# chunk at a time, so for it the cap bounds work, not memory
MAX_NODES = 2 ** 22
# words of one slope-cluster level
MAX_CLUSTER_WORDS = 2 ** 20


def _product_cap(names, cap):
    """The rule that the sizes ``names`` of one allocation multiply to at most ``cap``."""
    text = f"{'*'.join(names)} must be <= {cap}"
    return text, names, lambda *sizes: [text] if math.prod(sizes) > cap else []


def _target_problems(f, x, s):
    fx = float(f(x))
    if s >= fx + ROOF_TOL:
        return [f"target (x={x}, s={s}) is outside the region under the ceiling"]
    return [f"target (x={x}, s={s}) lies on the roof; the flow identifies it with the base "
            f"point (x={f.ell * x % 1.0}, s=0), so pass that point"] if s >= fx - ROOF_TOL else []


def _probe_room(f, probe, levels):
    from .genericity import combination_size
    p = combination_size(f.ell)
    return [f"probe level n = {n} gives fewer than the p + 1 = {p + 1} distinct words a "
            f"combination needs (ell = {f.ell})"
            for n in dict.fromkeys(levels if probe else ()) if f.ell ** min(n, 64) <= p]


def _cones(margin):
    """The norms' plus cone |slope| <= margin and minus cone |slope| >= 2."""
    from .aniso import ConeSpec
    return ConeSpec(-margin, margin), ConeSpec(2.0, -2.0)


# experiment -> the rules that relate values: (the rule as --help lists it,
# the values it reads, check(*those values) -> violations), checked once each
# value has passed its own rule; "ceiling" reads the parsed ceiling.  An
# index ell^n is compared as ell^min(n, 64), beyond 2^63 - 1 exactly when
# ell^n is, so that a large n forms no slow big-int power.  A per-entry rule
# names each distinct offending entry once.
_RULES = {
    "transversality": [_product_cap(("nx", "ns"), MAX_GRID)],
    "spectrum": [_product_cap(("nx", "ns", "points_per_box"), MAX_NODES)],
    "correlations": [_product_cap(("nx", "ns"), MAX_NODES)],
    # the arcs are rounded, so they meet at the 9 floats below 2 too
    "norms": [("the cones' angle arcs [-atan(slope_margin), atan(slope_margin)] and "
               "[atan(2), pi - atan(2)] must be disjoint mod pi", ("slope_margin",),
               lambda m: [f"the cones' angle arcs meet at slope_margin = {m!r}"]
               if _cones(m)[0].intersects(_cones(m)[1]) else [])],
    "genericity": [
        ("cluster_word letters must lie in 1..ell", ("ceiling", "cluster_word"),
         lambda f, word: [] if all(1 <= a <= f.ell for a in word) else
         [f"cluster_word letters must lie in 1..{f.ell}, got {_echo(word)}"]),
        ("ell^m must be <= 2^63 - 1 for a cluster_word of m letters", ("ceiling", "cluster_word"),
         lambda f, word: [] if f.ell ** min(len(word), 64) <= MAX_WORD_INDEX else
         [f"cluster_word of m = {len(word)} letters: ell^m = {f.ell}^{len(word)} exceeds "
          "the int64 word index"]),
        (f"ell^n must be <= {MAX_CLUSTER_WORDS} for each n in cluster_n_values",
         ("ceiling", "cluster_n_values"),
         lambda f, levels: [f"cluster_n_values entry n = {n}: ell^n = {f.ell}^{n} exceeds the "
                            f"cluster cap {MAX_CLUSTER_WORDS}"
                            for n in dict.fromkeys(levels) if f.ell ** n > MAX_CLUSTER_WORDS]),
        ("ell^n must be <= 2^63 - 1 for each n in probe_n_values, when probe is true",
         ("ceiling", "probe", "probe_n_values"),
         lambda f, probe, levels: [f"probe level n = {n}: ell^n = {f.ell}^{n} exceeds the int64 "
                                   "word index" for n in dict.fromkeys(levels if probe else ())
                                   if f.ell ** min(n, 64) > MAX_WORD_INDEX]),
        ("ell^n must be >= p + 1 for each n in probe_n_values (p = 5 at ell = 2, 4 at 3..10), "
         "when probe is true", ("ceiling", "probe", "probe_n_values"), _probe_room),
    ],
    "branches": [
        ("(x, s) must lie under the roof, s < f(x) - 1e-12; on it, pass (tau x, 0) instead",
         ("ceiling", "x", "s"), _target_problems),
    ],
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


def _echo(value) -> str:
    """The repr of a value that a violation message quotes, each list or
    object cut to its first _ECHO_ITEMS entries and its length, and a string
    to its first _ECHO_CHARS characters and its length, so that a message
    stays short whatever the config holds."""
    if isinstance(value, str) and len(value) > _ECHO_CHARS:
        return f"{value[:_ECHO_CHARS]!r}… ({len(value)} characters)"
    if isinstance(value, (list, dict)):
        items = ([_echo(v) for v in value[:_ECHO_ITEMS]] if isinstance(value, list) else
                 [f"{k!r}: {_echo(v)}" for k, v in list(value.items())[:_ECHO_ITEMS]])
        if len(value) > _ECHO_ITEMS:
            items.append(f"… ({len(value)} entries)")
        text = ", ".join(items)
        return f"[{text}]" if isinstance(value, list) else f"{{{text}}}"
    return repr(value)


def _checked(table: dict, given: dict, what: str, problems: list) -> dict:
    """The table's defaults updated from ``given``, keeping the entries that
    pass their check: the kind first, then the bounds, so that no bound meets
    a value of another type.  Each violation is appended to ``problems``, and
    so is each of the first _ECHO_ITEMS unknown keys, followed by their count
    when there are more."""
    unknown = [key for key in given if key not in table]
    problems.extend(f"unknown {what} {_echo(key)}" for key in unknown[:_ECHO_ITEMS])
    if len(unknown) > _ECHO_ITEMS:
        problems.append(f"… {len(unknown)} unknown {what}s in all")
    values = {}
    for key, param in table.items():
        value = given.get(key, param.default)
        items = value if isinstance(value, list) else [value]
        if _KINDS[param.kind](value) and all(
                _COMPARE[op](v, float(limit)) for v in items
                for op, limit in (c.split() for c in param.bounds.split(" and ") if c)):
            values[key] = value
        else:
            problems.append(f"{key} must be {param.rule}, got {_echo(value)}")
    return values


def _json_object(text) -> dict:
    """The JSON object in ``text`` (str or bytes); anything else is a ParseError."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:  # undecodable bytes, or an integer literal too long
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("config must be a JSON object")
    return raw


def _ceiling(spec: dict, problems: list) -> TrigPolynomial | None:
    """The ceiling ``spec`` describes, or None once the first failing step has
    appended its violations to ``problems``.  The steps: the entries, the
    coefficient magnitudes, the TrigPolynomial invariants, positivity, the range."""
    bad = []
    c = _checked(_CEILING, spec, "key", bad)
    # then no derivative up to order 4 of f overflows while it is certified
    if not bad and not all(abs(v) <= MAX_HEIGHT
                           for v in (c["mean"], *(v for h in c["harmonics"] for v in h[1:]))):
        bad.append(_COEFFICIENT_RULE)
    if not bad:
        try:
            f = TrigPolynomial(c["mean"], c["harmonics"], c["ell"])
        except InvalidArgument as exc:
            bad.append(str(exc))
    if not bad:
        f_min, f_max = extrema(f, 0)
        # nan fails the comparison too
        if not f_min > 0.0:
            problems.append("ceiling violates positivity: it must be strictly positive")
            return None
        if not (MIN_HEIGHT <= f_min and f_max <= MAX_HEIGHT):
            bad.append(f"certified range [{f_min:.6g}, {f_max:.6g}] must lie in "
                       f"[2^-{_HEIGHT_EXPONENT}, 2^{_HEIGHT_EXPONENT}]")
    problems.extend(f"bad ceiling: {v}" for v in bad)
    return None if bad else f


def parse_config(text: str, experiment: str | None = None) -> ExperimentConfig:
    """Parse and fully validate a JSON config, collecting every violation."""
    raw = _json_object(text)
    problems = []
    top = _checked(_TOP, {"experiment": experiment, **raw}, "key", problems)
    if experiment is not None and raw.get("experiment", experiment) != experiment:
        problems.append(f"experiment {_echo(raw['experiment'])} does not match subcommand "
                        f"{experiment!r}")

    ceiling = _ceiling(top["ceiling"], problems) if "ceiling" in top else None
    gamma0 = top.get("gamma0")
    if ceiling is not None and gamma0 is not None and not 1.0 / ceiling.ell < gamma0 < 1.0:
        problems.append(f"gamma0 must lie in (1/ell, 1) = (1/{ceiling.ell}, 1), got {gamma0}")

    exp = top.get("experiment")
    p = {}
    if exp is not None and "params" in top:
        p = _checked(_SCHEMA[exp], top["params"], f"{exp} parameter", problems)
    # the rules that relate values, once their inputs passed
    known = p if ceiling is None else dict(p, ceiling=ceiling)
    for _, names, check in _RULES.get(exp, ()):
        if all(name in known for name in names):
            problems.extend(check(*map(known.get, names)))
    for name in ("psi", "phi"):
        if name in p:
            from . import spectral
            bad = []
            o = _checked(_OBSERVABLE, p[name], "observable key", bad)
            problems.extend(f"bad {name}: {v}" for v in bad)
            waves = [w and (w[0], float(w[1])) for w in (o.get("x"), o.get("s"))]
            p[name] = spectral.Observable(*waves, o.get("cutoff"))

    if problems:
        raise ValidationError(problems)
    # the experiment's own modules, so that ``run`` imports none
    for module in _MODULES[exp]:
        importlib.import_module(f".{module}", __package__)
    return ExperimentConfig(ceiling=ceiling, gamma0=float(gamma0), experiment=exp, params=p,
                            seed=top["seed"], workers=top["workers"], out=top["out"], raw=raw)


# ---------------------------------------------------------------------------
# experiment payloads


def _run_transversality(cfg: ExperimentConfig):
    from . import transversality
    p = cfg.params
    estimates = transversality.grid_estimates(
        cfg.ceiling, [float(t) for t in p["t_values"]], p["nx"], p["ns"],
        classify(cfg.ceiling, cfg.gamma0), certified=p["certified"],
        workers=cfg.workers)
    records = [{
        "t": est.t, "m_value": est.m_value, "m_upper": est.m_upper,
        "n_value": nv, "slack": est.slack,
        "argmax": {"x": est.argmax_x, "s": est.argmax_s},
    } for est, nv in estimates]
    fitted_rate = fit_residual = None
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
    from . import mixing
    p = cfg.params
    report = mixing.weak_mixing_test(cfg.ceiling, grid=p["grid"], depth=p["depth"])
    payload = {
        "c": report.c, "depth": report.depth, "tail_bound": report.tail_bound,
        "residual_sup": report.residual_sup, "verdict": report.verdict.value,
    }
    if report.verdict is mixing.Verdict.NOT_WEAKLY_MIXING and p["eigenfunction_times"]:
        payload["eigenfunction_defect"] = mixing.eigenfunction_check(
            report, cfg.ceiling, p["eigenfunction_times"])
    return payload, []


def _run_spectrum(cfg: ExperimentConfig):
    from . import spectral
    p = cfg.params
    op = spectral.build_ulam(cfg.ceiling, p["t"], p["nx"], p["ns"], p["points_per_box"])
    report = spectral.spectrum(op, p["k"])
    payload = {
        "t": report.t,
        "eigenvalues": [[v.real, v.imag] for v in report.eigenvalues],
        "multiplicities": list(report.multiplicities),
    }
    return payload, [spectral.DISCRETIZED_SPECTRUM_CAVEAT]


def _run_correlations(cfg: ExperimentConfig):
    from . import spectral
    p = cfg.params
    samples = spectral.correlation(cfg.ceiling, p["psi"], p["phi"],
                                   [float(t) for t in p["t_values"]], p["nx"], p["ns"])
    payload = {
        "psi_id": p["psi"].id, "phi_id": p["phi"].id,
        "samples": [[t, v, 0.0] for t, v in samples],
    }
    return payload, []


def _run_norms(cfg: ExperimentConfig):
    from . import aniso, smooth
    p = cfg.params
    grid = aniso.make_grid(1.0, 1.0, p["grid_n"])
    bank = aniso.mask_bank(aniso.Polarization(*_cones(p["slope_margin"])), grid)
    rng = np.random.default_rng(cfg.seed)
    X, Y = grid.coords()
    envelope = smooth.plateau(X, 0.5, 0.95) * smooth.plateau(Y, 0.5, 0.95)
    rows = []
    for i in range(p["num_functions"]):
        k1, k2 = rng.integers(-8, 9, size=2)
        u = aniso.GridFunction2D(
            values=envelope * np.cos(2 * np.pi * (k1 * X + k2 * Y) + rng.random()),
            spacing=grid.spacing, rect=grid.rect)
        strong, weak = aniso.aniso_norm(u, bank)
        rows.append({
            "id": f"mode_{i}_({k1},{k2})",
            "strong_norm": strong, "weak_norm": weak,
            "embedding_ratio": aniso.embedding_check(u, strong),
            "weak_le_strong": bool(weak <= strong),
        })
    return {"partition_defect": aniso.partition_defect(bank), "functions": rows}, []


def _run_genericity(cfg: ExperimentConfig):
    from . import genericity
    p = cfg.params
    f = cfg.ceiling
    cls = classify(f, cfg.gamma0)
    letters = p["cluster_word"]
    records = []
    for n in p["cluster_n_values"]:
        rep = genericity.slope_clusters(f, n, letters, cls, window_factor=p["window_factor"])
        records.append({
            "kind": "cluster", "n": n, "base_word": "".join(map(str, letters)),
            "window": rep.window, "max_cluster": rep.max_cluster,
            "growth_rate": rep.max_cluster ** (1.0 / n),
        })
    if p["probe"]:
        family = genericity.PerturbationFamily(base=f, epsilon=0.05, directions=tuple(
            genericity.BumpDirection(center=c, radius=0.055, deriv_plateau=20.0)
            for c in (0.05, 0.21, 0.37, 0.53, 0.69, 0.85)))
        for n in p["probe_n_values"]:
            res = genericity.bad_set_probe(family, n, p["probe_samples"], cfg.seed, cls,
                                           combos=p["probe_combos"])
            records.append({
                "kind": "probe", "n": n, "fraction": res.fraction,
                "ci_low": res.ci_low, "ci_high": res.ci_high,
                "window": res.window, "combos": res.combos_used,
            })
    return {"records": records}, [ceiling.CR_TRUNCATION_CAVEAT]


def _run_branches(cfg: ExperimentConfig):
    p = cfg.params
    table, words = inverse_branches(cfg.ceiling, FlowPoint(p["x"], p["s"]), p["t"])
    ell = float(table.ell)
    levels = table.n.tolist()
    rows = [{"word": word, "n": n, "y": y, "s_prime": s_prime, "slope": slope}
            for word, n, y, s_prime, slope in zip(words, levels, table.y.tolist(),
                                                  table.s.tolist(), table.slopes.tolist())]
    payload = {"rows": rows, "weight_sum": sum(1.0 / ell ** n for n in levels)}
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
    """Dispatch the experiment and wrap the payload in a report, with the
    wall time, which ``emit`` leaves out of every format."""
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
        for key in ("rows", "records", "samples", "functions"):
            if key in payload and isinstance(payload[key], list) and payload[key]:
                return payload[key]
    return None


def emit(report: RunReport, format: str = "json") -> bytes:
    """Serialize a report canonically, through ``canonical_json`` (looked up
    in this module, so a wrapper bound here sees every call).

    json renders the whole document; jsonl renders one record per line,
    without the config echo and caveats; csv renders the same records as
    rows, one column per scalar key of any record, in first-seen order, each
    cell a scalar's JSON text.  A non-finite number anywhere raises
    ``NumericalFailure``.
    """
    if format == "json":
        doc = {
            "config": report.config,
            "config_hash": report.config_hash,
            "caveats": report.caveats,
            "payload": report.payload,
        }
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
            header = list(dict.fromkeys(k for r in rows for k, v in r.items()
                                        if not isinstance(v, (dict, list))))
            rows = [{k: r.get(k) for k in header} for r in rows]
        return canonical_csv(rows, header).encode()
    raise InvalidArgument(f"unsupported format {format!r}")


def _apply_overrides(raw: dict, overrides) -> None:
    for item in overrides or ():
        if "=" not in item:
            raise ParseError(f"override {item!r} is not of the form key=value")
        path, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except ValueError:
            parsed = value
        node = raw
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ParseError(f"override {item!r} reaches into {key!r}, which is not an object")
        node[keys[-1]] = parsed


def _help(heading: str, table: dict, rules=()) -> str:
    """A --help section: each schema entry with its rule and default (none when
    the default fails the rule), then the texts of the rules that relate values."""
    width = max(map(len, table))
    return "\n".join([heading + "; a value's type is checked before its range:"] + [
        f"  {key:<{width}}  {param.rule}; "
        + (f"default {json.dumps(param.default)}" if _KINDS[param.kind](param.default)
           else "no default")
        for key, param in table.items()] + [f"  {text}" for text in rules])


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as every rejected input does; subcommands use this class too."""

    def error(self, message):
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="semiflow", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="numerical experiments on suspension semi-flows of angle-multiplying maps",
        epilog=_help("config keys (an omitted experiment is the subcommand)", _TOP) + "\n\n"
        + _help("ceiling keys (--set ceiling.NAME=VALUE)", _CEILING, _CEILING_RULES))
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        epilog = _help("parameters (--set params.NAME=VALUE)", _SCHEMA[name],
                       [text for text, *_ in _RULES.get(name, ())])
        if name == "correlations":
            epilog += "\n\n" + _help("psi and phi keys (--set params.psi.NAME=VALUE)", _OBSERVABLE)
        s = sub.add_parser(name, formatter_class=argparse.RawDescriptionHelpFormatter,
                           epilog=epilog)
        s.add_argument("config", nargs="?", help="JSON config file (defaults used if omitted)")
        s.add_argument("--set", action="append", dest="overrides", metavar="KEY=VALUE",
                       help="override a config entry (dotted path, JSON value)")
        s.add_argument("--out", help="output path ('-' for stdout)")
        s.add_argument("--format", choices=("json", "jsonl", "csv"), default="json")
        s.add_argument("--workers", type=int, help="worker count override")
    args = parser.parse_args(argv)

    try:
        base = {}
        if args.config:
            with open(args.config, "rb") as fh:
                base = _json_object(fh.read() or b"{}")
        base.setdefault("ceiling", dict(_TOP["ceiling"].default))
        _apply_overrides(base, args.overrides)
        if args.workers is not None:
            base["workers"] = args.workers
        if args.out is not None:
            base["out"] = args.out
        cfg = parse_config(json.dumps(base), experiment=args.experiment)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
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
        data = emit(report, args.format)
        if cfg.out == "-":
            sys.stdout.buffer.write(data)
        else:
            with open(cfg.out, "wb") as fh:
                fh.write(data)
            print(f"wrote {cfg.out} ({len(data)} bytes) in {report.wall_time_s:.2f}s",
                  file=sys.stderr)
    except ResourceLimit as exc:
        doc = {"error": "resource-limit", "message": str(exc), **exc.details}
        print(canonical_json(doc), file=sys.stdout)
        return 2
    except NumericalFailure as exc:
        doc = {"error": "numerical-failure", "message": str(exc), **exc.details}
        print(canonical_json(doc), file=sys.stdout)
        return 3
    except (SemiflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
