"""Command-line entry point: experiment configs in, tables out.

Subcommands: ``rate`` (closed-form separation rates), ``calibrate`` (build
and serialize a calibrated test), ``risk`` (one risk estimate from a config),
``sweep`` (grid of risk estimates -> CSV + JSON manifest), ``divergence``
(prior divergence reports as JSON rows), and ``selftest``.  The flags of
``rate``, ``calibrate`` and ``divergence`` go, as ``model.*``, ``test.*`` and
``prior.*`` fields, through the validators of the configs: these check JSON
shapes, and a library refusal of a value is reported, with its message, at
the value's field path (``ContractError.argument`` names it).

Exit codes: 0 success, 2 configuration error (with a field-path diagnostic),
1 runtime failure (for ``sweep``: some cell failed; the CSV and manifest are
still written and the failed cells listed on stderr).  The master seed falls
back to CORRDETECT_SEED; it must be an integer in [0, 2**128).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from .errors import ConfigError, ContractError, CorrdetectError, DomainError
from .divergences import (
    METHODS,
    SIGN_RULES,
    GroupSupported,
    PointMass,
    ShiftedSparse,
    SingleGroupSparse,
    UniformSparse,
    ingster_suslina_chisq,
    risk_lower_bound,
)
from .models import _check_count, check_family, model_from
from .procedures import build_test
from .rates import rate_for
from .risk import (
    SweepPlan,
    _atomic_write,
    default_alternatives,
    estimate_risk,
    run_sweep,
    write_manifest,
    write_rows_csv,
)
from .streams import _SEED_LIMIT, substream

_FAMILIES = {"eq": "equicorrelated", "equicorrelated": "equicorrelated",
             "grouped": "grouped", "rankone": "rank_one", "rank_one": "rank_one"}

# one constructor per divergence prior, from validated flags (a: the magnitude)
_PRIORS = {
    "point_mass": lambda p, s, a, **_: PointMass(
        np.r_[np.full(_check_count(s, "s", 1, p), a), np.zeros(p - s)]),
    "uniform_sparse": lambda p, s, a, signs, **_: UniformSparse(p, s, a, signs=signs),
    "single_group_sparse": lambda p, R, s, a, **_: SingleGroupSparse(p, R, s, a),
    "group_supported": lambda p, R, m, a, **_: GroupSupported(p, R, m, a),
    "shifted_sparse": lambda p, s, a, **_: ShiftedSparse(p, s, a),
}
_GROUP_PRIORS = ("single_group_sparse", "group_supported")
# the config field of each argument that a library rule names in a refusal
_MODEL_FIELDS = dict({k: f"model.{k}" for k in ("family", "p", "gamma", "R")}, v="model.v_file")
_TEST_FIELDS = {key: f"test.{key}" for key in ("mode", "eta", "n_cal", "C", "s")}


@contextlib.contextmanager
def _fields(paths: dict):
    """Library calls; a refusal of an argument in ``paths`` is a config error at its path."""
    try:
        yield
    except ContractError as exc:
        if exc.argument not in paths:
            raise
        raise ConfigError(paths[exc.argument], str(exc)) from None


def _load_pattern(path: str) -> np.ndarray:
    """The pattern in ``path``, as numbers (the models check it against p)."""
    try:
        return np.loadtxt(path, dtype=float, ndmin=1)
    except OSError as exc:
        raise ConfigError("model.v_file", str(exc))
    except ValueError as exc:  # a non-numeric entry
        raise ConfigError("model.v_file", f"pattern is not numeric: {exc}")


def _master_seed(value) -> int:
    """The master seed: ``value`` (a flag or config entry), else
    CORRDETECT_SEED, else 0.  Refuses anything but an integer in
    [0, 2**128), the range in which seeds give distinct streams."""
    if value is None:
        env = os.environ.get("CORRDETECT_SEED")
        if not env:
            return 0
        try:
            value = int(env)
        except ValueError:
            raise ConfigError("seed", f"CORRDETECT_SEED={env!r} is not an integer") from None
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < _SEED_LIMIT:
        raise ConfigError("seed", f"expected an integer in [0, 2**128), got {value!r}")
    return value


# ---------------------------------------------------------------------------
# config schema


def _require(block: dict, path: str, key: str, types, optional=False, default=None):
    if key not in block:
        if optional:
            return default
        raise ConfigError(f"{path}.{key}", "missing required field")
    value = block[key]
    if not isinstance(value, types):
        raise ConfigError(f"{path}.{key}",
                          f"expected {types}, got {type(value).__name__}")
    return value


def _reject_unknown(block: dict, path: str, allowed) -> None:
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown key")


def _integer(value, path) -> int:
    """``value`` if it is a positive int, not a bool or a float; else refused at ``path``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(path, f"expected a positive integer, got {value!r}")
    return value


def _finite(value, path) -> float:
    """``value`` as a float if it is a finite number, not a bool (compared exactly)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _positive(value, path) -> float:
    """``value`` as a float if it is a finite positive number (not a bool)."""
    value = _finite(value, path)
    if value <= 0:
        raise ConfigError(path, f"expected a positive number, got {value!r}")
    return value


def _grid(value, path, check) -> list:
    """A grid: one value or a nonempty list of them, each passed through
    ``check`` (:func:`_integer` or :func:`_finite`)."""
    values = value if isinstance(value, list) else [value]
    if not values:
        raise ConfigError(path, "expected a nonempty list")
    return [check(x, path) for x in values]


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("(file)", str(exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("(file)", f"line {exc.lineno}: {exc.msg}")
    if isinstance(cfg, dict) and "config" in cfg and "plan" in cfg:
        cfg = cfg["config"]  # accept a sweep manifest for reproduction
    if not isinstance(cfg, dict):
        raise ConfigError("(root)", "config must be a JSON object")
    return cfg


def _validate_model_grids(cfg: dict):
    """(family, p_grid, gamma_grid, R_grid, v) of ``cfg["model"]``."""
    model = _require(cfg, "(root)", "model", dict)
    _reject_unknown(model, "model", {"family", "p", "gamma", "R", "v_file"})
    family = _require(model, "model", "family", str)
    if family not in _FAMILIES:
        raise ConfigError("model.family", f"unknown family {family!r}")
    family = _FAMILIES[family]
    p_grid = _grid(_require(model, "model", "p", (int, list)), "model.p", _integer)
    gamma_grid = _grid(_require(model, "model", "gamma", (int, float, list)), "model.gamma",
                       _finite)
    with _fields(_MODEL_FIELDS):
        check_family(family, R=model.get("R"), v=model.get("v_file"))
    R_grid = (_grid(_require(model, "model", "R", (int, list)), "model.R", _integer)
              if family == "grouped" else [None])
    v = _load_pattern(_require(model, "model", "v_file", str)) if family == "rank_one" else None
    return family, p_grid, gamma_grid, R_grid, v


def _validate_test(cfg: dict):
    test = _require(cfg, "(root)", "test", dict, optional=True, default={})
    _reject_unknown(test, "test", {"mode", "eta", "n_cal", "C", "s"})
    mode = _require(test, "test", "mode", str, optional=True, default="calibrated")
    eta = _require(test, "test", "eta", (int, float), optional=True, default=0.1)
    n_cal = _integer(_require(test, "test", "n_cal", int, optional=True, default=4000),
                     "test.n_cal")
    C = _require(test, "test", "C", (int, float), optional=True)
    s = _require(test, "test", "s", (int, str), optional=True)
    if s is not None and s != "adaptive":
        s = _integer(s, "test.s")
    return mode, eta, n_cal, None if C is None else _finite(C, "test.C"), s


def _validate_front(cfg: dict, command: str, keys, seed, workers):
    """What ``risk`` and ``sweep`` configs share: root keys, model, test, the
    command's own block (its keys), and seed and workers (a flag wins)."""
    _reject_unknown(cfg, "(root)", {"command", "model", "test", command, "out", "seed", "workers"})
    model = _validate_model_grids(cfg)
    test = _validate_test(cfg)
    block = _require(cfg, "(root)", command, dict)
    _reject_unknown(block, command, keys)
    seed = _master_seed(seed if seed is not None else cfg.get("seed"))
    workers = _integer(workers if workers is not None else cfg.get("workers", 1), "workers")
    return model, test, block, seed, workers


def build_sweep_plan(cfg: dict, seed=None, workers=None) -> SweepPlan:
    model, test, sweep, seed, workers = _validate_front(
        cfg, "sweep", {"s", "multipliers", "n_reps", "separation_reference", "adaptive"},
        seed, workers)
    family, p_grid, gamma_grid, R_grid, v = model
    mode, eta, n_cal, C, s_fixed = test
    if s_fixed is not None:
        raise ConfigError("test.s", "a sweep takes its sparsities from sweep.s and its "
                                    "adaptive test from sweep.adaptive")
    adaptive = _require(sweep, "sweep", "adaptive", bool, optional=True, default=False)
    s_grid = _grid(_require(sweep, "sweep", "s", list), "sweep.s", _integer)
    multipliers = _grid(_require(sweep, "sweep", "multipliers", list), "sweep.multipliers",
                        _finite)
    n_reps = _integer(_require(sweep, "sweep", "n_reps", int, optional=True, default=1000),
                      "sweep.n_reps")
    sep = _require(sweep, "sweep", "separation_reference", str, optional=True, default="cell")
    own = {key: f"sweep.{key}" for key in ("s", "multipliers", "n_reps", "separation_reference")}
    with _fields({**_MODEL_FIELDS, **_TEST_FIELDS, **own, "workers": "workers"}):
        return SweepPlan(family=family, p_grid=tuple(p_grid), s_grid=tuple(s_grid),
                         gamma_grid=tuple(gamma_grid), multipliers=tuple(multipliers),
                         n_reps=n_reps, master_seed=seed, R_grid=tuple(R_grid), v=v,
                         mode=mode, eta=eta, C=C, n_cal=n_cal, separation_reference=sep,
                         workers=workers, adaptive=adaptive)


# ---------------------------------------------------------------------------
# subcommands


def _flag_model(args, R):
    """(family, p, gamma, R, v) of the model flags, checked as a config's
    model block; ``R`` is the model's group count, if any."""
    model = dict(family=args.family, p=args.p, gamma=args.gamma, R=R, v_file=args.v_file)
    family, (p,), (gamma,), (R,), v = _validate_model_grids({"model": model})
    return family, p, gamma, R, v


def _emit(payload: str, out) -> None:
    """``payload`` written atomically to the file ``out``, else to stdout."""
    if out:
        _atomic_write(out, payload)
    else:
        sys.stdout.write(payload)


def _cmd_rate(args) -> int:
    family, p, gamma, R, v = _flag_model(args, args.R)
    with _fields({**_MODEL_FIELDS, "s": "s"}):
        result = rate_for(family, p, args.s, gamma, R, v)
    print(f"regime {result.regime}")
    print("rate_sq uncharacterized" if result.uncharacterized
          else f"rate_sq {result.value:.4f}")
    return 0


def _cmd_calibrate(args) -> int:
    family, p, gamma, R, v = _flag_model(args, args.R)
    if args.adaptive == (args.s is not None):
        raise ConfigError("test.s", "give one of --s and --adaptive")
    block = {"eta": args.eta, "n_cal": args.n_cal, "s": "adaptive" if args.adaptive else args.s}
    mode, eta, n_cal, _, s = _validate_test({"test": block})
    seed = _master_seed(args.seed)
    with _fields({**_MODEL_FIELDS, **_TEST_FIELDS}):
        test = build_test(family, p, s, gamma, R=R, v=v, mode=mode, eta=eta, n_cal=n_cal,
                          rng=substream(seed, 0), seed_label=f"seed={seed}")
    _emit(test.to_json(indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_risk(args) -> int:
    cfg = load_config(args.config)
    model, (mode, eta, n_cal, C, s), block, seed, workers = _validate_front(
        cfg, "risk", {"s", "multiplier", "n_reps"}, args.seed, args.workers)
    family, p_grid, gamma_grid, R_grid, v = model
    if len(p_grid) != 1 or len(gamma_grid) != 1 or len(R_grid) != 1:
        raise ConfigError("model", "risk runs need scalar model parameters")
    (p,), (gamma,), (R,) = p_grid, gamma_grid, R_grid
    s_true = _integer(_require(block, "risk", "s", int, optional=isinstance(s, int), default=s),
                      "risk.s")
    mult = _positive(_require(block, "risk", "multiplier", (int, float)), "risk.multiplier")
    n_reps = _integer(_require(block, "risk", "n_reps", int, optional=True, default=1000),
                      "risk.n_reps")
    with _fields({**_MODEL_FIELDS, "s": "risk.s"}):
        rate = rate_for(family, p, s_true, gamma, R, v)
    if rate.uncharacterized:
        raise ConfigError("risk.s", "rate uncharacterized for this configuration")
    with _fields({**_MODEL_FIELDS, **_TEST_FIELDS}):
        test = build_test(family, p, s_true if s is None else s, gamma, R=R, v=v, mode=mode,
                          eta=eta, n_cal=n_cal, C=C, rng=substream(seed, 0))
    alts = default_alternatives(family, p, s_true, gamma, R, v, mult * rate.value)
    with _fields({"n_reps": "risk.n_reps", "workers": "workers"}):
        est = estimate_risk(test, test.model, alts, n_reps, seed, workers=workers)
    _emit(json.dumps({"rate": {"regime": rate.regime, "rate_sq": rate.value},
                      "multiplier": mult, "estimate": est.descriptor()},
                     indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    plan = build_sweep_plan(cfg, seed=args.seed, workers=args.workers)
    os.makedirs(args.out, exist_ok=True)
    rows, reports = run_sweep(plan)
    csv_path = os.path.join(args.out, "sweep.csv")
    write_rows_csv(rows, csv_path)
    write_manifest(plan, reports, csv_path, os.path.join(args.out, "manifest.json"),
                   config=dict(cfg, seed=plan.master_seed))
    failures = [r for r in reports if r["status"] != "ok"]
    print(f"wrote {csv_path} ({len(rows)} rows; {len(failures)} failed cells)")
    for r in failures:
        print(f"error: cell {r['cell_id']} (p={r['p']}, s={r['s']}, "
              f"gamma={r['gamma']}, R={r['R']}): {r['error']}", file=sys.stderr)
    return 1 if failures else 0


def _prior(args, p: int, v):
    """The divergence prior of the flags, each refused at its ``prior.*`` path.
    A ``group_supported`` prior takes ``--m`` (its number of whole groups),
    every other prior ``--s``; the other of the two is refused, not dropped."""
    magnitude = _finite(args.magnitude, "prior.magnitude")
    if args.signs != "plus" and args.prior != "uniform_sparse":
        raise ConfigError("prior.signs", f"{args.prior} has no sign rule; its signs are plus")
    if args.signs == "match_pattern" and v is None:
        raise ConfigError("prior.signs", "match_pattern needs the rank-one pattern")
    if args.prior in _GROUP_PRIORS and args.R is None:
        raise ConfigError("model.R", "this prior needs --R")
    size, stray = ("m", "s") if args.prior == "group_supported" else ("s", "m")
    if getattr(args, size) is None:
        raise ConfigError(f"prior.{size}", f"{args.prior} needs --{size}")
    with _fields({key: f"prior.{key}" for key in ("R", "s", "m", "magnitude")}):
        prior = _PRIORS[args.prior](p=p, R=args.R, a=magnitude, signs=args.signs,
                                    **{size: getattr(args, size)})
    if getattr(args, stray) is not None:
        raise ConfigError(f"prior.{stray}", f"{args.prior} takes no --{stray}")
    return prior


def _cmd_divergence(args) -> int:
    in_model = args.prior not in _GROUP_PRIORS or _FAMILIES[args.family] == "grouped"
    family, p, gamma, R, v = _flag_model(args, args.R if in_model else None)
    with _fields(_MODEL_FIELDS):
        model = model_from(family, p, gamma, R, v)
    prior = _prior(args, p, v)
    kwargs = dict(method=args.method, n_mc=args.n_mc, rng=substream(_master_seed(args.seed), 0),
                  v=v)
    row = {"prior": prior.descriptor(), "model": model.descriptor(), "method": args.method}
    if isinstance(prior, ShiftedSparse):
        row["risk_bound"] = risk_lower_bound(prior, model, **kwargs)
    else:
        row.update(ingster_suslina_chisq(prior, model, **kwargs).descriptor())
    try:
        print(json.dumps(row, sort_keys=True, allow_nan=False))
    except ValueError:
        raise DomainError("the divergence is not a finite float") from None
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest
    out_dir = args.out or "selftest-out"
    seed = _master_seed(args.seed)
    ok, lines = run_selftest(out_dir, seed=seed, workers=_integer(args.workers, "workers"))
    for line in lines:
        print(line)
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrdetect",
        description="Sparse signal detection under correlated Gaussian noise")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p, need_s=True):
        p.add_argument("--family", required=True, choices=sorted(_FAMILIES))
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--s", type=int, required=need_s)
        p.add_argument("--gamma", type=float, required=True)
        p.add_argument("--R", type=int)
        p.add_argument("--v-file", dest="v_file")

    rate_p = sub.add_parser("rate", help="closed-form squared separation rate")
    add_model_flags(rate_p)
    rate_p.set_defaults(func=_cmd_rate)

    cal_p = sub.add_parser("calibrate", help="build a calibrated test, emit JSON")
    add_model_flags(cal_p, need_s=False)
    cal_p.add_argument("--adaptive", action="store_true")
    cal_p.add_argument("--eta", type=float, default=0.1)
    cal_p.add_argument("--n-cal", dest="n_cal", type=int, default=4000)
    cal_p.add_argument("--seed", type=int)
    cal_p.add_argument("--out")
    cal_p.set_defaults(func=_cmd_calibrate)

    for name, func, about in (("risk", _cmd_risk, "one risk estimate from a config file"),
                              ("sweep", _cmd_sweep, "risk table over a parameter grid")):
        cfg_p = sub.add_parser(name, help=about)
        cfg_p.add_argument("--config", required=True)
        cfg_p.add_argument("--out", required=name == "sweep")
        cfg_p.add_argument("--seed", type=int)
        cfg_p.add_argument("--workers", type=int)
        cfg_p.set_defaults(func=func)

    div_p = sub.add_parser("divergence", help="chi-square divergence report")
    div_p.add_argument("--prior", required=True, choices=list(_PRIORS))
    div_p.add_argument("--method", default="auto", choices=METHODS)
    div_p.add_argument("--magnitude", type=float, required=True)
    div_p.add_argument("--m", type=int)
    div_p.add_argument("--signs", default="plus", choices=SIGN_RULES)
    div_p.add_argument("--n-mc", dest="n_mc", type=int, default=200_000)
    div_p.add_argument("--seed", type=int)
    add_model_flags(div_p, need_s=False)  # group_supported takes --m instead
    div_p.set_defaults(func=_cmd_divergence)

    self_p = sub.add_parser("selftest", help="run the built-in example suite")
    self_p.add_argument("--out")
    self_p.add_argument("--seed", type=int)
    self_p.add_argument("--workers", type=int, default=1)
    self_p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CorrdetectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
