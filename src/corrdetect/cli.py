"""Command-line entry point: experiment configs in, tables out.

Subcommands: ``rate`` (closed-form separation rates), ``calibrate`` (build
and serialize a calibrated test), ``risk`` (one risk estimate from a config),
``sweep`` (grid of risk estimates -> CSV + JSON manifest), ``divergence``
(prior divergence reports as JSON rows), and ``selftest``.  The flags of
``rate``, ``calibrate`` and ``divergence`` go, as ``model.*``, ``test.*`` and
``prior.*`` fields, through the validators of the configs.

Exit codes: 0 success, 2 configuration error (with a field-path diagnostic),
1 runtime failure (for ``sweep``: some cell failed; the CSV and manifest are
still written and the failed cells listed on stderr).  The master seed falls
back to CORRDETECT_SEED; it must be an integer in [0, 2**128).
"""

from __future__ import annotations

import argparse
import json
import math
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
from .models import RankOne, check_family, model_from
from .procedures import MIN_N_CAL, build_test
from .rates import rate_for
from .risk import (
    MIN_N_REPS,
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
    "point_mass": lambda p, s, a, **_: PointMass(np.r_[np.full(s, a), np.zeros(p - s)]),
    "uniform_sparse": lambda p, s, a, signs, **_: UniformSparse(p, s, a, signs=signs),
    "single_group_sparse": lambda p, R, s, a, **_: SingleGroupSparse(p, R, s, a),
    "group_supported": lambda p, R, m, a, **_: GroupSupported(p, R, m, a),
    "shifted_sparse": lambda p, s, a, **_: ShiftedSparse(p, s, a),
}
_GROUP_PRIORS = ("single_group_sparse", "group_supported")


def _load_pattern(path: str, p_grid) -> np.ndarray:
    """The pattern in ``path``, checked against the rank-one pattern rules
    (``models.RankOne``) for every p."""
    try:
        v = np.loadtxt(path, dtype=float, ndmin=1)
    except OSError as exc:
        raise ConfigError("model.v_file", str(exc))
    except ValueError as exc:  # a non-numeric entry
        raise ConfigError("model.v_file", f"pattern is not numeric: {exc}")
    for p in p_grid:
        try:
            RankOne(p, 0.0, v)
        except ContractError as exc:
            raise ConfigError("model.v_file", str(exc)) from None
    return v


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


def _integer(value, path, low=1) -> int:
    """``value`` if it is an integer of at least ``low``; a bool, a float
    (even a whole one) or anything else is refused at ``path``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(path, f"expected an integer >= {low}, got {value!r}")
    return value


def _finite(value, path) -> float:
    """``value`` as a float if it is a finite number (not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
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
    ``check`` (:func:`_integer`, :func:`_finite` or :func:`_positive`)."""
    values = value if isinstance(value, list) else [value]
    if not values:
        raise ConfigError(path, "expected a nonempty list")
    return [check(x, path) for x in values]


def _sparsities(value, p_grid, path) -> list:
    """A sparsity grid: integers in [1, p] for every p in ``p_grid``."""
    s_grid = _grid(value, path, _integer)
    if max(s_grid) > min(p_grid):
        raise ConfigError(path, f"{max(s_grid)} outside [1, {min(p_grid)}]")
    return s_grid


def _group_counts(value, p_grid, path) -> list:
    """A group-count grid: integers that divide every p in ``p_grid``."""
    R_grid = _grid(value, path, _integer)
    for p in p_grid:
        for R in R_grid:
            if p % R:
                raise ConfigError(path, f"R={R} does not divide p={p}")
    return R_grid


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
    for g in gamma_grid:
        if not 0.0 <= g <= 1.0:
            raise ConfigError("model.gamma", f"gamma={g} outside [0, 1]")
    for key, name in (("R", "R"), ("v_file", "v")):
        try:
            check_family(family, **{name: model.get(key)})
        except ContractError as exc:
            raise ConfigError(f"model.{key}", str(exc)) from None
    R_grid = (_group_counts(_require(model, "model", "R", (int, list)), p_grid, "model.R")
              if family == "grouped" else [None])
    v = (_load_pattern(_require(model, "model", "v_file", str), p_grid)
         if family == "rank_one" else None)
    return family, p_grid, gamma_grid, R_grid, v


def _validate_test(cfg: dict, p_grid):
    test = _require(cfg, "(root)", "test", dict, optional=True, default={})
    _reject_unknown(test, "test", {"mode", "eta", "n_cal", "C", "s"})
    mode = _require(test, "test", "mode", str, optional=True, default="calibrated")
    if mode not in ("calibrated", "paper_constants"):
        raise ConfigError("test.mode", f"unknown mode {mode!r}")
    eta = float(_require(test, "test", "eta", (int, float), optional=True, default=0.1))
    if not 0.0 < eta < 1.0:
        raise ConfigError("test.eta", "eta must lie in (0, 1)")
    n_cal = _integer(_require(test, "test", "n_cal", int, optional=True, default=4000),
                     "test.n_cal", low=MIN_N_CAL if mode == "calibrated" else 1)
    C = _require(test, "test", "C", (int, float), optional=True)
    if (mode == "paper_constants") != (C is not None):
        raise ConfigError("test.C", "paper_constants mode needs C, and only it uses C")
    s = _require(test, "test", "s", (int, str), optional=True)
    if isinstance(s, str) and s != "adaptive":
        raise ConfigError("test.s", "s must be an integer or 'adaptive'")
    if s is not None and not isinstance(s, str):
        [s] = _sparsities(s, p_grid, "test.s")
    return mode, eta, n_cal, None if C is None else _finite(C, "test.C"), s


def _validate_front(cfg: dict, command: str, keys, seed, workers):
    """What ``risk`` and ``sweep`` configs share: root keys, model, test, the
    command's own block (its keys), and seed and workers (a flag wins)."""
    _reject_unknown(cfg, "(root)", {"command", "model", "test", command, "out", "seed", "workers"})
    model = _validate_model_grids(cfg)
    test = _validate_test(cfg, p_grid=model[1])
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
    s_grid = _sparsities(_require(sweep, "sweep", "s", list), p_grid, "sweep.s")
    multipliers = _grid(_require(sweep, "sweep", "multipliers", list), "sweep.multipliers",
                        _positive)
    n_reps = _integer(_require(sweep, "sweep", "n_reps", int, optional=True, default=1000),
                      "sweep.n_reps", low=MIN_N_REPS)
    sep = _require(sweep, "sweep", "separation_reference", str, optional=True, default="cell")
    if sep not in ("cell", "gamma0"):
        raise ConfigError("sweep.separation_reference", "must be 'cell' or 'gamma0'")
    try:
        return SweepPlan(family=family, p_grid=tuple(p_grid), s_grid=tuple(s_grid),
                         gamma_grid=tuple(gamma_grid), multipliers=tuple(multipliers),
                         n_reps=n_reps, master_seed=seed, R_grid=tuple(R_grid), v=v,
                         mode=mode, eta=eta, C=C, n_cal=n_cal, separation_reference=sep,
                         workers=workers, adaptive=adaptive)
    except CorrdetectError as exc:
        raise ConfigError("sweep", str(exc))


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
    [s] = _sparsities(args.s, [p], "s")
    result = rate_for(family, p, s, gamma, R, v)
    print(f"regime {result.regime}")
    print("rate_sq uncharacterized" if result.uncharacterized
          else f"rate_sq {result.value:.4f}")
    return 0


def _cmd_calibrate(args) -> int:
    family, p, gamma, R, v = _flag_model(args, args.R)
    if args.adaptive == (args.s is not None):
        raise ConfigError("test.s", "give one of --s and --adaptive")
    block = {"eta": args.eta, "n_cal": args.n_cal, "s": "adaptive" if args.adaptive else args.s}
    mode, eta, n_cal, _, s = _validate_test({"test": block}, [p])
    seed = _master_seed(args.seed)
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
    s_true = _require(block, "risk", "s", int, optional=True,
                      default=s if isinstance(s, int) else None)
    if s_true is None:
        raise ConfigError("risk.s", "missing sparsity")
    [s_true] = _sparsities(s_true, [p], "risk.s")
    mult = _positive(_require(block, "risk", "multiplier", (int, float)), "risk.multiplier")
    n_reps = _integer(_require(block, "risk", "n_reps", int, optional=True, default=1000),
                      "risk.n_reps", low=MIN_N_REPS)
    rate = rate_for(family, p, s_true, gamma, R, v)
    if rate.uncharacterized:
        raise ConfigError("risk.s", "rate uncharacterized for this configuration")
    test = build_test(family, p, s_true if s is None else s, gamma, R=R, v=v, mode=mode,
                      eta=eta, n_cal=n_cal, C=C, rng=substream(seed, 0))
    alts = default_alternatives(family, p, s_true, gamma, R, v, mult * rate.value)
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
    """The divergence prior of the flags, each checked at its ``prior.*`` path.
    A ``group_supported`` prior takes ``--m`` (its number of whole groups),
    every other prior ``--s``; the other of the two is refused, not dropped."""
    magnitude = _finite(args.magnitude, "prior.magnitude")
    if args.signs != "plus" and args.prior != "uniform_sparse":
        raise ConfigError("prior.signs", f"{args.prior} has no sign rule; its signs are plus")
    if args.signs == "match_pattern" and v is None:
        raise ConfigError("prior.signs", "match_pattern needs the rank-one pattern")
    R, size, stray, top = None, "s", "m", p - 1 if args.prior == "shifted_sparse" else p
    if args.prior in _GROUP_PRIORS:
        if args.R is None:
            raise ConfigError("model.R", "this prior needs --R")
        [R] = _group_counts(args.R, [p], "prior.R")
        top = p // R
        if args.prior == "group_supported":
            size, stray, top = "m", "s", R
    if getattr(args, size) is None:
        raise ConfigError(f"prior.{size}", f"{args.prior} needs --{size}")
    [count] = _sparsities(getattr(args, size), [top], f"prior.{size}")
    if getattr(args, stray) is not None:
        raise ConfigError(f"prior.{stray}", f"{args.prior} takes no --{stray}")
    return _PRIORS[args.prior](p=p, R=R, a=magnitude, signs=args.signs, **{size: count})


def _cmd_divergence(args) -> int:
    in_model = args.prior not in _GROUP_PRIORS or _FAMILIES[args.family] == "grouped"
    family, p, gamma, R, v = _flag_model(args, args.R if in_model else None)
    prior = _prior(args, p, v)
    model = model_from(family, p, gamma, R, v)
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
