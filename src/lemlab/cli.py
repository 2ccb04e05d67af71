"""Command-line interface.

Subcommands: simulate, scaling, raster, constants, area (alias
area-predict), heavytail, kacrice.  Each flag sets the ExperimentConfig
field of its name (--seed, --out and --res set master_seed, out_path
and resolution) and is parsed exactly as that key is in a --config
file of key=value lines.  Only simulate, scaling and raster, which
write a file, take --out; only simulate and scaling, which run their
trials in parallel, take --threads; area, which draws nothing, takes no
--seed.  The file supplies defaults; explicit flags win.  Seeds are
decimal or 0x-prefixed hex.  Exit codes: 0 success, 2 configuration
error (an unwritable --out included, found before any trial runs), 3
numeric failure (solver failure rate or a violated numeric contract).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields

from .harness import (
    ConfigError,
    ExperimentConfig,
    NumericFailureError,
    claim_output,
    parse_seed,
    read_config_file,
    run_scaling,
    run_simulate,
    run_trial,
)

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}
_KINDS = {f.name: type(f.default) for f in fields(ExperimentConfig)}


def _coerce(name, kind, text):
    if kind is bool:
        low = text.strip().lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError("bad boolean for %s: %r" % (name, text))
    if kind is int:
        return parse_seed(text) if name == "master_seed" else int(text)
    if kind is float:
        return float(text)
    if kind is tuple:
        return tuple(int(part) for part in text.split(",") if part)
    return text


def _build_config(args):
    cfg = ExperimentConfig()
    if getattr(args, "config", None):
        for key, text in read_config_file(args.config).items():
            setattr(cfg, key, _coerce(key, _KINDS[key], text))
    for key in _KINDS:
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    return cfg


def cmd_constants(cfg, out):
    from .analytic import (
        ZETA2,
        area_limit_constant,
        dilog,
        limit_constant,
        var_log_one_minus_x,
    )

    rows = [
        ("zeta(2) = pi^2/6", ZETA2),
        ("dilog(1)", dilog(1.0)),
        ("Var(log|1 - X|) = (pi^2 - 6)/12", var_log_one_minus_x()),
        ("sigma(1) = sqrt((zeta(2)-1)/2)", math.sqrt((ZETA2 - 1.0) / 2.0)),
        ("limit constant sqrt((zeta(2)-1)/pi)", limit_constant()),
        ("area limit sqrt(pi (zeta(2)-1))", area_limit_constant()),
    ]
    for name, value in rows:
        print("%-38s %.10g" % (name, value), file=out)


def cmd_raster(cfg, out):
    from .raster import mask_component_stats, rasterize, write_ppm

    path = cfg.out_path or "lemniscate_n%d_seed%d.ppm" % (cfg.n, cfg.master_seed)
    claim_output(path)
    rec, poly, _ = run_trial(cfg, 0)
    grid = rasterize(poly, cfg.resolution, cfg.bound)
    counted = -1 if rec.failed else rec.components
    write_ppm(grid, poly, cfg.kappa, path)
    print("# wrote %s" % path, file=out)
    print("pixel_components,critical_value_components", file=out)
    print("%d,%d" % (mask_component_stats(grid.inside_mask)[0], counted), file=out)


def cmd_area(cfg, out):
    from .analytic import edgeworth_area

    value = edgeworth_area(cfg.n, cfg.kappa, c_n=cfg.c_n, include_q1=bool(cfg.q1))
    print("n,kappa,c_n,q1,area,sqrt_n_area", file=out)
    print("%d,%r,%r,%d,%r,%r" % (
        cfg.n, cfg.kappa, cfg.c_n, 1 if cfg.q1 else 0,
        value, math.sqrt(cfg.n) * value), file=out)


def cmd_heavytail(cfg, out):
    from .heavytail import single_jump_prediction, walk_interval_prob_mc
    from .rng import derive_substream

    pred = single_jump_prediction(cfg.r, cfg.n, cfg.a, cfg.b)  # rejects a bad --a first
    est = walk_interval_prob_mc(
        cfg.r, cfg.n, cfg.a, cfg.b, cfg.trials, derive_substream(cfg.master_seed, 0)
    )
    ratio = est.estimate / pred if pred else math.nan
    print("estimate,se,prediction,ratio", file=out)
    print("%r,%r,%r,%r" % (est.estimate, est.se, pred, ratio), file=out)


def cmd_kacrice(cfg, out):
    from .kacrice import epsilon_count, estimate_p_on_and_mn, estimate_t0
    from .polyeval import RootedPolynomial
    from .rng import derive_substream, sample_disc_array

    if cfg.mode == "epsint":
        stream = derive_substream(cfg.master_seed, 0)
        poly = RootedPolynomial(sample_disc_array(stream, cfg.n))
        value = epsilon_count(poly, (-1.02, 1.02, -1.02, 1.02), cfg.eps, cfg.grid)
        print("quantity,estimate,se", file=out)
        print("epsint,%r,0.0" % value, file=out)
    elif cfg.mode == "on-event":
        est = estimate_p_on_and_mn(
            cfg.n, cfg.kappa, cfg.trials, derive_substream(cfg.master_seed, 0)
        )
        print("quantity,estimate,se", file=out)
        print("p_on,%r,%r" % (est.p_on, est.p_se), file=out)
        print("m_n,%r,%r" % (est.m_n, est.m_se), file=out)
        print("diff,%r,%r" % (est.p_on - est.m_n, est.diff_se), file=out)
    elif cfg.mode == "t0":
        est = estimate_t0(
            cfg.n, cfg.kappa, cfg.trials, derive_substream(cfg.master_seed, 0)
        )
        print("quantity,estimate,se", file=out)
        print("t0_mean,%r,%r" % (est.mean, est.se), file=out)
        print("t0_median_of_means,%r,%r" % (est.mom, est.mom_se), file=out)
    else:
        raise ConfigError("kacrice --mode must be epsint, on-event, or t0")


_WRITES = ("master_seed", "out_path")  # the commands that write a file
_PARALLEL = _WRITES + ("threads",)  # ... and run their trials in parallel

#: subcommand -> (handler, help, ExperimentConfig fields taken as flags)
_COMMANDS = {
    "simulate": (run_simulate, "per-trial component counts", _PARALLEL + (
        "n", "trials", "kappa", "area_samples", "no_timing", "dump_crit")),
    "scaling": (run_scaling, "component scaling over an n list",
                _PARALLEL + ("n_list", "trials", "kappa")),
    "raster": (cmd_raster, "rasterize one trial and write a PPM",
               _WRITES + ("n", "resolution", "bound", "kappa")),
    "constants": (cmd_constants, "print the closed-form constants", ()),
    "area": (cmd_area, "Gaussian/Edgeworth uncovered-area prediction",
             ("n", "kappa", "c_n", "q1")),
    "heavytail": (cmd_heavytail, "heavy-tailed walk interval probability",
                  ("master_seed", "r", "n", "a", "b", "trials")),
    "kacrice": (cmd_kacrice, "eps-integral and event estimators",
                ("master_seed", "mode", "n", "kappa", "trials", "eps", "grid")),
}
_ALIASES = {"area": ["area-predict"]}
_MODES = ["epsint", "on-event", "t0"]
_FLAG_NAMES = {"master_seed": "--seed", "out_path": "--out", "resolution": "--res"}
_HELP = {
    "master_seed": "master seed (decimal or 0x hex)",
    "threads": "worker threads (0 = auto)",
    "out_path": "output file path",
    "n": "polynomial degree",
    "n_list": "comma-separated n values",
    "q1": "include the skewness correction term",
}


def _flag_type(name, kind):
    """A flag parses its value as a config file does."""
    def parse(text):
        return _coerce(name, kind, text)

    parse.__name__ = kind.__name__  # argparse: "invalid int value: '4z'"
    return parse


def build_parser():
    ap = argparse.ArgumentParser(
        prog="lemlab",
        description="simulation laboratory for unit-disc random polynomial "
                    "lemniscates",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, aliases=_ALIASES.get(command, []), help=help_text)
        p.set_defaults(command=command)
        if names:
            p.add_argument("--config", help="key=value config file")
        for name in names:
            flag = _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
            kind = _KINDS[name]
            if kind is bool:
                p.add_argument(flag, dest=name, action="store_const", const=True,
                               help=_HELP.get(name))
            else:
                p.add_argument(flag, dest=name, type=_flag_type(name, kind),
                               choices=_MODES if name == "mode" else None,
                               help=_HELP.get(name))
    return ap


def main(argv=None, out=sys.stdout):
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args).validate()
        _COMMANDS[cfg.command][0](cfg, out)
        return 0
    except (ValueError, OSError) as exc:  # also the library's checks and --out
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (NumericFailureError, OverflowError) as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
