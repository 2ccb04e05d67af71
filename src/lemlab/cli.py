"""Command-line interface.

Subcommands: simulate, scaling, raster, constants, area (alias
area-predict), heavytail, kacrice.  Seeds are decimal or 0x-prefixed
hex.  A --config file of key=value lines supplies defaults; explicit
flags win.  Exit codes: 0 success, 2 configuration error, 3 numeric
failure (solver failure rate or a violated numeric contract).
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
    parse_seed,
    read_config_file,
    run_scaling,
    run_simulate,
)

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


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
    kinds = {f.name: type(f.default) for f in fields(ExperimentConfig)}
    if getattr(args, "config", None):
        for key, text in read_config_file(args.config).items():
            setattr(cfg, key, _coerce(key, kinds[key], text))
    for key in kinds:
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    return cfg


def _add_common(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", dest="master_seed", type=parse_seed,
                   help="master seed (decimal or 0x hex)")
    p.add_argument("--threads", type=int, help="worker threads (0 = auto)")
    p.add_argument("--out", dest="out_path", help="output file path")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="lemlab",
        description="simulation laboratory for unit-disc random polynomial "
                    "lemniscates",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="per-trial component counts")
    _add_common(p)
    p.add_argument("--n", type=int, help="polynomial degree")
    p.add_argument("--trials", type=int)
    p.add_argument("--kappa", type=float)
    p.add_argument("--area-samples", dest="area_samples", type=int)
    p.add_argument("--boundary-points", dest="boundary_points", type=int)
    p.add_argument("--no-timing", dest="no_timing", action="store_const", const=True)
    p.add_argument("--dump-crit", dest="dump_crit", action="store_const", const=True)

    p = sub.add_parser("scaling", help="component scaling over an n list")
    _add_common(p)
    p.add_argument("--n-list", dest="n_list", help="comma-separated n values",
                   type=lambda s: tuple(int(x) for x in s.split(",") if x))
    p.add_argument("--trials", type=int)
    p.add_argument("--kappa", type=float)

    p = sub.add_parser("raster", help="rasterize one trial and write a PPM")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--res", dest="resolution", type=int)
    p.add_argument("--bound", type=float)
    p.add_argument("--kappa", type=float)

    p = sub.add_parser("constants", help="print the closed-form constants")
    p.add_argument("--config", help="key=value config file")

    p = sub.add_parser("area", aliases=["area-predict"],
                       help="Gaussian/Edgeworth uncovered-area prediction")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--kappa", type=float)
    p.add_argument("--c-n", dest="c_n", type=float)
    p.add_argument("--q1", action="store_const", const=True,
                   help="include the skewness correction term")

    p = sub.add_parser("heavytail", help="heavy-tailed walk interval probability")
    _add_common(p)
    p.add_argument("--r", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--trials", type=int)

    p = sub.add_parser("kacrice", help="eps-integral and event estimators")
    _add_common(p)
    p.add_argument("--mode", choices=["epsint", "on-event", "t0"])
    p.add_argument("--n", type=int)
    p.add_argument("--kappa", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--grid", type=int)
    return ap


def cmd_constants(out):
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
    from .critical import find_critical_points
    from .components import count_components
    from .polyeval import RootedPolynomial
    from .raster import flood_count, rasterize, write_ppm
    from .rng import derive_substream, sample_disc_array

    stream = derive_substream(cfg.master_seed, 0)
    poly = RootedPolynomial(sample_disc_array(stream, cfg.n))
    grid = rasterize(poly, cfg.resolution, cfg.bound)
    pixel_components = flood_count(grid)
    crit = find_critical_points(poly, stream=stream)
    counted = count_components(poly, crit, kappa=cfg.kappa).components if crit.converged else -1
    path = cfg.out_path or "lemniscate_n%d_seed%d.ppm" % (cfg.n, cfg.master_seed)
    write_ppm(grid, poly, cfg.kappa, path)
    print("# wrote %s" % path, file=out)
    print("pixel_components,critical_value_components", file=out)
    print("%d,%d" % (pixel_components, counted), file=out)


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

    est = walk_interval_prob_mc(
        cfg.r, cfg.n, cfg.a, cfg.b, cfg.trials, derive_substream(cfg.master_seed, 0)
    )
    pred = single_jump_prediction(cfg.r, cfg.n, cfg.a, cfg.b)
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


def main(argv=None, out=sys.stdout):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "constants":
            cmd_constants(out)
            return 0
        cfg = _build_config(args)
        cfg.command = {"area-predict": "area"}.get(args.command, args.command)
        cfg.validate()
        if cfg.command == "simulate":
            run_simulate(cfg, out=out)
        elif cfg.command == "scaling":
            run_scaling(cfg, out=out)
        elif cfg.command == "raster":
            cmd_raster(cfg, out)
        elif cfg.command == "area":
            cmd_area(cfg, out)
        elif cfg.command == "heavytail":
            cmd_heavytail(cfg, out)
        elif cfg.command == "kacrice":
            cmd_kacrice(cfg, out)
        return 0
    except ValueError as exc:  # ConfigError and the library's argument checks
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (NumericFailureError, OverflowError) as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
