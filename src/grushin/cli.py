"""Command-line front end.

Subcommands: gtransform, igtransform, heat-kernel, heat-apply, profiles,
verify.  Numeric inputs and outputs are the `#`-header CSV formats of the
io module.  A --config file with the same key=value grammar supplies values
for flags not given on the command line (explicit flags win).  Exit codes:
0 success / all checks pass, 1 any check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
# not called here: perfbench/layers.py patches this name to trace cli.interp
from scipy.interpolate import RegularGridInterpolator  # noqa: F401

from . import io as gio
from .functions import grid_plane
from .gtransform import TypePair, g_forward, g_inverse
from .heat import HeatParams, diagonal_profile, heat_apply, heat_kernel
from .quadrature import QuadratureError
from .verify import SUITES, run_suite

__all__ = ["main"]


class UsageError(ValueError):
    """Bad flags, files, or argument grammar."""


_FLAG_TYPES = {"t": float, "alpha": float, "beta": float, "nmax": int,
               "tol_scale": float, "input": str, "output": str, "points": str,
               "point": str, "route": str, "kind": str, "grid": str,
               "suite": str}
_FLAG_DEFAULTS = {"nmax": 96, "route": "kernel", "suite": "all",
                  "tol_scale": 1.0}
# command -> (its flags, help text); every flag without a default is required
_COMMAND_FLAGS = {
    "gtransform": (("alpha", "beta", "input", "nmax", "output"),
                   "forward transform of a grid file"),
    "igtransform": (("input", "points", "output"), "inverse transform at points"),
    "heat-kernel": (("t", "alpha", "beta", "point"), "print one kernel value"),
    "heat-apply": (("t", "alpha", "beta", "input", "points", "route", "output"),
                   "apply the heat semigroup"),
    "profiles": (("kind", "alpha", "beta", "grid", "output"), "diagonal kernel profiles"),
    "verify": (("suite", "tol_scale"), "run the verification suites"),
}
_REQUIRED = {name: tuple(f for f in flags if f not in _FLAG_DEFAULTS)
             for name, (flags, _) in _COMMAND_FLAGS.items()}


def _read_config(path):
    values = {}
    try:
        lines = gio.read_lines(path)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    for i, line in enumerate(lines):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key_val = gio.split_entry(line)
        if key_val is None:
            raise UsageError(f"{path}:{i + 1}: expected key=value, got {line!r}")
        values[key_val[0].replace("-", "_")] = key_val[1]
    return values


def _merge_config(args):
    if getattr(args, "config", None):
        for key, raw in _read_config(args.config).items():
            if key not in _FLAG_TYPES or not hasattr(args, key):
                continue
            if getattr(args, key) is None:
                try:
                    setattr(args, key, _FLAG_TYPES[key](raw))
                except ValueError:
                    raise UsageError(
                        f"config value for {key!r} is not a {_FLAG_TYPES[key].__name__}: {raw!r}")
    for key, default in _FLAG_DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, default)
    missing = [k for k in _REQUIRED[args.command] if getattr(args, k) is None]
    if missing:
        raise UsageError(f"{args.command}: missing required flag(s): "
                         + ", ".join("--" + m.replace("_", "-") for m in missing))
    return args


def _plane_from_grid(path):
    grid, alpha, beta = gio.read_grid(path)
    return grid_plane(grid), alpha, beta


def _cmd_gtransform(args):
    f, _, _ = _plane_from_grid(args.input)
    sd = g_forward(TypePair(args.alpha, args.beta), f, n_max=args.nmax)
    gio.write_spectral(args.output, sd)
    return 0


def _cmd_igtransform(args):
    sd = gio.read_spectral(args.input)
    pts = gio.read_points(args.points)
    gio.write_points(args.output, pts, g_inverse(sd, pts))
    return 0


def _cmd_heat_kernel(args):
    coords = [float(tok) for tok in args.point.split(",")]
    if len(coords) != 4:
        raise UsageError("--point must be r,s,u,v")
    hp = HeatParams(args.t, TypePair(args.alpha, args.beta))
    print(f"{heat_kernel(hp, *coords):.16e}")
    return 0


def _cmd_heat_apply(args):
    f, _, _ = _plane_from_grid(args.input)
    pts = gio.read_points(args.points)
    hp = HeatParams(args.t, TypePair(args.alpha, args.beta))
    gio.write_points(args.output, pts, heat_apply(hp, f, pts, route=args.route))
    return 0


def _parse_grid_spec(spec):
    parts = spec.split(":")
    if len(parts) != 4 or parts[0] not in ("log", "lin"):
        raise UsageError("--grid must be log:lo:hi:count or lin:lo:hi:count")
    try:
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        raise UsageError(f"--grid has non-numeric pieces: {spec!r}")
    if count < 1:
        raise UsageError(f"--grid count must be >= 1, got {count}")
    if parts[0] == "log":
        if not (lo > 0.0 and hi > 0.0):
            raise UsageError(f"--grid log bounds must be > 0, got lo={lo}, hi={hi}")
        return np.logspace(np.log10(lo), np.log10(hi), count)
    return np.linspace(lo, hi, count)


def _cmd_profiles(args):
    xs = _parse_grid_spec(args.grid)
    vals = diagonal_profile(args.kind, TypePair(args.alpha, args.beta), xs)
    gio.write_profile(args.output, args.kind, args.alpha, args.beta, xs, vals)
    return 0


def _cmd_verify(args):
    if args.suite not in ("all", *SUITES):
        raise UsageError(f"unknown suite {args.suite!r}")
    results = run_suite(args.suite, tol_scale=args.tol_scale)
    width = max(len(r.name) for r in results) + 2
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"[{status}] ({r.criterion:>10s}) {r.name:<{width}s} "
              f"{r.detail}  [{r.seconds:.1f}s]")
    total = len(results)
    print(f"{total - failures}/{total} checks passed")
    return 1 if failures else 0


_COMMANDS = {
    "gtransform": _cmd_gtransform,
    "igtransform": _cmd_igtransform,
    "heat-kernel": _cmd_heat_kernel,
    "heat-apply": _cmd_heat_apply,
    "profiles": _cmd_profiles,
    "verify": _cmd_verify,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="grushin",
        description="Spectral transforms, heat kernels, and verification "
                    "suites for quarter-plane Grushin-type operators.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (flags, help_text) in _COMMAND_FLAGS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            kwargs = {"type": _FLAG_TYPES[flag], "default": None}
            if flag == "route":
                kwargs["choices"] = ("kernel", "spectral")
            if flag == "kind":
                kwargs["choices"] = ("F1", "F2")
            p.add_argument("--" + flag.replace("_", "-"),
                           dest=flag, **kwargs)
        p.add_argument("--config", default=None,
                       help="key=value file supplying flag values")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args = _merge_config(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError, QuadratureError) as exc:
        # numeric/data failures carry their origin for diagnosis
        origin = type(exc).__module__
        prefix = f"{origin}.{type(exc).__name__}" if origin != "builtins" \
            else type(exc).__name__
        print(f"error [{args.command}]: {prefix}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
