"""Command-line front end.

Subcommands: gtransform, igtransform, heat-kernel, heat-apply, profiles,
verify.  Numeric inputs and outputs are the `#`-header CSV formats of the
io module.  A --config file's `key=value` lines are parsed as `--key=value`
flags placed before the explicit ones, which win; a key of another command
is skipped and a key of none is a usage error.  Exit codes:
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
_FLAG_CHOICES = {"route": ("kernel", "spectral"), "kind": ("F1", "F2"),
                 "suite": ("all", *SUITES)}


def _config_flags(path, flags):
    """The `key=value` lines of a --config file as `--key=value` arguments, for
    the keys among `flags`; a key that is no command's flag is an error."""
    try:
        lines = gio.read_lines(path)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    args = []
    check = _add_flags(argparse.ArgumentParser(exit_on_error=False), flags)
    for i, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key_val = gio.split_entry(line)
        if key_val is None:
            raise UsageError(f"{path}:{i}: expected key=value, got {line!r}")
        key = key_val[0].replace("-", "_")
        if key not in _FLAG_TYPES:
            raise UsageError(f"{path}:{i}: unknown key {key_val[0]!r}")
        if key in flags:
            args.append(f"--{key.replace('_', '-')}={key_val[1]}")
            try:  # typed and checked on its own, so that its error names the line
                check.parse_args(args[-1:])
            except argparse.ArgumentError as exc:
                raise UsageError(f"{path}:{i}: {exc}")
    return args


def _add_flags(parser, flags):
    for flag in flags:
        parser.add_argument("--" + flag.replace("_", "-"), dest=flag, type=_FLAG_TYPES[flag],
                            default=_FLAG_DEFAULTS.get(flag), choices=_FLAG_CHOICES.get(flag))
    return parser


def _plane_from_grid(path, tp):
    """The grid plane of a grid file, whose alpha and beta header must equal tp's."""
    grid, *header = gio.read_grid(path)
    for flag, value, written in zip(("alpha", "beta"), (tp.alpha, tp.beta), header):
        if value != written:
            raise UsageError(f"--{flag} {value!r} disagrees with {flag}={written!r} "
                             f"in the header of {path}")
    return grid_plane(grid)


def _cmd_gtransform(args):
    tp = TypePair(args.alpha, args.beta)
    gio.write_spectral(args.output, g_forward(tp, _plane_from_grid(args.input, tp),
                                              n_max=args.nmax))
    return 0


def _cmd_igtransform(args):
    sd = gio.read_spectral(args.input)
    pts = gio.read_points(args.points)
    gio.write_points(args.output, pts, g_inverse(sd, pts))
    return 0


def _cmd_heat_kernel(args):
    try:
        r, s, u, v = map(float, args.point.split(","))
    except ValueError as exc:
        raise UsageError(f"--point must be r,s,u,v: {exc}")
    hp = HeatParams(args.t, TypePair(args.alpha, args.beta))
    print(f"{heat_kernel(hp, r, s, u, v):.16e}")
    return 0


def _cmd_heat_apply(args):
    hp = HeatParams(args.t, TypePair(args.alpha, args.beta))
    f = _plane_from_grid(args.input, hp.tp)
    pts = gio.read_points(args.points)
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
    if parts[0] == "log" and not (lo > 0.0 and hi > 0.0):
        raise UsageError(f"--grid log bounds must be > 0, got lo={lo}, hi={hi}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise UsageError(f"--grid bounds must be finite, got lo={lo}, hi={hi}")
    if parts[0] == "log":
        return np.logspace(np.log10(lo), np.log10(hi), count)
    return np.linspace(lo, hi, count)


def _cmd_profiles(args):
    xs = _parse_grid_spec(args.grid)
    vals = diagonal_profile(args.kind, TypePair(args.alpha, args.beta), xs)
    gio.write_profile(args.output, args.kind, args.alpha, args.beta, xs, vals)
    return 0


def _cmd_verify(args):
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


# command -> (handler, its flags, help text); a flag without a default is required
_COMMANDS = {
    "gtransform": (_cmd_gtransform, ("alpha", "beta", "input", "nmax", "output"),
                   "forward transform of a grid file"),
    "igtransform": (_cmd_igtransform, ("input", "points", "output"),
                    "inverse transform at points"),
    "heat-kernel": (_cmd_heat_kernel, ("t", "alpha", "beta", "point"),
                    "print one kernel value"),
    "heat-apply": (_cmd_heat_apply, ("t", "alpha", "beta", "input", "points", "route",
                                     "output"), "apply the heat semigroup"),
    "profiles": (_cmd_profiles, ("kind", "alpha", "beta", "grid", "output"),
                 "diagonal kernel profiles"),
    "verify": (_cmd_verify, ("suite", "tol_scale"), "run the verification suites"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="grushin",
        description="Spectral transforms, heat kernels, and verification "
                    "suites for quarter-plane Grushin-type operators.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, help_text) in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_text), flags).add_argument(
            "--config", default=None, help="key=value file supplying flag values")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler, flags, _ = _COMMANDS[args.command]
        if args.config:
            # config lines go right after the command, so explicit flags, which
            # come later, win: argparse keeps a flag's last occurrence
            args = parser.parse_args(argv[:1] + _config_flags(args.config, flags) + argv[1:])
        missing = [f for f in flags if getattr(args, f) is None]
        if missing:
            raise UsageError(f"{args.command}: missing required flag(s): "
                             + ", ".join("--" + m.replace("_", "-") for m in missing))
        return handler(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
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
