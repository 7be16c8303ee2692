"""Command-line interface: poly, tov, sieve, and sweep subcommands.

Every data file is machine-readable (CSV or JSON with a shipped
schema), serialized so 64-bit values round-trip (17 significant
digits), and free of wall-clock values, so re-running a command
reproduces its outputs bit-for-bit.  When ``--out`` is given, a sidecar
``<out>.manifest.json`` records the command, every resolved flag, the
integrator configuration, the physical constants, the tool version,
and a timestamp: a run is reproducible from its manifest alone.
Without ``--out`` the data table goes to stdout and the one-line
summary to stderr.

Exit codes: 0 success, 1 integration/runtime failure (with partial
output and a diagnostic), 2 usage error.  Every usage error exits 2
through argparse, with the command's usage line, before any work
starts: each numeric flag is checked as it is parsed (finite, and
positive or at least 1 where the quantity demands it; each part of
``--orders`` or ``--tols`` as ``--order`` or ``--tol``), and the rules
joining two flags are checked at the top of their command, via its parser.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict
from datetime import datetime, timezone

from . import __version__
from .eos import CONSTANTS
from .integrator import GROWTH_CAP, IntegrationError, IntegratorConfig, Mode
from .poly import PolyCase, PolyResult, run_poly_case
from .tov import (StarSolution, integrate_star, parameter_sweep, star_config,
                  trinary_sieve)

__all__ = ["build_parser", "main"]


# ---------------------------------------------------------------- flag types

def _flag_type(convert, accept, what: str):
    """argparse ``type``: convert the text, then demand ``accept``."""
    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, argparse.ArgumentTypeError):
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


_finite = _flag_type(float, math.isfinite, "a finite number")
_positive = _flag_type(float, lambda value: 0.0 < value < math.inf,
                       "a positive finite number")
_non_negative = _flag_type(float, lambda value: 0.0 <= value < math.inf,
                           "a non-negative finite number")
_at_least_one = _flag_type(int, lambda value: value >= 1, "an integer >= 1")


def _listed(item):
    """Convert a comma list with ``item`` per part; blank parts are skipped."""
    return lambda text: [item(part) for part in text.split(",")
                         if part.strip()]


def _order_range(text: str):
    """``A..B`` as the orders A to B, else a comma list of orders."""
    if ".." not in text:
        return _listed(_at_least_one)(text)
    low, _, high = text.partition("..")
    return list(range(_at_least_one(low), _at_least_one(high) + 1))


# a list type accepts only a non-empty list; each part passes its item type
_orders = _flag_type(_order_range, bool,
                     "a range A..B or a comma list of integers >= 1")
_tols = _flag_type(_listed(_positive), bool,
                   "a comma list of positive finite numbers")


# ---------------------------------------------------------------- output

# Each table kind's column names and the %-format of one of its CSV
# lines: one conversion per column, %d for counts, %.17g for doubles
# (17 significant digits round-trip) and %s for text.
_TABLES = {
    "trajectory": (["i", "x", "dx", "y", "epsilon_max", "y_exact", "error"],
                   "%d" + ",%.17g" * 6 + "\n"),
    "star": (["i", "r_cm", "dr_cm", "m_g", "P_erg_cm3", "epsilon_max",
              "flags"],
             "%d" + ",%.17g" * 5 + ",%s\n"),
    "sweep": (["order", "tol", "steps", "M_msun", "R_km", "rel_dM", "rel_dR",
               "status"],
              "%d,%.17g,%d" + ",%.17g" * 4 + ",%s\n"),
}


def _json_cell(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_table(stream, fmt: str, kind: str, rows, summary):
    """Write ``rows``, tuples of cells, as a CSV or JSON table."""
    columns, line = _TABLES[kind]
    if fmt == "csv":
        stream.write(",".join(columns) + "\n")
        stream.writelines(line % row for row in rows)
    else:
        payload = {
            "kind": kind,
            "columns": columns,
            "rows": [[_json_cell(cell) for cell in row] for row in rows],
            "summary": {key: _json_cell(val) for key, val in summary.items()},
        }
        json.dump(payload, stream, indent=2)
        stream.write("\n")


def _config_dict(config: IntegratorConfig) -> dict:
    return {**asdict(config), "mode": config.mode.value,
            "growth_cap": GROWTH_CAP}


def _manifest(args, config) -> dict:
    flags = {key: val for key, val in sorted(vars(args).items())
             if key not in ("func", "parser", "command")}
    return {
        "command": args.command,
        "flags": flags,
        "config": config,
        "constants": CONSTANTS._asdict(),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _emit(args, kind: str, rows, summary, config, summary_line: str | None,
          failure: IntegrationError | None = None) -> int:
    """Write the data table and manifest per --out; return the exit code."""
    if failure is not None:  # status, summary and error line name its tag
        tag = f"failed ({failure.tag})"
        summary["status"] = f"{tag}: {failure}"
        summary_line = f"{tag} after {len(rows)} accepted steps"
    if args.out is None:
        _write_table(sys.stdout, args.format, kind, rows, summary)
        print(summary_line, file=sys.stderr)
    else:
        with open(args.out, "w", newline="") as fh:
            _write_table(fh, args.format, kind, rows, summary)
        with open(f"{args.out}.manifest.json", "w") as fh:
            json.dump(_manifest(args, config), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(summary_line)
    if failure is not None:
        print(f"error ({failure.tag}): {failure}", file=sys.stderr)
    return 0 if failure is None else 1


# ---------------------------------------------------------------- poly

def _poly_rows(result):
    """The table's rows in one pass; each error is y minus y_exact."""
    trajectory = result.trajectory
    steps = zip(trajectory.x, trajectory.dx, trajectory.y[0],
                trajectory.epsilon_max, result.y_exact)
    return [(index, x, dx, y, epsilon, exact, y - exact)
            for index, (x, dx, y, epsilon, exact) in enumerate(steps)]


def cmd_poly(args) -> int:
    if args.xend <= args.x0:
        args.parser.error("--xend must exceed --x0")
    case = PolyCase(mode=Mode(args.mode), order=args.order, dx=args.dx,
                    tolerance=args.tol, x0=args.x0, y0=args.y0,
                    x_end=args.xend)
    failure = None
    try:
        result = run_poly_case(case)
    except IntegrationError as exc:
        failure = exc
        result = PolyResult(case, exc.trajectory)
    trajectory = result.trajectory
    summary = {
        "status": "ok",
        "steps": len(trajectory),
        "final_x": trajectory.final_x,
        "final_y": trajectory.final_state[0],
        "final_error": result.final_error,
        "n_evals": trajectory.n_evals,
    }
    line = (f"steps={summary['steps']} final_x={summary['final_x']:.17g} "
            f"final_y={summary['final_y']:.17g} "
            f"final_error={summary['final_error']:.3e}")
    return _emit(args, "trajectory", _poly_rows(result), summary,
                 _config_dict(case.config()), line, failure)


# ---------------------------------------------------------------- tov

def _star_rows(trajectory):
    rows = []
    last = len(trajectory) - 1
    for record in trajectory:
        flags = []
        if record.capped:
            flags.append("cap")
        if record.floored:
            flags.append("floor")
        if record.index == last and trajectory.halted:
            flags.append("surface")  # the halt is the surface, P <= 0
        m, P = record.y_am
        rows.append((record.index, record.x_next, record.dx, m, P,
                     record.epsilon_max, "+".join(flags)))
    return rows


def cmd_tov(args) -> int:
    if args.dx0 < args.dxmin:
        args.parser.error("--dx0 must be >= --dxmin")
    config = star_config(args.order, args.tol, args.dx0, args.dxmin)
    failure = None
    try:
        star = integrate_star(args.pc, config)
    except IntegrationError as exc:
        failure = exc
        star = StarSolution(args.pc, exc.trajectory)
    summary = {
        "status": "ok",
        "P_central": star.P_central,
        "M_g": star.M,
        "M_msun": star.M_msun,
        "R_cm": star.R,
        "R_km": star.R_km,
        "steps": star.steps,
        "n_evals": star.trajectory.n_evals,
    }
    line = (f"M = {star.M_msun:.8f} M_sun  R = {star.R_km:.5f} km  "
            f"steps = {star.steps}")
    return _emit(args, "star", _star_rows(star.trajectory), summary,
                 _config_dict(config), line, failure)


# ---------------------------------------------------------------- sieve

def cmd_sieve(args) -> int:
    if not args.lo < args.hi:
        args.parser.error("--lo must be below --hi")
    config = star_config(args.order, args.tol)
    try:
        result = trinary_sieve(args.lo, args.hi, config,
                               bracket_tolerance=args.bracket_tol)
    except (IntegrationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"P_c* = {result.P_c:.17g} erg/cm^3")
    print(f"M*   = {result.M_msun:.8f} M_sun ({result.star.M:.17g} g)")
    print(f"R*   = {result.R_km:.5f} km ({result.star.R:.17g} cm)")
    parabolic = sum(kind == "parabolic" for _, _, kind in result.history)
    print(f"star evaluations = {result.evaluations}  "
          f"parabolic = {parabolic}")
    return 0


# ---------------------------------------------------------------- sweep

def cmd_sweep(args) -> int:
    if (args.ref_mass is None) != (args.ref_radius is None):
        args.parser.error("give both --ref-mass and --ref-radius or neither")
    if args.ref_mass is None:
        try:
            reference_run = integrate_star(args.pc, star_config(10, 1e-8))
        except IntegrationError as failure:
            print(f"error: reference star failed ({failure.tag}): {failure}",
                  file=sys.stderr)
            return 1
        reference = (reference_run.M, reference_run.R)
    else:
        reference = (args.ref_mass, args.ref_radius)
    cells = parameter_sweep(args.orders, args.tols, args.pc, reference)
    rows = [(cell.order, cell.tolerance, cell.steps, cell.M_msun, cell.R_km,
             cell.rel_dM, cell.rel_dR, cell.status) for cell in cells]
    n_ok = sum(cell.ok for cell in cells)
    summary = {
        "status": "ok" if n_ok else "all cells failed",
        "cells": len(cells),
        "cells_ok": n_ok,
        "P_central": args.pc,
        "M_ref_g": reference[0],
        "R_ref_cm": reference[1],
    }
    config = _config_dict(star_config(args.orders[0], args.tols[0]))
    config["order_ab"] = "per-cell"
    config["target_correction"] = "per-cell"
    _emit(args, "sweep", rows, summary, config,
          f"{n_ok}/{len(cells)} cells ok")
    return 0 if n_ok else 1


# ---------------------------------------------------------------- parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``abmgrid`` parser, built on the first call and then shared.

    One parser serves the whole process: every later call, and so every
    ``main`` call, returns the same object, so do not mutate it.  It
    keeps no state between parses: each ``parse_args`` makes a fresh
    namespace, and ``--version``, help and usage errors read
    ``sys.stdout``, ``sys.stderr`` and the terminal width when they run.
    """
    parser = argparse.ArgumentParser(
        prog="abmgrid",
        description="Adams-Bashforth-Moulton integration studies: "
                    "polynomial test problem and neutron-star structure.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", help="quartic-derivative test problem")
    poly.add_argument("--mode", choices=[mode.value for mode in Mode],
                      default=Mode.ABM_ADAPTIVE.value)
    poly.add_argument("--order", type=_at_least_one, required=True,
                      help="explicit-phase order (history nodes)")
    poly.add_argument("--dx", type=_positive, default=0.25,
                      help="step size; when adaptive, the first one, whose "
                           "order-1 error is never revisited")
    poly.add_argument("--tol", type=_positive, default=1e-8,
                      help="target fractional correction E")
    poly.add_argument("--x0", type=_finite, default=0.5)
    poly.add_argument("--y0", type=_finite, default=1.0)
    poly.add_argument("--xend", type=_finite, default=5.0)
    poly.set_defaults(func=cmd_poly, parser=poly)

    tov = sub.add_parser("tov", help="integrate one neutron star")
    tov.add_argument("--pc", type=_positive, required=True,
                     help="central pressure, erg/cm^3")
    tov.add_argument("--order", type=_at_least_one, required=True)
    tov.add_argument("--tol", type=_positive, default=1e-8)
    tov.add_argument("--dx0", type=_positive, default=10.0,
                     help="initial step, cm")
    tov.add_argument("--dxmin", type=_non_negative, default=10.0,
                     help="minimum step, cm")
    tov.set_defaults(func=cmd_tov, parser=tov)

    sieve = sub.add_parser("sieve", help="maximum-mass central pressure")
    sieve.add_argument("--lo", type=_positive, default=1e35)
    sieve.add_argument("--hi", type=_positive, default=1e36)
    sieve.add_argument("--order", type=_at_least_one, default=6)
    sieve.add_argument("--tol", type=_positive, default=1e-8,
                       help="target fractional correction E of the "
                            "answer's star; the probes run at E_probe = "
                            "min(1e-5, 10 bracket-tol^2) when that is at "
                            "least 100 E")
    sieve.add_argument("--bracket-tol", type=_positive, default=1e-3,
                       dest="bracket_tol",
                       help="relative bracket width at convergence; "
                            "one finer than the doubles resolve is met")
    sieve.set_defaults(func=cmd_sieve, parser=sieve)

    sweep = sub.add_parser("sweep", help="order x tolerance efficiency table")
    sweep.add_argument("--orders", type=_orders, required=True,
                       help="range A..B or comma list of explicit-phase "
                            "orders, each >= 1")
    sweep.add_argument("--tols", type=_tols, required=True,
                       help="comma list of target fractional corrections "
                            "E, each positive")
    sweep.add_argument("--pc", type=_positive, required=True)
    sweep.add_argument("--ref-mass", type=_positive, default=None,
                       dest="ref_mass", help="reference mass, g")
    sweep.add_argument("--ref-radius", type=_positive, default=None,
                       dest="ref_radius", help="reference radius, cm")
    sweep.set_defaults(func=cmd_sweep, parser=sweep)
    for table in (poly, tov, sweep):  # the commands that write a table
        table.add_argument("--out", default=None, help="output data file")
        table.add_argument("--format", choices=["csv", "json"], default="csv")
    # argparse reads -1e-3 as a flag; no flag here starts with -<digit>
    for command in sub.choices.values():
        command._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exit_:  # argparse's --version, help or usage error
        return int(exit_.code or 0)


if __name__ == "__main__":
    sys.exit(main())
