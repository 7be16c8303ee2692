"""Seeded inputs, workload bodies and independent reference checks.

Each workload reaches the package through module attributes looked up at
call time (``tov.trinary_sieve``, ``cli.main``), so the traced run can
replace those names in place without touching the package.

Reference values never come from this package: the maximum-mass star is
the one of acceptance criteria 5 and 7, and the quartic problem is checked
against its closed-form quintic evaluated in exact rational arithmetic.
The sweep compares its cells with its own order-10 reference star, as
``abmgrid sweep`` does, and that star against the independent values.
"""
from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from abmgrid import cli, tov

# Maximum-mass star of the degenerate neutron gas (criteria 5 and 7).
REF_PC = 3.631382e35          # erg/cm^3
REF_M_MSUN = 0.71017188
REF_R_KM = 9.16233

SIEVE_JITTER = 0.05           # bracket ends move by up to +-5 %
SWEEP_JITTER = 0.01           # central pressure moves by up to +-1 %
POLY_JITTER = 0.02            # every poly dx moves by up to +-2 %

# The sweep's reference star sits within +-1 % of REF_PC, where M is flat
# but R moves by up to 0.2 %; hence 5e-3 on R instead of criterion 7's 2e-3.
SWEEP_STAR_TOL = {"M_msun": 1e-3, "R_km": 5e-3}
# Criterion 6 asks 1 % on M per cell (worst over the jitter range: 0.46 %).
# R of the E = 1e-2 cells is far looser: over P_c within +-1 % of REF_PC
# its worst error is 3.4 % (order 3, P_c 0.6 % low), against 0.04 % for
# E = 1e-5, so R gets 5 %.
SWEEP_CELL_TOL = {"M_msun": 1e-2, "R_km": 5e-2}

# (mode, order, base dx, target correction, bound on |final error|).
# The fixed-grid bounds are K * dx**2: the order-1 bootstrap step sets an
# h**2 global error floor whatever the configured order (the standing
# failure of criterion 2).  Each K is 4x the constant measured at dx = 4e-3.
POLY_CASES = (
    ("abm-fixed", 1, 4e-3, 1e-8, lambda dx: 25.0 * dx * dx),
    ("abm-fixed", 4, 4e-3, 1e-8, lambda dx: 0.06 * dx * dx),
    ("abm-fixed", 8, 4e-3, 1e-8, lambda dx: 0.06 * dx * dx),
    ("ab-fixed", 4, 4e-3, 1e-8, lambda dx: 45.0 * dx * dx),
    ("abm-adaptive", 4, 1e-4, 1e-8, lambda dx: 1e-10),
)
POLY_X0, POLY_X_END = 0.5, 5.0


@dataclass
class Tally:
    """Operations attempted and failed in one repeat, plus output counts."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def off_reference(name: str, value: float, reference) -> list:
    """A one-line problem if ``value`` misses ``reference = (want, rel)``."""
    want, rel = reference
    err = abs(value - want) / abs(want)
    if err <= rel:       # False for NaN, so a NaN value is a problem
        return []
    return [f"{name} = {value:.10g}, reference {want:.10g}: "
            f"off by {err:.2e} > {rel:.2e}"]


def _uniform(rng) -> float:
    return float(rng.uniform(-1.0, 1.0))


# ---------------------------------------------------------------- sieve

def sieve_inputs(rng) -> dict:
    return {"P_lo": 1e35 * (1.0 + SIEVE_JITTER * _uniform(rng)),
            "P_hi": 1e36 * (1.0 + SIEVE_JITTER * _uniform(rng)),
            "order": 6, "tolerance": 1e-8, "bracket_tolerance": 1e-3}


def sieve_execute(inputs: dict, out_dir: Path):
    config = tov.star_config(inputs["order"], inputs["tolerance"])
    try:
        return tov.trinary_sieve(inputs["P_lo"], inputs["P_hi"], config,
                                 bracket_tolerance=inputs["bracket_tolerance"],
                                 jobs=1)
    except Exception as exc:  # a failed operation, not a failed benchmark
        return exc


def sieve_references(inputs: dict, output) -> dict:
    return {"P_c": (REF_PC, 1e-3), "M_msun": (REF_M_MSUN, 1e-3),
            "R_km": (REF_R_KM, 2e-3)}


def sieve_check(inputs: dict, output, refs: dict) -> Tally:
    """Every star of the hunt is an operation; only the answer is checked."""
    tally = Tally()
    if isinstance(output, Exception):
        tally.record([f"trinary_sieve raised {output!r}"])
        return tally
    for _ in range(output.evaluations - 1):
        tally.record([])
    tally.record(off_reference("P_c", output.P_c, refs["P_c"])
                 + off_reference("M_msun", output.M_msun, refs["M_msun"])
                 + off_reference("R_km", output.R_km, refs["R_km"]))
    return tally


# ---------------------------------------------------------------- sweep

SWEEP_ORDERS = tuple(range(3, 11))
SWEEP_TOLS = (1e-2, 1e-5, 1e-8)


def sweep_inputs(rng) -> dict:
    return {"P_c": REF_PC * (1.0 + SWEEP_JITTER * _uniform(rng)),
            "orders": SWEEP_ORDERS, "tolerances": SWEEP_TOLS}


def sweep_execute(inputs: dict, out_dir: Path):
    """The reference star, then the grid against it, as ``abmgrid sweep``."""
    try:
        star = tov.integrate_star(inputs["P_c"], tov.star_config(10, 1e-8))
        cells = tov.parameter_sweep(inputs["orders"], inputs["tolerances"],
                                    inputs["P_c"], (star.M, star.R), jobs=1)
    except Exception as exc:  # a failed operation, not a failed benchmark
        return exc
    return star, cells


def sweep_references(inputs: dict, output) -> dict:
    refs = {"star_M_msun": (REF_M_MSUN, SWEEP_STAR_TOL["M_msun"]),
            "star_R_km": (REF_R_KM, SWEEP_STAR_TOL["R_km"])}
    if not isinstance(output, Exception):
        star = output[0]
        refs["cell_M_msun"] = (star.M_msun, SWEEP_CELL_TOL["M_msun"])
        refs["cell_R_km"] = (star.R_km, SWEEP_CELL_TOL["R_km"])
    return refs


def sweep_check(inputs: dict, output, refs: dict) -> Tally:
    """The reference star and each cell are operations."""
    tally = Tally()
    if isinstance(output, Exception):
        for _ in range(1 + len(SWEEP_ORDERS) * len(SWEEP_TOLS)):
            tally.record([f"sweep raised {output!r}"])
        return tally
    star, cells = output
    tally.record(off_reference("reference M_msun", star.M_msun,
                               refs["star_M_msun"])
                 + off_reference("reference R_km", star.R_km,
                                 refs["star_R_km"]))
    for cell in cells:
        where = f"cell order={cell.order} tol={cell.tolerance:g}"
        if cell.status != "ok":
            tally.record([f"{where}: status {cell.status}"])
            continue
        tally.record(off_reference(f"{where} M_msun", cell.M_msun,
                                   refs["cell_M_msun"])
                     + off_reference(f"{where} R_km", cell.R_km,
                                     refs["cell_R_km"]))
    return tally


# ---------------------------------------------------------------- poly

def quintic(x: float) -> float:
    """y(x) = 1 + integral from 1/2 to x of (t-1)(t-2)(t-3)(t-4) dt, exactly."""
    def antiderivative(t):
        return (t ** 5 / 5 - 5 * t ** 4 / 2 + 35 * t ** 3 / 3
                - 25 * t ** 2 + 24 * t)
    return float(1 + antiderivative(Fraction(x))
                 - antiderivative(Fraction(POLY_X0)))


def poly_inputs(rng) -> dict:
    cases = []
    for mode, order, dx, tol, bound in POLY_CASES:
        dx *= 1.0 + POLY_JITTER * _uniform(rng)
        cases.append({"mode": mode, "order": order, "dx": dx, "tol": tol,
                      "bound": bound(dx)})
    return {"cases": cases}


def _poly_argv(case: dict, out: Path) -> list:
    return ["poly", "--mode", case["mode"], "--order", str(case["order"]),
            "--dx", repr(case["dx"]), "--tol", repr(case["tol"]),
            "--x0", repr(POLY_X0), "--xend", repr(POLY_X_END),
            "--out", str(out)]


def poly_execute(inputs: dict, out_dir: Path):
    """Each case through ``cli.main``; returns (exit code or error, path)."""
    results = []
    for index, case in enumerate(inputs["cases"]):
        out = out_dir / f"poly-{index}.csv"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                status = cli.main(_poly_argv(case, out))
            except Exception as exc:  # a failed case, not a failed benchmark
                status = exc
        results.append((status, out))
    return results


def _last_row(path: Path):
    """(rows, bytes, last row as a dict) of one CSV data table."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return len(rows), path.stat().st_size, (rows[-1] if rows else None)


def poly_references(inputs: dict, output) -> dict:
    refs = {}
    for index, (case, (status, path)) in enumerate(zip(inputs["cases"],
                                                       output)):
        refs[f"case{index}.x_end"] = (POLY_X_END, 1e-12)
        if status == 0:
            last = _last_row(path)[2]
            if last is not None:
                exact = quintic(float(last["x"]))
                refs[f"case{index}.y_end"] = (exact, case["bound"] / abs(exact))
    return refs


def poly_check(inputs: dict, output, refs: dict) -> Tally:
    """Each case is an operation: exit 0, end on x_end, |error| in bound."""
    tally = Tally(counts={"cli.rows": 0, "cli.bytes": 0})
    for index, (case, (status, path)) in enumerate(zip(inputs["cases"],
                                                       output)):
        where = f"poly case {index} ({case['mode']} order {case['order']})"
        if status != 0:
            tally.record([f"{where}: exit status {status!r}"])
            continue
        rows, size, last = _last_row(path)
        tally.counts["cli.rows"] += rows
        tally.counts["cli.bytes"] += size
        if last is None or f"case{index}.y_end" not in refs:
            tally.record([f"{where}: empty table"])
            continue
        tally.record(
            off_reference(f"{where} x", float(last["x"]),
                          refs[f"case{index}.x_end"])
            + off_reference(f"{where} y", float(last["y"]),
                            refs[f"case{index}.y_end"]))
    return tally


# ---------------------------------------------------------------- table

@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable      # rng -> inputs
    execute: Callable          # (inputs, out_dir) -> output; the timed part
    references: Callable       # (inputs, output) -> {name: (value, rel_tol)}
    check: Callable            # (inputs, output, refs) -> Tally
    first_call: str            # statement run once by the set-up probe

    def self_test(self, inputs: dict, output, refs: dict) -> list:
        """Names of references whose check did NOT fire when perturbed.

        Each reference value is moved by three times its tolerance in
        turn; the check must then report at least one failed operation.
        """
        silent = []
        for name, (value, rel) in refs.items():
            perturbed = dict(refs)
            perturbed[name] = (value * (1.0 + 3.0 * rel), rel)
            if self.check(inputs, output, perturbed).failed == 0:
                silent.append(name)
        return silent


# The first call is the workload's smallest operation: one loose star at
# the workload's first order, or one coarse poly case through the CLI.
WORKLOADS = {
    "sieve": Workload(
        "sieve", sieve_inputs, sieve_execute, sieve_references, sieve_check,
        "abmgrid.integrate_star(3.631382e35, abmgrid.star_config(6, 1e-2))"),
    "sweep": Workload(
        "sweep", sweep_inputs, sweep_execute, sweep_references, sweep_check,
        "abmgrid.integrate_star(3.631382e35, abmgrid.star_config(3, 1e-2))"),
    "poly": Workload(
        "poly", poly_inputs, poly_execute, poly_references, poly_check,
        "abmgrid.cli.main(['poly', '--mode', 'abm-fixed', '--order', '4', "
        "'--dx', '0.25', '--out', OUT + '/setup-poly.csv'])"),
}
