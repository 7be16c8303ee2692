"""SHA-256 digests of every accepted step of a fixed set of runs.

Usage:  python tools/record_digest.py <src-dir>

Imports ``abmgrid`` from ``<src-dir>`` and prints one line per group
of runs: its name, the number of runs hashed, the total accepted steps
and derivative evaluations of every integration the group ran (the
sieve's probes and final star, and the sweep's reference star,
included), and the digest.  Two source trees that print the same
digest for a group produce the same bits for every step of that group:
abscissa, step size, state, fractional correction, order and
controller flags, plus the evaluation count, the halt flag and the
failure (type, tag, message) if any.  When a digest moves, the totals
show at a glance whether any step count moved with it.

Only the public API that every version of the package offers is used:
iterating a trajectory, ``len``, ``n_evals`` and ``halted``, and the
engine that ``abmgrid.tov`` and ``abmgrid.poly`` look up at call time,
which the totals wrap: each of ``integrate`` and ``integrate_floats``
that either module binds, whichever name a tree calls; the sieves group also reads
``SieveResult.history``, which every tree with Brent's sieve has, and
the curve groups call only ``poly_exact``, ``pressure_from_x``,
``energy_density_from_x``, ``invert_pressure_to_x`` and
``gas_at_pressure``, one float at a time, and a tree that lacks one of
them prints its group as ``absent``.  So the script runs unchanged
against an older checkout, and its output can be diffed line by line
between two trees.  The curve groups integrate nothing: their count is
the number of values hashed and their totals read 0.  The gas groups
show which gas function a change moved when the star groups move: the
star's derivative reads rho from ``gas_at_pressure``, not from
``energy_density_from_x``, so the density group does not hash the rho a
star uses and the gas group does.  The exact group keeps the quartic's
reference curve out of the poly group, so a change to that curve cannot
look like a change to the integration.

Groups:
  stars     orders {3, 6, 10} x E {1e-2, 1e-5, 1e-8} x P_c {1e34,
            3.631382e35, 1e37}
  failures  P_c 1e308 and 3.8e45 (order 4, E 1e-6)
  trapped   P_c 1e45 and 1e46 (order 4, E 1e-6), stars that end inside
            their own horizon
  poly      3 modes x orders {1, 4, 8} x dx {0.25, 0.01}, the runs only
  exact     poly_exact(x) at x = k / 1000, k = 0..5000 (0 to 5)
  sweep     orders 3..10 x E {1e-2, 1e-5, 1e-8} at 3.631382e35 against
            the order-10, E = 1e-8 star
  sieve     the default sieve, [1e35, 1e36] at order 6, E = 1e-8
  sieves    10 sieves at order 6, E = 1e-8, each end of [1e35, 1e36]
            moved by up to +-5 % as the benchmark's sieve workload moves
            it; hashes each sieve's ``history`` (every probe), P_c, M and
            R, and prints the stars per sieve on stderr: its
            ``evaluations``, the probes plus the final star where the
            sieve integrates one on its own (E = 1e-8 does)
  pressure  P(x) at x = 10^(k/100), k = -800..300 (1e-8 to 1e3)
  density   rho(x) on the same grid of x
  inversion x(P) at P = 10^(k/10), k = -3230..3080 (1e-323 to 1e308)
  gas       (x, rho) = gas_at_pressure(P) on the same grid of P
"""
import contextlib
import hashlib
import sys

import numpy as np

P_MAX = 3.631382e35
# the sieves group's bracket ends, moved by these multiples of 5 %
SIEVE_SHIFTS = ((-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0),
                (0.0, 0.0), (0.5, -0.5), (-0.5, 0.5), (0.3, 0.8),
                (-0.8, -0.3), (0.9, -0.1))


class Digest:
    """A SHA-256 fed with typed, delimited encodings of plain values."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.items = 0

    def feed(self, *values):
        for value in values:
            if isinstance(value, str):
                self._hash.update(b"s" + value.encode() + b"\0")
            elif isinstance(value, int):  # bool included
                self._hash.update(b"i%d\0" % value)
            else:
                doubles = np.asarray(value, dtype="<f8")
                self._hash.update(b"d%d\0" % doubles.size + doubles.tobytes())

    def trajectory(self, trajectory):
        self.feed(len(trajectory), trajectory.n_evals,
                  bool(trajectory.halted))
        for record in trajectory:
            self.feed(int(record.index), float(record.x_next),
                      float(record.dx), record.y_am,
                      float(record.epsilon_max), int(record.effective_order),
                      bool(record.capped), bool(record.floored))
        self.items += 1

    def outcome(self, run):
        """Feed what ``run()`` returns, or the IntegrationError it raises."""
        from abmgrid import IntegrationError
        try:
            result = run()
        except IntegrationError as failure:
            self.feed("failure", type(failure).__name__, failure.tag,
                      str(failure))
            if failure.trajectory is not None:
                self.trajectory(failure.trajectory)
            else:
                self.items += 1
            return None
        return result

    def hexdigest(self):
        return self._hash.hexdigest()


@contextlib.contextmanager
def counting_integrations():
    """Yield [steps, evaluations], the totals of every integration run.

    A run that fails counts the partial trajectory its error carries.
    """
    import abmgrid
    from abmgrid import IntegrationError
    totals = [0, 0]

    def count(trajectory):
        if trajectory is not None:
            totals[0] += len(trajectory)
            totals[1] += trajectory.n_evals

    def counted(integrate):
        def run(*args, **kwargs):
            try:
                trajectory = integrate(*args, **kwargs)
            except IntegrationError as failure:
                count(failure.trajectory)
                raise
            count(trajectory)
            return trajectory
        return run

    engines = [(module, name, getattr(module, name))
               for module in (abmgrid.tov, abmgrid.poly)
               for name in ("integrate", "integrate_floats")
               if hasattr(module, name)]
    for module, name, integrate in engines:
        setattr(module, name, counted(integrate))
    try:
        yield totals
    finally:
        for module, name, integrate in engines:
            setattr(module, name, integrate)


def star_group(digest, pressures, orders, tolerances):
    from abmgrid import integrate_star, star_config
    for P_c in pressures:
        for order in orders:
            for tolerance in tolerances:
                star = digest.outcome(lambda: integrate_star(
                    P_c, star_config(order, tolerance)))
                if star is not None:
                    digest.feed("ok", star.M, star.R, star.steps)
                    digest.trajectory(star.trajectory)


def poly_group(digest):
    from abmgrid import Mode, PolyCase, run_poly_case
    for mode in Mode:
        for order in (1, 4, 8):
            for dx in (0.25, 0.01):
                result = digest.outcome(lambda: run_poly_case(
                    PolyCase(mode=mode, order=order, dx=dx)))
                if result is not None:
                    digest.trajectory(result.trajectory)


def sweep_group(digest):
    from abmgrid import integrate_star, parameter_sweep, star_config
    reference = integrate_star(P_MAX, star_config(10, 1e-8))
    cells = parameter_sweep(range(3, 11), [1e-2, 1e-5, 1e-8], P_MAX,
                            (reference.M, reference.R))
    for cell in cells:
        digest.feed(cell.order, cell.tolerance, cell.steps, cell.M_msun,
                    cell.R_km, cell.rel_dM, cell.rel_dR, cell.status)
        digest.items += 1


def sieve_group(digest):
    from abmgrid import star_config, trinary_sieve
    result = trinary_sieve(1e35, 1e36, star_config(6, 1e-8))
    # evaluations - 1 stands where the digest once fed the sieve's
    # iteration count, so a tree that still has one hashes alike
    digest.feed(result.P_c, result.evaluations - 1, result.evaluations,
                result.star.M, result.star.R)
    digest.trajectory(result.star.trajectory)


def sieves_group(digest):
    from abmgrid import star_config, trinary_sieve
    stars = []
    for low, high in SIEVE_SHIFTS:
        result = trinary_sieve(1e35 * (1.0 + 0.05 * low),
                               1e36 * (1.0 + 0.05 * high),
                               star_config(6, 1e-8))
        for P_c, M, kind in result.history:
            digest.feed(P_c, M, kind)
        digest.feed(result.P_c, result.star.M, result.star.R)
        digest.items += 1
        stars.append(result.evaluations)
    print(f"# sieves: stars per sieve {' '.join(map(str, stars))}",
          file=sys.stderr)


# the gas groups' grids: 100 values of x per decade over the star's
# range and beyond, 10 values of P per decade over the double range
GAS_X = [10.0 ** (k / 100) for k in range(-800, 301)]
GAS_P = [10.0 ** (k / 10) for k in range(-3230, 3081)]
# the exact group's grid: x = 0, 0.001, ..., 5, the quartic's interval
POLY_X = [k / 1000 for k in range(5001)]


class Absent(Exception):
    """The tree has no function of the name a curve group hashes."""


def curve_group(digest, name, arguments):
    import abmgrid
    function = getattr(abmgrid, name, None)
    if function is None:
        raise Absent(name)
    digest.feed([function(argument) for argument in arguments])
    digest.items += len(arguments)


GROUPS = (
    ("stars", lambda d: star_group(d, (1e34, P_MAX, 1e37), (3, 6, 10),
                                   (1e-2, 1e-5, 1e-8))),
    ("failures", lambda d: star_group(d, (1e308, 3.8e45), (4,), (1e-6,))),
    ("trapped", lambda d: star_group(d, (1e45, 1e46), (4,), (1e-6,))),
    ("poly", poly_group),
    ("exact", lambda d: curve_group(d, "poly_exact", POLY_X)),
    ("sweep", sweep_group),
    ("sieve", sieve_group),
    ("sieves", sieves_group),
    ("pressure", lambda d: curve_group(d, "pressure_from_x", GAS_X)),
    ("density", lambda d: curve_group(d, "energy_density_from_x", GAS_X)),
    ("inversion", lambda d: curve_group(d, "invert_pressure_to_x", GAS_P)),
    ("gas", lambda d: curve_group(d, "gas_at_pressure", GAS_P)),
)


def main(argv):
    if len(argv) != 2:
        print("usage: python tools/record_digest.py <src-dir>",
              file=sys.stderr)
        return 2
    sys.path.insert(0, argv[1])
    import abmgrid
    print(f"# abmgrid from {abmgrid.__file__}", file=sys.stderr)
    for name, run in GROUPS:
        digest = Digest()
        try:
            with counting_integrations() as totals:
                run(digest)
        except Absent:
            print(f"{name:<9} absent")
            continue
        steps, evals = totals
        print(f"{name:<9} {digest.items:>3} steps {steps:>6} "
              f"evals {evals:>6} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
