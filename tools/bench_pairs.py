"""Alternating benchmark pairs of two source trees.

Usage:  python tools/bench_pairs.py TREE_A TREE_B --workload W[,W...] \
            --pairs N --seconds S --seed K

Runs each tree's own ``perfbench/run.py --trace 0`` on each listed
workload, one child process at a time.  Pair i runs both trees on every
workload with seed K + i; the first tree of a pair alternates (A B,
B A, A B, ...), so a drift of the host's speed over the runs falls on
both sides alike.  From the JSON object on the last line of each run it
prints, per workload and end-to-end metric, the median and quartiles
[q1, q3] of each side, how many pairs B won, that is, where B's value
was strictly better than A's, and a verdict on B:

  gain          B won at least 9 pairs in 10, and B's median is better
                than A's by more than the distance between A's quartiles;
  worse         B's median is worse than A's by more than the metric's
                bound, a fraction of A's median;
  within bound  otherwise.

Which direction is better, and each bound, come from ``BENCHMARK.json``
in TREE_A (lower, and a bound of 0, when the file does not say).

Every child runs with PYTHONDONTWRITEBYTECODE=1 and a tree that holds a
``__pycache__`` under ``src/`` is refused before the first run, so each
run compiles the package from source: ``setup_s`` includes compiling it,
alike on both sides and in every pair.

Exits 1 if a run fails or reports ``correct: false``.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """The JSON result line of one ``--trace 0`` run in ``tree``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: run.py exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def declared(tree: Path) -> dict:
    """{metric: (better, bound)} of the end-to-end metrics, better being
    "lower" or "higher" and bound the relative worsening allowed."""
    try:
        benchmark = json.loads((tree / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {entry["name"]: (entry.get("better", "lower"),
                            entry.get("bound", 0.0))
            for entry in benchmark.get("end_to_end", [])}


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def wins(a, b, better: str = "lower") -> int:
    """Pairs in which B's value is strictly better than A's."""
    sign = -1.0 if better == "higher" else 1.0
    return sum(sign * y < sign * x for x, y in zip(a, b))


def verdict(a, b, better: str = "lower", bound: float = 0.0) -> str:
    """"gain", "worse" or "within bound" for B's runs against A's.

    ``a`` and ``b`` hold one value per pair, in pair order.  A gain needs
    B to win at least 9/10 of the pairs and to beat A's median by more
    than A's interquartile distance; B is worse when its median is worse
    than A's by more than ``bound`` times A's median.
    """
    q1, median_a, q3 = quartiles(a)
    median_b = statistics.median(b)
    # how far B's median is better than A's, in the metric's units
    gain = median_a - median_b if better != "higher" else median_b - median_a
    if 10 * wins(a, b, better) >= 9 * len(a) and gain > q3 - q1:
        return "gain"
    if -gain > bound * abs(median_a):
        return "worse"
    return "within bound"


def workload_list(text: str) -> list[str]:
    """``--workload``: a comma list of distinct names, at least one."""
    names = [name.strip() for name in text.split(",")]
    if not all(names) or len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma list of distinct workload names")
    return names


def report(workload: str, results: dict, rules: dict, args, trees: dict):
    """Print one workload's verdict block: a line per end-to-end metric."""
    print(f"\n{workload}: {args.pairs} pairs, {args.seconds:g} s each, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}")
    print(f"  A = {trees['A']}\n  B = {trees['B']}")
    for name in results["A"][0]["metrics"]:
        sides = {side: [result["metrics"][name]["value"]
                        for result in results[side]] for side in "AB"}
        better, bound = rules.get(name, ("lower", 0.0))
        cells = []
        for side in "AB":
            q1, median, q3 = quartiles(sides[side])
            cells.append(f"{side} {median:.4g} [{q1:.4g}, {q3:.4g}]")
        unit = results["A"][0]["metrics"][name]["unit"]
        print(f"  {name:<12} {unit:<5} {'   '.join(cells)}   "
              f"B won {wins(sides['A'], sides['B'], better)}/{args.pairs}   "
              f"{verdict(sides['A'], sides['B'], better, bound)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", type=workload_list, required=True,
                        help="a workload, or a comma list of them")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be >= 1 and --seconds positive")
    trees = {"A": args.tree_a.resolve(), "B": args.tree_b.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{side}: no perfbench/run.py under {tree}")
        # a run would load these instead of compiling the package
        cached = next((tree / "src").rglob("__pycache__"), None)
        if cached is not None:
            parser.error(f"{side}: {tree} holds {cached}; "
                         f"bench a tree without compiled files")

    results = {workload: {"A": [], "B": []} for workload in args.workload}
    ok = True
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = "AB" if pair % 2 == 0 else "BA"
        for workload, runs in results.items():
            for side in order:
                try:
                    result = run_once(trees[side], workload, args.seconds,
                                      seed)
                except RuntimeError as failure:
                    print(f"error: {failure}", file=sys.stderr)
                    return 1
                ok = ok and result["correct"]
                runs[side].append(result)
            values = {side: runs[side][-1]["metrics"]["wall_ref_s"]["value"]
                      for side in "AB"}
            named = f" {workload}" if len(results) > 1 else ""
            print(f"pair {pair + 1}/{args.pairs}{named} seed {seed} "
                  f"({order}): wall_ref_s A {values['A']:.4f}  "
                  f"B {values['B']:.4f}", flush=True)

    rules = declared(trees["A"])
    for workload, runs in results.items():
        report(workload, runs, rules, args, trees)
    if not ok:
        print("error: a run reported correct: false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
