"""Alternating benchmark pairs of two source trees.

Usage:  python tools/bench_pairs.py TREE_A TREE_B --workload W \
            --pairs N --seconds S --seed K

Runs each tree's own ``perfbench/run.py --trace 0`` on one workload, one
child process at a time.  Pair i runs both trees with seed K + i; the
first tree of a pair alternates (A B, B A, A B, ...), so a drift of the
host's speed over the runs falls on both sides alike.  From the
JSON object on the last line of each run it prints, per end-to-end
metric, the median and quartiles [q1, q3] of each side and how many
pairs B won, that is, where B's value was strictly better than A's.
Which direction is better comes from ``BENCHMARK.json`` in TREE_A
(lower when the file does not say).

Exits 1 if a run fails or reports ``correct: false``.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """The JSON result line of one ``--trace 0`` run in ``tree``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: run.py exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def directions(tree: Path) -> dict:
    """{metric: "lower" or "higher"} of the end-to-end metrics."""
    try:
        declared = json.loads((tree / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {entry["name"]: entry.get("better", "lower")
            for entry in declared.get("end_to_end", [])}


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", required=True)
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

    results = {"A": [], "B": []}
    ok = True
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = "AB" if pair % 2 == 0 else "BA"
        for side in order:
            try:
                result = run_once(trees[side], args.workload, args.seconds,
                                  seed)
            except RuntimeError as failure:
                print(f"error: {failure}", file=sys.stderr)
                return 1
            ok = ok and result["correct"]
            results[side].append(result)
        values = {side: results[side][-1]["metrics"]["wall_ref_s"]["value"]
                  for side in "AB"}
        print(f"pair {pair + 1}/{args.pairs} seed {seed} ({order}): "
              f"wall_ref_s A {values['A']:.4f}  B {values['B']:.4f}",
              flush=True)

    better = directions(trees["A"])
    print(f"\n{args.workload}: {args.pairs} pairs, {args.seconds:g} s each, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}")
    print(f"  A = {trees['A']}\n  B = {trees['B']}")
    for name in results["A"][0]["metrics"]:
        sides = {side: [result["metrics"][name]["value"]
                        for result in results[side]] for side in "AB"}
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        wins = sum(sign * b < sign * a for a, b in zip(sides["A"], sides["B"]))
        cells = []
        for side in "AB":
            q1, median, q3 = quartiles(sides[side])
            cells.append(f"{side} {median:.4g} [{q1:.4g}, {q3:.4g}]")
        unit = results["A"][0]["metrics"][name]["unit"]
        print(f"  {name:<12} {unit:<5} {'   '.join(cells)}   "
              f"B won {wins}/{args.pairs}")
    if not ok:
        print("error: a run reported correct: false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
