"""The repository's tools run against this package."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import abmgrid

TOOLS = Path(__file__).resolve().parents[1] / "tools"
GROUPS = ["stars", "failures", "trapped", "poly", "exact", "sweep", "sieve",
          "sieves", "pressure", "density", "inversion", "gas"]
# the groups that integrate; each must count steps and evaluations
INTEGRATING = ["stars", "trapped", "poly", "sweep", "sieve", "sieves"]


def test_record_digest_counts_every_integrating_group():
    package_root = str(Path(abmgrid.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, str(TOOLS / "record_digest.py"), package_root],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    # "<name> <runs> steps <steps> evals <evals> <sha256>" per group
    lines = {fields[0]: fields for fields in
             (line.split() for line in result.stdout.splitlines())}
    assert list(lines) == GROUPS
    for name in INTEGRATING:
        _, _, _, steps, _, evals, _ = lines[name]
        assert int(steps) > 0 and int(evals) > 0, lines[name]


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_tool("bench_pairs")
verdict = bench_pairs.verdict
# ten pairs of a lower-is-better time; A's quartiles are 1.0 and 1.1
PARENT = [1.0, 1.1, 1.0, 1.1, 1.0, 1.1, 1.0, 1.1, 1.05, 1.05]


@pytest.mark.parametrize("change,expected", [
    # every pair won and the medians 0.3 apart: a gain
    ([value - 0.3 for value in PARENT], "gain"),
    # 9 of 10 won is enough
    ([value - 0.3 for value in PARENT[:9]] + [2.0], "gain"),
    # 8 of 10 is not, however far the medians part
    ([value - 0.3 for value in PARENT[:8]] + [2.0, 2.0], "within bound"),
    # every pair won by a hair, inside A's quartiles: no gain
    ([value - 0.01 for value in PARENT], "within bound"),
    # 15 % slower, inside a 20 % bound
    ([value * 1.15 for value in PARENT], "within bound"),
    # 25 % slower, beyond it
    ([value * 1.25 for value in PARENT], "worse"),
])
def test_bench_verdict_on_a_lower_is_better_metric(change, expected):
    assert verdict(PARENT, change, "lower", 0.2) == expected


def test_bench_verdict_on_a_higher_is_better_metric():
    assert verdict(PARENT, [value + 0.3 for value in PARENT],
                   "higher", 0.01) == "gain"
    assert verdict(PARENT, [value - 0.3 for value in PARENT],
                   "higher", 0.01) == "worse"
    assert verdict([1.0] * 10, [1.0] * 10, "higher", 0.01) == "within bound"
    assert verdict([1.0] * 10, [0.995] * 10, "higher", 0.01) == "within bound"


@pytest.mark.parametrize("text,expected", [
    ("poly", ["poly"]),
    ("poly,sieve,sweep", ["poly", "sieve", "sweep"]),
    (" sieve , poly ", ["sieve", "poly"]),
])
def test_bench_workload_list(text, expected):
    assert bench_pairs.workload_list(text) == expected


@pytest.mark.parametrize("text", ["", "poly,", ",poly", "poly,,sieve",
                                  "poly,poly", "sieve, sieve"])
def test_bench_workload_list_refuses_blank_and_repeated_names(text):
    with pytest.raises(bench_pairs.argparse.ArgumentTypeError):
        bench_pairs.workload_list(text)


def test_bench_refuses_a_tree_with_compiled_files(tmp_path, capsys):
    # a stale __pycache__ would let one side skip compiling the package
    trees = {}
    for side in "ab":
        tree = trees[side] = tmp_path / side
        (tree / "perfbench").mkdir(parents=True)
        (tree / "src" / "pkg").mkdir(parents=True)
        # a run would leave this file behind
        (tree / "perfbench" / "run.py").write_text(
            "open('ran', 'w').close()\n")
    (trees["b"] / "src" / "pkg" / "__pycache__").mkdir()
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.main([str(trees["a"]), str(trees["b"]), "--workload",
                          "poly", "--pairs", "1", "--seconds", "1",
                          "--seed", "0"])
    assert excinfo.value.code == 2
    error = capsys.readouterr().err
    assert f"B: {trees['b'].resolve()} holds" in error
    assert "__pycache__" in error
    assert not any((tree / "ran").exists() for tree in trees.values())
