"""Alternating benchmark pairs between two source trees, with a verdict per metric.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs K --seed N

Each tree is the root of a besovflow checkout (it holds ``perfbench/run.py``
and ``BENCHMARK.json``).  Each pair runs ``perfbench/run.py --trace 0`` once
in each tree, for the run length that PARENT's ``BENCHMARK.json`` sets; the
parent runs first in odd pairs and second in even ones.  Every pair's
end-to-end metrics are printed as it finishes.  Then, for each metric of
``BENCHMARK.json``, it prints each side's median and quartiles and the
number of pairs each side won (ties count for neither side).  A gain is
shown when the change wins at least nine tenths of the pairs and the
medians differ, in the better direction, by more than the distance between
the parent's quartiles.  Symmetrically, the change is shown worse when the
parent wins at least nine tenths of the pairs and the medians differ, in
the worse direction, by more than the distance between the change's
quartiles.  A run is incorrect when it prints
``"correct": false`` or exits nonzero.  Each side's count of incorrect
runs is printed; if any change run was incorrect, no gain is shown on any
metric and the exit status is 1.  A tree whose ``src/besovflow/__pycache__``
holds ``.pyc`` files is refused with exit status 2: Python reads a matching
cache even under ``PYTHONDONTWRITEBYTECODE=1``, so that side would skip
compiling some modules.  Uses only the standard library.  The benchmark
writes its inputs and outputs under each tree's ``perfbench/_work``.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in ``tree``: correct, failed, metrics."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = result.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"benchmark in {tree} printed no result:\n{result.stderr}")
    line = json.loads(lines[-1])
    if result.returncode != 0 or not line["correct"]:
        print(f"  {tree}: correct={line['correct']}, failed={line['failed']}, "
              f"exit {result.returncode}\n{result.stderr}", file=sys.stderr)
        line["correct"] = False
    return line


def quartiles(values: list) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent source tree")
    parser.add_argument("change", help="root of the changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for tree in (args.parent, args.change):
        cache = os.path.join(tree, "src", "besovflow", "__pycache__")
        if glob.glob(os.path.join(cache, "*.pyc")):
            print(f"{cache} holds .pyc files, so that tree would not compile the modules "
                  "they cache; bench trees without bytecode, such as fresh `git worktree`s",
                  file=sys.stderr)
            return 2
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    incorrect = dict.fromkeys(sides, 0)
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        lines = {side: run_bench(sides[side], args.workload, args.seed, spec["run_seconds"])
                 for side in order}
        for side, line in lines.items():
            incorrect[side] += not line["correct"]
        cells = []
        for m in metrics:
            name = m["name"]
            old, new = (lines[side]["metrics"][name]["value"] for side in sides)
            values["parent"][name].append(old)
            values["change"][name].append(new)
            cells.append(f"{name} {old:.4g} -> {new:.4g}")
        print(f"pair {i + 1} ({order[0]} first): " + ", ".join(cells), flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"{spec['run_seconds']} s runs; median [q1, q3]")
    print(f"  incorrect runs: parent {incorrect['parent']}, change {incorrect['change']}")
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        old, new = values["parent"][name], values["change"][name]
        wins = sum(sign * (a - b) > 0 for a, b in zip(old, new))
        losses = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
        shown = (not incorrect["change"] and wins >= 0.9 * args.pairs
                 and sign * (om - nm) > o3 - o1)
        worse = losses >= 0.9 * args.pairs and sign * (nm - om) > n3 - n1
        print(f"  {name} ({m['unit']}): parent {om:.4g} [{o1:.4g}, {o3:.4g}], "
              f"change {nm:.4g} [{n1:.4g}, {n3:.4g}], "
              f"parent wins {losses}/{args.pairs}, worse {'shown' if worse else 'not shown'}, "
              f"change wins {wins}/{args.pairs}, gain {'shown' if shown else 'not shown'}")
    return 1 if incorrect["change"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
