"""Compare the benchmark workloads' output files and the demos' output of two source trees.

    python tools/compare_outputs.py OLD_TREE NEW_TREE [--seeds 3 11] [--work DIR]

Each tree is the root of a besovflow checkout (it holds ``src/besovflow``).
For each seed the inputs of the four workloads of ``perfbench/workloads.py``
are generated once, from this checkout, and every op is run by the CLI of
both trees, one fresh process per op.  The output directories are then
compared file by file.  A file is either byte-identical or reported with,
for CSV, JSON and binary grid files, the largest |new - old| / max(1, |old|)
over its numbers.  Each workload's summary line also gives the largest
such difference over all its differing files, so a refactor can quote one
number.  An op that exits nonzero in either tree counts as a
difference.  Each tree also runs its own ``demos/0[1-6]_*.py`` with its own
``src``, and their standard outputs are compared byte for byte; a demo that
exits nonzero, prints other bytes or exists in one tree only is a
difference too.  The exit code is 0 when every op and demo succeeds in both
trees and every file and demo output is byte-identical, and 1 otherwise.
Uses only the standard library and numpy.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import glob
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
sys.path[:0] = [PERFBENCH, os.path.join(os.path.dirname(HERE), "src")]

from checks import read_grid_file  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_op(tree: str, op, out_dir: str) -> int:
    """Run one op with the CLI of ``tree``; its exit code."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    cmd = [sys.executable, "-m", "besovflow.cli",
           *dataclasses.replace(op, out_dir=out_dir).cli_args()]
    return subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, check=False).returncode


def run_demos(tree: str) -> dict:
    """{demo file name: (exit code, stdout)} of the demos of ``tree``, run with its ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    results = {}
    for path in sorted(glob.glob(os.path.join(tree, "demos", "0[1-6]_*.py"))):
        done = subprocess.run([sys.executable, path], env=env, capture_output=True, check=False)
        results[os.path.basename(path)] = (done.returncode, done.stdout)
    return results


def compare_demos(old_tree: str, new_tree: str) -> tuple[int, list]:
    """(number of demos with identical output in both trees, lines for the others)."""
    old, new = run_demos(old_tree), run_demos(new_tree)
    lines = [f"  only in old: demos/{name}" for name in sorted(old.keys() - new.keys())]
    lines += [f"  only in new: demos/{name}" for name in sorted(new.keys() - old.keys())]
    identical = 0
    for name in sorted(old.keys() & new.keys()):
        (old_code, old_out), (new_code, new_out) = old[name], new[name]
        if old_code or new_code:
            lines.append(f"  exit codes: demos/{name} old {old_code}, new {new_code}")
        elif old_out != new_out:
            lines.append(f"  differs: stdout of demos/{name}")
        else:
            identical += 1
    return identical, lines


def _json_numbers(value) -> list:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return []
    if isinstance(value, (int, float)):
        return [float(value)]
    items = value.values() if isinstance(value, dict) else value
    return [x for item in items for x in _json_numbers(item)]


def _csv_numbers(path: str) -> list:
    numbers = []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    numbers.append(float(cell))
                except ValueError:
                    pass
    return numbers


def numbers(path: str) -> np.ndarray | None:
    """The numbers of a CSV, JSON or grid file in reading order; None for other files."""
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            return np.array(_json_numbers(json.load(fh)))
    if path.endswith(".csv"):
        return np.array(_csv_numbers(path))
    if path.endswith(".gfn"):
        return read_grid_file(path)
    return None


def largest_difference(old: str, new: str) -> float | str:
    """max |new - old| / max(1, |old|) over the numbers of two files, or why there is none."""
    a, b = numbers(old), numbers(new)
    if a is None:
        return "not numeric"
    if a.shape != b.shape:
        return f"{a.size} numbers against {b.size}"
    if not a.size:
        return 0.0
    with np.errstate(invalid="ignore"):
        diff = np.abs(b - a) / np.maximum(1.0, np.abs(a))
    same_special = (a == b) | (np.isnan(a) & np.isnan(b))
    return float(np.where(same_special, 0.0, diff).max())


def files_under(root: str) -> list:
    return sorted(
        os.path.relpath(os.path.join(d, name), root)
        for d, _, names in os.walk(root)
        for name in names
    )


def compare(old_root: str, new_root: str) -> tuple[int, list, float | None]:
    """(number of byte-identical files, lines for the files that are not, largest difference).

    The largest difference is the maximum over the differing files that
    have one, or None when no such file differs.
    """
    old_files, new_files = files_under(old_root), files_under(new_root)
    lines = [f"  only in old: {p}" for p in sorted(set(old_files) - set(new_files))]
    lines += [f"  only in new: {p}" for p in sorted(set(new_files) - set(old_files))]
    identical, largest = 0, None
    for rel in sorted(set(old_files) & set(new_files)):
        old, new = os.path.join(old_root, rel), os.path.join(new_root, rel)
        with open(old, "rb") as fa, open(new, "rb") as fb:
            if fa.read() == fb.read():
                identical += 1
                continue
        diff = largest_difference(old, new)
        if isinstance(diff, float):
            largest = diff if largest is None else max(largest, diff)
            diff = f"{diff:.3g}"
        lines.append(f"  differs: {rel} (largest |d|/max(1,|x|) = {diff})")
    return identical, lines, largest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="root of the first source tree")
    parser.add_argument("new", help="root of the second source tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 11])
    parser.add_argument("--work", help="directory for inputs and outputs (default: a temporary one)")
    args = parser.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="compare_outputs_")
    all_identical = True
    for seed in args.seeds:
        for name in WORKLOADS:
            base = os.path.join(work, f"{name}-seed{seed}")
            inputs = os.path.join(base, "inputs")
            os.makedirs(inputs, exist_ok=True)
            workload = WORKLOADS[name](seed, inputs)
            codes = {}
            for label, tree in (("old", args.old), ("new", args.new)):
                codes[label] = [
                    run_op(tree, op, os.path.join(base, label, op.name)) for op in workload.ops
                ]
            identical, lines, largest = compare(
                os.path.join(base, "old"), os.path.join(base, "new")
            )
            if any(codes["old"] + codes["new"]):
                lines.insert(0, f"  exit codes: old {codes['old']}, new {codes['new']}")
            all_identical &= not lines
            verdict = "all identical" if not lines else "DIFFERENT"
            if largest is not None:
                verdict += f", largest |d|/max(1,|x|) = {largest:.3g}"
            print(f"{name} seed {seed}: {identical} byte-identical files, {verdict}")
            for line in lines:
                print(line)
    identical, lines = compare_demos(args.old, args.new)
    all_identical &= not lines
    verdict = "all identical" if not lines else "DIFFERENT"
    print(f"demos: {identical} byte-identical outputs, {verdict}")
    for line in lines:
        print(line)
    print(f"outputs kept in {work}")
    return 0 if all_identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
