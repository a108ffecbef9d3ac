"""Benchmark of the besovflow CLI, run the way users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/besovflow`` and
``BENCHMARK.json`` there).  The seed generates the workload's configs and
grid files under ``perfbench/_work``.  Each op is one fresh
``python -m besovflow.cli`` process, forked by ``spawner.py`` and started
only after the previous one has exited (a closed loop with one client); a
pass runs the workload's op list once, and passes repeat until S seconds
have gone by.  Every op's output is checked; a non-zero exit or a failed
check counts the op as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_s`` and ``cpu_s`` (median over passes of the summed op wall time,
spawn to exit, and op user+system CPU), ``setup_s`` (median time for a
fresh process to import ``besovflow.cli`` and load the workload's config,
sampled before every pass and topped up after the last),
``peak_rss_mb`` (largest op max-RSS) and ``ok_frac`` (ops that passed over
ops attempted).  With ``--trace 1`` untraced and traced passes alternate;
traced ops run under ``tracer.py`` and the line reports the per-layer
metrics of ``layers.py`` (medians over traced passes) and
``trace.overhead_s``, the median of traced minus untraced pass wall time.
The line before it records the environment and the workload parameters.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy

from checks import read_output, self_test
from layers import layer_metrics
from tracer import aggregate
from workloads import WORKLOADS

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, "_work")
TRACER = os.path.join(HERE, "tracer.py")
SPAWNER = os.path.join(HERE, "spawner.py")
SETUP_SAMPLES = 9  # at least; one more per pass beyond that
SETUP_CODE = "import sys; from besovflow.cli import load_config; load_config(sys.argv[1])"


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    failed: int = 0
    outputs: list = field(default_factory=list)
    span_files: list = field(default_factory=list)


def op_environment() -> tuple[dict, int]:
    """Environment for op processes: this checkout's package, BLAS threads <= nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        threads = int(current) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(min(threads, nproc))
    return env, int(env["OPENBLAS_NUM_THREADS"])


class Spawner:
    """Client of ``spawner.py``, the small process that forks every op."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, SPAWNER], cwd=WORK, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list, stderr_path: str) -> dict:
        """Run one process to completion: code, wall_s, cpu_s, maxrss_kb."""
        self.proc.stdin.write(json.dumps({"cmd": cmd, "stderr": stderr_path}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the op spawner exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def run_pass(workload, spawner: Spawner, traced: bool, index: int) -> PassResult:
    result = PassResult()
    for op in workload.ops:
        shutil.rmtree(op.out_dir, ignore_errors=True)
        if traced:
            spans = os.path.join(WORK, "spans", f"pass{index:03d}-{op.name}.npz")
            cmd = [sys.executable, TRACER, spans, "--", *op.cli_args()]
            result.span_files.append(spans)
        else:
            cmd = [sys.executable, "-m", "besovflow.cli", *op.cli_args()]
        stderr_path = os.path.join(WORK, f"{op.name}.stderr")
        ran = spawner.run(cmd, stderr_path)
        result.wall_s += ran["wall_s"]
        result.cpu_s += ran["cpu_s"]
        result.peak_rss_mb = max(result.peak_rss_mb, ran["maxrss_kb"] / 1024.0)
        output = read_output(ran["code"], op.report_path, op.trajectory_dir)
        problems = op.check(output)
        if problems:
            result.failed += 1
            with open(stderr_path, encoding="utf-8", errors="replace") as fh:
                detail = fh.read().strip()[-500:]
            print(f"op {op.name} failed: {'; '.join(problems)} {detail}", file=sys.stderr)
        result.outputs.append(output)
        shutil.rmtree(op.out_dir, ignore_errors=True)
    return result


def setup_sample(workload, spawner: Spawner) -> float:
    """Wall time of one fresh process that imports the CLI and loads a config."""
    ran = spawner.run([sys.executable, "-c", SETUP_CODE, workload.ops[0].config_path],
                      os.path.join(WORK, "setup.stderr"))
    if ran["code"] != 0:
        raise RuntimeError(f"set-up probe exited with {ran['code']}")
    return ran["wall_s"]


def self_test_cases(workload, first: PassResult) -> dict:
    """Each check's self-test on the first pass's outputs: "op: case" -> caught."""
    caught = {}
    for op, output in zip(workload.ops, first.outputs):
        if op.check(output):
            continue  # already counted as a failed op; nothing good to corrupt
        for case, ok in self_test(op.check, output).items():
            caught[f"{op.name}: {case}"] = ok
    return caught


def environment(seed: int, blas_threads: int) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "besovflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
        "seed": seed,
    }


def git_commit() -> str:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def end_to_end(passes: list, setup: list, attempted: int, failed: int) -> dict:
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(p.peak_rss_mb for p in passes), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(plain: list, traced: list) -> dict:
    """Per-layer metrics, each the lower median over traced passes.

    The overhead pairs each traced pass with the untraced pass just before
    it, so a slow drift in machine speed cancels out of the difference.
    """
    per_pass = [layer_metrics(aggregate(p.span_files)) for p in traced]
    metrics = {
        name: (statistics.median_low(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    overhead = statistics.median_low(t.wall_s - p.wall_s for p, t in zip(plain, traced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def missing_hits(workload, traced: list) -> list:
    calls = aggregate(traced[0].span_files).calls
    return [name for name in workload.expected_hits if calls[name] == 0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "besovflow", "cli.py")):
        print(f"no besovflow sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import besovflow

    if not os.path.abspath(besovflow.__file__).startswith(SRC + os.sep):
        print(f"besovflow imported from {besovflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "spans"))
    workload = WORKLOADS[args.workload](args.seed, WORK)
    env, blas_threads = op_environment()
    spawner = Spawner(env)
    try:
        # one set-up sample before each pass spreads them over the run, so a
        # short slow or fast spell of the machine moves their median less
        setup, plain, traced = [], [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < args.seconds:
            setup.append(setup_sample(workload, spawner))
            plain.append(run_pass(workload, spawner, False, len(plain)))
            if args.trace:
                traced.append(run_pass(workload, spawner, True, len(traced)))
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(workload, spawner))
    finally:
        spawner.close()
    passes = plain + traced
    attempted = len(workload.ops) * len(passes)
    failed = sum(p.failed for p in passes)

    self_test_result = self_test_cases(workload, plain[0])
    problems = [f"check accepted a corrupted output ({case})"
                for case, ok in self_test_result.items() if not ok]
    if args.trace:
        problems += [f"traced wrapper never called: {n}" for n in missing_hits(workload, traced)]
        metrics = per_layer(plain, traced)
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(plain, setup, attempted, failed)
        wanted = spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in wanted}
    reported = {name: unit for name, (_, unit) in metrics.items()}
    if reported != declared:
        problems.append("reported metrics differ from BENCHMARK.json: "
                        f"{sorted(set(reported.items()) ^ set(declared.items()))}")
    for problem in problems:
        print(problem, file=sys.stderr)

    print(json.dumps({
        "environment": environment(args.seed, blas_threads),
        "workload": {"name": workload.name, **workload.params},
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "ops_per_pass": len(workload.ops),
        "setup_samples_s": setup,
        "pass_wall_s": [p.wall_s for p in plain],
        "checker_self_test": {"cases": len(self_test_result),
                              "caught": sum(self_test_result.values())},
    }))
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
