"""The benchmark's traced pass still sees every wrapper it expects.

``perfbench/tracer.py`` wraps the package's public functions and a few
methods by name, and a traced bench run fails when a wrapper its workload
expects is never called.  These tests run the tracer on shrunken copies of
the Burgers, transport, verify and spectral workload configs, so a refactor
that renames or bypasses a traced function fails here rather than in the
bench.
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from besovflow.littlewood_paley import random_grid_function, save_grid_function
from conftest import write_grid_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

from tracer import aggregate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_calls(tmp_path, workload, shrink):
    """Calls per wrapper over traced runs of the workload's ops, each shrunk by ``shrink``."""
    work = tmp_path / "work"
    work.mkdir()
    spec = WORKLOADS[workload](3, str(work))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    spans = []
    for op in spec.ops:
        with open(op.config_path, encoding="utf-8") as fh:
            config = json.load(fh)
        shrink(config)
        tiny = tmp_path / f"{op.name}.json"
        tiny.write_text(json.dumps(config), encoding="utf-8")
        spans.append(str(tmp_path / f"{op.name}.npz"))
        result = subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "tracer.py"), spans[-1], "--",
             "--config", str(tiny), "--out", str(tmp_path / "out" / op.name), "--quiet"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
    return spec, aggregate(spans).calls


def shrink_flow(config):
    config["grid_size"] = 32
    config["flow"]["time_steps"] = 8


@pytest.mark.parametrize("workload", ["burgers-256", "transport-2048"])
def test_traced_flow_hits_every_expected_wrapper(tmp_path, workload):
    spec, calls = traced_calls(tmp_path, workload, shrink_flow)
    assert [name for name in spec.expected_hits if calls[name] == 0] == []


def test_traced_verify_hits_every_expected_wrapper(tmp_path):
    # block norms reach pseudonorm.eval_pseudo_norm only through random_sequence
    spec, calls = traced_calls(tmp_path, "verify-sweeps", lambda c: c.update(trials=30))
    assert [name for name in spec.expected_hits if calls[name] == 0] == []


def test_traced_spectral_hits_every_expected_wrapper(tmp_path):
    # all seven ops, binary and CSV, read one small grid function instead of N=16384
    u = random_grid_function(np.random.default_rng(3), 64)
    small = {".gfn": tmp_path / "small.gfn", ".csv": tmp_path / "small.csv"}
    save_grid_function(small[".gfn"], u)
    write_grid_csv(small[".csv"], u)

    def shrink(config):
        config["grid_size"] = 64
        config["io"]["input"] = str(small[os.path.splitext(config["io"]["input"])[1]])

    spec, calls = traced_calls(tmp_path, "spectral-16k", shrink)
    assert len(spec.ops) == 7
    assert [name for name in spec.expected_hits if calls[name] == 0] == []
