"""tools/bench_pairs.py on stand-in trees whose benchmark prints a fixed result line."""
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUN_PY = """import json, pathlib, sys
root = pathlib.Path(__file__).parents[1]
line = json.loads((root / "result.json").read_text())
walls = line.pop("walls", None)
if walls:  # one wall_s per run, in run order
    count = root / "runs"
    done = int(count.read_text()) if count.exists() else 0
    count.write_text(str(done + 1))
    line["metrics"]["wall_s"]["value"] = walls[done]
print(json.dumps(line))
sys.exit(0 if line["correct"] else 1)
"""


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_tree(path, correct, wall_s):
    """A tree whose benchmark prints one result line: ``correct`` and ``wall_s``.

    A list ``wall_s`` gives the value of each run in turn.
    """
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(RUN_PY)
    spec = {
        "run_seconds": 1,
        "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
            {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.01},
        ],
    }
    (path / "BENCHMARK.json").write_text(json.dumps(spec))
    line = {
        "correct": correct,
        "failed": 0 if correct else 1,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "ok_frac": {"value": 1.0 if correct else 0.9, "unit": "ratio"},
        },
    }
    if isinstance(wall_s, list):
        line["walls"] = wall_s
    (path / "result.json").write_text(json.dumps(line))
    return str(path)


@pytest.mark.parametrize("change_correct", [True, False])
def test_incorrect_change_runs_show_no_gain(tmp_path, capsys, change_correct):
    # the change is twice as fast in every pair; that is a gain only when
    # every change run was correct
    parent = make_tree(tmp_path / "parent", True, 1.0)
    change = make_tree(tmp_path / "change", change_correct, 0.5)
    args = [parent, change, "--workload", "w", "--pairs", "2", "--seed", "3"]
    status = load_bench_pairs().main(args)
    out = capsys.readouterr().out
    wall = next(line for line in out.splitlines() if "wall_s (s)" in line)
    if change_correct:
        assert status == 0
        assert "incorrect runs: parent 0, change 0" in out
        assert wall.endswith("change wins 2/2, gain shown")
    else:
        assert status == 1
        assert "incorrect runs: parent 0, change 2" in out
        assert wall.endswith("change wins 2/2, gain not shown")
        assert out.count("gain not shown") == 2 and "gain shown" not in out


@pytest.mark.parametrize("change_wall", [2.0, 1.0, 0.5])
def test_worse_is_shown_when_the_parent_wins(tmp_path, capsys, change_wall):
    # the mirror of a gain: the parent wins every pair (here by the same
    # margin, so the change's quartiles coincide); ties show neither verdict
    parent = make_tree(tmp_path / "parent", True, 1.0)
    change = make_tree(tmp_path / "change", True, change_wall)
    args = [parent, change, "--workload", "w", "--pairs", "3", "--seed", "3"]
    assert load_bench_pairs().main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    wall = next(line for line in lines if "wall_s (s)" in line)
    ok_frac = next(line for line in lines if "ok_frac (ratio)" in line)
    verdicts = {
        2.0: "parent wins 3/3, worse shown, change wins 0/3, gain not shown",
        1.0: "parent wins 0/3, worse not shown, change wins 0/3, gain not shown",
        0.5: "parent wins 0/3, worse not shown, change wins 3/3, gain shown",
    }
    assert wall.endswith(verdicts[change_wall])
    assert ok_frac.endswith(verdicts[1.0])


def test_worse_needs_more_than_the_change_spread(tmp_path, capsys):
    # the parent wins all ten pairs, but the medians differ by 0.105 s, less
    # than the 0.19 s between the change's quartiles
    parent = make_tree(tmp_path / "parent", True, 1.0)
    change = make_tree(tmp_path / "change", True, [1.01] * 5 + [1.2] * 5)
    args = [parent, change, "--workload", "w", "--pairs", "10", "--seed", "3"]
    assert load_bench_pairs().main(args) == 0
    wall = next(line for line in capsys.readouterr().out.splitlines() if "wall_s (s)" in line)
    assert "parent wins 10/10, worse not shown" in wall


@pytest.mark.parametrize("side", ["parent", "change"])
def test_trees_holding_bytecode_are_refused(tmp_path, capsys, side):
    # a matching .pyc is read even under PYTHONDONTWRITEBYTECODE=1, so that
    # side would skip compiling the modules it caches
    trees = {name: make_tree(tmp_path / name, True, 1.0) for name in ("parent", "change")}
    cache = tmp_path / side / "src" / "besovflow" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "dyadic.cpython-311.pyc").write_bytes(b"")
    args = [trees["parent"], trees["change"], "--workload", "w", "--pairs", "2", "--seed", "3"]
    assert load_bench_pairs().main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(cache) in captured.err and "git worktree" in captured.err
