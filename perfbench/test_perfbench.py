"""Self-tests of the benchmark harness; fast enough for the default suite."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from cqa_fermi import cli
from perfbench import checks, run, trace, worker
from perfbench.workloads import (GRID_FLAGS, MAX_SHIFT, WORKLOADS,
                                 command_lines, grid_shift, load_spec)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 1, 2, 3, 17, 123, 2**31 - 1)
# one quick op per traced module
SMALL_OPS = [
    "phase-diagram --L 24 --mu 0.1:0.3:2 --delta 0.02:0.06:2",
    "critical-line --mu 0.2",
    "mean-field --mu 0.2:0.3:3 --delta 0.05 --maxwell",
    "tfim --L 6 --t-final 1 --samples 3",
    "htrs --L 2 --t-final 2 --samples 3",
    "verify --level quick",
]


def test_every_workload_argv_parses():
    parser = cli.build_parser()
    for name in WORKLOADS:
        for seed in SEEDS:
            for argv in command_lines(name, seed):
                parser.parse_args(argv)


def test_seed_shift_keeps_grids_strictly_increasing():
    for name in WORKLOADS:
        base = command_lines(name, 0)
        assert base == [list(op) for op in WORKLOADS[name].ops]
        for seed in SEEDS[1:]:
            frac = grid_shift(seed)
            assert 0.0 < frac < MAX_SHIFT
            for argv, argv0 in zip(command_lines(name, seed), base):
                for i, tok in enumerate(argv[:-1]):
                    if tok not in GRID_FLAGS or ":" not in argv0[i + 1]:
                        continue
                    grid = cli.parse_grid(argv[i + 1])  # raises if not
                    grid0 = cli.parse_grid(argv0[i + 1])  # increasing
                    step = grid0[1] - grid0[0]
                    assert grid.size == grid0.size
                    assert grid == pytest.approx(grid0 + frac * step,
                                                 abs=1e-12)


def test_traced_run_restores_every_attribute(tmp_path, capsys):
    tracer = trace.Tracer()
    modules = tracer.modules
    before = {(m, a): getattr(modules[m], a) for m, a, _ in trace.TARGETS}
    client = worker.Client(cli, "scan-small", 0, str(tmp_path))
    client.ops = [cmd.split() for cmd in SMALL_OPS]
    client.seed0 = [[]] * len(client.ops)  # no reference rows for these
    client.run_pass()
    client.tracer = tracer
    tracer.install()
    try:
        assert all(getattr(modules[m], a) is not fn
                   for (m, a), fn in before.items())
        client.run_pass(traced=True)
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())
    events = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert all(e["ok"] for e in events), events
    # every per-layer metric BENCHMARK.json names is recorded: the small ops
    # reach every traced function, and no call fails
    names = [m["name"] for m in load_spec()["per_layer"]
             if m["name"] not in worker.RUN_METRICS]
    layers = tracer.metrics(names, 1)
    for name in names:
        if name.endswith(".errors"):
            assert layers[name] == 0, name
        else:
            assert layers[name] > 0, name
    assert layers["cli.main.calls"] == len(SMALL_OPS)
    assert tracer.spans and all(s is not None for s in tracer.spans)


def test_corrupted_reference_row_fails_the_op(tmp_path, capsys, monkeypatch):
    name, index = "scan-small", 4      # free-energy --mu 0.2 --delta 0.021
    ref = checks.load_reference(name, index)
    row = next(i for i, ln in enumerate(ref) if not ln.startswith("#"))
    rho, q = ref[row].split(",")
    corrupted = list(ref)
    corrupted[row] = f"{rho},{float(q) * (1 + 1e-9)!r}"
    monkeypatch.setattr(checks, "load_reference", lambda w, i: corrupted)
    client = worker.Client(cli, name, 0, str(tmp_path))
    client.ops = client.seed0 = [client.ops[index]]
    client.run_pass()
    event = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not event["ok"]
    assert "reference" in event["problems"][0]
    # the untouched reference passes the same output
    text = "\n".join(ref)
    assert checks.check_output(client.ops[0], 0, text, ref) == []


STUB_CLI = """
import time


def _git_hash():
    return "stub"


def main(argv):
    time.sleep(0.05)
    raise RuntimeError("boom")
"""


def test_raising_op_is_counted_and_the_run_still_reports(tmp_path):
    """A run over a program whose every op raises prints its JSON line."""
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    pkg = tmp_path / "src" / "cqa_fermi"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "kernels.py").write_text("USING_NUMBA = False\n")
    (pkg / "cli.py").write_text(STUB_CLI)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert not out["correct"]
    assert out["attempted"] >= 8            # a cold and three warm passes
    assert out["failed"] == out["attempted"]
    assert "RuntimeError('boom')" in proc.stdout


def test_run_length_that_cannot_fit_is_refused():
    with pytest.raises(SystemExit):
        run.main(["--workload", "oracle", "--seconds",
                  str(run.MAX_SECONDS + 1)])
