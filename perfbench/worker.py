"""The measured process: one closed-loop client running a workload in-process.

The client calls ``cqa_fermi.cli.main(argv)`` for one op at a time and
issues the next op only after the previous one returned and its output was
checked.  Checking happens outside the timed interval.  A pass is one run
over the workload's op list; the first (cold) pass is checked in full and
every later pass must reproduce its output exactly.  After every op of a
pass the client takes one machine-speed sample (``calibrate.py``), outside
the op's timed interval.

Progress goes to stdout as JSON lines, so the parent can count finished
ops even if it has to kill this process:

* ``{"event": "ready", "at": ...}`` once the package is imported, with the
  monotonic clock (system-wide, so the parent can time the start-up);
* ``{"event": "op", "ok": ..., ...}`` after each op;
* ``{"event": "result", ...}`` at the end.

Usage: python -m perfbench.worker --workload W --seed N --seconds S
           --trace 0|1 --tmp DIR [--spans PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

from perfbench import calibrate, checks, trace
from perfbench.workloads import KNOWN_FAILURES, KNOWN_HANGS, WORKLOADS, \
    command_lines, load_spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_METRICS = ("run.cpu_s", "run.wall_pass_s",  # set here, not by spans
               "trace.overhead_frac")


def emit(**event) -> None:
    print(json.dumps(event), flush=True)


class Client:
    """Runs ops through ``cli.main`` and checks their outputs."""

    def __init__(self, cli, workload: str, seed: int, tmp: str):
        self.cli = cli
        self.workload = workload
        self.seed0 = command_lines(workload, 0)
        self.ops = command_lines(workload, seed)
        self.out = os.path.join(tmp, "op.out")
        self.cold: list = []    # (problems, normalized output) per op
        self.tracer = None
        self.passes = 0
        self.calibration = None

    def run_op(self, argv):
        """(seconds, exit code, output text, captured stdout+stderr)."""
        if os.path.exists(self.out):
            os.remove(self.out)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main([*argv, "--output", self.out])
            except Exception as exc:  # a raising op is a failed op
                rc = f"raised {exc!r}"
            elapsed = time.perf_counter() - t0
        if os.path.exists(self.out):
            with open(self.out, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sink.getvalue()
        return elapsed, rc, text, sink.getvalue()

    def run_pass(self, traced: bool = False):
        """Run every op once; return the summed wall and CPU time of the
        ops."""
        wall = cpu = 0.0
        if self.tracer is not None:
            self.tracer.start_pass()
        for i, argv in enumerate(self.ops):
            if self.tracer is not None:
                self.tracer.op = f"{self.passes}.{i}"
            c0 = time.process_time()
            elapsed, rc, text, log = self.run_op(argv)
            cpu += time.process_time() - c0
            wall += elapsed
            if self.calibration is not None:
                self.calibration.sample()
            if self.passes == 0:
                ref = None
                if argv == self.seed0[i]:
                    ref = checks.load_reference(self.workload, i)
                problems = checks.check_output(argv, rc, text, ref)
                self.cold.append((problems, checks.normalize(text)))
            elif rc != 0:
                problems = [f"exit code {rc}"]
            elif checks.normalize(text) != self.cold[i][1]:
                problems = ["output differs from the cold pass"]
            else:
                problems = list(self.cold[i][0])
            if problems and log:
                problems.append(log.strip()[-300:])
            emit(event="op", op=i, ok=not problems, traced=traced,
                 seconds=elapsed, problems=problems[:3],
                 argv=" ".join(argv))
        self.passes += 1
        return wall, cpu

    def timed_passes(self, budget: float, min_passes: int, traced=False):
        """Warm passes until the next one would overrun ``budget``: their
        wall times, CPU times and the run's speed factor over them."""
        walls, cpus, took = [], [], []
        self.calibration = calibrate.Calibration()
        start = time.monotonic()
        while len(walls) < min_passes or (
                time.monotonic() - start + statistics.median(took)
                <= budget):
            t0 = time.monotonic()
            wall, cpu = self.run_pass(traced)
            took.append(time.monotonic() - t0)
            walls.append(wall)
            cpus.append(cpu)
        samples, self.calibration = self.calibration.samples, None
        return walls, cpus, calibrate.REF_S / statistics.median(samples)


def manifest(cli, kernels) -> dict:
    import numpy
    import scipy

    def blas(cfg):
        b = cfg["Build Dependencies"]["blas"]
        return f"{b['name']} {b['version']}"

    return {
        "backend": "numba" if kernels.USING_NUMBA else "numpy",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": cli._git_hash(),
        "client": "closed loop, 1 client, cli.main in-process",
    }


def known_failures(client) -> list:
    """Exit code of each known-failing configuration, run untimed."""
    out = []
    for cmd, expected in KNOWN_FAILURES:
        _, rc, _, _ = client.run_op(cmd.split())
        out.append({"argv": cmd, "exit": rc,
                    "status": "open" if rc == expected else "changed"})
    out += [{"argv": cmd, "exit": None, "status": "open, hangs, not run"}
            for cmd in KNOWN_HANGS]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    from cqa_fermi import cli, kernels

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"imported {cli.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2
    emit(event="ready", at=time.monotonic())
    client = Client(cli, args.workload, args.seed, args.tmp)
    cold, _ = client.run_pass()
    result = {"cold_s": cold, "manifest": manifest(cli, kernels)}
    if args.trace:
        half = args.seconds / 2.0
        walls, cpus, speed = client.timed_passes(half, 2)
        tracer = trace.Tracer()
        client.tracer = tracer
        tracer.install()
        try:
            traced, _, traced_speed = client.timed_passes(half, 2,
                                                          traced=True)
        finally:
            tracer.uninstall()
            client.tracer = None
        names = [m["name"] for m in load_spec()["per_layer"]
                 if m["name"] not in RUN_METRICS]
        layers = tracer.metrics(names, len(traced))
        layers["run.cpu_s"] = statistics.median(cpus)
        layers["run.wall_pass_s"] = statistics.median(walls)
        layers["trace.overhead_frac"] = (
            statistics.median(traced) * traced_speed
            / (statistics.median(walls) * speed) - 1.0)
        result.update(untraced_s=walls, traced_s=traced, speed=speed,
                      traced_speed=traced_speed, layers=layers,
                      restored=tracer.restored())
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        walls, cpus, speed = client.timed_passes(args.seconds, 3)
        result.update(warm_s=walls, cpu_s=cpus, speed=speed)
    result["manifest"]["known_failures"] = known_failures(client)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit(event="result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
