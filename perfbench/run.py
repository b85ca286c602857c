#!/usr/bin/env python3
"""cqa-fermi benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload phase-L1e5 --seed 0 --seconds 26 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: median over fresh interpreters of the time from process
  start until ``cqa_fermi.cli`` is imported, plus the one-time work of the
  first calls: what the measured process's cold pass over the workload took
  beyond its slowest warm pass;
* ``pass_s``: median wall time of a warm pass over the workload's ops;
* ``peak_rss_mb``: peak resident memory of the process running the ops;
* ``ok_frac``: share of attempted ops whose output passed its checks
  (the printed ``failed_frac`` is one minus this).

``setup_s`` and ``pass_s`` are at the reference speed of the machine: the
raw times multiplied by the run's speed factor (``calibrate.py``), so that
the host's drift does not read as a change of the program.  The raw times
are printed and kept in the run record.

``--trace 1`` is a separate run that wraps the package's public functions
and reports per-layer metrics (see ``trace.py``) plus the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details (pass times, the run manifest, failures)
go to ``.perfbench_out/`` in the checkout, and spans of a traced run to a
``-spans.json`` file beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.worker import SRC, THREAD_VARS  # noqa: E402
from perfbench.workloads import WORKLOADS, load_spec  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
UNPINNED_VARS = ("CQA_FERMI_JOBS", "CQA_FERMI_NUMBA")
IMPORT_RUNS = 2      # fresh interpreters that only import, besides the worker
DEADLINE_S = 170.0   # the whole run
MAX_SECONDS = 60     # measured time that fits under DEADLINE_S with margin
IMPORT_ONLY = "import time, cqa_fermi.cli; print(time.monotonic())"


def pinned_env() -> dict:
    """Environment of every measured process.

    BLAS/OpenMP threads are capped at the usable core count, the package's
    own switches are unset, and only the checkout is on the import path.
    """
    env = dict(os.environ)
    for var in UNPINNED_VARS:
        env.pop(var, None)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = nproc
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    return env


def import_times(env: dict, deadline: float) -> list[float]:
    """Start-up time of fresh interpreters that only import the CLI."""
    times = []
    for _ in range(IMPORT_RUNS):
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", IMPORT_ONLY], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=deadline - time.monotonic())
        if proc.returncode != 0:
            raise RuntimeError(f"importing cqa_fermi.cli failed:\n"
                               f"{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - spawned)
    return times


def run_worker(args, env, tmp, spans, deadline):
    """Run the measured process; return (events, killed, exit code, spawn
    time on the monotonic clock)."""
    cmd = [sys.executable, "-m", "perfbench.worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp, "--spans", spans]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    killed = False
    try:
        out, _ = proc.communicate(timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        killed = True
    events = []
    for line in out.splitlines():
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return events, killed, proc.returncode, spawned


def high_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def print_report(record) -> None:
    """The run's numbers for people; the JSON line follows."""
    result, setup, metrics = record["worker"], record["setup"], \
        record["metrics"]
    failed, attempted = record["failed"], record["attempted"]
    print(f"perfbench {record['workload']} seed {record['seed']} trace "
          f"{record['trace']}: {record['work_per_pass']} per pass")
    if record["killed"]:
        print(f"killed at the {DEADLINE_S:.0f} s limit; "
              f"{record['unfinished']} unfinished ops count as failed")
    for e in record["problems"]:
        print(f"FAILED {e['argv']}: {'; '.join(e['problems'])}")
    if result is None:
        return
    print("manifest " + json.dumps(result["manifest"]))
    if record["trace"]:
        lay = result["layers"]
        top = sorted((k for k in lay if k.endswith(".self_s")),
                     key=lambda k: -lay[k])[:5]
        print("largest self time per pass: " + ", ".join(
            f"{k[:-len('.self_s')]} {lay[k]:.4f} s" for k in top))
        print(f"trace overhead {lay['trace.overhead_frac']:+.3f}, restored "
              f"{result['restored']}, failed {failed}/{attempted}")
        return
    warm, speed = result["warm_s"], result["speed"]
    hp = high_percentile(warm)
    tail = (f"p{hp[0]:.0f} {hp[1] * speed:.4f} s" if hp else
            "no percentile has 10 samples beyond it")
    print(f"speed factor {speed:.4f} (times below are raw x this, except "
          f"where marked raw)")
    print(f"pass_s      {metrics['pass_s']['value']:.4f} s  median of "
          f"{len(warm)} warm passes (min {min(warm) * speed:.4f}, max "
          f"{max(warm) * speed:.4f}); {tail}; raw median "
          f"{statistics.median(warm):.4f} s")
    print(f"setup_s     {metrics['setup_s']['value']:.4f} s  raw start-up "
          f"{statistics.median(setup['startup_s']):.4f} s (median of "
          f"{len(setup['startup_s'])} fresh interpreters) + first-call work "
          f"{setup['first_call_s']:.4f} s raw (cold pass "
          f"{result['cold_s']:.4f} s beyond the slowest warm pass)")
    print(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=26)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be 1 to {MAX_SECONDS}, so the run ends "
                 f"within its {DEADLINE_S:.0f} s limit")
    start = time.monotonic()
    deadline = start + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "cqa_fermi", "cli.py")):
        print(f"no cqa_fermi sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    env = pinned_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = os.path.join(OUT_DIR,
                         f"{args.workload}-seed{args.seed}-spans.json")
    tmp = tempfile.mkdtemp(prefix="ops-", dir=OUT_DIR)
    try:
        events, killed, rc, spawned = run_worker(args, env, tmp, spans,
                                                 deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ready = next((e for e in events if e.get("event") == "ready"), None)
    if ready is None:
        print(f"the measured process did not start (exit {rc})",
              file=sys.stderr)
        return 1
    ops = [e for e in events if e.get("event") == "op"]
    result = next((e for e in events if e.get("event") == "result"), None)
    n_ops = len(WORKLOADS[args.workload].ops)
    unfinished = 0 if result else n_ops - len(ops) % n_ops
    attempted = len(ops) + unfinished
    failed = sum(not e["ok"] for e in ops) + unfinished
    problems = [e for e in ops if not e["ok"]][:5]
    correct = (result is not None and failed == 0
               and result.get("restored", True))

    setup = None
    if result is None:
        metrics = {}
    elif args.trace:
        metrics = {m["name"]: {"value": result["layers"][m["name"]],
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        try:
            startup = [ready["at"] - spawned] + import_times(env, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"set-up could not be measured: {exc}", file=sys.stderr)
            return 1
        # One-time work of the first calls (lazy imports, caches filled on
        # first use), which a user pays on every command.  On a shared
        # machine passes differ by +-10%; against the slowest warm pass, a
        # single cold pass does not report that noise as set-up, while a
        # cache that makes warm passes faster still shows in full.
        first_call = max(0.0, result["cold_s"] - max(result["warm_s"]))
        setup = {"startup_s": startup, "first_call_s": first_call}
        speed = result["speed"]
        metrics = {
            "pass_s": {"value": statistics.median(result["warm_s"]) * speed,
                       "unit": "s"},
            "setup_s": {"value": (statistics.median(startup) + first_call)
                        * speed, "unit": "s"},
            "peak_rss_mb": {"value": result["maxrss_kb"] / 1024.0,
                            "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted,
                        "unit": "frac"},
        }

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "work_per_pass": WORKLOADS[args.workload].work,
              "killed": killed, "unfinished": unfinished,
              "attempted": attempted, "failed": failed,
              "problems": problems, "setup": setup,
              "worker": result, "metrics": metrics,
              "elapsed_s": time.monotonic() - start}
    with open(os.path.join(OUT_DIR, tag + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print_report(record)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
