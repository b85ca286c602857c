"""The benchmark's fixed workloads: lists of ``cqa-fermi`` command lines.

Seed 0 gives the command lines exactly as written below.  Any other seed
shifts both endpoints of every ``start:stop:count`` grid by one seeded
fraction (0 to 1/2) of that grid's step, so the grid keeps its size and
spacing and a claim can be re-checked on inputs nobody tuned against.
Scalar flags and comma lists are not shifted: the ``htrs`` pump list keeps
gamma_p = 0, where the Onsager anchor lives.

Why each workload exists is stated once, in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

GRID_FLAGS = ("--mu", "--delta")
MAX_SHIFT = 0.5  # largest grid shift, in steps
# the benchmark's definition: why each workload exists, metric names, units
SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


@dataclass(frozen=True)
class Workload:
    name: str
    work: str  # fixed work per pass, the base of any throughput figure
    ops: tuple[tuple[str, ...], ...]  # seed-0 command lines


def _ops(*argvs: str) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(argv.split()) for argv in argvs)


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="phase-L1e5",
        work="150 phase-diagram points at L=1e5",
        ops=_ops("phase-diagram --L 100000 --kappa 1e-8 --mu 0.1:0.3:5 "
                 "--delta 0.015:0.03:30"),
    ),
    Workload(
        name="scan-small",
        work="1600 points at L=400, 14 critical points, 101 mean-field "
             "points with Maxwell, 2 free-energy profiles",
        ops=_ops("phase-diagram --L 400 --mu 0:0.6:40 --delta 0.001:0.3:40",
                 "critical-line --mu 0.1:0.4:7",
                 "critical-line --mu 0.1:0.4:7 --kappa 1e-3",
                 "mean-field --mu 0:0.5:101 --delta 0.05 --maxwell",
                 "free-energy --mu 0.2 --delta 0.021",
                 "free-energy --mu 0.2 --delta 0.021 --kappa 1e-3 "
                 "--mode full"),
    ),
    Workload(
        name="moments",
        work="2 x 12.5k RK4 steps on 5 pairs per L=10 op, "
             "2 x 3.1k steps on 256 pairs",
        ops=_ops("tfim --L 10 --e-c 0 --t-final 100",
                 "tfim --L 10 --e-c 1 --t-final 100",
                 "tfim --L 512 --e-c 1 --t-final 25"),
    ),
    Workload(
        name="oracle",
        work="verify --level full plus 2 steady states and 4 correlator "
             "series of 201 points at L=6",
        ops=_ops("verify --level full",
                 "htrs --L 6 --gamma-p 0,0.001"),
    ),
)}

# Configurations that fail at the time the benchmark was defined.  They are
# never timed; each run executes the fast-failing ones once and reports the
# exit code, so a fix shows in every result.  ``--tol 0`` hangs and is only
# listed.
KNOWN_FAILURES = (
    ("phase-diagram --L 24 --bc obc --mu 0.2 --delta 0.05", 2),
    ("phase-diagram --L 25 --mu 0.2 --delta 0.05", 2),
)
KNOWN_HANGS = ("critical-line --mu 0.2 --tol 0",)


def grid_shift(seed: int) -> float:
    """Fraction of one grid step that shifts every grid for this seed."""
    if seed == 0:
        return 0.0
    return random.Random(seed).uniform(0.0, MAX_SHIFT)


def shift_grid(text: str, frac: float) -> str:
    """``start:stop:count`` moved up by ``frac`` steps; other forms as is."""
    parts = text.split(":")
    if frac == 0.0 or len(parts) != 3 or int(parts[2]) < 2:
        return text
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    step = (stop - start) / (count - 1)
    return f"{start + frac * step!r}:{stop + frac * step!r}:{count}"


def argv_for(op: tuple[str, ...], seed: int) -> list[str]:
    """The op's command line for ``seed``."""
    frac = grid_shift(seed)
    argv = list(op)
    for i in range(1, len(argv)):
        if argv[i - 1] in GRID_FLAGS:
            argv[i] = shift_grid(argv[i], frac)
    return argv


def command_lines(name: str, seed: int) -> list[list[str]]:
    return [argv_for(op, seed) for op in WORKLOADS[name].ops]
