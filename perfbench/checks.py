"""Correctness checks on the outputs of benchmark ops.

An op's output is the data file it wrote (``verify`` prints to stdout
instead).  Three kinds of check apply:

* reference rows: when an op's command line equals its seed-0 form, every
  header line (except ``# git``, which changes with each commit) must match
  the recorded reference, and every number within
  ``|a - b| <= ATOL + RTOL * |b|``.  RTOL = 1e-12 is the tightest relative
  tolerance the package's own tests put on these quantities;
* anchors, which hold for every seed: the acceptance values of the
  critical line at mu = 0.2, round-off agreement of the free fermion and
  spin closures, the Onsager zero of ``htrs`` at gamma_p = 0, the
  thermodynamic density at L = 1e5, and a clean ``verify``;
* invariants, which hold for every seed: grid columns, row counts, ranges
  and monotonicity.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import math
import os

import numpy as np

RTOL = 1e-12
ATOL = 1e-14

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

# acceptance criteria 1 and 2: delta_crit(mu = 0.2)
CRITICAL_ANCHORS = {0.0: 0.021226, 1e-3: 0.021381}
CRITICAL_TOL = 2e-4
ROUND_OFF = 1e-12     # free-closure moment difference
ONSAGER_TOL = 1e-10   # htrs abs_sum at gamma_p = 0
BREAKDOWN_MIN = 1e-3  # interacting closures must visibly disagree
PUMPED_MIN = 1e-7     # pumping must visibly break the Onsager symmetry
THERMO_TOL = 1e-3     # acceptance criterion 3
THERMO_L = 100_000
THERMO_SKIP = 1e-4    # points this close to delta_crit may mix two peaks


def normalize(text: str) -> list[str]:
    """Output lines without the commit line."""
    return [ln for ln in text.splitlines() if not ln.startswith("# git ")]


def reference_path(workload: str, index: int) -> str:
    return os.path.join(REFERENCE_DIR, workload, f"{index}.txt")


def load_reference(workload: str, index: int) -> list[str]:
    with open(reference_path(workload, index), encoding="utf-8") as fh:
        return normalize(fh.read())


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return False
    return abs(x - y) <= ATOL + RTOL * abs(y)


def compare_lines(lines: list[str], ref: list[str]) -> list[str]:
    """Problems found comparing output lines with reference lines."""
    if len(lines) != len(ref):
        return [f"{len(lines)} lines, reference has {len(ref)}"]
    for i, (got, want) in enumerate(zip(lines, ref)):
        if got == want:
            continue
        if want.startswith("# summary ") and got.startswith("# summary "):
            gk, _, gv = got.partition(" = ")
            wk, _, wv = want.partition(" = ")
            if gk == wk and _close(gv, wv):
                continue
        elif not want.startswith("#"):
            gf, wf = got.split(","), want.split(",")
            if len(gf) == len(wf) and all(map(_close, gf, wf)):
                continue
        return [f"line {i + 1} is {got!r}, reference {want!r}"]
    return []


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _flags(argv) -> dict:
    out = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else ""
            out[tok[2:]] = "" if nxt.startswith("--") else nxt
    return out


def _grid(text: str) -> np.ndarray:
    if ":" in text:
        start, stop, count = text.split(":")
        return np.linspace(float(start), float(stop), int(count))
    return np.array([float(v) for v in text.split(",")])


def _table(lines):
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return np.array(rows, dtype=float) if rows else np.empty((0, 0))


def _summary(lines) -> dict:
    out = {}
    for ln in lines:
        if ln.startswith("# summary "):
            key, _, val = ln[len("# summary "):].partition(" = ")
            out[key] = float(val)
    return out


# ---------------------------------------------------------------------------
# anchors and invariants per command
# ---------------------------------------------------------------------------

def _check_phase_diagram(flags, lines):
    mus, deltas = _grid(flags["mu"]), _grid(flags["delta"])
    t = _table(lines)
    if t.shape != (mus.size * deltas.size, 5):
        return [f"table shape {t.shape}, want {(mus.size * deltas.size, 5)}"]
    problems = []
    if not (np.array_equal(t[:, 0], np.repeat(mus, deltas.size))
            and np.array_equal(t[:, 1], np.tile(deltas, mus.size))):
        problems.append("mu/delta columns differ from the requested grid")
    dens = t[:, 2].reshape(mus.size, deltas.size)
    if not (np.all(np.isfinite(t)) and np.all(t[:, 2:] >= 0)
            and np.all(t[:, 2] < 0.5)):
        problems.append("density or correlation out of range")
    elif np.any(np.diff(dens, axis=1) < 0):
        problems.append("density decreases with delta along a mu row")
    if int(flags.get("L", 400)) == THERMO_L and not problems:
        problems += _thermo_anchor(float(flags.get("kappa", 0.01)), mus,
                                   deltas, dens)
    return problems


def _thermo_anchor(kappa, mus, deltas, dens):
    """Exact L = 1e5 densities against the thermodynamic prediction."""
    from cqa_fermi import thermo

    worst = 0.0
    for mu, row in zip(mus, dens):
        dc = thermo.critical_delta(mu, kappa=kappa, mode=thermo.FULL)
        for delta, d in zip(deltas, row):
            if abs(delta - dc) < THERMO_SKIP:
                continue
            prof = thermo.profile(mu, kappa, delta, thermo.FULL)
            worst = max(worst, abs(d - thermo.density_thermo(prof)))
    if worst > THERMO_TOL:
        return [f"L=1e5 density differs from thermodynamics by {worst:.2e}"]
    return []


def _check_critical_line(flags, lines):
    mus = _grid(flags["mu"])
    t = _table(lines)
    if t.shape != (mus.size, 2):
        return [f"table shape {t.shape}, want {(mus.size, 2)}"]
    if not np.array_equal(t[:, 0], mus):
        return ["mu column differs from the requested grid"]
    dc = t[:, 1]
    if not (np.all(dc > 1e-4) and np.all(dc < 0.45)
            and np.all(np.diff(dc) > 0)):
        return ["delta_crit out of (1e-4, 0.45) or not increasing in mu"]
    target = CRITICAL_ANCHORS.get(float(flags.get("kappa", 0.0)))
    if target is None or not mus[0] <= 0.2 <= mus[-1] or mus.size < 4:
        return []
    # cubic through the four grid points nearest mu = 0.2
    i = int(np.clip(np.searchsorted(mus, 0.2) - 2, 0, mus.size - 4))
    sel = slice(i, i + 4)
    at = float(np.polyval(np.polyfit(mus[sel], dc[sel], 3), 0.2))
    if abs(at - target) > CRITICAL_TOL:
        return [f"delta_crit(0.2) = {at:.6f}, acceptance {target}"]
    return []


def _check_mean_field(flags, lines):
    mus = _grid(flags["mu"])
    t = _table(lines)
    if t.shape != (mus.size, 5):
        return [f"table shape {t.shape}, want {(mus.size, 5)}"]
    if not np.array_equal(t[:, 0], mus):
        return ["mu column differs from the requested grid"]
    for row in t:
        n = int(row[1])
        roots = row[2:2 + n]
        if not (1 <= n <= 3 and np.all(np.isnan(row[2 + n:]))
                and np.all((roots >= 0) & (roots <= 0.5))
                and np.all(np.diff(roots) > 0)):
            return [f"bad roots at mu={row[0]!r}"]
    mu_star = _summary(lines).get("maxwell_mu")
    if "maxwell" in flags:
        window = t[t[:, 1] == 3, 0]
        if mu_star is None or window.size < 2 or not (
                window[0] <= mu_star <= window[-1]):
            return ["maxwell_mu missing or outside the three-root window"]
    return []


def _check_free_energy(flags, lines):
    t = _table(lines)
    s = _summary(lines)
    if t.shape[0] != int(flags.get("grid-size", 4096)):
        return [f"{t.shape[0]} rows"]
    if not (0 < s.get("rho_min", -1) < 1
            and s.get("density") == 0.5 * s["rho_min"]):
        return ["rho_min/density summary inconsistent"]
    return []


def _check_tfim(flags, lines):
    t = _table(lines)
    if t.size == 0 or not np.all(np.isfinite(t)):
        return ["empty or non-finite table"]
    diff = float(t[:, 1].max())
    if float(flags.get("e-c", 0.0)) == 0.0:
        if diff > ROUND_OFF:
            return [f"free closures differ by {diff:.2e}"]
    elif diff < BREAKDOWN_MIN:
        return [f"interacting closures agree to {diff:.2e}"]
    return []


def _check_htrs(flags, lines):
    t = _table(lines)
    if t.size == 0:
        return ["empty table"]
    free, pumped = t[t[:, 0] == 0.0, 6], t[t[:, 0] > 0.0, 6]
    if free.size and free.max() > ONSAGER_TOL:
        return [f"abs_sum at gamma_p=0 is {free.max():.2e}"]
    if pumped.size and pumped.max() < PUMPED_MIN:
        return [f"pumped abs_sum only {pumped.max():.2e}"]
    return []


def _check_verify(flags, lines):
    if not lines or not all(ln.startswith("ok ") for ln in lines):
        return ["verify reported a failed check"]
    return []


CHECKS = {
    "phase-diagram": _check_phase_diagram,
    "critical-line": _check_critical_line,
    "mean-field": _check_mean_field,
    "free-energy": _check_free_energy,
    "tfim": _check_tfim,
    "htrs": _check_htrs,
    "verify": _check_verify,
}


def check_output(argv, rc, text: str,
                 reference: list[str] | None) -> list[str]:
    """Every problem with one op's output; ``[]`` when it is correct.

    ``reference`` holds the recorded lines when ``argv`` is the op's seed-0
    command line, else None.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    lines = normalize(text)
    problems = compare_lines(lines, reference) if reference else []
    try:
        problems += CHECKS[argv[0]](_flags(argv), lines)
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
