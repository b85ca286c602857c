"""Command-line front end emitting machine-readable result files.

Every command writes a deterministic data file (CSV with ``#`` header lines,
or one JSON document) whose header records the exact flags, the package
version and the git hash, so a run is reproducible from its own output.
Numbers are printed with 17 significant digits; re-running a command with
identical flags yields byte-identical data sections.

Each flag is declared once, in :data:`COMMANDS`, which builds the parser,
checks every value's domain when the arguments are parsed, and orders the
flags the header records.

Exit codes: 0 success, 2 validation error (or an output that cannot be
written), 3 numerical-guard trip.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .core import ModelParams
from .errors import (
    CqaFermiError,
    DegenerateKernelError,
    IterationLimitError,
    NoBistableWindowError,
    OddPbcLengthWarning,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _git_hash() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:  # pragma: no cover - git missing
        pass
    return "unknown"


def fmt(x) -> str:
    """17-significant-digit decimal rendering of one value."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


@dataclass
class RunConfig:
    """One command invocation: flags, grids, and the output contract."""

    command: str
    flags: dict
    columns: list[str]
    output: str | None
    fmt: str = "csv"
    summary: dict = field(default_factory=dict)


def _number(text: str, integer: bool = False):
    """``text`` as a finite float, or int if ``integer``; a bad value
    raises ValueError phrased "must be …, got …", non-finite first."""
    try:
        val = float(text)
    except ValueError:
        raise ValueError(f"must be a number, got {text}") from None
    if not math.isfinite(val):
        raise ValueError(f"must be finite, got {text}")
    if not integer:
        return val
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text}") from None


def parse_grid(text: str) -> np.ndarray:
    """Parse ``start:stop:count`` (inclusive), a comma list, or one number.

    Grids must be finite and strictly increasing; a bad grid raises
    ValueError phrased "must be …, got …".
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"must be start:stop:count, got {text}")
        start, stop = _number(parts[0]), _number(parts[1])
        count = _number(parts[2], integer=True)
        if count < 1:
            raise ValueError(f"must have a count >= 1, got {text}")
        if count == 1:
            if start != stop:
                raise ValueError(f"must have start == stop for one point, "
                                 f"got {text}")
            return np.array([start])
        vals = np.linspace(start, stop, count)
    elif "," in text:
        vals = np.array([_number(v) for v in text.split(",")])
    else:
        return np.array([_number(text)])
    if np.any(np.diff(vals) <= 0):
        raise ValueError(f"must be strictly increasing, got {text}")
    return vals


def _write_text(text: str, output: str | None) -> None:
    """Write ``text`` to stdout, or atomically to the file ``output``."""
    if output is None:
        sys.stdout.write(text)
        return
    out_dir = os.path.dirname(os.path.abspath(output))
    if not os.path.isdir(out_dir):
        raise ValueError(f"output directory {out_dir} does not exist")
    # write a sibling temporary file and rename it over the target, so a
    # failed write never leaves a truncated output behind
    tmp = os.path.join(out_dir, f".{os.path.basename(output)}."
                                f"{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, output)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_output(cfg: RunConfig, rows) -> None:
    lines = []
    if cfg.fmt == "csv":
        lines.append(f"# cqa-fermi {__version__} {cfg.command}")
        lines.append(f"# git {_git_hash()}")
        for key, val in cfg.flags.items():
            lines.append(f"# flag {key} = {val}")
        for key, val in cfg.summary.items():
            lines.append(f"# summary {key} = {fmt(val)}")
        lines.append("# columns " + ",".join(cfg.columns))
        for row in rows:
            lines.append(",".join(fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "command": cfg.command,
            "version": __version__,
            "git": _git_hash(),
            "flags": cfg.flags,
            "summary": {k: fmt(v) for k, v in cfg.summary.items()},
            "columns": cfg.columns,
            "rows": [[fmt(v) for v in row] for row in rows],
        }
        text = json.dumps(doc, indent=1) + "\n"
    _write_text(text, cfg.output)


def read_header(path: str) -> RunConfig:
    """Reconstruct the RunConfig of a CSV output from its header lines."""
    flags: dict = {}
    command = ""
    columns: list[str] = []
    summary: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if body.startswith("cqa-fermi"):
                command = body.split()[-1]
            elif body.startswith("flag "):
                key, val = body[5:].split(" = ", 1)
                flags[key.strip()] = val.strip()
            elif body.startswith("summary "):
                key, val = body[8:].split(" = ", 1)
                summary[key.strip()] = val.strip()
            elif body.startswith("columns "):
                columns = body[8:].split(",")
    return RunConfig(command=command, flags=flags, columns=columns,
                     output=path, summary=summary)


# ---------------------------------------------------------------------------
# commands: each returns (columns, rows, summary) for the data file,
# except verify, which writes its own report
# ---------------------------------------------------------------------------


def _cmd_phase_diagram(args):
    from . import steadystate

    rows = steadystate.grid_observables(
        args.L, args.bc, parse_grid(args.mu), parse_grid(args.delta),
        args.e_c, args.kappa)
    columns = ["mu", "delta", "density"]
    if steadystate.has_correlations(args.L, args.bc):
        columns += ["anomalous_nn_abs", "normal_2_abs"]
    return columns, rows, {}


def _cmd_free_energy(args):
    from . import thermo

    prof = thermo.profile(args.mu, args.kappa, args.delta, args.mode,
                          args.grid_size)
    summary = {"rho_min": prof.rho_min}
    for key in ("rho_low", "rho_high", "delta_q_min"):
        if getattr(prof, key) is not None:
            summary[key] = getattr(prof, key)
    summary["density"] = thermo.density_thermo(prof)
    return ["rho", "q"], zip(prof.rho, prof.q), summary


def _cmd_critical_line(args):
    from . import thermo

    if args.mode is None:  # resolved here, so the header records it
        args.mode = "weak" if args.kappa <= 1e-6 else "full"
    mus = parse_grid(args.mu)
    rows = list(zip(mus, thermo.critical_delta(
        mus, kappa=args.kappa, mode=args.mode, tol=args.tol)))
    summary = {"delta_crit": rows[0][1]} if len(rows) == 1 else {}
    return ["mu", "delta_crit"], rows, summary


def _cmd_mean_field(args):
    from . import meanfield

    rows = []
    for mu in parse_grid(args.mu):
        r = meanfield.solve_roots(mu, args.delta, args.e_c, args.kappa)
        padded = list(r.roots) + [float("nan")] * (3 - r.count)
        rows.append((mu, r.count, *padded[:3]))
    summary = {}
    if args.maxwell:
        summary["maxwell_mu"] = meanfield.maxwell_transition(
            args.delta, args.e_c, args.kappa)
    columns = ["mu", "n_roots", "root_low", "root_mid", "root_high"]
    return columns, rows, summary


def _cmd_tfim(args):
    from . import pseudospin

    p = ModelParams(L=args.L, bc="pbc", mu=args.mu, delta=args.delta,
                    e_c=args.e_c, kappa=args.kappa)
    f, s = pseudospin.integrate_moments(
        [pseudospin.vacuum_state(args.L, kind)
         for kind in (pseudospin.FERMION, pseudospin.SPIN)], p,
        args.t_final, args.dt, n_samples=args.samples)
    diff = np.maximum(np.abs(f.s_minus - s.s_minus).max(axis=1),
                      np.abs(f.s_z - s.s_z).max(axis=1))
    return (["time", "max_moment_diff", "nbar_fermion", "nbar_spin"],
            zip(f.times, diff, f.nbar, s.nbar), {})


def _cmd_htrs(args):
    from . import fock

    times = np.linspace(0.0, args.t_final, args.samples)
    ops, H = fock.single_system(ModelParams(
        L=args.L, bc="pbc", mu=args.mu, delta=args.delta, e_c=args.e_c,
        kappa=args.kappa))
    rows = []
    for g in parse_grid(args.gamma_p):
        forward, reversed_ = fock.htrs_point(ops, H, args.kappa, float(g),
                                             times)
        for t, a, b in zip(times, forward, reversed_):
            rows.append((g, t, a.real, a.imag, b.real, b.imag, abs(a + b)))
    return (["gamma_p", "time", "re_forward", "im_forward", "re_reversed",
             "im_reversed", "abs_sum"], rows, {})


def _cmd_verify(args) -> int:
    """Small-system oracle cross-checks; one pass/fail line per check."""
    import warnings

    from . import fock, steadystate

    checks = []
    grid = [(2, "pbc"), (3, "obc"), (4, "pbc"), (4, "obc")]
    if args.level == "full":
        grid += [(3, "pbc"), (2, "obc")]
    for L, bc in grid:
        p = ModelParams(L=L, bc=bc, mu=0.25, delta=0.12, e_c=1.0, kappa=0.1)
        with warnings.catch_warnings():
            # the odd ring (3, "pbc") has no closed-form correlations; the
            # oracle checks here need none
            warnings.simplefilter("ignore", OddPbcLengthWarning)
            system = fock.build_doubled_system(p)
            psi = fock.build_cqa_state(system)
            rep = fock.verify_dark_conditions(psi, system)
            rho_cqa = fock.partial_trace_absorber(psi)
            ops, H = fock.single_system(p)
            liouv = fock.build_liouvillian(H, ops, p.kappa)
            rho_ss = fock.steady_state(liouv)
        checks.append((f"dark-conditions L={L} {bc}", rep.max_residual < 1e-10))
        checks.append((
            f"steady-state cross-oracle L={L} {bc}",
            fock.trace_distance(rho_cqa, rho_ss) < 1e-8,
        ))
    p6 = ModelParams(L=6, bc="pbc", mu=0.23, delta=0.31, e_c=1.0, kappa=0.07)
    tbl = steadystate.build_coefficients(p6)
    system = fock.build_doubled_system(p6)
    psi = fock.build_cqa_state(system)
    n_dark = sum(fock.number_operators(system.dark_ops()))
    dens = float(np.vdot(psi, n_dark @ psi).real) / (2 * p6.L)
    # both closed-form routes: one table, and the phase-diagram grid
    grid = steadystate.grid_observables(p6.L, p6.bc, [p6.mu], [p6.delta],
                                        p6.e_c, p6.kappa)
    closed = (steadystate.mean_density(tbl), grid[0][2])
    checks.append(("closed-form density vs Fock L=6",
                   all(abs(dens - d) < 1e-9 for d in closed)))
    _write_text("".join(("ok   " if ok else "FAIL ") + name + "\n"
                        for name, ok in checks), args.output)
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_NUMERICAL


# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of a flag that must be given

# the test each finite value must pass, keyed by how --help states it
DOMAINS = {
    "finite": lambda v: True,
    ">= 0": lambda v: v >= 0,
    "> 0": lambda v: v > 0,
    ">= 2": lambda v: v >= 2,
    ">= 1000": lambda v: v >= 1000,
    "in (0, 1/2)": lambda v: 0 < v < 0.5,
}


@dataclass
class Flag:
    """``--name`` (with dashes for underscores) of one command.

    ``kind`` is "int", "float", "grid", "bool" or a tuple of choices; every
    value of an int, float or grid flag must lie in ``domain``.
    """

    name: str
    kind: str | tuple
    default: object
    domain: str | None
    help: str

    @property
    def option(self) -> str:
        return "--" + self.name.replace("_", "-")

    def parse(self, text: str):
        """The value of ``text``: a number, or a grid's text, which the
        header records."""
        try:
            vals = (parse_grid(text) if self.kind == "grid"
                    else [_number(text, self.kind == "int")])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{self.option} {exc}") from None
        if not all(DOMAINS[self.domain](v) for v in vals):
            raise argparse.ArgumentTypeError(
                f"{self.option} must be {self.domain}, got {text}")
        return text if self.kind == "grid" else vals[0]


@dataclass
class Command:
    """A command's function, help line and flags in header order; a
    ``report`` command writes its own text and has no ``--format``."""

    run: object
    help: str
    flags: tuple
    report: bool = False


COMMANDS = {
    "phase-diagram": Command(
        _cmd_phase_diagram,
        "density and correlation grids over (mu, delta); density only "
        "unless the chain is an even ring", (
            Flag("L", "int", 400, ">= 2", "chain length"),
            Flag("bc", ("pbc", "obc"), "pbc", None, "boundary condition"),
            Flag("kappa", "float", 0.01, "> 0", "loss rate"),
            Flag("e_c", "float", 1.0, "finite", "charging energy"),
            Flag("mu", "grid", REQUIRED, "finite", "chemical potentials"),
            Flag("delta", "grid", REQUIRED, ">= 0", "pairing amplitudes"),
        )),
    "free-energy": Command(
        _cmd_free_energy, "effective free energy profile", (
            Flag("mu", "float", REQUIRED, "finite", "chemical potential"),
            Flag("kappa", "float", 0.0, ">= 0", "loss rate"),
            Flag("delta", "float", REQUIRED, ">= 0", "pairing amplitude"),
            Flag("mode", ("weak", "full"), "weak", None,
                 "weak- or full-dissipation free energy"),
            Flag("grid_size", "int", 4096, ">= 1000",
                 "density grid points scanned for wells"),
        )),
    "critical-line": Command(
        _cmd_critical_line, "first-order boundary points", (
            Flag("mu", "grid", REQUIRED, "in (0, 1/2)", "chemical potentials"),
            Flag("kappa", "float", 0.0, ">= 0", "loss rate"),
            Flag("mode", ("weak", "full"), None, None,
                 "weak for kappa <= 1e-6, else full, when not given"),
            Flag("tol", "float", 1e-6, "> 0", "bisection bracket width"),
        )),
    "mean-field": Command(
        _cmd_mean_field, "self-consistent density roots", (
            Flag("mu", "grid", REQUIRED, "finite", "chemical potentials"),
            Flag("delta", "float", REQUIRED, ">= 0", "pairing amplitude"),
            Flag("e_c", "float", 1.0, "finite", "charging energy"),
            Flag("kappa", "float", 0.01, ">= 0", "loss rate"),
            Flag("maxwell", "bool", False, None,
                 "add the equal-area transition point to the summary"),
        )),
    "tfim": Command(
        _cmd_tfim, "fermion vs spin moment trajectories", (
            Flag("L", "int", 10, ">= 2", "chain length (even)"),
            Flag("mu", "float", 0.2, "finite", "chemical potential"),
            Flag("delta", "float", 0.3, ">= 0", "pairing amplitude"),
            Flag("e_c", "float", 0.0, "finite", "charging energy"),
            Flag("kappa", "float", 0.01, "> 0", "loss rate"),
            Flag("t_final", "float", 500.0, "> 0",
                 "integration time: n = ceil(t_final / dt) RK4 steps"),
            Flag("dt", "float", 0.008, "> 0", "RK4 step"),
            Flag("samples", "int", 251, ">= 2",
                 "a row at step 0 and every (n // (samples - 1))-th step, "
                 "so the rows and the last time can differ from samples "
                 "and t_final"),
        )),
    "verify": Command(
        _cmd_verify, "run the small-system oracle checks", (
            Flag("level", ("quick", "full"), "quick", None,
                 "full adds two more chains"),
        ), report=True),
    "htrs": Command(
        _cmd_htrs, "forward/reversed two-time correlators", (
            Flag("L", "int", 6, ">= 2", "chain length"),
            Flag("mu", "float", 0.2, "finite", "chemical potential"),
            Flag("delta", "float", 0.15, ">= 0", "pairing amplitude"),
            Flag("e_c", "float", 1.0, "finite", "charging energy"),
            Flag("kappa", "float", 0.01, "> 0", "loss rate"),
            Flag("gamma_p", "grid", "0", ">= 0", "pump rates, e.g. 0,0.001"),
            Flag("t_final", "float", 400.0, "> 0", "last time of the grid"),
            Flag("samples", "int", 201, ">= 2", "time points in [0, t_final]"),
        )),
}

# a value such as "-0.1,0.2" or "-1:1:5" is a negative grid, not a flag;
# argparse by default only lets plain negative numbers through
_NEGATIVE_VALUE = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cqa-fermi",
        description="Steady states, phase boundary, and oracle checks for "
                    "the lossy pairing chain.",
        epilog="Grids use start:stop:count (inclusive endpoints), a comma "
               "list, or a single number.  CSV columns are fixed per "
               "command and listed in the '# columns' header line.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p._negative_number_matcher = _NEGATIVE_VALUE
        for f in cmd.flags:
            if f.kind == "bool":
                p.add_argument(f.option, action="store_true", help=f.help)
            elif isinstance(f.kind, tuple):
                p.add_argument(f.option, choices=f.kind, default=f.default,
                               help=f.help)
            else:
                p.add_argument(f.option, type=f.parse, default=f.default,
                               required=f.default is REQUIRED,
                               help=f"{f.help} [{f.kind}, {f.domain}]")
        p.add_argument("--output", default=None,
                       help="output file (default: stdout)")
        if not cmd.report:
            p.add_argument("--format", choices=("csv", "json"),
                           default="csv")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for bad flags already
        return int(exc.code or 0)
    cmd = COMMANDS[args.command]
    try:
        if cmd.report:
            return cmd.run(args)
        columns, rows, summary = cmd.run(args)
        write_output(RunConfig(
            command=args.command,
            flags={f.name: getattr(args, f.name) for f in cmd.flags},
            columns=columns, output=args.output, fmt=args.format,
            summary=summary), rows)
        return EXIT_OK
    except (DegenerateKernelError, NoBistableWindowError,
            IterationLimitError) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CqaFermiError, ValueError, OSError) as exc:
        # OSError: the output cannot be written (e.g. it is a directory)
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
