"""Command-line front end emitting machine-readable result files.

Every command writes a deterministic data file (CSV with ``#`` header lines,
or one JSON document) whose header records the exact flags, the package
version and the git hash, so a run is reproducible from its own output.
Numbers are printed with 17 significant digits; re-running a command with
identical flags yields byte-identical data sections.

Exit codes: 0 success, 2 validation error, 3 numerical-guard trip.
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
from .core import ModelParams, validate_params
from .errors import (
    CqaFermiError,
    DegenerateKernelError,
    IterationLimitError,
    NoBistableWindowError,
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
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
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


def _grid_value(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"grid value {text!r} must be finite")
    return val


def parse_grid(text: str) -> np.ndarray:
    """Parse ``start:stop:count`` (inclusive), a comma list, or one number.

    Grids must be finite and strictly increasing.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} is not start:stop:count")
        start, stop = _grid_value(parts[0]), _grid_value(parts[1])
        count = int(parts[2])
        if count < 1:
            raise ValueError("grid count must be >= 1")
        if count == 1:
            if start != stop:
                raise ValueError("single-point grid needs start == stop")
            return np.array([start])
        vals = np.linspace(start, stop, count)
    elif "," in text:
        vals = np.array([_grid_value(v) for v in text.split(",")])
    else:
        return np.array([_grid_value(text)])
    if np.any(np.diff(vals) <= 0):
        raise ValueError(f"grid {text!r} is not strictly increasing")
    return vals


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
    if cfg.output is None:
        sys.stdout.write(text)
        return
    out_dir = os.path.dirname(os.path.abspath(cfg.output))
    if not os.path.isdir(out_dir):
        raise ValueError(f"output directory {out_dir} does not exist")
    # write a sibling temporary file and rename it over the target, so a
    # failed write never leaves a truncated output behind
    tmp = os.path.join(out_dir, f".{os.path.basename(cfg.output)}."
                                f"{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, cfg.output)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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
# commands
# ---------------------------------------------------------------------------


def _cmd_phase_diagram(args) -> int:
    from . import steadystate

    rows = steadystate.grid_observables(
        args.L, args.bc, parse_grid(args.mu), parse_grid(args.delta),
        args.e_c, args.kappa)
    columns = ["mu", "delta", "density"]
    if steadystate.has_correlations(args.L, args.bc):
        columns += ["anomalous_nn_abs", "normal_2_abs"]
    cfg = RunConfig(
        command="phase-diagram",
        flags={"L": args.L, "bc": args.bc, "kappa": args.kappa,
               "e_c": args.e_c, "mu": args.mu, "delta": args.delta},
        columns=columns,
        output=args.output, fmt=args.format,
    )
    write_output(cfg, rows)
    return EXIT_OK


def _cmd_free_energy(args) -> int:
    from . import thermo

    prof = thermo.profile(args.mu, args.kappa, args.delta, args.mode,
                          args.grid_size)
    cfg = RunConfig(
        command="free-energy",
        flags={"mu": args.mu, "kappa": args.kappa, "delta": args.delta,
               "mode": args.mode, "grid_size": args.grid_size},
        columns=["rho", "q"],
        output=args.output, fmt=args.format,
    )
    cfg.summary["rho_min"] = prof.rho_min
    if prof.rho_low is not None:
        cfg.summary["rho_low"] = prof.rho_low
    if prof.rho_high is not None:
        cfg.summary["rho_high"] = prof.rho_high
    if prof.delta_q_min is not None:
        cfg.summary["delta_q_min"] = prof.delta_q_min
    cfg.summary["density"] = thermo.density_thermo(prof)
    write_output(cfg, zip(prof.rho, prof.q))
    return EXIT_OK


def _cmd_critical_line(args) -> int:
    from . import thermo

    mus = parse_grid(args.mu)
    rows = list(zip(mus, thermo.critical_delta(
        mus, kappa=args.kappa, mode=args.mode, tol=args.tol)))
    cfg = RunConfig(
        command="critical-line",
        flags={"mu": args.mu, "kappa": args.kappa, "mode": args.mode,
               "tol": args.tol},
        columns=["mu", "delta_crit"],
        output=args.output, fmt=args.format,
    )
    if len(rows) == 1:
        cfg.summary["delta_crit"] = rows[0][1]
    write_output(cfg, rows)
    return EXIT_OK


def _cmd_mean_field(args) -> int:
    from . import meanfield

    mus = parse_grid(args.mu)
    rows = []
    for mu in mus:
        r = meanfield.solve_roots(mu, args.delta, args.e_c, args.kappa)
        padded = list(r.roots) + [float("nan")] * (3 - r.count)
        rows.append((mu, r.count, *padded[:3]))
    cfg = RunConfig(
        command="mean-field",
        flags={"mu": args.mu, "delta": args.delta, "e_c": args.e_c,
               "kappa": args.kappa, "maxwell": args.maxwell},
        columns=["mu", "n_roots", "root_low", "root_mid", "root_high"],
        output=args.output, fmt=args.format,
    )
    if args.maxwell:
        cfg.summary["maxwell_mu"] = meanfield.maxwell_transition(
            args.delta, args.e_c, args.kappa)
    write_output(cfg, rows)
    return EXIT_OK


def _cmd_tfim(args) -> int:
    from . import pseudospin

    p = validate_params(ModelParams(L=args.L, bc="pbc", mu=args.mu,
                                    delta=args.delta, e_c=args.e_c,
                                    kappa=args.kappa))
    f, s = pseudospin.integrate_moments(
        [pseudospin.vacuum_state(args.L, kind)
         for kind in (pseudospin.FERMION, pseudospin.SPIN)], p,
        args.t_final, args.dt, n_samples=args.samples)
    diff = np.maximum(np.abs(f.s_minus - s.s_minus).max(axis=1),
                      np.abs(f.s_z - s.s_z).max(axis=1))
    rows = zip(f.times, diff, f.nbar, s.nbar)
    cfg = RunConfig(
        command="tfim",
        flags={"L": args.L, "mu": args.mu, "delta": args.delta,
               "e_c": args.e_c, "kappa": args.kappa,
               "t_final": args.t_final, "dt": args.dt,
               "samples": args.samples},
        columns=["time", "max_moment_diff", "nbar_fermion", "nbar_spin"],
        output=args.output, fmt=args.format,
    )
    write_output(cfg, rows)
    return EXIT_OK


def _cmd_htrs(args) -> int:
    from . import fock

    p = validate_params(ModelParams(L=args.L, bc="pbc", mu=args.mu,
                                    delta=args.delta, e_c=args.e_c,
                                    kappa=args.kappa))
    times = np.linspace(0.0, args.t_final, args.samples)
    gammas = parse_grid(args.gamma_p) if args.gamma_p else np.array([0.0])
    ops, H = fock._single_system(p)
    rows = []
    for g in gammas:
        pt = fock.htrs_point(ops, H, p.kappa, float(g), times)
        for t, a, b in zip(times, pt.forward.values, pt.reversed.values):
            rows.append((g, t, a.real, a.imag, b.real, b.imag, abs(a + b)))
    cfg = RunConfig(
        command="htrs",
        flags={"L": args.L, "mu": args.mu, "delta": args.delta,
               "e_c": args.e_c, "kappa": args.kappa,
               "gamma_p": args.gamma_p, "t_final": args.t_final,
               "samples": args.samples},
        columns=["gamma_p", "time", "re_forward", "im_forward",
                 "re_reversed", "im_reversed", "abs_sum"],
        output=args.output, fmt=args.format,
    )
    write_output(cfg, rows)
    return EXIT_OK


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
            warnings.simplefilter("ignore")
            psi = fock.build_cqa_state(p)
            rep = fock.verify_dark_conditions(psi, p)
            rho_cqa = fock.partial_trace_absorber(psi)
            ops, H = fock._single_system(p)
            liouv = fock.build_liouvillian(H, ops, p.kappa)
            rho_ss = fock.steady_state(liouv)
        checks.append((f"dark-conditions L={L} {bc}", rep.max_residual < 1e-10))
        checks.append((
            f"steady-state cross-oracle L={L} {bc}",
            fock.trace_distance(rho_cqa, rho_ss) < 1e-8,
        ))
    p6 = ModelParams(L=6, bc="pbc", mu=0.23, delta=0.31, e_c=1.0, kappa=0.07)
    tbl = steadystate.build_coefficients(p6)
    psi = fock.build_cqa_state(p6)
    dark = fock.build_doubled_system(p6).dark_ops()
    n_dark = (dark[0].dag() @ dark[0]).matrix
    for d in dark[1:]:
        n_dark = n_dark + (d.dag() @ d).matrix
    dens = float(np.vdot(psi, n_dark @ psi).real) / (2 * p6.L)
    # both closed-form routes: one table, and the phase-diagram grid
    grid = steadystate.grid_observables(p6.L, p6.bc, [p6.mu], [p6.delta],
                                        p6.e_c, p6.kappa)
    closed = (steadystate.mean_density(tbl), grid[0][2])
    checks.append(("closed-form density vs Fock L=6",
                   all(abs(dens - d) < 1e-9 for d in closed)))
    ok = all(flag for _, flag in checks)
    for name, flag in checks:
        print(("ok   " if flag else "FAIL ") + name)
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------


_NEGATIVE_VALUE = re.compile(r"^-\.?\d")


def _positive_finite_float(text: str) -> float:
    val = float(text)
    if not 0.0 < val < math.inf:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be > 0 and finite, got {text}")
    return val


def _non_negative_finite_float(text: str) -> float:
    val = float(text)
    if not 0.0 <= val < math.inf:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be >= 0 and finite, got {text}")
    return val


def _finite_float(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return val


def _sample_count(text: str) -> int:
    val = int(text)
    if val < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {text}")
    return val


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

    def common(p):
        # a value such as "-0.1,0.2" or "-1:1:5" is a negative grid, not a
        # flag; argparse by default only lets plain negative numbers through
        p._negative_number_matcher = _NEGATIVE_VALUE
        p.add_argument("--output", default=None,
                       help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    pd = sub.add_parser("phase-diagram",
                        help="density and correlation grids over (mu, delta); "
                             "density only unless the chain is an even ring")
    pd.add_argument("--L", type=int, default=400)
    pd.add_argument("--bc", choices=("pbc", "obc"), default="pbc")
    pd.add_argument("--kappa", type=float, default=0.01)
    pd.add_argument("--e-c", dest="e_c", type=float, default=1.0)
    pd.add_argument("--mu", required=True, help="grid over mu")
    pd.add_argument("--delta", required=True, help="grid over delta")
    common(pd)

    fe = sub.add_parser("free-energy", help="effective free energy profile")
    fe.add_argument("--mu", type=float, required=True)
    fe.add_argument("--delta", type=float, required=True)
    fe.add_argument("--kappa", type=_non_negative_finite_float, default=0.0)
    fe.add_argument("--mode", choices=("weak", "full"), default="weak")
    fe.add_argument("--grid-size", dest="grid_size", type=int, default=4096)
    common(fe)

    cl = sub.add_parser("critical-line", help="first-order boundary points")
    cl.add_argument("--mu", required=True, help="grid over mu in (0, 1/2)")
    cl.add_argument("--kappa", type=_non_negative_finite_float, default=0.0,
                    help=">= 0 and finite")
    cl.add_argument("--mode", choices=("weak", "full"), default=None,
                    help="default: weak for kappa<=1e-6, else full")
    cl.add_argument("--tol", type=_positive_finite_float, default=1e-6,
                    help="bisection bracket width, > 0 and finite")
    common(cl)

    mfp = sub.add_parser("mean-field", help="self-consistent density roots")
    mfp.add_argument("--mu", required=True, help="grid over mu")
    mfp.add_argument("--delta", type=_non_negative_finite_float,
                     required=True, help=">= 0 and finite")
    mfp.add_argument("--e-c", dest="e_c", type=_finite_float, default=1.0,
                     help="finite")
    mfp.add_argument("--kappa", type=_non_negative_finite_float,
                     default=0.01, help=">= 0 and finite")
    mfp.add_argument("--maxwell", action="store_true",
                     help="add the equal-area transition point to the summary")
    common(mfp)

    tf = sub.add_parser("tfim", help="fermion vs spin moment trajectories")
    tf.add_argument("--L", type=int, default=10)
    tf.add_argument("--mu", type=float, default=0.2)
    tf.add_argument("--delta", type=float, default=0.3)
    tf.add_argument("--e-c", dest="e_c", type=float, default=0.0)
    tf.add_argument("--kappa", type=float, default=0.01)
    tf.add_argument("--t-final", dest="t_final", type=float, default=500.0)
    tf.add_argument("--dt", type=float, default=0.008)
    tf.add_argument("--samples", type=int, default=251)
    common(tf)

    vf = sub.add_parser("verify", help="run the small-system oracle checks")
    vf.add_argument("--level", choices=("quick", "full"), default="quick")
    common(vf)

    ht = sub.add_parser("htrs", help="forward/reversed two-time correlators")
    ht.add_argument("--L", type=int, default=6)
    ht.add_argument("--mu", type=float, default=0.2)
    ht.add_argument("--delta", type=float, default=0.15)
    ht.add_argument("--e-c", dest="e_c", type=float, default=1.0)
    ht.add_argument("--kappa", type=float, default=0.01)
    ht.add_argument("--gamma-p", dest="gamma_p", default="0",
                    help="pump rates, e.g. 0,0.001")
    ht.add_argument("--t-final", dest="t_final", type=_positive_finite_float,
                    default=400.0, help="last time of the grid, > 0")
    ht.add_argument("--samples", type=_sample_count, default=201,
                    help="time points from 0 to --t-final, >= 2")
    common(ht)
    return ap


_COMMANDS = {
    "phase-diagram": _cmd_phase_diagram,
    "free-energy": _cmd_free_energy,
    "critical-line": _cmd_critical_line,
    "mean-field": _cmd_mean_field,
    "tfim": _cmd_tfim,
    "verify": _cmd_verify,
    "htrs": _cmd_htrs,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for bad flags already
        return int(exc.code or 0)
    if getattr(args, "command", None) == "critical-line" and args.mode is None:
        args.mode = "weak" if args.kappa <= 1e-6 else "full"
    try:
        return _COMMANDS[args.command](args)
    except (DegenerateKernelError, NoBistableWindowError,
            IterationLimitError) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CqaFermiError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
