"""Outside-in tracing: wrap the package's public functions, record spans.

The tracer replaces module attributes with wrappers.  The package calls its
own functions through module attributes (``steadystate.build_coefficients``,
``kernels.logsumexp_real``, the ``gammaln`` global of a module), so the
wrappers see internal calls as well as the CLI's.  Each call records a span
(name, start, end, parent span, op id) in memory; counts are taken at the
same boundary.  Self time is a span's duration minus the time its child
spans cover, and the wrappers' own bookkeeping is charged to neither.
``uninstall`` puts every original object back.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np

SUPPORT_NATS = 60.0  # terms within this many nats of the max carry the sum

# (module, attribute, span name) for every wrapped function
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "write_output", "cli.write_output"),
    ("steadystate", "build_coefficients", "steadystate.build_coefficients"),
    ("steadystate", "mean_density", "steadystate.mean_density"),
    ("steadystate", "anomalous_correlation",
     "steadystate.anomalous_correlation"),
    ("steadystate", "normal_correlation", "steadystate.normal_correlation"),
    ("steadystate", "gammaln", "scipy.gammaln"),
    ("combinatorics", "log_counts", "combinatorics.log_counts"),
    ("combinatorics", "gammaln", "scipy.gammaln"),
    ("kernels", "coefficient_logs", "kernels.coefficient_logs"),
    ("kernels", "logsumexp_real", "kernels.logsumexp_real"),
    ("kernels", "logsumexp_complex", "kernels.logsumexp_complex"),
    ("kernels", "rk4_moments", "kernels.rk4_moments"),
    ("thermo", "critical_delta", "thermo.critical_delta"),
    ("thermo", "profile", "thermo.profile"),
    ("thermo", "free_energy", "thermo.free_energy"),
    ("meanfield", "solve_roots", "meanfield.solve_roots"),
    ("meanfield", "maxwell_transition", "meanfield.maxwell_transition"),
    ("pseudospin", "integrate_moments", "pseudospin.integrate_moments"),
    ("fock", "build_operators", "fock.build_operators"),
    ("fock", "build_hamiltonian", "fock.build_hamiltonian"),
    ("fock", "build_liouvillian", "fock.build_liouvillian"),
    ("fock", "steady_state", "fock.steady_state"),
    ("fock", "two_time_correlation", "fock.two_time_correlation"),
    ("fock", "build_doubled_system", "fock.build_doubled_system"),
    ("fock", "build_cqa_state", "fock.build_cqa_state"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))

# metrics that are not per-pass sums: (numerator, denominator, scale)
RATIOS = {
    "combinatorics.log_counts.repeat_frac": (
        "combinatorics.log_counts.repeats", "combinatorics.log_counts.calls",
        1.0),
    "kernels.logsumexp_real.support_frac": (
        "kernels.logsumexp_real.kept", "kernels.logsumexp_real.terms", 1.0),
    "kernels.logsumexp_complex.support_frac": (
        "kernels.logsumexp_complex.kept", "kernels.logsumexp_complex.terms",
        1.0),
    "kernels.rk4_moments.ns_per_pair_step": (
        "kernels.rk4_moments.self_s", "kernels.rk4_moments.pair_steps", 1e9),
    "thermo.profiles_per_critical": (
        "thermo.profile.in_critical", "thermo.critical_delta.calls", 1.0),
}
PEAKS = {"fock.build_liouvillian.dim"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _support(values) -> tuple[int, int]:
    """(terms, terms within SUPPORT_NATS of the maximum)."""
    v = np.asarray(values)
    if v.size == 0:
        return 0, 0
    top = v.max()
    if top == -np.inf:
        return v.size, 0
    return v.size, int(np.count_nonzero(v >= top - SUPPORT_NATS))


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.modules = {mod: importlib.import_module(f"cqa_fermi.{mod}")
                        for mod, _, _ in TARGETS}
        self.originals: dict = {}
        self.spans: list = []           # [name, start, end, parent, op]
        self.totals = defaultdict(float)
        self.seen_counts: set = set()   # log_counts keys seen this pass
        self.op = ""
        self._stack: list = []          # [span index, name, covered time]
        self._hooks = {
            "scipy.gammaln": self._count_gammaln,
            "combinatorics.log_counts": self._count_log_counts,
            "kernels.coefficient_logs": self._count_coefficients,
            "kernels.logsumexp_real": self._count_lse_real,
            "kernels.logsumexp_complex": self._count_lse_complex,
            "kernels.rk4_moments": self._count_rk4,
            "thermo.profile": self._count_profile,
            "fock.build_liouvillian": self._count_liouvillian,
            "fock.two_time_correlation": self._count_correlation,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for mod, attr, name in TARGETS:
            module = self.modules[mod]
            fn = getattr(module, attr)
            self.originals[(mod, attr)] = fn
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for (mod, attr), fn in self.originals.items():
            setattr(self.modules[mod], attr, fn)

    def restored(self) -> bool:
        return all(getattr(self.modules[mod], attr) is fn
                   for (mod, attr), fn in self.originals.items())

    def start_pass(self) -> None:
        self.seen_counts.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            enter = clock()
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [len(self.spans), name, 0.0]
            self.spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                t1 = clock()
                stack.pop()
                self.totals[name + ".errors"] += 1
                self._close(frame, parent, name, t0, t1, enter)
                raise
            t1 = clock()
            stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            self._close(frame, parent, name, t0, t1, enter)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, parent, name, t0, t1, enter):
        totals = self.totals
        totals[name + ".calls"] += 1
        totals[name + ".self_s"] += (t1 - t0) - frame[2]
        self.spans[frame[0]] = [name, t0, t1,
                                parent[0] if parent else -1, self.op]
        if parent is not None:
            # the parent's child interval includes this wrapper's overhead
            parent[2] += time.perf_counter() - enter

    # -- counts -------------------------------------------------------------

    def _count_gammaln(self, args, kwargs, result):
        self.totals["scipy.gammaln.elements"] += np.size(result)

    def _count_log_counts(self, args, kwargs, result):
        key = (_arg(args, kwargs, 0, "L"), _arg(args, kwargs, 1, "bc"),
               _arg(args, kwargs, 2, "n_max"))
        if key in self.seen_counts:
            self.totals["combinatorics.log_counts.repeats"] += 1
        self.seen_counts.add(key)

    def _count_coefficients(self, args, kwargs, result):
        self.totals["kernels.coefficient_logs.elements"] += \
            _arg(args, kwargs, 5, "n_max") + 1

    def _count_lse(self, name, values, bytes_per_term):
        terms, kept = _support(values)
        self.totals[name + ".terms"] += terms
        self.totals[name + ".kept"] += kept
        self.totals[name + ".bytes"] += terms * bytes_per_term

    def _count_lse_real(self, args, kwargs, result):
        self._count_lse("kernels.logsumexp_real",
                        _arg(args, kwargs, 0, "log_vals"), 8)

    def _count_lse_complex(self, args, kwargs, result):
        # reads log-magnitude and phase, 8 bytes each
        self._count_lse("kernels.logsumexp_complex",
                        _arg(args, kwargs, 0, "log_mag"), 16)

    def _count_rk4(self, args, kwargs, result):
        pairs = np.shape(_arg(args, kwargs, 0, "s_minus"))[0]
        self.totals["kernels.rk4_moments.pair_steps"] += \
            pairs * _arg(args, kwargs, 9, "n_steps")

    def _count_profile(self, args, kwargs, result):
        if any(f[1] == "thermo.critical_delta" for f in self._stack):
            self.totals["thermo.profile.in_critical"] += 1

    def _count_liouvillian(self, args, kwargs, result):
        t = self.totals
        t["fock.build_liouvillian.dim"] = max(t["fock.build_liouvillian.dim"],
                                              result.dim)
        t["fock.build_liouvillian.nnz"] += result.matrix.nnz

    def _count_correlation(self, args, kwargs, result):
        self.totals["fock.two_time_correlation.time_points"] += \
            np.size(_arg(args, kwargs, 4, "times"))

    # -- results ------------------------------------------------------------

    def metrics(self, names, passes: int) -> dict:
        """Per-pass values of the named layer metrics.

        Every span has ``.calls``, ``.self_s`` and ``.errors``; the other
        names are the counts the hooks below record, and the RATIOS.
        """
        t = self.totals
        out = {}
        for name in names:
            if name in RATIOS:
                num, den, scale = RATIOS[name]
                out[name] = scale * t[num] / t[den] if t[den] else 0.0
            elif name in PEAKS:
                out[name] = t[name]
            else:
                out[name] = t[name] / passes
        return out

    def write_spans(self, path: str) -> None:
        """Write the spans as compact JSON: names table, times in ns."""
        names = {n: i for i, n in enumerate(SPAN_NAMES)}
        base = min((s[1] for s in self.spans if s), default=0.0)
        rows = [[names[s[0]], round((s[1] - base) * 1e9),
                 round((s[2] - base) * 1e9), s[3], s[4]]
                for s in self.spans if s]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "op"],
                       "names": list(SPAN_NAMES), "spans": rows}, fh,
                      separators=(",", ":"))
