"""Spans around twinpol's public functions, installed from outside the package.

Tracer.install() replaces each traced function by a wrapper, in its defining
module and in every twinpol module that imported it by name, so calls made
inside the package are seen too.  No file of the package is edited.  Each
call records a span (name, start, end, parent, round, counts) in memory;
uninstall() restores the originals.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

# (module, attribute, span name).  main() parses through RunConfig.from_file,
# the call cli.parse_config wraps, so that span carries the parse-step name.
TARGETS = [
    ("twinpol.model", "build_morse_rovib", "model.build_morse_rovib"),
    ("twinpol.quantum", "assemble_hamiltonian", "quantum.assemble_hamiltonian"),
    ("twinpol.quantum", "diagonalize_polaritons", "quantum.diagonalize_polaritons"),
    ("twinpol.quantum", "static_stick_spectrum", "quantum.static_stick_spectrum"),
    ("twinpol.quantum", "propagate_quantum", "quantum.propagate_quantum"),
    ("twinpol.classical", "propagate_classical", "classical.propagate_classical"),
    ("twinpol.integrators", "integrate", "integrators.integrate"),
    ("twinpol.spectra", "dipole_spectrum", "spectra.dipole_spectrum"),
    ("twinpol.spectra", "detect_peaks", "spectra.detect_peaks"),
    ("twinpol.spectra", "make_stick_spectrum", "spectra.make_stick_spectrum"),
    ("twinpol.spectra", "Spectrum.to_csv", "spectra.Spectrum.to_csv"),
    ("twinpol.cavity", "Trajectory.to_csv", "cavity.Trajectory.to_csv"),
    ("twinpol.manymol", "build_many_molecule_hamiltonian",
     "manymol.build_many_molecule_hamiltonian"),
    ("twinpol.manymol", "spectrum_from_state", "manymol.spectrum_from_state"),
    ("twinpol.manymol", "brute_force_spectrum", "manymol.brute_force_spectrum"),
    ("twinpol.cli", "RunConfig.from_file", "cli.parse_config"),
    ("twinpol.cli", "run", "cli.run"),
    ("twinpol.cli", "main", "cli.main"),
]


def _steps(args, kwargs):
    t_end = kwargs.get("t_end", args[4] if len(args) > 4 else None)
    dt = kwargs.get("dt", args[5] if len(args) > 5 else None)
    return int(round(t_end / dt))


def _file_bytes(args, kwargs):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return os.path.getsize(path)


# span name -> function(args, kwargs, result) giving the span's counts
COUNTS = {
    "quantum.propagate_quantum": lambda a, k, r: {"steps": _steps(a, k)},
    "classical.propagate_classical": lambda a, k, r: {"steps": _steps(a, k)},
    "spectra.dipole_spectrum": lambda a, k, r: {"fft_points": 2 * r.omega.size},
    "spectra.Spectrum.to_csv": lambda a, k, r: {"rows": a[0].omega.size,
                                                "bytes": _file_bytes(a, k)},
    "cavity.Trajectory.to_csv": lambda a, k, r: {"rows": a[0].times.size,
                                                 "bytes": _file_bytes(a, k)},
    "quantum.diagonalize_polaritons": lambda a, k, r: {"dim": r.eigenvalues.size},
    "spectra.make_stick_spectrum": lambda a, k, r: {"sticks_in": len(a[0])},
    "manymol.build_many_molecule_hamiltonian": lambda a, k, r: {"dim": r[0].shape[0]},
}


class Tracer:
    """Owns the spans of one process; install() and uninstall() toggle it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.round = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rhs_evals = None
            if name == "integrators.integrate":     # integrate(rhs, y0, ...)
                rhs_evals, rhs = [0], args[0]

                def counted(t, y):
                    rhs_evals[0] += 1
                    return rhs(t, y)

                args = (counted, *args[1:])
            span = {"name": name, "round": tracer.round,
                    "parent": tracer._stack[-1] if tracer._stack else None}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if rhs_evals is not None:
                span["rhs_evals"] = rhs_evals[0]
            if name in COUNTS:
                span.update(COUNTS[name](args, kwargs, result))
            return result

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "twinpol" or name.startswith("twinpol.")]
        for mod_name, attr, span_name in TARGETS:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, span_name))
                else:
                    new = self._wrap(raw, span_name)
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(mod, attr)
            new = self._wrap(orig, span_name)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, new)

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its direct child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


# (metric, unit, span, aggregate): aggregate is "s" (total seconds), "self_s",
# "calls", "us_per_step", or ("sum" | "max", span count key).
LAYER_METRICS = [
    ("integrators.rhs_evals", "count", "integrators.integrate", ("sum", "rhs_evals")),
    ("integrators.integrate.s", "s", "integrators.integrate", "s"),
    ("quantum.propagate_quantum.s", "s", "quantum.propagate_quantum", "s"),
    ("quantum.propagate_quantum.us_per_step", "us", "quantum.propagate_quantum",
     "us_per_step"),
    ("classical.propagate_classical.s", "s", "classical.propagate_classical", "s"),
    ("classical.propagate_classical.us_per_step", "us", "classical.propagate_classical",
     "us_per_step"),
    ("spectra.dipole_spectrum.s", "s", "spectra.dipole_spectrum", "s"),
    ("spectra.dipole_spectrum.fft_points", "count", "spectra.dipole_spectrum",
     ("sum", "fft_points")),
    ("spectra.detect_peaks.s", "s", "spectra.detect_peaks", "s"),
    ("spectra.Spectrum.to_csv.s", "s", "spectra.Spectrum.to_csv", "s"),
    ("spectra.Spectrum.to_csv.rows", "count", "spectra.Spectrum.to_csv", ("sum", "rows")),
    ("spectra.Spectrum.to_csv.bytes", "B", "spectra.Spectrum.to_csv", ("sum", "bytes")),
    ("cavity.Trajectory.to_csv.s", "s", "cavity.Trajectory.to_csv", "s"),
    ("cavity.Trajectory.to_csv.rows", "count", "cavity.Trajectory.to_csv", ("sum", "rows")),
    ("cavity.Trajectory.to_csv.bytes", "B", "cavity.Trajectory.to_csv", ("sum", "bytes")),
    ("model.build_morse_rovib.s", "s", "model.build_morse_rovib", "s"),
    ("model.build_morse_rovib.calls", "count", "model.build_morse_rovib", "calls"),
    ("quantum.assemble_hamiltonian.s", "s", "quantum.assemble_hamiltonian", "s"),
    ("quantum.diagonalize_polaritons.s", "s", "quantum.diagonalize_polaritons", "s"),
    ("quantum.diagonalize_polaritons.calls", "count", "quantum.diagonalize_polaritons",
     "calls"),
    ("quantum.diagonalize_polaritons.max_dim", "count", "quantum.diagonalize_polaritons",
     ("max", "dim")),
    ("quantum.static_stick_spectrum.s", "s", "quantum.static_stick_spectrum", "s"),
    ("spectra.make_stick_spectrum.s", "s", "spectra.make_stick_spectrum", "s"),
    ("spectra.make_stick_spectrum.sticks_in", "count", "spectra.make_stick_spectrum",
     ("sum", "sticks_in")),
    ("manymol.build_many_molecule_hamiltonian.s", "s",
     "manymol.build_many_molecule_hamiltonian", "s"),
    ("manymol.build_many_molecule_hamiltonian.dim", "count",
     "manymol.build_many_molecule_hamiltonian", ("max", "dim")),
    ("manymol.spectrum_from_state.s", "s", "manymol.spectrum_from_state", "s"),
    ("manymol.spectrum_from_state.calls", "count", "manymol.spectrum_from_state", "calls"),
    ("manymol.brute_force_spectrum.self_s", "s", "manymol.brute_force_spectrum", "self_s"),
    ("cli.parse_config.s", "s", "cli.parse_config", "s"),
    ("cli.run.self_s", "s", "cli.run", "self_s"),
]


def layer_metrics(spans, selfs) -> dict:
    """Each layer metric per traced round, then the median over those rounds."""
    per_round: dict[int, list] = {}
    for span, own in zip(spans, selfs):
        per_round.setdefault(span["round"], []).append((span, own))
    values = {name: [] for name, *_ in LAYER_METRICS}
    for entries in per_round.values():
        for name, _, span_name, how in LAYER_METRICS:
            hits = [(s, own) for s, own in entries if s["name"] == span_name]
            total = sum(s["end"] - s["start"] for s, _ in hits)
            if how == "s":
                v = total
            elif how == "self_s":
                v = sum(own for _, own in hits)
            elif how == "calls":
                v = len(hits)
            elif how == "us_per_step":
                steps = sum(s["steps"] for s, _ in hits)
                v = 1e6 * total / steps if steps else 0.0
            else:
                agg, key = how
                counts = [s[key] for s, _ in hits]
                v = sum(counts) if agg == "sum" else max(counts, default=0)
            values[name].append(v)
    return {name: statistics.median(v) for name, v in values.items()}
