"""Cavity-mode parameters, the kick pulse, the trajectory container, and
the CSV writer the artifacts share."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError


@dataclass(frozen=True)
class CavityParams:
    """Single cavity mode: frequency omega_c, coupling g, optional dipole
    self-energy term, and the Fock truncation used by the quantized model."""

    omega_c: float
    g: float
    include_dse: bool = True
    n_fock_max: int = 2

    def __post_init__(self):
        if not 0 < self.omega_c < math.inf:
            raise ModelError("omega_c must be positive and finite")
        if not 0 <= self.g < math.inf:
            raise ModelError("coupling g must be nonnegative and finite")
        if self.n_fock_max < 1:
            raise ModelError("n_fock_max must be at least 1")

    @property
    def dse_prefactor(self) -> float:
        return self.g**2 / self.omega_c if self.include_dse else 0.0


@dataclass(frozen=True)
class KickPulse:
    """Gaussian field impulse f(t) = amplitude * exp(-(t-t0)^2 / 2 sigma^2).

    Weak and temporally sharp, so it is spectrally flat across the transitions
    of interest; max_excitation bounds the post-kick excited population the
    propagators will accept (linear-response guard), and inf turns that guard
    off.  amplitude = 0 disables the kick entirely.
    """

    amplitude: float = 1e-4
    t0: float = 25.0
    sigma: float = 5.0
    max_excitation: float = 1e-2

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and math.isfinite(self.t0)):
            raise ModelError("pulse amplitude and t0 must be finite")
        if not 0 < self.sigma < math.inf:
            raise ModelError("pulse width sigma must be positive and finite")
        if not self.max_excitation > 0:
            raise ModelError("pulse max_excitation must be positive")

    def __call__(self, t: float) -> float:
        if self.amplitude == 0.0:
            return 0.0
        x = (t - self.t0) / self.sigma
        return self.amplitude * math.exp(-0.5 * x * x)

    def samples(self, times: np.ndarray) -> np.ndarray:
        """self(t) at every time of an array, bit for bit.  Only times within
        40 sigma of t0 call math.exp: beyond, exp(-x^2/2) < exp(-800)
        underflows to 0.0 and f(t) is amplitude * 0.0."""
        if self.amplitude == 0.0:
            return np.zeros(times.shape)
        out = np.full(times.shape, self.amplitude * 0.0)
        near = np.abs(times - self.t0) < 40.0 * self.sigma
        out[near] = [self(t) for t in times[near].tolist()]
        return out

    @property
    def support_end(self) -> float:
        """Time after which |f(t)| < 1e-15."""
        if self.amplitude == 0.0 or abs(self.amplitude) <= 1e-15:
            return 0.0
        return self.t0 + self.sigma * math.sqrt(2.0 * math.log(abs(self.amplitude) / 1e-15))

    @classmethod
    def off(cls) -> "KickPulse":
        return cls(amplitude=0.0)


@dataclass
class Trajectory:
    """Time series produced by either propagator on a uniform grid.

    populations holds one column per basis state (molecular states for the
    classical model, product states for the quantum one); the field columns
    are (q, p) classically and (<q>, <q^2>) quantum mechanically.
    """

    kind: str                       # "classical" | "quantum"
    times: np.ndarray
    dipole: np.ndarray
    populations: np.ndarray
    energy: np.ndarray
    pop_labels: list[str]
    q_series: np.ndarray | None = None
    p_series: np.ndarray | None = None
    q_expect: np.ndarray | None = None
    q2_expect: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.times.size
        series = [self.dipole, self.energy, self.q_series, self.p_series,
                  self.q_expect, self.q2_expect]
        for s in series:
            if s is not None and s.shape[0] != n:
                raise ModelError("all trajectory series must share the time grid")
        if self.populations.shape != (n, len(self.pop_labels)):
            raise ModelError("populations shape must be (n_times, n_states)")
        if np.iscomplexobj(self.dipole):
            raise ModelError("dipole series must be real")

    @property
    def dt_sample(self) -> float:
        return float(self.times[1] - self.times[0])

    def post_pulse_mask(self) -> np.ndarray:
        return self.times >= self.meta.get("pulse_support_end", 0.0)

    def to_csv(self, path):
        cols = ["t", "mu"]
        data = [self.times, self.dipole]
        if self.kind == "classical":
            cols += ["q", "p"]
            data += [self.q_series, self.p_series]
        else:
            cols += ["q_expect", "q2_expect"]
            data += [self.q_expect, self.q2_expect]
        cols += [f"p_{lab}" for lab in self.pop_labels]
        data.append(self.populations)
        write_csv(path, cols, data)


CSV_BLOCK_ROWS = 64


def write_csv(path, header, numbers, labels=()):
    """Header line, then one row per record: the numeric columns as %.17g
    (the text of f"{x:.17g}", -0.0 included) followed by the label columns
    as %s.  numbers holds columns and (rows, k) blocks of k columns.  Each
    block of CSV_BLOCK_ROWS rows is one % operation over the values'
    .tolist(): 64-row blocks write a 7501 x 13 trajectory as fast as one
    block per file does, without the 9 MB of text and Python floats that
    one block holds at once.  A float column that is +0.0 in every row is
    the literal 0 of the row template, the text %.17g gives it, and is never
    formatted; one reduction per block finds them."""
    row, formatted = [], []
    for cols in map(np.asarray, numbers):
        cols = cols if cols.ndim == 2 else cols[:, None]
        zero = np.zeros(cols.shape[1], bool)
        if cols.dtype.kind == "f":
            zero = ~cols.any(axis=0) & ~np.signbit(cols).any(axis=0)
        row += ["0" if z else "%.17g" for z in zero]
        formatted += [cols[:, k] for k in np.flatnonzero(~zero)]
    row = ",".join(row + ["%s"] * len(labels)) + "\n"
    n_rows = len(numbers[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            rows = slice(start, start + CSV_BLOCK_ROWS)
            block = ([c[rows].tolist() for c in formatted]
                     + [list(c[rows]) for c in labels])
            n_block = min(CSV_BLOCK_ROWS, n_rows - start)
            fh.write(row * n_block % tuple(itertools.chain.from_iterable(zip(*block))))
