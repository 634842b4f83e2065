"""Absorption spectra from dipole time series, and stick-spectrum utilities.

Continuous spectra are power spectra of the damped dipole signal with an
omega^2 prefactor; stick spectra carry positions and intensities verbatim
from whichever solver produced them.  All intensity comparisons across
frameworks are meant to be made on normalized intensities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cavity import Trajectory, write_csv
from .errors import AmbiguousPeaksError
from .units import au_to_cm1


# Per-stick columns a stick spectrum may carry in meta, each with its CSV
# column name.  They follow their sticks through merging and selection.
STICK_COLUMNS = {"labels_i": "label_i", "labels_f": "label_f",
                 "branch": "branch", "mechanism": "mechanism"}

# A merged stick takes the per-stick columns of its first entry whose
# intensity is within this many ulps of the strongest input stick below the
# group's largest.
_LABEL_ULPS = 4


@dataclass
class Spectrum:
    """Continuous (grid) or stick representation of intensity vs frequency."""

    kind: str                    # "continuous" | "sticks"
    omega: np.ndarray            # hartree
    intensity: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.omega = np.asarray(self.omega, float)
        self.intensity = np.asarray(self.intensity, float)
        if self.omega.shape != self.intensity.shape:
            raise ValueError("omega and intensity must have equal shapes")
        if self.kind == "continuous" and np.any(np.diff(self.omega) <= 0):
            raise ValueError("frequency grid must be strictly increasing")
        if np.any(self.intensity < 0):
            raise ValueError("intensities must be nonnegative")
        if self.kind == "sticks":
            for key in STICK_COLUMNS:
                if key in self.meta and len(self.meta[key]) != self.omega.size:
                    raise ValueError(f"meta[{key!r}] has {len(self.meta[key])} "
                                     f"entries for {self.omega.size} sticks")

    @property
    def omega_cm1(self) -> np.ndarray:
        return au_to_cm1(self.omega)

    def normalized(self) -> "Spectrum":
        peak = self.intensity.max() if self.intensity.size else 1.0
        scale = peak if peak > 0 else 1.0
        return Spectrum(self.kind, self.omega, self.intensity / scale, dict(self.meta))

    def select(self, mask) -> "Spectrum":
        """The points where mask holds, with every per-stick column."""
        keep = np.flatnonzero(mask)
        meta = dict(self.meta)
        for key in STICK_COLUMNS:
            if key in meta:
                meta[key] = [meta[key][i] for i in keep]
        return Spectrum(self.kind, self.omega[keep], self.intensity[keep], meta)

    def in_window(self, lo: float, hi: float) -> "Spectrum":
        return self.select((self.omega >= lo) & (self.omega <= hi))

    def to_csv(self, path, extra_columns: dict | None = None):
        """Write omega_au, omega_cm1, intensity (+ label/metadata columns)."""
        if self.kind != "sticks":
            write_csv(path, ["omega_au", "omega_cm1", "intensity"],
                      [self.omega, self.omega_cm1, self.intensity])
            return
        cols = {col: self.meta[key] for key, col in STICK_COLUMNS.items()
                if key in self.meta}
        cols.update(extra_columns or {})
        write_csv(path, ["omega_cm1", "omega_au", "intensity"] + list(cols),
                  [self.omega_cm1, self.omega, self.intensity], list(cols.values()))


def make_stick_spectrum(positions, intensities, meta=None, merge_tol: float = 1e-10,
                        min_intensity: float = 0.0, **per_stick) -> Spectrum:
    """Sort sticks, merge runs of neighbours closer than merge_tol, drop tiny ones.

    After a stable sort a new group starts wherever the gap to the previous
    stick exceeds merge_tol.  Each group becomes one stick carrying the total
    intensity at the centre sum(p * w) / sum(w), w = max(I, 1e-300), clamped
    into the group's first and last positions, which its rounding can leave
    by an ulp.  Groups lie more than merge_tol apart, so their centres do,
    and merging the result again changes nothing.
    per_stick keyword arrays (the keys of STICK_COLUMNS) keep the value of
    each group's first entry, in sorted order, whose intensity is within
    _LABEL_ULPS ulps of the strongest input stick below the group's maximum.
    Exactly degenerate partners (+-M, say) have intensities equal up to the
    rounding of their amplitudes, which is absolute, at the scale of the
    strongest stick; so the label does not follow their last bits.
    """
    pos = np.asarray(positions, float)
    inten = np.asarray(intensities, float)
    order = np.argsort(pos, kind="stable")
    pos, inten = pos[order], inten[order]
    opens = np.diff(pos, prepend=-np.inf) > merge_tol
    starts, group = np.flatnonzero(opens), np.cumsum(opens) - 1
    total = np.add.reduceat(inten, starts)
    weight = np.maximum(inten, 1e-300)
    center = np.add.reduceat(pos * weight, starts) / np.add.reduceat(weight, starts)
    np.clip(center, pos[starts], np.maximum.reduceat(pos, starts), out=center)
    tie = _LABEL_ULPS * np.spacing(np.max(np.abs(inten), initial=0.0))
    peak = np.flatnonzero(inten >= np.maximum.reduceat(inten, starts)[group] - tie)
    dom = peak[np.diff(group[peak], prepend=-1) > 0]     # first near-maximum per group
    keep = total > min_intensity
    meta = dict(meta or {})
    for key, col in per_stick.items():
        if col is not None:
            meta[key] = [col[i] for i in order[dom[keep]]]
    return Spectrum("sticks", center[keep], total[keep], meta)


@dataclass
class Peak:
    omega: float
    height: float
    branch: str | None = None


@dataclass
class PeakSet:
    """Detected peaks plus any splittings measured between pairs of them."""

    peaks: list[Peak]
    bin_width: float = 0.0
    splittings: list[tuple[tuple[int, int], float]] = field(default_factory=list)

    def positions(self) -> np.ndarray:
        return np.array([p.omega for p in self.peaks])

    def in_window(self, lo: float, hi: float) -> list[int]:
        return [i for i, p in enumerate(self.peaks) if lo <= p.omega <= hi]

    def to_json_dict(self) -> dict:
        return {
            "bin_width_au": self.bin_width,
            "peaks": [{"omega_au": p.omega, "omega_cm1": au_to_cm1(p.omega),
                       "height": p.height, "branch": p.branch} for p in self.peaks],
            "splittings": [{"pair": list(pair), "delta_omega_au": d}
                           for pair, d in self.splittings],
        }


def dipole_spectrum(traj: Trajectory, damping_tau: float | None = None,
                    pad_factor: int = 4) -> Spectrum:
    """omega^2-weighted power spectrum of the damped, baseline-subtracted <mu(t)>.

    The damping window exp(-t/tau) sets an artificial linewidth 1/tau chosen
    (default t_end/8) to stay well below every splitting of interest; the
    zero-padded grid spacing is reported as meta["bin_width"].
    """
    t = traj.times
    steps = np.diff(t)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("dipole_spectrum requires a uniform time grid")
    dt = float(steps[0])
    if damping_tau is None:
        damping_tau = float(t[-1]) / 8.0
    if damping_tau <= 0:
        raise ValueError("damping_tau must be positive")

    signal = traj.dipole.astype(float)
    t0 = traj.meta.get("pulse_t0")
    sigma = traj.meta.get("pulse_sigma")
    if t0 is not None and sigma is not None:
        pre = t <= (t0 - 4.0 * sigma)
        baseline = float(signal[pre].mean()) if np.any(pre) else float(signal[0])
    else:
        baseline = float(signal[0])
    signal = (signal - baseline) * np.exp(-(t - t[0]) / damping_tau)

    n_fft = 1 << int(np.ceil(np.log2(max(2, pad_factor * signal.size))))
    amp = np.fft.rfft(signal, n=n_fft) * dt
    omega = 2.0 * np.pi * np.fft.rfftfreq(n_fft, d=dt)
    intensity = omega**2 * np.abs(amp) ** 2
    meta = {
        "bin_width": float(omega[1] - omega[0]),
        "damping_tau": damping_tau,
        "pad_factor": pad_factor,
        "source": traj.meta,
    }
    return Spectrum("continuous", omega[1:], intensity[1:], meta)


def detect_peaks(spec: Spectrum, rel_threshold: float = 0.01) -> PeakSet:
    """Strict local maxima above rel_threshold * global max, refined by a
    3-point parabola.  Plateaus never qualify (strict inequalities)."""
    if spec.kind != "continuous":
        raise ValueError("detect_peaks expects a continuous spectrum")
    y = spec.intensity
    if y.size < 3 or y.max() <= 0:
        return PeakSet([], bin_width=spec.meta.get("bin_width", 0.0))
    floor = rel_threshold * y.max()
    core = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]) & (y[1:-1] >= floor)
    idx = np.nonzero(core)[0] + 1
    peaks = []
    dx = np.diff(spec.omega).mean()
    for i in idx:
        ym1, y0, yp1 = y[i - 1], y[i], y[i + 1]
        denom = ym1 - 2.0 * y0 + yp1
        shift = 0.5 * (ym1 - yp1) / denom if denom != 0 else 0.0
        height = y0 - 0.25 * (ym1 - yp1) * shift
        peaks.append(Peak(float(spec.omega[i] + shift * dx), float(height)))
    peaks.sort(key=lambda p: p.omega)
    return PeakSet(peaks, bin_width=spec.meta.get("bin_width", dx))


def peaks_from_sticks(spec: Spectrum) -> PeakSet:
    """Treat every stick as an already-resolved peak."""
    if spec.kind != "sticks":
        raise ValueError("peaks_from_sticks expects a stick spectrum")
    return PeakSet([Peak(float(w), float(h)) for w, h in zip(spec.omega, spec.intensity)])


def measure_splitting(peaks: PeakSet, window: tuple[float, float]) -> float:
    """|omega_a - omega_b| for the exactly-two peaks inside the window."""
    lo, hi = window
    hits = peaks.in_window(lo, hi)
    if len(hits) != 2:
        raise AmbiguousPeaksError(
            f"expected exactly 2 peaks in [{lo:.6g}, {hi:.6g}], found {len(hits)}: "
            + ", ".join(f"{peaks.peaks[i].omega:.6g}" for i in hits),
            candidates=[peaks.peaks[i].omega for i in hits],
        )
    a, b = (peaks.peaks[i].omega for i in hits)
    delta = abs(a - b)
    peaks.splittings.append(((hits[0], hits[1]), delta))
    return delta


def thermal_average_spectra(runs: list[tuple[Spectrum, float]]) -> Spectrum:
    """Weighted sum of spectra sharing a grid (or of stick spectra)."""
    if not runs:
        raise ValueError("no spectra to average")
    kinds = {s.kind for s, _ in runs}
    if len(kinds) > 1:
        raise ValueError("cannot mix stick and continuous spectra")
    if kinds == {"continuous"}:
        ref = runs[0][0]
        total = np.zeros_like(ref.intensity)
        for s, w in runs:
            if s.omega.shape != ref.omega.shape or not np.allclose(
                    s.omega, ref.omega, rtol=0.0, atol=1e-15):
                raise ValueError("spectra grids do not match")
            total += w * s.intensity
        return Spectrum("continuous", ref.omega, total, dict(ref.meta))
    pos = np.concatenate([s.omega for s, _ in runs])
    inten = np.concatenate([w * s.intensity for s, w in runs])
    cols = {key: [v for s, _ in runs for v in s.meta.get(key, [""] * s.omega.size)]
            for key in STICK_COLUMNS if any(key in s.meta for s, _ in runs)}
    return make_stick_spectrum(pos, inten, **cols)


# unit-area line profiles at offset x from the centre (lorentzian: HWHM, gaussian: sigma)
_LINESHAPES = {
    "lorentzian": lambda x, width: (width / np.pi) / (x**2 + width**2),
    "gaussian": lambda x, width: np.exp(-0.5 * (x / width) ** 2) / (width * np.sqrt(2.0 * np.pi)),
}
# entries of one row block of the (grid x sticks) profile matrix, 256 KiB:
# blocks of 2 MiB measured several times slower, their temporaries out of cache
_BROADEN_BLOCK = 1 << 15


def broaden_sticks(sticks: Spectrum, lineshape: str = "lorentzian",
                   width: float = 1e-5) -> Spectrum:
    """Unit-area lineshapes (lorentzian: HWHM, gaussian: sigma) at each stick.

    The grid spans all sticks +- 10 widths; note a lorentzian carries ~6% of
    its area beyond that support, a gaussian essentially none.  The spectrum
    is the (grid x sticks) profile matrix times the intensities, formed one
    block of grid rows at a time.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if sticks.kind != "sticks":
        raise ValueError("broaden_sticks expects a stick spectrum")
    if lineshape not in _LINESHAPES:
        raise ValueError(f"unknown lineshape {lineshape!r}")
    if sticks.omega.size == 0:
        return Spectrum("continuous", np.array([0.0, width]), np.zeros(2), {})
    lo = sticks.omega.min() - 10.0 * width
    hi = sticks.omega.max() + 10.0 * width
    n = max(2001, int(np.ceil((hi - lo) / (width / 16.0))) + 1)
    grid = np.linspace(lo, hi, n)
    total = np.empty_like(grid)
    rows = max(1, _BROADEN_BLOCK // sticks.omega.size)
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        total[block] = (_LINESHAPES[lineshape](grid[block, None] - sticks.omega, width)
                        @ sticks.intensity)
    meta = {"bin_width": float(grid[1] - grid[0]), "lineshape": lineshape,
            "width": width, "source": dict(sticks.meta)}
    return Spectrum("continuous", grid, total, meta)


def fit_through_origin(x, y) -> tuple[float, float]:
    """Least-squares slope of y = s*x and the fit's R^2."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    slope = float((x * y).sum() / (x * x).sum())
    resid = y - slope * x
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return slope, r2
