"""Fixed-step classic Runge-Kutta core and the recording loop shared by both
propagators.

integrate() owns the interaction-picture time grid.  Step s of a run from t0
evaluates rhs at the stage times t, t + 0.5 dt, t + 0.5 dt and t + dt, with
t = t0 + (s - 1) dt.  The end of one step and the start of the next are
formed separately, as written: at dt = 0.3 they differ in the last bit on
27,281 of 99,999 steps.

Given the phase frequencies eps and the pulse f, integrate tables, per chunk
of steps and at every stage time,

    a = -i e^{i eps t},    b = e^{-i eps t},    f(t)

and rhs(entry, y) gets the triple (a, b, f) as its entry: no rhs evaluates
an exponential or the pulse.  A chunk holds as many steps as fit their stage
times and all three tables in TAIL_CHUNK_BYTES, the budget the records of a
constant state use too.  The state y is an array, or a tuple of an array and
scalars; each RK4 combination acts on every component alike.

propagate() records a Trajectory: observe turns each record's
Schroedinger-picture state e^{-i eps t} c into populations and series, and a
state that is constant after the pulse (method "exact") takes RK4 steps only
through the kick.  Accuracy of the RK4 part is certified by dt/2 re-run
agreement rather than adaptivity; check_step, which each propagator runs
first, refuses a dt that does not resolve the fastest interaction-picture
phase.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .cavity import CavityParams, KickPulse, Trajectory
from .errors import IntegrationError, ModelError

NORM_TOL = 1e-6
# bytes per chunk: of a constant state's records and their image, of RK4 stage-time tables
TAIL_CHUNK_BYTES = 1 << 19


def _weight(y, x: float):
    """x in the form each state component is multiplied by: a 0-d array of an
    array component's dtype, the conversion numpy makes of a Python float on
    every product, made once; x itself for a scalar component."""
    if type(y) is tuple:
        return [_weight(c, x) for c in y]
    return np.array(x, dtype=y.dtype) if isinstance(y, np.ndarray) else x


def _axpy(y, h, k):
    """y + h k, componentwise for a tuple state."""
    if type(y) is tuple:
        return tuple([a + w * b for a, w, b in zip(y, h, k)])
    return y + h * k


def _rk4_update(y, w, two, k1, k2, k3, k4):
    """y + w (k1 + two k2 + two k3 + k4), componentwise for a tuple state."""
    if type(y) is tuple:
        return tuple([a + wa * (b1 + ta * b2 + ta * b3 + b4)
                      for a, wa, ta, b1, b2, b3, b4 in zip(y, w, two, k1, k2, k3, k4)])
    return y + w * (k1 + two * k2 + two * k3 + k4)


def _stage_entries(t0: float, dt: float, lo: int, hi: int,
                   phase_freqs: np.ndarray, pulse: KickPulse):
    """Iterator over the rhs entries of steps lo + 1 .. hi: start, middle and
    end of each step in turn, read from tables that cover the whole range."""
    t = t0 + np.arange(lo, hi) * dt
    times = np.stack([t, t + 0.5 * dt, t + dt], axis=1)
    f = pulse.samples(times)
    phase = np.exp(1j * phase_freqs * times.reshape(-1, 1))
    a = -1j * phase
    b = np.conj(phase, out=phase)
    return zip(a, b, f.ravel().tolist())


def integrate(rhs: Callable, y0, t0: float, dt: float, n_steps: int,
              observer: Callable | None = None, observe_every: int = 1, *,
              phase_freqs: np.ndarray, pulse: KickPulse):
    """Advance y through n_steps of RK4, reporting state every observe_every steps.

    rhs is called as rhs(entry, y), the entry being the stage's (a, b, f)
    triple for phase_freqs and pulse (module docstring).  The observer is
    called as observer(t, y) at t0 and after every observe_every-th step, at
    t = t0 + step dt; dt may be negative for backward propagation.
    """
    y = y0 if type(y0) is tuple else np.array(y0, copy=True)
    if observer is not None:
        observer(t0, y)
    chunk = max(1, TAIL_CHUNK_BYTES // (3 * (16 + 32 * len(phase_freqs))))
    half, full, sixth, two = (_weight(y, x) for x in (0.5 * dt, dt, dt / 6.0, 2.0))
    for lo in range(0, n_steps, chunk):
        hi = min(lo + chunk, n_steps)
        entries = _stage_entries(t0, dt, lo, hi, phase_freqs, pulse)
        for step, e0, e_mid, e1 in zip(range(lo + 1, hi + 1), entries, entries, entries):
            k1 = rhs(e0, y)
            k2 = rhs(e_mid, _axpy(y, half, k1))
            k3 = rhs(e_mid, _axpy(y, half, k2))
            k4 = rhs(e1, _axpy(y, full, k3))
            y = _rk4_update(y, sixth, two, k1, k2, k3, k4)
            if observer is not None and step % observe_every == 0:
                observer(t0 + step * dt, y)
    return y


def check_step(dt: float, phase_freqs: np.ndarray, omega_c: float):
    """Raise ModelError unless dt resolves the fastest interaction-picture phase."""
    de_max = float(phase_freqs.max() - phase_freqs.min())
    if dt * (de_max + omega_c) >= 0.1:
        raise ModelError(
            f"dt={dt} too coarse for the fastest phase; need "
            f"dt < {0.1 / (de_max + omega_c):.3g}"
        )


def record_grid(t_end: float, dt: float, record_stride: int) -> tuple[int, np.ndarray]:
    """(n_steps, times) of a run from t = 0 to t_end with one record every
    record_stride dt steps; ModelError for fewer than two records."""
    if not (0 < dt < math.inf and 0 < t_end < math.inf and record_stride >= 1):
        raise ModelError("t_end, dt and record_stride must be positive and finite")
    n_steps = int(round(t_end / dt))
    if n_steps < record_stride:
        raise ModelError("t_end is shorter than one record_stride of dt steps")
    n_rec = n_steps // record_stride + 1
    return n_steps, np.arange(n_rec) * record_stride * dt    # step * dt, as integrate has it


def propagate(rhs: Callable, field: tuple, observe: Callable, series: tuple[str, ...],
              *, kind: str, phase_freqs: np.ndarray, pop_labels: list[str],
              init_col: int, pulse: KickPulse, cav: CavityParams, t_end: float,
              dt: float, record_stride: int, meta: dict,
              start: np.ndarray | None = None, method: str = "rk4") -> Trajectory:
    """Integrate from t = 0 and record a Trajectory every record_stride steps.

    The state y is the amplitudes c, or the tuple (c, *field) when field
    holds the initial scalars of a classical field; c starts as start, by
    default the unit vector at init_col.  rhs(entry, y) gets integrate's
    (a, b, f) entries for phase_freqs and pulse.  observe(t, psi, y) returns
    (populations, values) at the record time t, for psi = e^{-i phase_freqs t} c
    in an array observe may overwrite: one population per pop_labels entry,
    one value per series name, each a Trajectory field.  meta adds the
    propagator's own keys after dt, t_end and record_stride.

    method = "exact" declares c constant once the pulse is over (rhs is zero
    where f is; no field).  RK4 then stops at the first record at or after
    pulse.support_end (no step without a kick), and observe gets the
    remaining records in chunks: t a row of times, psi one column per time, y
    that one state; complex psi and observe's image of it fit TAIL_CHUNK_BYTES,
    and an entry of c that is exactly 0.0 costs nothing.

    Raises ModelError for an init_col outside c or where record_grid
    refuses; IntegrationError when the norm drifts beyond NORM_TOL (reduce
    dt) or the kick exceeds the pulse's linear-response bound.
    """
    n_amp = len(pop_labels)
    if not 0 <= init_col < n_amp:
        raise ModelError(f"start index {init_col} outside 0..{n_amp - 1}")
    n_steps, times = record_grid(t_end, dt, record_stride)
    n_rec = times.size
    pops = np.empty((n_rec, n_amp))
    values = np.empty((len(series), n_rec))
    n_obs = n_rec if method == "rk4" else int(np.searchsorted(times, pulse.support_end))
    n_rk4 = n_steps if n_obs == n_rec else n_obs * record_stride
    rec = {"i": 0, "norm_drift": 0.0}
    c0 = (np.arange(n_amp) == init_col).astype(complex) if start is None else start

    def observer(t, y):
        i = rec["i"]
        if i == n_obs:        # the chunks record the switch time itself
            return
        c = y[0] if field else y
        pops[i], values[:, i] = observe(t, np.exp(-1j * phase_freqs * t) * c, y)
        rec["norm_drift"] = max(rec["norm_drift"], abs(float(np.sum(pops[i])) - 1.0))
        rec["i"] += 1

    y_s = integrate(rhs, (c0, *field) if field else c0, 0.0, dt, n_rk4, observer,
                    record_stride, phase_freqs=phase_freqs, pulse=pulse)
    if n_obs < n_rec:
        live = np.flatnonzero(y_s)
        chunk = max(1, TAIL_CHUNK_BYTES // (32 * n_amp))
        for lo in range(n_obs, n_rec, chunk):
            hi = min(lo + chunk, n_rec)
            # in place: one live-by-time array besides psi
            phases = np.outer(-1j * phase_freqs[live], times[lo:hi])
            np.exp(phases, out=phases)
            phases *= y_s[live, None]
            psi = np.zeros((n_amp, hi - lo), complex)
            psi[live] = phases
            pops[lo:hi], values[:, lo:hi] = observe(times[lo:hi], psi, y_s)
        drift = float(np.max(np.abs(pops[n_obs:].sum(axis=1) - 1.0)))
        rec["norm_drift"] = max(rec["norm_drift"], drift)

    if rec["norm_drift"] > NORM_TOL:
        raise IntegrationError(
            f"norm drift {rec['norm_drift']:.2e} exceeds {NORM_TOL}; reduce dt"
        )
    _check_linear_response(times, pops, init_col, pulse)

    traj = Trajectory(
        kind=kind, times=times, populations=pops, pop_labels=pop_labels,
        **dict(zip(series, values)),
        meta={
            "dt": dt, "t_end": n_steps * dt, "record_stride": record_stride,
            **meta, "pulse_support_end": pulse.support_end,
            "pulse_t0": pulse.t0, "pulse_sigma": pulse.sigma, "method": method,
            "rk4_steps": n_rk4, "rhs_evals": 4 * n_rk4, "exact_records": n_rec - n_obs,
            "norm_drift": rec["norm_drift"],
            "omega_c": cav.omega_c, "g": cav.g, "include_dse": cav.include_dse,
        },
    )
    traj.meta["energy_drift_post_pulse"] = post_pulse_energy_drift(traj)
    return traj


def post_pulse_energy_drift(traj: Trajectory) -> float:
    """Relative spread of total energy after the pulse support.

    Normalized by max(|mean energy|, photon quantum): ground-state runs have
    total energy near zero, so the photon quantum sets the physical scale.
    """
    mask = traj.post_pulse_mask()
    e = traj.energy[mask]
    if e.size < 2:
        return 0.0
    scale = max(abs(float(np.mean(e))), float(traj.meta.get("omega_c", 0.0)), 1e-30)
    return float(e.max() - e.min()) / scale


def _check_linear_response(times, pops, init_col, pulse: KickPulse):
    if pulse.amplitude == 0.0 or not math.isfinite(pulse.max_excitation):
        return
    after = np.searchsorted(times, pulse.support_end)
    if after >= times.size:
        return
    excited = 1.0 - pops[after, init_col]
    if excited > pulse.max_excitation:
        raise IntegrationError(
            f"post-kick excited population {excited:.3e} exceeds the pulse "
            f"linear-response bound {pulse.max_excitation}; lower the amplitude "
            "or raise KickPulse.max_excitation"
        )
