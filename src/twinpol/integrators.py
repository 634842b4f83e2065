"""Fixed-step classic Runge-Kutta engine and the recording core shared by both
propagators.

A propagator whose Hamiltonian stops depending on time once the kick is over
may hand propagate() an exact tail; RK4 then runs only to the first record at
or after the pulse support.  Accuracy of the RK4 part is certified by dt/2
re-run agreement rather than adaptivity; the step size must already resolve
the fastest interaction-picture phase.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .cavity import CavityParams, KickPulse, Trajectory
from .errors import IntegrationError, ModelError

NORM_TOL = 1e-6
# complex bytes per exact-tail chunk: records per chunk = this // (16 * amplitudes)
TAIL_CHUNK_BYTES = 1 << 19


def rk4_step(rhs: Callable, t: float, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(rhs: Callable, y0: np.ndarray, t0: float, dt: float, n_steps: int,
              observer: Callable | None = None, observe_every: int = 1) -> np.ndarray:
    """Advance y through n_steps of RK4, reporting state every observe_every steps.

    The observer is called as observer(t, y) at t0 and after every
    observe_every-th step; dt may be negative for backward propagation.
    """
    y = np.array(y0, copy=True)
    t = t0
    if observer is not None:
        observer(t, y)
    for step in range(1, n_steps + 1):
        y = rk4_step(rhs, t, y, dt)
        t = t0 + step * dt
        if observer is not None and step % observe_every == 0:
            observer(t, y)
    return y


def check_step(dt: float, phase_freqs: np.ndarray, omega_c: float):
    """Raise ModelError unless dt resolves the fastest interaction-picture phase."""
    de_max = float(phase_freqs.max() - phase_freqs.min())
    if dt * (de_max + omega_c) >= 0.1:
        raise ModelError(
            f"dt={dt} too coarse for the fastest phase; need "
            f"dt < {0.1 / (de_max + omega_c):.3g}"
        )


def propagate(rhs: Callable, y0: np.ndarray, observe: Callable, series: tuple[str, ...],
              *, kind: str, pop_labels: list[str], init_col: int, pulse: KickPulse,
              cav: CavityParams, t_end: float, dt: float, record_stride: int,
              meta: dict, tail: Callable | None = None) -> Trajectory:
    """Integrate from t = 0 and record a Trajectory every record_stride steps.

    y[:len(pop_labels)] are the interaction-picture amplitudes, whose squared
    moduli are the recorded populations.  observe(t, y) returns one value per
    name in series, each a Trajectory field.  meta adds the propagator's own
    keys after dt, t_end and record_stride.

    tail(t_s, y_s, times) -> (pops, values), when given, must continue the
    run exactly from state y_s at t_s, the first record time at or after
    pulse.support_end: pops has one row and values one column per time.
    RK4 then stops at t_s (zero steps without a kick) and the tail fills the
    records from t_s on, in chunks of about TAIL_CHUNK_BYTES per complex
    state array.

    Raises IntegrationError when the norm drifts beyond NORM_TOL (reduce dt)
    or when the kick exceeds the pulse's linear-response bound.
    """
    n_amp = len(pop_labels)
    n_steps = int(round(t_end / dt))
    n_rec = n_steps // record_stride + 1
    times = np.arange(n_rec) * record_stride * dt    # step * dt, as integrate has it
    pops = np.empty((n_rec, n_amp))
    values = np.empty((len(series), n_rec))
    n_obs = n_rec if tail is None else int(np.searchsorted(times, pulse.support_end))
    n_rk4 = n_steps if n_obs == n_rec else n_obs * record_stride
    rec = {"i": 0, "norm_drift": 0.0}

    def observer(t, y):
        i = rec["i"]
        if i == n_obs:        # the tail records the switch time itself
            return
        pops[i] = np.abs(y[:n_amp]) ** 2
        values[:, i] = observe(t, y)
        rec["norm_drift"] = max(rec["norm_drift"], abs(float(np.sum(pops[i])) - 1.0))
        rec["i"] += 1

    y_s = integrate(rhs, y0, 0.0, dt, n_rk4, observer, record_stride)
    if n_obs < n_rec:
        chunk = max(1, TAIL_CHUNK_BYTES // (16 * n_amp))
        for lo in range(n_obs, n_rec, chunk):
            hi = min(lo + chunk, n_rec)
            pops[lo:hi], values[:, lo:hi] = tail(times[n_obs], y_s, times[lo:hi])
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
            "pulse_t0": pulse.t0, "pulse_sigma": pulse.sigma,
            "method": "rk4" if tail is None else "exact",
            "rk4_steps": n_rk4, "exact_records": n_rec - n_obs,
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
