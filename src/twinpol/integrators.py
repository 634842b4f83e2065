"""Fixed-step classic Runge-Kutta core and the recording loop shared by both
propagators.

integrate() owns the interaction-picture time grid.  Step s of a run from t0
evaluates rhs at the stage times t, t + 0.5 dt, t + 0.5 dt and t + dt, with
t = t0 + (s - 1) dt.  The end of one step and the start of the next are
formed separately, as written: at dt = 0.3 they differ in the last bit on
27,281 of 99,999 steps.

Given the phase frequencies eps, the pulse f and real operators op, integrate
tables, per chunk of steps and at every stage time,

    a = -i e^{i eps t},    b = e^{-i eps t},    f(t),    a op b,

the last each op in phased form, -i e^{i eps t} op e^{-i eps t}.  rhs(entry, y)
gets only what it reads as its entry: (f, *phased ops) when operators are
given, else (f, a, b); no rhs evaluates an exponential or the pulse.  A chunk
holds as many steps as fit their stage times and all the tables in
TAIL_CHUNK_BYTES.  The state y is one complex array, each RK4 combination
one array expression; a classical field rides along as entries with zero
imaginary part, which complex arithmetic keeps exactly +0.0, so its real
parts get the bits of float arithmetic.

propagate() records a Trajectory through one flush, which hands observe a
chunk of records, the Schroedinger-picture states e^{-i eps t} c as columns.
RK4 records come a chunk of steps at a time; a state constant after the
pulse (method "exact") is stepped only through the kick, and its remaining
records come in chunks of TAIL_CHUNK_BYTES.  Accuracy of the RK4 part is
certified by dt/2 re-run agreement rather than adaptivity; check_step,
which each propagator runs first, refuses a dt that does not resolve the
fastest interaction-picture phase.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .cavity import CavityParams, KickPulse, Trajectory
from .errors import IntegrationError, ModelError

NORM_TOL = 1e-6
# bytes a run may hold: record_grid's times, and quantum._check_memory's whole run
MEMORY_BUDGET = 4 * 2**30
# bytes per chunk: of a constant state's records and their image, of RK4 stage-time tables
TAIL_CHUNK_BYTES = 1 << 19


def _stage_entries(t0: float, dt: float, lo: int, hi: int,
                   phase_freqs: np.ndarray, pulse: KickPulse, operators=()):
    """Iterator over the rhs entries of steps lo + 1 .. hi: start, middle and
    end of each step in turn, read from tables that cover the whole range.
    An entry is (f, *phased operators) given operators, else (f, a, b)."""
    t = t0 + np.arange(lo, hi) * dt
    times = np.stack([t, t + 0.5 * dt, t + dt], axis=1)
    f = pulse.samples(times).ravel().tolist()
    phase = np.exp(1j * phase_freqs * times.reshape(-1, 1))
    a = -1j * phase
    b = np.conj(phase, out=phase)
    if not operators:
        return zip(f, a, b)
    # (a_j op_jk) b_k, the product with b in place: one table per op
    return zip(f, *[np.multiply(table, b[:, None, :], out=table)
                    for table in (a[:, :, None] * op for op in operators)])


def _chunk_steps(n: int, n_ops: int) -> int:
    """Steps per chunk: 3 stage times each of f (and the time), a and b on n
    phases and n_ops phased n x n operators, in TAIL_CHUNK_BYTES."""
    return max(1, TAIL_CHUNK_BYTES // (3 * (16 + 32 * n + 16 * n * n * n_ops)))


def integrate(rhs: Callable, y0, t0: float, dt: float, n_steps: int,
              observer: Callable | None = None, observe_every: int = 1, *,
              phase_freqs: np.ndarray, pulse: KickPulse, operators: tuple = ()):
    """Advance y through n_steps of RK4, reporting state every observe_every steps.

    y0 is one complex array.  rhs is called as rhs(entry, y), the entry being
    the stage's (f, *phased operators) for pulse and the real square
    operators, or (f, a, b) without operators (module docstring); it returns
    dy/dt as an array of y's shape.  The observer is called as observer(t, y)
    at t0 and after every observe_every-th step, at t = t0 + step dt; dt may
    be negative for backward propagation.
    """
    y = np.array(y0, copy=True)
    if observer is not None:
        observer(t0, y)
    chunk = _chunk_steps(len(phase_freqs), len(operators))
    # the conversion numpy makes of a Python float on every product, made once
    half, full, sixth, two = (np.array(x, y.dtype) for x in (0.5 * dt, dt, dt / 6.0, 2.0))
    for lo in range(0, n_steps, chunk):
        hi = min(lo + chunk, n_steps)
        entries = e0 = e_mid = e1 = None    # the last chunk's tables go before the next's
        entries = _stage_entries(t0, dt, lo, hi, phase_freqs, pulse, operators)
        for step, e0, e_mid, e1 in zip(range(lo + 1, hi + 1), entries, entries, entries):
            k1 = rhs(e0, y)
            k2 = rhs(e_mid, y + half * k1)
            k3 = rhs(e_mid, y + half * k2)
            k4 = rhs(e1, y + full * k3)
            y = y + sixth * (k1 + two * k2 + two * k3 + k4)
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
    record_stride dt steps; ModelError for fewer than two records, or for
    more than MEMORY_BUDGET holds of their times alone."""
    if not (0 < dt < math.inf and 0 < t_end < math.inf and record_stride >= 1):
        raise ModelError("t_end, dt and record_stride must be positive and finite")
    n_steps = int(round(t_end / dt))
    if n_steps < record_stride:
        raise ModelError("t_end is shorter than one record_stride of dt steps")
    n_rec = n_steps // record_stride + 1
    if 8 * n_rec > MEMORY_BUDGET:
        raise ModelError(f"{n_rec} records need {8 * n_rec / 2**30:.3g} GiB for their "
                         f"times alone, over the {MEMORY_BUDGET / 2**30:g} GiB budget; "
                         "raise record_stride or shorten t_end")
    return n_steps, np.arange(n_rec) * record_stride * dt    # step * dt, as integrate has it


def propagate(rhs: Callable, observe: Callable, series: tuple[str, ...],
              *, kind: str, phase_freqs: np.ndarray, pop_labels: list[str],
              init_col: int, pulse: KickPulse, cav: CavityParams, t_end: float,
              dt: float, record_stride: int, meta: dict,
              start: np.ndarray | None = None, method: str = "rk4",
              operators: tuple = (), pop_columns: np.ndarray | None = None) -> Trajectory:
    """Integrate from t = 0 and record a Trajectory every record_stride steps.

    The state y starts as start, by default the unit vector at init_col, the
    start's population column.  Its first len(phase_freqs) entries are the
    amplitudes c; any after them (a classical field's) are stepped alike.
    rhs(entry, y) gets integrate's entries for phase_freqs, pulse and
    operators.  observe(t, psi, y) gets a chunk of records: t a row of
    times, psi = e^{-i phase_freqs t} c one C-ordered column per time, which
    observe may overwrite, and y the whole states, a column per time or one
    for a constant state.  It returns (populations, values): a row of
    populations per time, one per pop_labels entry or, given pop_columns, one
    per column it names, every other column being 0.0, and a row of values
    per series name, each a Trajectory field.  An RK4 chunk holds the records of
    a chunk of integrate's steps.  meta adds the propagator's own keys after
    dt, t_end and record_stride.

    method = "exact" declares c constant once the pulse is over (rhs is zero
    where f is; no field).  RK4 then stops at the first record at or after
    pulse.support_end (no step without a kick), and observe gets the
    remaining records of that one state in chunks whose psi and image of it
    fit TAIL_CHUNK_BYTES.

    Raises ModelError for an init_col outside pop_labels or where record_grid
    refuses; IntegrationError when the norm drifts beyond NORM_TOL (reduce
    dt) or the kick exceeds the pulse's linear-response bound.
    """
    n_amp = len(pop_labels)
    if not 0 <= init_col < n_amp:
        raise ModelError(f"start index {init_col} outside 0..{n_amp - 1}")
    n_steps, times = record_grid(t_end, dt, record_stride)
    n_rec = times.size
    pops = np.zeros((n_rec, n_amp))
    columns = slice(None) if pop_columns is None else pop_columns
    values = np.empty((len(series), n_rec))
    n_obs = n_rec if method == "rk4" else int(np.searchsorted(times, pulse.support_end))
    n_rk4 = n_steps if n_obs == n_rec else n_obs * record_stride
    y0 = (np.arange(n_amp) == init_col).astype(complex) if start is None else start
    n_c = len(phase_freqs)

    def flush(lo, hi, rows):
        """Observe records lo .. hi - 1 from states as rows, one per record or
        one constant state; an amplitude zero in every row costs nothing."""
        live = np.flatnonzero(rows[:, :n_c].any(axis=0))
        # in place: one live-by-record array besides psi
        phases = np.multiply.outer(-1j * phase_freqs[live], times[lo:hi])
        np.exp(phases, out=phases)
        phases *= rows[:, live].T
        psi = np.zeros((n_c, hi - lo), complex)
        psi[live] = phases
        pops[lo:hi, columns], values[:, lo:hi] = observe(times[lo:hi], psi, rows.T)

    # the records of a chunk of steps, a state per row: fewer bytes than its tables
    chunk = max(1, _chunk_steps(n_c, len(operators)) // record_stride)
    held = np.empty((min(chunk, n_obs), y0.size), complex)
    filled = [0]

    def observer(t, y):
        i = filled[0]
        if i == n_obs:        # the chunks record the switch time itself
            return
        j = i % chunk
        held[j] = y
        filled[0] = i + 1
        if j + 1 == chunk or i + 1 == n_obs:
            flush(i - j, i + 1, held[:j + 1])

    y_s = integrate(rhs, y0, 0.0, dt, n_rk4, observer, record_stride,
                    phase_freqs=phase_freqs, pulse=pulse, operators=operators)
    tail = max(1, TAIL_CHUNK_BYTES // (32 * n_c))   # psi and observe's image of it
    for lo in range(n_obs, n_rec, tail):
        flush(lo, min(lo + tail, n_rec), y_s[None])
    norm_drift = float(np.max(np.abs(pops.sum(axis=1) - 1.0)))

    if norm_drift > NORM_TOL:
        raise IntegrationError(f"norm drift {norm_drift:.2e} exceeds {NORM_TOL}; reduce dt")
    _check_linear_response(times, pops, init_col, pulse)

    traj = Trajectory(
        kind=kind, times=times, populations=pops, pop_labels=pop_labels,
        **dict(zip(series, values)),
        meta={
            "dt": dt, "t_end": n_steps * dt, "record_stride": record_stride,
            **meta, "pulse_support_end": pulse.support_end,
            "pulse_t0": pulse.t0, "pulse_sigma": pulse.sigma, "method": method,
            "rk4_steps": n_rk4, "rhs_evals": 4 * n_rk4, "exact_records": n_rec - n_obs,
            "norm_drift": norm_drift,
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
