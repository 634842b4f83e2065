"""Independent checks of the artifacts a `twinpol run` writes.

Nothing here imports twinpol: every expected value is computed from the
inputs the benchmark generated (closed forms), or from the exported model's
energies and dipole matrix through a Hamiltonian this module assembles
itself.  Each check returns the values it measured and raises CheckFailed
when the artifact disagrees.  The tolerances are derived in README.md.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

CM1_PER_HARTREE = 219474.6313632      # CODATA 2018 hartree in cm^-1
KB_HARTREE_PER_K = 3.166811563e-6     # CODATA 2018 Boltzmann constant in hartree/K

UNIT_RTOL = 1e-14                     # both columns are written with 17 digits
Q_ROUNDOFF = 1e-13                    # |<q>| allowed, relative to ||q||
TD_TOL = 1e-6                         # exact vs RK4 records, relative to ||A||
MANYMOL_TOL = 0.02
HCL_SPLIT_RTOL = 0.03
HCL_SUM_RTOL = 0.01
MORSE_TOL_CM1 = 1e-3                  # the model's own grid-doubling tolerance


class CheckFailed(Exception):
    """An artifact disagrees with the independent computation."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


# -- artifacts ----------------------------------------------------------------


def read_csv(path) -> dict:
    """Columns by header name: floats where every cell parses, else strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(len(rows) >= 2, f"{Path(path).name} has no data rows")
    header, body = rows[0], rows[1:]
    require(all(len(r) == len(header) for r in body),
            f"{Path(path).name} has ragged rows")
    cols = {}
    for j, name in enumerate(header):
        cells = [r[j] for r in body]
        try:
            cols[name] = np.array([float(c) for c in cells])
        except ValueError:
            cols[name] = cells
    return cols


def check_unit_columns(cols: dict) -> dict:
    """omega_cm1 must equal omega_au * CM1_PER_HARTREE."""
    au, cm1 = cols["omega_au"], cols["omega_cm1"]
    dev = float(np.max(np.abs(cm1 - au * CM1_PER_HARTREE) / np.maximum(np.abs(cm1), 1e-300)))
    require(dev <= UNIT_RTOL, f"omega_cm1 disagrees with omega_au * {CM1_PER_HARTREE} "
                              f"(relative deviation {dev:.2e})")
    return {"unit_rel_dev": dev}


def find_peaks(omega, intensity, lo, hi, rel_threshold):
    """Strict local maxima above rel_threshold * global max inside [lo, hi],
    each refined by a parabola through it and its two neighbours."""
    y = np.asarray(intensity, float)
    floor = rel_threshold * y.max()
    dx = float(omega[1] - omega[0])
    out = []
    for i in range(1, y.size - 1):
        if not (lo <= omega[i] <= hi and y[i] > y[i - 1] and y[i] > y[i + 1]
                and y[i] >= floor):
            continue
        curv = y[i - 1] - 2.0 * y[i] + y[i + 1]
        out.append(float(omega[i] + 0.5 * (y[i - 1] - y[i + 1]) / curv * dx))
    return out


# -- kick_td ------------------------------------------------------------------


def check_quantum_doublet(cols, w12, half_window, g, mu02, rel_threshold):
    """Exactly two peaks in the P window, split by 2 g mu02 within one bin."""
    check_unit_columns(cols)
    omega, inten = cols["omega_au"], cols["intensity"]
    peaks = find_peaks(omega, inten, w12 - half_window, w12 + half_window, rel_threshold)
    require(len(peaks) == 2, f"quantum P window holds {len(peaks)} peaks, expected 2")
    split = peaks[1] - peaks[0]
    bin_width = float(omega[1] - omega[0])
    err = abs(split - 2.0 * g * mu02)
    require(err < bin_width, f"quantum doublet split {split:.6e} is {err / bin_width:.2f} "
                             f"bins from 2 g mu = {2 * g * mu02:.6e}")
    return {"split_err_bins": err / bin_width}


def mean_field_pulling(w12, wc, g, mu12):
    """Leading-order shift of the classical P line by the off-resonant mode."""
    return 2.0 * wc * g**2 * mu12**2 / (wc**2 - w12**2)


def check_classical_line(cols, w12, half_window, g, mu12, wc, rel_threshold):
    """One unsplit peak in the P window, within twice the mean-field pulling
    of w12 (the bound acceptance criterion 2 uses)."""
    check_unit_columns(cols)
    omega, inten = cols["omega_au"], cols["intensity"]
    peaks = find_peaks(omega, inten, w12 - half_window, w12 + half_window, rel_threshold)
    require(len(peaks) == 1, f"classical P window holds {len(peaks)} peaks, expected 1")
    pull = mean_field_pulling(w12, wc, g, mu12)
    off = peaks[0] - w12
    require(abs(off) < 2.0 * pull, f"classical P line {off:.3e} from w12, beyond the "
                                   f"pulling bound 2 x {pull:.3e}")
    return {"offset_over_pulling": off / pull}


# -- operators on the molecule x photon product basis -------------------------


def ladder(n_fock_max: int) -> np.ndarray:
    """a + a^dag on photon numbers 0..n_fock_max."""
    n = np.arange(1, n_fock_max + 1)
    return np.diag(np.sqrt(n), 1) + np.diag(np.sqrt(n), -1)


def q2_photon(n_fock_max: int, omega_c: float) -> np.ndarray:
    """(a^dag a^dag + a a + 2 a^dag a + 1) / (2 w_c) with exact ladder elements."""
    n = np.arange(n_fock_max + 1, dtype=float)
    two = np.sqrt(n[2:] * (n[2:] - 1.0))
    op = np.diag(2.0 * n + 1.0) + np.diag(two, 2) + np.diag(two, -2)
    return op / (2.0 * omega_c)


def cavity_hamiltonian(energies, dipole, omega_c, g, n_fock_max, dse):
    """H = E x 1 + 1 x w_c N + g mu x (a + a^dag) [+ (g^2/w_c) mu^2 x 1],
    photon-major ordering (index = N * n_states + k)."""
    n_mol = len(energies)
    eye_ph, eye_mol = np.eye(n_fock_max + 1), np.eye(n_mol)
    h = np.kron(eye_ph, np.diag(energies))
    h += np.kron(np.diag(np.arange(n_fock_max + 1) * omega_c), eye_mol)
    h += g * np.kron(ladder(n_fock_max), dipole)
    if dse:
        h += (g**2 / omega_c) * np.kron(eye_ph, dipole @ dipole)
    return 0.5 * (h + h.T)


def exact_records(h, psi0, times, ops):
    """<A(t)> for each operator and |psi(t)|^2 from psi(t) = V e^{-i L t} V^T psi0."""
    evals, evecs = np.linalg.eigh(h)
    c0 = evecs.T @ psi0
    psi = (evecs @ (np.exp(-1j * np.outer(evals, times)) * c0[:, None])).T
    expect = {name: np.einsum("ti,ij,tj->t", psi.conj(), op, psi).real
              for name, op in ops.items()}
    return expect, np.abs(psi) ** 2


# -- hcl_vacuum_td ------------------------------------------------------------


def model_state_index(model: dict, v: int, J: int, M: int) -> int:
    hits = [i for i, lab in enumerate(model["labels"])
            if (lab["v"], lab["J"], lab["M"]) == (v, J, M)]
    require(len(hits) == 1, f"exported model has {len(hits)} states v{v}J{J}M{M}")
    return hits[0]


def check_vacuum_trajectory(traj_path, model, omega_c, g, n_fock_max, dse, init, times):
    """<mu>, <q^2> and every population of the run against exact evolution;
    <q> zero to round-off; <q^2> visibly oscillating."""
    energies = np.asarray(model["energies"], float)
    dipole = np.asarray(model["dipole"], float)
    n_mol, n_ph = energies.size, n_fock_max + 1
    pop_names = [f"p_v{lab['v']}J{lab['J']}M{lab['M']};N{n}"
                 for n in range(n_ph) for lab in model["labels"]]
    got = read_csv(traj_path)
    require(list(got) == ["t", "mu", "q_expect", "q2_expect", *pop_names],
            "trajectory columns differ from t, mu, q_expect, q2_expect and the "
            "model x Fock basis")
    require(got["t"].size == times.size and np.allclose(got["t"], times, rtol=0, atol=1e-9),
            "trajectory time grid differs from the config's")

    h = cavity_hamiltonian(energies, dipole, omega_c, g, n_fock_max, dse)
    psi0 = np.zeros(n_mol * n_ph)
    psi0[model_state_index(model, *init)] = 1.0
    ops = {"mu": np.kron(np.eye(n_ph), dipole),
           "q": np.kron(ladder(n_fock_max), np.eye(n_mol)) / math.sqrt(2.0 * omega_c),
           "q2": np.kron(q2_photon(n_fock_max, omega_c), np.eye(n_mol))}
    exact, pops = exact_records(h, psi0, times, ops)
    norms = {k: float(np.linalg.norm(op, 2)) for k, op in ops.items()}

    out = {}
    for name, col in (("mu", "mu"), ("q2", "q2_expect")):
        dev = float(np.max(np.abs(got[col] - exact[name]))) / norms[name]
        require(dev <= TD_TOL, f"<{name}(t)> deviates from exact evolution by "
                               f"{dev:.2e} x ||{name}||")
        out[f"{name}_dev"] = dev
    pop_dev = float(np.max(np.abs(np.column_stack([got[n] for n in pop_names]) - pops)))
    require(pop_dev <= TD_TOL, f"populations deviate from exact evolution by {pop_dev:.2e}")
    q_max = float(np.max(np.abs(got["q_expect"]))) / norms["q"]
    require(q_max <= Q_ROUNDOFF, f"<q(t)> reaches {q_max:.2e} x ||q||; parity forbids it")
    swing = float(np.ptp(exact["q2"])) / norms["q2"]
    require(swing > 100.0 * TD_TOL, f"exact <q^2(t)> swings only {swing:.2e} x ||q^2||")
    out.update(pop_dev=pop_dev, q_max=q_max, q2_swing=swing)
    return out


# -- hcl_static ---------------------------------------------------------------


def morse_level(v, d_e, alpha, mass):
    """Closed-form Morse level w_e (v + 1/2) - w_e x_e (v + 1/2)^2 (hartree)."""
    omega_e = alpha * math.sqrt(2.0 * d_e / mass)
    omega_e_xe = omega_e**2 / (4.0 * d_e)
    return omega_e * (v + 0.5) - omega_e_xe * (v + 0.5) ** 2


def check_morse_fundamental(model, d_e, alpha, mass):
    """J = 0 fundamental of the exported model against the closed form."""
    e = np.asarray(model["energies"], float)
    got = e[model_state_index(model, 1, 0, 0)] - e[model_state_index(model, 0, 0, 0)]
    want = morse_level(1, d_e, alpha, mass) - morse_level(0, d_e, alpha, mass)
    dev = abs(got - want) * CM1_PER_HARTREE
    require(dev <= MORSE_TOL_CM1, f"J=0 fundamental off the Morse closed form by {dev:.2e} cm-1")
    return {"fundamental_dev_cm1": dev}


def thermal_weight(model, state, temperature, v):
    """Boltzmann weight of one state among all states of vibrational level v."""
    e = np.asarray(model["energies"], float)
    subset = [i for i, lab in enumerate(model["labels"]) if lab["v"] == v]
    w = np.exp(-(e[subset] - e[subset].min()) / (KB_HARTREE_PER_K * temperature))
    return float(w[subset.index(state)] / w.sum())


def check_r0_doublet(cols, model, omega_c, g, temperature):
    """R(0) polariton doublet from v0J0M0: splitting against the two-state
    value sqrt((2 g mu01)^2 + delta^2), summed intensity against mu01^2."""
    check_unit_columns(cols)
    e = np.asarray(model["energies"], float)
    dip = np.asarray(model["dipole"], float)
    i0, i1 = model_state_index(model, 0, 0, 0), model_state_index(model, 1, 1, 0)
    mu01 = float(dip[i0, i1])
    delta = float(e[i1] - e[i0] - omega_c)
    two_state = math.hypot(2.0 * g * mu01, delta)
    center = 0.5 * (e[i1] - e[i0] + omega_c)
    from_init = np.array([lab == "v0J0M0;N0" for lab in cols["label_i"]])
    near = from_init & (np.abs(cols["omega_au"] - center) < two_state)
    inten = cols["intensity"][near]
    require(inten.size >= 2, f"R(0) doublet has {inten.size} sticks")
    top = np.sort(np.argsort(inten)[-2:])
    pair = cols["omega_au"][near][top]
    split = float(pair[1] - pair[0])
    split_dev = abs(split - two_state) / two_state
    require(split_dev <= HCL_SPLIT_RTOL,
            f"R(0) doublet split {split * CM1_PER_HARTREE:.4f} cm-1 vs two-state "
            f"{two_state * CM1_PER_HARTREE:.4f} cm-1 ({split_dev:.2%})")
    weight = thermal_weight(model, i0, temperature, v=0)
    strength = float(inten[top].sum()) / weight
    sum_dev = abs(strength - mu01**2) / mu01**2
    require(sum_dev <= HCL_SUM_RTOL,
            f"R(0) doublet strength {strength:.4e} vs mu01^2 {mu01**2:.4e} ({sum_dev:.2%})")
    return {"r0_split_rel_dev": split_dev, "r0_sum_rel_dev": sum_dev}


# -- manymol_bruteforce -------------------------------------------------------


def _centroid(omega, intensity, target, half):
    m = np.abs(omega - target) < half
    require(m.any(), f"no stick within {half:.2e} of {target:.6e}")
    return float(np.average(omega[m], weights=intensity[m])), float(intensity[m].sum())


def check_manymol_thermal(cols, n, n0, g, mu, w02, w12):
    """R and twin offsets g mu sqrt(n0/N), g mu sqrt((n0+1)/N) and the
    dark/twin intensity ratio 2 n0 of the g/sqrt(N) closed forms."""
    check_unit_columns(cols)
    omega, inten = cols["omega_au"], cols["intensity"]
    r_off = g * mu * math.sqrt(n0 / n)
    t_off = g * mu * math.sqrt((n0 + 1) / n)
    half = 0.5 * min(r_off, t_off)          # twin sticks sit t_off from the dark one
    out, pair_sums = {}, {}
    for name, center, off in (("r", w02, r_off), ("twin", w12, t_off)):
        lo, s_lo = _centroid(omega, inten, center - off, half)
        hi, s_hi = _centroid(omega, inten, center + off, half)
        dev = abs(0.5 * (hi - lo) - off) / off
        require(dev <= MANYMOL_TOL, f"{name} offset {(hi - lo) / 2:.4e} vs closed form "
                                    f"{off:.4e} ({dev:.2%})")
        out[f"{name}_offset_rel_dev"] = dev
        pair_sums[name] = s_lo + s_hi
    _, dark = _centroid(omega, inten, w12, half)
    ratio = dark / (0.5 * pair_sums["twin"])
    dev = abs(ratio - 2.0 * n0) / (2.0 * n0)
    require(dev <= MANYMOL_TOL, f"dark/twin ratio {ratio:.4f} vs 2 n0 = {2 * n0} ({dev:.2%})")
    out["dark_twin_ratio"] = ratio
    return out


def symmetric_sectors(n, g, mu, w02, w12):
    """(position, intensity) of every sector stick of the symmetric state."""
    sticks = []
    for n0 in range(n + 1):
        c = math.comb(n, n0) / 2.0**n * mu**2
        for sign in (-1.0, 1.0):
            if n0 > 0:
                sticks.append((w02 + sign * g * mu * math.sqrt(n0 / n), c * n0))
            if n0 < n:
                sticks.append((w12 + sign * g * mu * math.sqrt((n0 + 1) / n), c * (n - n0)))
    return sticks


def check_manymol_symmetric(cols, n, g, mu, w02, w12):
    """Sector intensity fractions of the symmetric state, each sector summed
    over a window narrower than the smallest sector spacing."""
    check_unit_columns(cols)
    omega, inten = cols["omega_au"], cols["intensity"]
    sticks = symmetric_sectors(n, g, mu, w02, w12)
    pos = np.array(sorted(p for p, _ in sticks))
    half = 0.45 * float(np.min(np.diff(pos)))
    centroids, sums = zip(*(_centroid(omega, inten, p, half) for p, _ in sticks))
    want = np.array([i for _, i in sticks])
    frac_dev = float(np.max(np.abs(np.array(sums) / sum(sums) - want / want.sum())))
    require(frac_dev <= MANYMOL_TOL, f"sector intensity fractions deviate by {frac_dev:.4f}")
    shift = max(abs(c - p) for c, (p, _) in zip(centroids, sticks))
    return {"sector_frac_dev": frac_dev, "sector_shift_over_window": shift / half}
