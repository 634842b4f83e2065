"""Each artifact check passes on a correct artifact and fails on a wrong one.

Run with: python3 -m pytest bench/tests -q
"""

import math

import numpy as np
import pytest

import checks
from checks import CheckFailed

G, MU, WC = 5.5e-4, 1.0, 1e-2
W02, W12 = 1e-2, 6e-3
HALF = 0.25 * (W02 - W12)
BIN = 2.4e-5


def write_spectrum(path, lines, cm1=checks.CM1_PER_HARTREE, gamma=5e-5):
    """Continuous spectrum of Lorentzian lines on a uniform grid."""
    omega = np.arange(1, 1000) * BIN
    inten = sum(gamma**2 / ((omega - w) ** 2 + gamma**2) for w in lines)
    with open(path, "w") as fh:
        fh.write("omega_au,omega_cm1,intensity\n")
        for w, i in zip(omega, inten):
            fh.write(f"{w:.17g},{w * cm1:.17g},{i:.17g}\n")
    return checks.read_csv(path)


def write_sticks(path, sticks):
    with open(path, "w") as fh:
        fh.write("omega_cm1,omega_au,intensity\n")
        for w, i in sorted(sticks):
            fh.write(f"{w * checks.CM1_PER_HARTREE:.17g},{w:.17g},{i:.17g}\n")
    return checks.read_csv(path)


def test_quantum_doublet(tmp_path):
    good = write_spectrum(tmp_path / "a.csv", [W12 - G * MU, W12 + G * MU])
    checks.check_quantum_doublet(good, W12, HALF, G, MU, 0.02)
    wide = math.sqrt(2.0) * G * MU
    bad = write_spectrum(tmp_path / "b.csv", [W12 - wide, W12 + wide])
    with pytest.raises(CheckFailed, match="bins from"):
        checks.check_quantum_doublet(bad, W12, HALF, G, MU, 0.02)


def test_classical_line(tmp_path):
    pull = checks.mean_field_pulling(W12, WC, G, MU)
    good = write_spectrum(tmp_path / "a.csv", [W12 - pull])
    checks.check_classical_line(good, W12, HALF, G, MU, WC, 0.02)
    split = write_spectrum(tmp_path / "b.csv", [W12 - G * MU, W12 + G * MU])
    with pytest.raises(CheckFailed, match="2 peaks, expected 1"):
        checks.check_classical_line(split, W12, HALF, G, MU, WC, 0.02)


def test_unit_columns(tmp_path):
    checks.check_unit_columns(write_spectrum(tmp_path / "a.csv", [W12]))
    bad = write_spectrum(tmp_path / "b.csv", [W12], cm1=219474.63)
    with pytest.raises(CheckFailed, match="omega_cm1 disagrees"):
        checks.check_unit_columns(bad)


def thermal_sticks(n, n0, dark_scale=1.0):
    r_off = G * MU * math.sqrt(n0 / n)
    t_off = G * MU * math.sqrt((n0 + 1) / n)
    c0, c1 = math.comb(n, n0), math.comb(n, n0 + 1)
    return [(W02 - r_off, n0 * MU**2 / 2 * c0), (W02 + r_off, n0 * MU**2 / 2 * c0),
            (W12 - t_off, MU**2 / 2 * c1), (W12 + t_off, MU**2 / 2 * c1),
            (W12, dark_scale * n0 * MU**2 * c1)]


def test_manymol_dark_twin_ratio(tmp_path):
    good = write_sticks(tmp_path / "a.csv", thermal_sticks(5, 2))
    checks.check_manymol_thermal(good, 5, 2, G, MU, W02, W12)
    bad = write_sticks(tmp_path / "b.csv", thermal_sticks(5, 2, dark_scale=2.0))
    with pytest.raises(CheckFailed, match="dark/twin ratio"):
        checks.check_manymol_thermal(bad, 5, 2, G, MU, W02, W12)


def test_manymol_symmetric_sectors(tmp_path):
    sticks = checks.symmetric_sectors(6, G, MU, W02, W12)
    checks.check_manymol_symmetric(write_sticks(tmp_path / "a.csv", sticks), 6, G, MU, W02, W12)
    top = max(range(len(sticks)), key=lambda k: sticks[k][1])
    skewed = [(w, i * (2.0 if k == top else 1.0)) for k, (w, i) in enumerate(sticks)]
    with pytest.raises(CheckFailed, match="fractions"):
        checks.check_manymol_symmetric(write_sticks(tmp_path / "b.csv", skewed),
                                       6, G, MU, W02, W12)


def test_hand_worked_block():
    # 3-level system with the cavity on the 0-2 line and one photon at most:
    # |2,0> and |0,1> are degenerate at w and coupled by g mu, so that block
    # of H is [[w, g mu], [g mu, w]] with eigenvalues w -+ g mu.
    e1, w, g, mu = 2e-3, 1e-2, 2e-4, 0.7
    dip = np.zeros((3, 3))
    dip[0, 2] = dip[2, 0] = mu
    h = checks.cavity_hamiltonian(np.array([0.0, e1, w]), dip, w, g, 1, False)
    block = h[np.ix_([2, 3], [2, 3])]        # index = N * 3 + k
    assert np.array_equal(block, [[w, g * mu], [g * mu, w]])
    assert np.allclose(np.linalg.eigvalsh(block), [w - g * mu, w + g * mu], rtol=0, atol=1e-18)


def small_rovib_model():
    """Two vibrational levels, J = 0..2, Z-polarized dipole (dJ = +-1, dM = 0)."""
    states = [(v, j, m) for v in (0, 1) for j in range(3) for m in range(-j, j + 1)]
    energies = [0.013 * v + 5e-5 * j * (j + 1) for v, j, _ in states]
    dip = np.zeros((len(states), len(states)))
    for a, (v, j, m) in enumerate(states):
        for b, (vp, jp, mp) in enumerate(states):
            if abs(j - jp) == 1 and m == mp:
                dip[a, b] = (0.2 if v == vp else 0.01) * (1.0 + 0.1 * min(j, jp))
    return {"energies": energies, "dipole": dip.tolist(),
            "labels": [{"v": v, "J": j, "M": m} for v, j, m in states]}


def write_trajectory(path, model, omega_c, g, times, q_shift=0.0):
    energies, dipole = np.array(model["energies"]), np.array(model["dipole"])
    n = energies.size
    h = checks.cavity_hamiltonian(energies, dipole, omega_c, g, 2, True)
    psi0 = np.zeros(3 * n)
    psi0[checks.model_state_index(model, 0, 2, 0)] = 1.0
    ops = {"mu": np.kron(np.eye(3), dipole),
           "q": np.kron(checks.ladder(2), np.eye(n)) / math.sqrt(2 * omega_c),
           "q2": np.kron(checks.q2_photon(2, omega_c), np.eye(n))}
    exact, pops = checks.exact_records(h, psi0, times, ops)
    names = [f"p_v{lab['v']}J{lab['J']}M{lab['M']};N{k}"
             for k in range(3) for lab in model["labels"]]
    with open(path, "w") as fh:
        fh.write(",".join(["t", "mu", "q_expect", "q2_expect"] + names) + "\n")
        for i, t in enumerate(times):
            row = [t, exact["mu"][i], exact["q"][i] + q_shift, exact["q2"][i], *pops[i]]
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def test_vacuum_q_is_zero(tmp_path):
    model, omega_c, g = small_rovib_model(), 0.0132, 1.8e-3
    times = np.arange(101) * 4.0
    args = (model, omega_c, g, 2, True, (0, 2, 0), times)
    write_trajectory(tmp_path / "a.csv", model, omega_c, g, times)
    values = checks.check_vacuum_trajectory(tmp_path / "a.csv", *args)
    assert values["q_max"] <= checks.Q_ROUNDOFF
    write_trajectory(tmp_path / "b.csv", model, omega_c, g, times, q_shift=1e-9)
    with pytest.raises(CheckFailed, match="parity forbids"):
        checks.check_vacuum_trajectory(tmp_path / "b.csv", *args)
