"""Acceptance suite: one test per criterion, printed as one line each.

Run protocols (time grids, damping, couplings for the observable runs, and
the rovibrational placeholder dipole curve) are pinned here after numerical
calibration; every tolerance asserted below is the criterion's stated one.

Criterion 6's large-count target is the per-side offset g*mu*sqrt(1/2)
(splitting sqrt(2)*g*mu).  It follows from the finite-count symmetric
formula, which the brute-force product basis reproduces (N = 2 here,
N = 2..5 in the module tests): sector n0 sits at g*mu*sqrt(n0/N) with
binomial weight, and n0/N concentrates on 1/2.  Criterion 7 pins the same
offset in the closed-form thermodynamic limit.
"""

import math
import time

import numpy as np
import pytest

from twinpol import (CavityParams, KickPulse, ManyMolConfig, MorseParams,
                     ProductBasis, analytic_nonsymmetric_spectrum,
                     analytic_symmetric_spectrum, assemble_hamiltonian,
                     boltzmann_weights, brute_force_spectrum, build_morse_rovib,
                     build_three_level, cm1_to_au, au_to_cm1,
                     diagonalize_polaritons, detect_peaks, dipole_spectrum,
                     dominant_eigenstate, fit_through_origin, measure_splitting,
                     peaks_from_sticks, propagate_classical, propagate_quantum,
                     static_stick_spectrum, thermal_initial_states,
                     thermodynamic_limit_spectrum)
from twinpol.spectra import Spectrum

from helpers import cluster

W02, W12, G, WC, MU = 10e-3, 8e-3, 2e-4, 1e-2, 1.0
R_WINDOW = (9.5e-3, 10.5e-3)
P_WINDOW = (7.5e-3, 8.5e-3)

# calibrated run protocols
TD = dict(t_end=3.2e5, dt=1.0, record_stride=8)          # criteria 2, 9, 11
TD_LONG = dict(t_end=1.28e6, dt=2.0, record_stride=16)   # criterion 4
FIELD = dict(t_end=4e4, dt=0.5, record_stride=4)         # criterion 8
G_FIELD = 1e-3                                           # coupling for field-observable runs

_ALL_TRAJECTORIES: list = []


def _report(num, name, checks):
    ok = all(flag for flag, _ in checks)
    detail = "; ".join(msg for _, msg in checks)
    print(f"\nACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} [{detail}]")
    failed = [msg for flag, msg in checks if not flag]
    assert ok, f"criterion {num} failed: {failed}"


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def model():
    return build_three_level(0.0, 2e-3, W02, MU, MU)


@pytest.fixture(scope="module")
def cav(model):
    return CavityParams(omega_c=WC, g=G, include_dse=False, n_fock_max=2)


@pytest.fixture(scope="module")
def static_solution(model, cav):
    basis = ProductBasis.full(model, cav.n_fock_max)
    sol = diagonalize_polaritons(assemble_hamiltonian(model, cav, basis))
    return basis, sol


def _register(traj, elapsed, tag):
    traj.meta["elapsed_s"] = elapsed
    traj.meta["tag"] = tag
    _ALL_TRAJECTORIES.append(traj)
    return traj


@pytest.fixture(scope="module")
def classical_r(model, cav):
    traj, dt = _timed(propagate_classical, model, cav, KickPulse(), 0, **TD)
    return _register(traj, dt, "classical_R")


@pytest.fixture(scope="module")
def classical_p(model, cav):
    traj, dt = _timed(propagate_classical, model, cav, KickPulse(), 1, **TD)
    return _register(traj, dt, "classical_P")


@pytest.fixture(scope="module")
def quantum_r(model, cav):
    traj, dt = _timed(propagate_quantum, model, cav, KickPulse(), (0, 0), **TD)
    return _register(traj, dt, "quantum_R")


@pytest.fixture(scope="module")
def quantum_p(model, cav):
    traj, dt = _timed(propagate_quantum, model, cav, KickPulse(), (1, 0), **TD)
    return _register(traj, dt, "quantum_P")


def _spectrum(traj):
    return dipole_spectrum(traj, damping_tau=traj.times[-1] / 4.0)


def test_criterion_01_single_molecule_polariton(model, cav):
    """Static doublets on the resonant manifold, exact to 1e-9 hartree."""
    t0 = time.perf_counter()
    checks = []
    for init, center, name in (((0, 0), W02, "R"), ((1, 0), W12, "TP")):
        basis = ProductBasis((init, (2, 0), (0, 1)))
        sol = diagonalize_polaritons(assemble_hamiltonian(model, cav, basis))
        spec = static_stick_spectrum(
            sol, model, basis, [(dominant_eigenstate(sol, basis, init), 1.0)])
        target = np.array([center - G * MU, center + G * MU])
        dev = float(np.max(np.abs(spec.omega - target)))
        checks.append((dev < 1e-9, f"{name} sticks dev {dev:.1e} hartree"))
        even = float(np.max(np.abs(spec.intensity - MU**2 / 2)))
        checks.append((even < 1e-9, f"{name} intensities mu^2/2 dev {even:.1e}"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 1.0, f"runtime {elapsed:.2f} s"))
    _report(1, "single-molecule primary polariton (quantum static)", checks)


def test_criterion_02_classical_vs_quantum_twin(classical_p, quantum_p):
    """Off-resonant branch: one unsplit classical peak, split quantum doublet.

    Both frameworks dress the line center away from the bare 8e-3 (classical:
    mean-field back-action pulling ~ 2 w_c g^2 mu^2 / (w_c^2 - w12^2); quantum:
    the kept nondegenerate couplings), so, exactly as for the quantum clause,
    the discriminating measurement is the splitting, not the absolute center.
    """
    checks = []
    spc = _spectrum(classical_p)
    pkc = detect_peaks(spc, rel_threshold=0.02)
    in_window = pkc.in_window(*P_WINDOW)
    checks.append((len(in_window) == 1,
                   f"classical peaks in window: {len(in_window)} (no splitting)"))
    if len(in_window) == 1:
        pos = pkc.peaks[in_window[0]].omega
        pulling = 2 * WC * G**2 * MU**2 / (WC**2 - W12**2)
        checks.append((abs(pos - W12) < 2 * pulling,
                       f"classical peak at {pos:.6e} (within the mean-field "
                       f"pulling bound {2 * pulling:.1e} of 8e-3)"))
    spq = _spectrum(quantum_p)
    pkq = detect_peaks(spq, rel_threshold=0.02)
    split = measure_splitting(pkq, P_WINDOW)
    bin_q = spq.meta["bin_width"]
    checks.append((abs(split - 2 * G * MU) < bin_q,
                   f"quantum splitting {split:.6e} ({abs(split - 2 * G * MU) / bin_q:.2f} bins from 4e-4)"))
    checks.append((classical_p.meta["elapsed_s"] < 60.0,
                   f"classical run {classical_p.meta['elapsed_s']:.0f} s"))
    checks.append((quantum_p.meta["elapsed_s"] < 60.0,
                   f"quantum run {quantum_p.meta['elapsed_s']:.0f} s"))
    _report(2, "classical vs quantum twin-polariton discrimination", checks)


def test_criterion_03_splitting_linearity(model):
    """R and P splittings globally linear in g with slope 2 mu."""
    g_values = np.array([0.5e-4, 1e-4, 1.5e-4, 2e-4])
    splittings = {"R": [], "P": []}
    for g in g_values:
        cav_g = CavityParams(omega_c=WC, g=float(g), include_dse=False, n_fock_max=2)
        basis = ProductBasis.full(model, 2)
        sol = diagonalize_polaritons(assemble_hamiltonian(model, cav_g, basis))
        for name, init, window in (("R", (0, 0), R_WINDOW), ("P", (1, 0), P_WINDOW)):
            spec = static_stick_spectrum(
                sol, model, basis,
                [(dominant_eigenstate(sol, basis, init), 1.0)])
            strong = spec.intensity > 0.01 * spec.intensity.max()
            sticks = Spectrum("sticks", spec.omega[strong], spec.intensity[strong], {})
            splittings[name].append(
                measure_splitting(peaks_from_sticks(sticks), window))
    checks = []
    slopes = {}
    for name in ("R", "P"):
        slope, r2 = fit_through_origin(g_values, np.array(splittings[name]))
        slopes[name] = slope
        checks.append((abs(slope - 2 * MU) / (2 * MU) < 0.01,
                       f"{name} slope {slope:.4f} (target 2)"))
        checks.append((r2 > 0.999, f"{name} R^2 {r2:.6f}"))
    agree = abs(slopes["R"] - slopes["P"]) / slopes["R"]
    checks.append((agree < 0.01, f"slopes agree to {agree:.2e}"))
    _report(3, "splitting linearity over coupling strength", checks)


def test_criterion_04_static_td_equivalence(model, cav, static_solution):
    """Every strong TD peak has a static stick within one bin, and back."""
    basis, sol = static_solution
    checks = []
    for init, name in (((0, 0), "R"), ((1, 0), "P")):
        traj = propagate_quantum(model, cav, KickPulse(), init, **TD_LONG)
        _register(traj, 0.0, f"quantum_{name}_long")
        spec = dipole_spectrum(traj, damping_tau=traj.times[-1] / 4.0)
        bin_w = spec.meta["bin_width"]
        sticks = static_stick_spectrum(
            sol, model, basis, [(dominant_eigenstate(sol, basis, init), 1.0)],
            min_intensity=1e-6)
        strong_peaks = detect_peaks(spec, rel_threshold=0.01).peaks
        worst_fwd = max(
            float(np.min(np.abs(sticks.omega - p.omega))) / bin_w
            for p in strong_peaks)
        checks.append((worst_fwd < 1.0,
                       f"{name}: {len(strong_peaks)} TD peaks within {worst_fwd:.2f} bins of sticks"))
        all_peaks = detect_peaks(spec, rel_threshold=1e-5)
        strong_sticks = sticks.omega[sticks.intensity > 0.01 * sticks.intensity.max()]
        worst_back = max(
            min(abs(p.omega - w) for p in all_peaks.peaks) / bin_w
            for w in strong_sticks)
        checks.append((worst_back < 1.0,
                       f"{name}: {strong_sticks.size} sticks within {worst_back:.2f} bins of TD peaks"))
    _report(4, "static vs time-dependent quantum equivalence", checks)


def test_criterion_05_thermal_suppression(model):
    """Brute-force N = 4, n0 = 2 numbers plus the N <= 5 analytic oracle."""
    t0 = time.perf_counter()
    cav5 = CavityParams(omega_c=WC, g=G, include_dse=False, n_fock_max=2)
    checks = []

    bf = brute_force_spectrum(model, cav5, 4, n0=2)
    r_off = G * MU * math.sqrt(2 / 4)
    lo_c, lo_s = cluster(bf, W02 - r_off, window=4e-5)
    hi_c, hi_s = cluster(bf, W02 + r_off, window=4e-5)
    split = hi_c - lo_c
    checks.append((abs(split - 2 * r_off) / (2 * r_off) < 0.02,
                   f"R splitting {split:.4e} vs 2g sqrt(1/2) ({abs(split - 2 * r_off) / (2 * r_off):.2%})"))
    tp_off = G * MU * math.sqrt(3 / 4)
    tp_lo = cluster(bf, W12 - tp_off, window=4e-5)
    tp_hi = cluster(bf, W12 + tp_off, window=4e-5)
    for c, _ in (tp_lo, tp_hi):
        checks.append((c is not None and abs(abs(c - W12) - tp_off) / tp_off < 0.02,
                       f"TP stick at offset {abs(c - W12):.4e} vs g sqrt(3/4)"))
    dark_c, dark_s = cluster(bf, W12, window=4e-5)
    twin_side = 0.5 * (tp_lo[1] + tp_hi[1])
    ratio = dark_s / twin_side
    checks.append((abs(ratio - 4.0) / 4.0 < 0.02,
                   f"dark/twin intensity ratio {ratio:.3f} vs 2 n0 = 4"))

    # oracle equivalence sweep: positions relative to themselves, splittings,
    # and intensity errors as fractions of the total spectral intensity
    worst = 0.0
    for n_mol in range(1, 6):
        for n0 in range(0, n_mol + 1):
            cfg = ManyMolConfig(n_mol=n_mol, g=G, mu=MU, omega02=W02,
                                omega12=W12, n0=n0)
            ana = analytic_nonsymmetric_spectrum(cfg)
            if ana.omega.size == 0:
                continue
            bf_n = brute_force_spectrum(model, cav5, n_mol, n0=n0)
            total = ana.intensity.sum()
            for center, off in ((W02, G * math.sqrt(n0 / n_mol)),
                                (W12, G * math.sqrt((n0 + 1) / n_mol))):
                pair_mask = np.abs(np.abs(ana.omega - center) - off) < 1e-12
                if pair_mask.any() and off > 0:
                    a_pair = ana.intensity[pair_mask].sum()
                    lo = cluster(bf_n, center - off, window=4e-5)
                    hi = cluster(bf_n, center + off, window=4e-5)
                    worst = max(worst, abs((hi[0] - lo[0]) - 2 * off) / (2 * off))
                    worst = max(worst, abs((lo[1] + hi[1]) - a_pair) / total)
                    worst = max(worst, abs(lo[0] - (center - off)) / (center - off))
            dark_mask = np.array(ana.meta["mechanism"]) == "dark"
            if dark_mask.any() and ana.intensity[dark_mask].sum() > 0:
                c, s = cluster(bf_n, W12, window=4e-5)
                worst = max(worst, abs(s - ana.intensity[dark_mask].sum()) / total)
                worst = max(worst, abs(c - W12) / W12)
    checks.append((worst < 0.02, f"analytic vs brute force N<=5: worst {worst:.2%}"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 120.0, f"runtime {elapsed:.0f} s"))
    _report(5, "many-molecule thermal twin suppression", checks)


def test_criterion_06_symmetric_persistence(model):
    """Symmetric-state spectra: N = 2 cross-check and large-count concentration.

    The weight of sector n0 on either branch is binomial in N - 1, so the
    per-side offset g*mu*sqrt(n0/N) has relative width 1/(2 sqrt(N)) around
    g*mu*sqrt(1/2): 7.1% at N = 50, where only 84.8% of the weight falls
    inside the stated +-10% window.  The Gaussian bound 1.96/(2 sqrt(N)) <=
    0.10 needs N > 96; N = 200 (width 3.5%, 99.6% inside) clears it with
    margin.  The fraction is not monotone in N near the bound (95.6% at
    N = 100, below 95% at N = 86..90) because the discrete sector offsets
    step across the window edges, so the count is not set near 95%.
    """
    t0 = time.perf_counter()
    checks = []
    cav6 = CavityParams(omega_c=WC, g=G, include_dse=False, n_fock_max=2)
    ana = analytic_symmetric_spectrum(
        ManyMolConfig(n_mol=2, g=G, mu=MU, omega02=W02, omega12=W12, symmetric=True))
    bf = brute_force_spectrum(model, cav6, 2, symmetric=True)
    floor = 0.02 * bf.intensity.max()
    b_total = bf.intensity[bf.intensity > floor].sum()
    worst_pos, worst_int = 0.0, 0.0
    for w_a, i_a in zip(ana.omega, ana.intensity):
        c, s = cluster(bf, w_a, window=4e-5)
        assert c is not None, f"no brute-force stick near {w_a}"
        worst_pos = max(worst_pos, abs(c - w_a) / w_a)
        worst_int = max(worst_int, abs(s / b_total - i_a / ana.intensity.sum()))
    checks.append((worst_pos < 0.02, f"N=2 positions within {worst_pos:.2%}"))
    checks.append((worst_int < 0.02,
                   f"N=2 intensity fractions within {worst_int:.2%}"))

    # large-count concentration on the binomial limit (docstring derives N)
    n_large = 200
    spec_n = analytic_symmetric_spectrum(
        ManyMolConfig(n_mol=n_large, g=G, mu=MU, omega02=W02, omega12=W12,
                      symmetric=True))
    target = G * math.sqrt(0.5) * MU
    for center, branch in ((W02, "R"), (W12, "P")):
        mask = np.array(spec_n.meta["branch"]) == branch
        offsets = np.abs(spec_n.omega[mask] - center)
        weights = spec_n.intensity[mask]
        close = np.abs(offsets - target) < 0.1 * target
        frac = weights[close].sum() / weights.sum()
        checks.append((frac > 0.95,
                       f"N={n_large} {branch}: {frac:.1%} within 10% of g*sqrt(1/2)*mu"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 60.0, f"runtime {elapsed:.0f} s"))
    _report(6, "symmetric-state twin persistence", checks)


def test_criterion_07_thermodynamic_limits():
    """Closed-form limiting spectra, exact arithmetic."""
    t0 = time.perf_counter()
    checks = []
    th = thermodynamic_limit_spectrum(0.5, "thermal", G, MU, W02, W12)
    off = G * math.sqrt(0.5) * MU
    ok_pos = (np.array_equal(th.omega, np.sort([W12, W02 - off, W02 + off]))
              and np.array_equal(th.intensity, [MU**2, MU**2 / 2, MU**2 / 2]))
    checks.append((ok_pos, "thermal r0=1/2: R doublet 2g sqrt(1/2) mu + dark peak"))
    dark = np.array(th.meta["mechanism"]) == "dark"
    checks.append((dark.sum() == 1 and th.omega[dark][0] == W12,
                   "single dark peak at omega12"))
    sym = thermodynamic_limit_spectrum(0.5, "symmetric", G, MU, W02, W12)
    expect = np.sort([W02 - off, W02 + off, W12 - off, W12 + off])
    checks.append((np.array_equal(sym.omega, expect)
                   and np.all(sym.intensity == MU**2 / 2),
                   "symmetric: four sticks at +-g sqrt(1/2) mu, equal weights"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 1.0, f"runtime {elapsed:.3f} s"))
    _report(7, "thermodynamic-limit closed forms", checks)


def test_criterion_08_vacuum_fluctuation_signature(model):
    """Field observables: quiet <q> with loud <q^2> on the twin branch.

    Protocol: coupling 1e-3 (the vacuum-dressing amplitude scales with g and
    must clear the 10% threshold), resonant-branch run kicked, twin-branch
    runs launched from the bare states with no kick, self-energy off.
    """
    t0 = time.perf_counter()
    cav8 = CavityParams(omega_c=WC, g=G_FIELD, include_dse=False, n_fock_max=4)
    q_r, dt_r = _timed(propagate_quantum, model, cav8, KickPulse(), (0, 0), **FIELD)
    q_p, dt_p = _timed(propagate_quantum, model, cav8, KickPulse.off(), (1, 0), **FIELD)
    c_r, dt_cr = _timed(propagate_classical, model, cav8, KickPulse(), 0, **FIELD)
    c_p, dt_cp = _timed(propagate_classical, model, cav8, KickPulse.off(), 1, **FIELD)
    for traj, tag in ((q_r, "field_quantum_R"), (q_p, "field_quantum_P"),
                      (c_r, "field_classical_R"), (c_p, "field_classical_P")):
        _register(traj, 0.0, tag)
    checks = []
    q_max_r = float(np.max(np.abs(q_r.q_expect)))
    q_max_p = float(np.max(np.abs(q_p.q_expect)))
    checks.append((q_max_p < 1e-3 * q_max_r,
                   f"quantum max|<q>|_P {q_max_p:.1e} vs 1e-3 * {q_max_r:.1e}"))
    baseline = 1.0 / (2 * WC)
    pp = float(q_p.q2_expect.max() - q_p.q2_expect.min())
    checks.append((pp > 0.1 * baseline,
                   f"<q^2> peak-to-peak {pp / baseline:.1%} of vacuum baseline"))
    c_max_p = float(np.max(np.abs(c_p.q_series)))
    c_max_r = float(np.max(np.abs(c_r.q_series)))
    checks.append((c_max_p < 1e-3 * c_max_r,
                   f"classical max|q|_P {c_max_p:.1e} vs 1e-3 * {c_max_r:.1e}"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 60.0, f"runtime {elapsed:.0f} s"))
    _report(8, "vacuum-fluctuation signature in field observables", checks)


def test_criterion_09_population_dynamics(classical_r, classical_p, quantum_p):
    """Population analysis on the shared time-dependent runs."""
    checks = []
    mask = classical_r.post_pulse_mask()
    p0 = classical_r.populations[mask, 0]
    p2 = classical_r.populations[mask, 2]
    corr = float(np.corrcoef(p0, p2)[0, 1])
    checks.append((corr < -0.99, f"classical R corr(p0, p2) = {corr:.4f}"))
    sig = p2 - p2.mean()
    n_fft = 1 << int(np.ceil(np.log2(4 * sig.size)))
    window = np.exp(-np.arange(sig.size) / (sig.size / 4.0))
    amp = np.abs(np.fft.rfft(sig * window, n=n_fft))
    freqs = 2 * np.pi * np.fft.rfftfreq(n_fft, d=classical_r.dt_sample)
    i = 1 + int(np.argmax(amp[1:]))
    denom = amp[i - 1] - 2 * amp[i] + amp[i + 1]
    shift = 0.5 * (amp[i - 1] - amp[i + 1]) / denom if denom else 0.0
    freq = freqs[i] + shift * (freqs[1] - freqs[0])
    checks.append((abs(freq - 2 * G * MU) / (2 * G * MU) < 0.05,
                   f"classical R oscillation at {freq:.3e} vs 2 g mu"))
    maskp = classical_p.post_pulse_mask()
    for k in (1, 2):
        series = classical_p.populations[maskp, k]
        pp = float(series.max() - series.min())
        checks.append((pp < 1e-4, f"classical P p{k} varies {pp:.1e}"))
    labels = quantum_p.pop_labels
    maskq = quantum_p.post_pulse_mask()
    for lab in ("psi2;N0", "psi0;N1", "psi1;N1"):
        series = quantum_p.populations[maskq, labels.index(lab)]
        swing = float(series.max() - series.min())
        ok = series.max() > 1e-12 and swing > 0.5 * series.max()
        checks.append((ok, f"quantum P p[{lab}] oscillates (pp {swing:.1e})"))
    _report(9, "population dynamics across frameworks", checks)


def test_criterion_10_hcl_rovibrational_model():
    """Morse rovibrational transition energy plus the thermal cavity spectrum.

    The dipole-curve slope is a placeholder (the model's one free function);
    0.10 a.u. keeps second-order cavity dressing of non-pumped lines inside
    the 1 cm^-1 budget at g = 400 cm^-1 while both pumped lines stay split.
    """
    t0 = time.perf_counter()
    checks = []
    params = MorseParams(dipole_curve=(0.43, 0.10))
    hcl = build_morse_rovib(params)
    i00 = hcl.state_index(v=0, J=0, M=0)
    i11 = hcl.state_index(v=1, J=1, M=0)
    nu = au_to_cm1(hcl.energies[i11] - hcl.energies[i00])
    checks.append((abs(nu - 2906.46) < 5.0,
                   f"E(1,1)-E(0,0) = {nu:.2f} cm^-1 (target 2906.46 +- 5)"))

    cav = CavityParams(omega_c=cm1_to_au(2906.46), g=cm1_to_au(400.0),
                       include_dse=True, n_fock_max=2)
    basis = ProductBasis.full(hcl, 2)
    sol = diagonalize_polaritons(assemble_hamiltonian(hcl, cav, basis))
    weights = boltzmann_weights(
        hcl, 300.0, [k for k, lab in enumerate(hcl.labels) if lab["v"] == 0])
    initial = thermal_initial_states(sol, basis, weights, weight_cutoff=2e-3)

    pumped = {(0, 0, 0), (1, 1, 0), (0, 2, 0)}
    splits = {}
    worst_shift, worst_line = 0.0, None
    for ei, wt in initial:
        row = int(np.argmax(np.abs(sol.eigenvectors[:, ei])))
        k, _ = basis.entries[row]
        lk = hcl.labels[k]
        spec = static_stick_spectrum(sol, hcl, basis, [(ei, 1.0)])
        for f, lf in enumerate(hcl.labels):
            if lf["v"] != 1 or hcl.dipole[k, f] == 0.0:
                continue
            if lf["J"] > 9 or lk["J"] > 9:        # keep clear of the J truncation edge
                continue
            w0 = hcl.transition_frequency(k, f)
            m = np.abs(spec.omega - w0) < cm1_to_au(25.0)
            if not m.any():
                continue
            ws, iw = spec.omega[m], spec.intensity[m]
            keep = iw > 0.05 * iw.max()
            ws, iw = ws[keep], iw[keep]
            tag_i = (lk["v"], lk["J"], lk["M"])
            tag_f = (lf["v"], lf["J"], lf["M"])
            if tag_i in pumped and tag_f in pumped:
                top2 = np.sort(ws[np.argsort(iw)[-2:]])
                splits[(tag_i, tag_f)] = au_to_cm1(top2[1] - top2[0])
            else:
                shift = abs(au_to_cm1(ws[np.argmax(iw)] - w0))
                if shift > worst_shift:
                    worst_shift, worst_line = shift, (tag_i, tag_f)
    r0_split = splits.get(((0, 0, 0), (1, 1, 0)), 0.0)
    p_split = splits.get(((0, 2, 0), (1, 1, 0)), 0.0)
    checks.append((r0_split > 2.0, f"R(0) line split by {r0_split:.2f} cm^-1"))
    checks.append((p_split > 2.0,
                   f"P line into (1,1,0) split by {p_split:.2f} cm^-1"))
    checks.append((worst_shift < 1.0,
                   f"worst uncoupled-line shift {worst_shift:.3f} cm^-1 at {worst_line}"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 600.0, f"runtime {elapsed:.0f} s"))
    _report(10, "rovibrational cavity spectrum (positions)", checks)


def test_criterion_11_conservation_suite(model, cav, classical_r, classical_p,
                                         quantum_r, quantum_p):
    """Norm/energy conservation everywhere plus dt/2 stability of peaks."""
    checks = []
    worst_norm = max(t.meta["norm_drift"] for t in _ALL_TRAJECTORIES)
    worst_energy = max(t.meta["energy_drift_post_pulse"] for t in _ALL_TRAJECTORIES)
    checks.append((worst_norm < 1e-8,
                   f"worst norm drift {worst_norm:.1e} over {len(_ALL_TRAJECTORIES)} runs"))
    checks.append((worst_energy < 1e-7, f"worst energy drift {worst_energy:.1e}"))

    # the quantum rerun steps RK4 to t_end, so dt/2 certifies a real integrator
    # against the exact eigen-propagator run at dt
    half = dict(TD)
    half["dt"] = TD["dt"] / 2
    half["record_stride"] = TD["record_stride"] * 2
    for name, runner, ref in (("classical_P", lambda: propagate_classical(
                                   model, cav, KickPulse(), 1, **half), classical_p),
                              ("quantum_P", lambda: propagate_quantum(
                                   model, cav, KickPulse(), (1, 0), **half,
                                   method="rk4"), quantum_p)):
        fine = runner()
        spec_a = _spectrum(ref)
        spec_b = _spectrum(fine)
        peaks_a = detect_peaks(spec_a, rel_threshold=0.02).peaks
        peaks_b = detect_peaks(spec_b, rel_threshold=0.02).peaks
        worst = max(abs(a.omega - b.omega) / spec_a.meta["bin_width"]
                    for a, b in zip(peaks_a, peaks_b))
        checks.append((len(peaks_a) == len(peaks_b) and worst < 0.1,
                       f"{name}: dt/2 moves peaks {worst:.1e} bins"))
    _report(11, "conservation and step-size stability", checks)
