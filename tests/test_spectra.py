import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import twinpol.cavity
from twinpol import (AmbiguousPeaksError, KickPulse, Spectrum,
                     broaden_sticks, detect_peaks, dipole_spectrum,
                     fit_through_origin, measure_splitting, peaks_from_sticks,
                     propagate_classical, thermal_average_spectra)
from twinpol.cavity import Trajectory, write_csv
from twinpol.spectra import make_stick_spectrum

from helpers import broadened_per_stick, merge_sticks


def synthetic_trajectory(signal, dt=1.0):
    n = signal.size
    return Trajectory(
        kind="classical", times=np.arange(n) * dt, dipole=signal,
        populations=np.ones((n, 1)), energy=np.zeros(n),
        pop_labels=["psi0"], q_series=np.zeros(n), p_series=np.zeros(n),
        meta={"pulse_support_end": 0.0},
    )


def test_damped_cosine_peak_and_width():
    # closed form: the power spectrum of cos(w0 t) e^{-t/tau} is a lorentzian
    # of half-width 1/tau centered at w0
    w0, tau, dt = 0.02, 4e4, 2.0
    t = np.arange(0, 4e5, dt)
    traj = synthetic_trajectory(np.cos(w0 * t) * np.exp(-t / tau), dt=dt)
    spec = dipole_spectrum(traj, damping_tau=1e30, pad_factor=4)
    peaks = detect_peaks(spec, rel_threshold=0.5)
    assert len(peaks.peaks) == 1
    assert abs(peaks.peaks[0].omega - w0) < spec.meta["bin_width"]
    # half width at half maximum of the w^2-corrected lorentzian
    half = 0.5 * peaks.peaks[0].height
    above = spec.omega[spec.intensity >= half]
    hwhm = 0.5 * (above.max() - above.min())
    assert hwhm == pytest.approx(1.0 / tau, rel=0.10)


def test_zero_signal_zero_spectrum():
    traj = synthetic_trajectory(np.zeros(4096))
    spec = dipole_spectrum(traj, damping_tau=100.0)
    assert np.all(spec.intensity == 0.0)


def test_constant_baseline_subtracted():
    traj = synthetic_trajectory(np.full(4096, 0.37))
    spec = dipole_spectrum(traj, damping_tau=1e9)
    assert spec.intensity.max() < 1e-20


def test_nonuniform_grid_rejected():
    traj = synthetic_trajectory(np.zeros(64))
    traj.times = traj.times**1.01
    with pytest.raises(ValueError):
        dipole_spectrum(traj, damping_tau=10.0)


def test_two_lorentzian_centers_recovered():
    sticks = make_stick_spectrum([1.0, 1.3], [1.0, 0.7])
    spec = broaden_sticks(sticks, "lorentzian", width=0.01)
    peaks = detect_peaks(spec, rel_threshold=0.1)
    bin_w = spec.meta["bin_width"]
    assert len(peaks.peaks) == 2
    assert abs(peaks.peaks[0].omega - 1.0) < 0.1 * bin_w
    assert abs(peaks.peaks[1].omega - 1.3) < 0.1 * bin_w


def test_monotone_spectrum_empty():
    spec = Spectrum("continuous", np.linspace(1, 2, 50), np.linspace(0, 1, 50))
    assert detect_peaks(spec, 0.1).peaks == []


def test_flat_spectrum_empty():
    spec = Spectrum("continuous", np.linspace(1, 2, 50), np.ones(50))
    assert detect_peaks(spec, 0.1).peaks == []


def test_measure_splitting_requires_two_peaks():
    sticks = make_stick_spectrum([1.0, 1.2, 1.4], [1.0, 1.0, 1.0])
    peaks = peaks_from_sticks(sticks)
    assert measure_splitting(peaks, (0.9, 1.3)) == pytest.approx(0.2)
    with pytest.raises(AmbiguousPeaksError) as err:
        measure_splitting(peaks, (0.9, 1.5))
    assert len(err.value.candidates) == 3


def test_thermal_average_identity_and_mixing():
    grid = np.linspace(0.1, 1.0, 64)
    a = Spectrum("continuous", grid, np.abs(np.sin(grid * 5)))
    same = thermal_average_spectra([(a, 1.0)])
    assert np.allclose(same.intensity, a.intensity)
    half = thermal_average_spectra([(a, 0.5), (a, 0.5)])
    assert np.allclose(half.intensity, a.intensity)
    other = Spectrum("continuous", grid + 0.01, a.intensity)
    with pytest.raises(ValueError):
        thermal_average_spectra([(a, 0.5), (other, 0.5)])


def test_thermal_average_sticks():
    a = make_stick_spectrum([1.0, 2.0], [1.0, 2.0])
    b = make_stick_spectrum([2.0, 3.0], [4.0, 1.0])
    avg = thermal_average_spectra([(a, 0.5), (b, 0.5)])
    assert np.allclose(avg.omega, [1.0, 2.0, 3.0])
    assert np.allclose(avg.intensity, [0.5, 3.0, 0.5])


def test_broaden_single_stick_peak_position():
    sticks = make_stick_spectrum([0.5], [2.0])
    for shape in ("lorentzian", "gaussian"):
        spec = broaden_sticks(sticks, shape, width=0.01)
        peak = spec.omega[np.argmax(spec.intensity)]
        assert abs(peak - 0.5) < 2 * spec.meta["bin_width"]


@pytest.mark.parametrize("n_sticks", [1, 7, 300])
@pytest.mark.parametrize("shape", ["lorentzian", "gaussian"])
def test_blocked_broadening_matches_per_stick_loop(shape, n_sticks):
    # 300 sticks split the 2001-point grid into several row blocks, the last one short
    rng = np.random.default_rng(n_sticks)
    sticks = make_stick_spectrum(np.sort(rng.uniform(1.0, 1.5, n_sticks)),
                                 rng.uniform(0.1, 2.0, n_sticks))
    spec = broaden_sticks(sticks, shape, width=0.02)
    oracle = broadened_per_stick(spec.omega, sticks, shape, 0.02)
    assert np.max(np.abs(spec.intensity - oracle)) <= 1e-13 * np.max(oracle)


@pytest.mark.parametrize("positions", [[], [0.5, 0.7]], ids=["empty", "sticks"])
def test_unknown_lineshape_is_refused(positions):
    sticks = make_stick_spectrum(positions, np.ones(len(positions)))
    with pytest.raises(ValueError, match="unknown lineshape 'bogus'"):
        broaden_sticks(sticks, "bogus")


def test_gaussian_broadening_preserves_area():
    sticks = make_stick_spectrum([1.0, 1.5, 2.2], [1.0, 3.0, 0.5])
    spec = broaden_sticks(sticks, "gaussian", width=0.02)
    area = np.trapezoid(spec.intensity, spec.omega)
    assert area == pytest.approx(sticks.intensity.sum(), rel=1e-3)


def test_close_sticks_merge_into_one_maximum():
    width = 0.02
    sticks = make_stick_spectrum([1.0, 1.0 + width / 2], [1.0, 1.0])
    spec = broaden_sticks(sticks, "lorentzian", width=width)
    assert len(detect_peaks(spec, 0.2).peaks) == 1


@settings(max_examples=15, deadline=None)
@given(st.lists(st.floats(0.5, 5.0), min_size=1, max_size=5, unique=True))
def test_broaden_then_detect_recovers_separated_sticks(positions):
    width = 0.01
    positions = sorted(positions)
    assume(all(b - a > 3 * width for a, b in zip(positions, positions[1:])))
    sticks = make_stick_spectrum(positions, np.ones(len(positions)))
    spec = broaden_sticks(sticks, "gaussian", width=width)
    peaks = detect_peaks(spec, rel_threshold=0.05)
    assert len(peaks.peaks) == len(positions)
    for target, peak in zip(positions, peaks.peaks):
        assert abs(peak.omega - target) < 0.1 * width


def test_parseval_power_scales_quadratically(model3, cav):
    specs = {}
    for amp in (1e-4, 5e-5):
        traj = propagate_classical(model3, cav, KickPulse(amplitude=amp), 0,
                                   t_end=2e4, dt=1.0, record_stride=4)
        specs[amp] = dipole_spectrum(traj, damping_tau=5e3).intensity.sum()
    assert specs[1e-4] / specs[5e-5] == pytest.approx(4.0, rel=0.02)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum("continuous", np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Spectrum("continuous", np.array([1.0, 2.0]), np.array([1.0, -1.0]))


def test_trajectory_series_must_share_grid():
    from twinpol.errors import ModelError

    with pytest.raises(ModelError):
        Trajectory(kind="classical", times=np.arange(8.0), dipole=np.zeros(5),
                   populations=np.ones((8, 1)), energy=np.zeros(8),
                   pop_labels=["psi0"], q_series=np.zeros(8),
                   p_series=np.zeros(8))


def test_stick_merging_tolerance():
    spec = make_stick_spectrum([1.0, 1.0 + 5e-11, 2.0], [1.0, 2.0, 3.0])
    assert spec.omega.size == 2
    assert spec.intensity[0] == pytest.approx(3.0)


STICK_LISTS = st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
    st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(STICK_LISTS, st.sampled_from([0.0, 0.01, 0.05]), st.sampled_from([0.0, 1.0]))
def test_stick_merge_matches_gap_reference(sticks, merge_tol, min_intensity):
    positions, intensities = sticks
    labels = [str(i) for i in range(len(positions))]
    spec = make_stick_spectrum(positions, intensities, merge_tol=merge_tol,
                               min_intensity=min_intensity, labels_i=labels)
    ref = merge_sticks(positions, intensities, labels, merge_tol, min_intensity)
    assert spec.omega.size == len(ref)
    assert spec.meta["labels_i"] == [label for _, _, label in ref]
    assert np.allclose(spec.intensity, [t for _, t, _ in ref], rtol=1e-12, atol=0.0)
    assert np.allclose(spec.omega, [c for c, _, _ in ref], rtol=1e-12, atol=1e-15)


# Positions on a 2^-8 grid and tolerances at odd multiples of 2^-9 keep every
# gap at least 2^-9 from merge_tol.  A chain of sticks in [2, 4) adds gaps
# within two ulps of merge_tol, at positions and intensities with full
# mantissas: there a centre rounded one ulp past its group would close the
# gap to the next group on a second merge.
@settings(max_examples=200, deadline=None)
@given(STICK_LISTS, st.sampled_from([1, 3, 13]), st.sampled_from([0.0, 1.0]),
       st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_stick_merge_is_idempotent(sticks, tol_halfsteps, min_intensity, n_chain, seed):
    positions, intensities = sticks
    merge_tol = tol_halfsteps / 512.0
    rng = np.random.default_rng(seed)
    ulps = rng.integers(-1, 3, n_chain) * 2.0**-51      # an ulp in [2, 4): the sums are exact
    chain = 2.0 + 0.5 * rng.random() + np.cumsum(merge_tol + ulps)
    positions = np.concatenate([np.round(np.asarray(positions) * 256.0) / 256.0, chain])
    intensities = np.concatenate([intensities, 10.0 * rng.random(n_chain)])
    labels = [str(i) for i in range(positions.size)]
    once = make_stick_spectrum(positions, intensities, merge_tol=merge_tol,
                               min_intensity=min_intensity, labels_i=labels)
    assert np.all(np.diff(once.omega) > merge_tol)
    twice = make_stick_spectrum(once.omega, once.intensity, merge_tol=merge_tol,
                                min_intensity=min_intensity, **once.meta)
    assert np.array_equal(twice.omega, once.omega)
    assert np.array_equal(twice.intensity, once.intensity)
    assert twice.meta["labels_i"] == once.meta["labels_i"]


def test_stick_merge_joins_a_chain_longer_than_the_tolerance():
    # each neighbour lies within tol, the ends do not: one group, where a
    # group anchored at its first stick would have split off the third
    tol = 1e-10
    spec = make_stick_spectrum([1.0, 1.0 + 0.6 * tol, 1.0 + 1.2 * tol], [1.0, 2.0, 1.0],
                               merge_tol=tol, labels_i=["a", "b", "c"])
    assert spec.intensity.tolist() == [4.0]
    assert spec.omega[0] == pytest.approx(1.0 + 0.6 * tol, abs=1e-15)
    assert spec.meta["labels_i"] == ["b"]


@pytest.mark.parametrize("pair, nudged", [
    (1.0 / 3.0, np.nextafter(1.0 / 3.0, 0.0)), (1.0 / 3.0, np.nextafter(1.0 / 3.0, 1.0)),
    # a weak pair's amplitudes round at the scale of the strongest stick, so
    # its intensities may differ by far more than their own ulps
    (1e-20, 1e-20 * (1.0 - 1e-6)), (1e-20, 1e-20 * (1.0 + 1e-6)),
])
def test_degenerate_partner_label_ignores_rounding(pair, nudged):
    # a +-M pair at one frequency, its intensities equal up to rounding
    for partner in (0, 1):
        sticks = [1.0, pair, pair]
        sticks[1 + partner] = nudged
        spec = make_stick_spectrum([1.0, 2.0, 2.0], sticks, labels_i=["a", "b", "c"])
        assert spec.meta["labels_i"] == ["a", "b"]


def test_stick_columns_follow_select_and_must_match_sticks():
    spec = make_stick_spectrum([1.0, 2.0, 3.0], [1.0, 0.001, 2.0], labels_i=["a", "b", "c"],
                               branch=["R", "P", "P"])
    strong = spec.intensity > 0.01 * spec.intensity.max()
    kept = spec.select(strong)
    assert kept.omega.tolist() == [1.0, 3.0]
    assert kept.meta["labels_i"] == ["a", "c"] and kept.meta["branch"] == ["R", "P"]
    assert spec.in_window(1.5, 3.5).meta["labels_i"] == ["b", "c"]
    with pytest.raises(ValueError, match="entries for"):
        Spectrum("sticks", spec.omega[strong], spec.intensity[strong], spec.meta)


def test_fit_through_origin():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    slope, r2 = fit_through_origin(x, 2.5 * x)
    assert slope == pytest.approx(2.5)
    assert r2 == pytest.approx(1.0)


def test_csv_schema_continuous(tmp_path):
    spec = Spectrum("continuous", np.array([0.1, 0.2]), np.array([1.0, 2.0]),
                    {"bin_width": 0.1})
    path = tmp_path / "spec.csv"
    spec.to_csv(path)
    assert path.read_text().splitlines()[0] == "omega_au,omega_cm1,intensity"


@pytest.mark.parametrize("labels, as_block", [(False, False), (True, False), (False, True),
                                             (True, True)],
                         ids=["numbers", "with_labels", "block", "block_with_labels"])
def test_zero_columns_match_fstring_text(tmp_path, monkeypatch, labels, as_block):
    # +0.0 columns are literal 0s of the row template; a column with any
    # -0.0, or an integer one, is formatted as before; the same columns
    # handed over as one (rows, k) block give the same text
    monkeypatch.setattr(twinpol.cavity, "CSV_BLOCK_ROWS", 3)
    n = 7
    one_negative = np.zeros(n)
    one_negative[4] = -0.0
    columns = [np.zeros(n), np.arange(n) * 0.5, one_negative, np.full(n, -0.0),
               np.zeros(n, dtype=int), np.zeros(n)]
    names = [f"c{k}" for k in range(len(columns))]
    label_columns = [[f"s{k}%" for k in range(n)]] if labels else []
    numbers = [np.column_stack(columns)] if as_block else columns
    write_csv(tmp_path / "zeros.csv", names + ["label"] * labels, numbers, label_columns)
    lines = (tmp_path / "zeros.csv").read_text().splitlines()
    n_numbers = len(columns)
    assert lines[1:] == [",".join([f"{x:.17g}" for x in row[:n_numbers]] + list(row[n_numbers:]))
                         for row in zip(*columns, *label_columns)]
    assert lines[5].split(",")[2] == "-0" and lines[1].split(",")[0] == "0"
    write_csv(tmp_path / "all_zero.csv", ["a", "b"], [np.zeros(n), np.zeros(n)])
    assert (tmp_path / "all_zero.csv").read_text() == "a,b\n" + "0,0\n" * n


def test_csv_rows_match_fstring_text(tmp_path, monkeypatch):
    # the writers format blocks of rows at once (three here, the last one
    # partial); each cell must read as f"{x:.17g}"
    monkeypatch.setattr(twinpol.cavity, "CSV_BLOCK_ROWS", 3)
    edge = np.array([0.0, -0.0, 5e-324, 1e308, 3.0, 1e-3, 0.1 + 0.2, 2.0**60])
    times = np.arange(edge.size, dtype=float)
    traj = Trajectory(kind="quantum", times=times, dipole=-edge,
                      populations=np.column_stack([edge, edge[::-1]]),
                      energy=edge, pop_labels=["a;N0", "b;N1"],
                      q_expect=edge, q2_expect=edge)
    traj.to_csv(tmp_path / "traj.csv")
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert lines[0] == "t,mu,q_expect,q2_expect,p_a;N0,p_b;N1"
    assert lines[1:] == [",".join(f"{x:.17g}" for x in row) for row in
                         zip(times, -edge, edge, edge, edge, edge[::-1])]

    labels = [f"v{k}J{k + 1}" for k in range(edge.size)]
    spec = Spectrum("sticks", edge, np.abs(edge), {"labels_i": labels})
    with np.errstate(over="ignore"):       # 1e308 au is inf in cm^-1
        spec.to_csv(tmp_path / "sticks.csv", extra_columns={"n_mol": [4] * edge.size})
        cm1 = spec.omega_cm1
    lines = (tmp_path / "sticks.csv").read_text().splitlines()
    assert lines[0] == "omega_cm1,omega_au,intensity,label_i,n_mol"
    assert lines[1:] == [f"{c:.17g},{w:.17g},{i:.17g},{lab},4" for c, w, i, lab in
                         zip(cm1, edge, np.abs(edge), labels)]
    assert "-0" in lines[2] and "inf" in lines[4]
