import numpy as np
import pytest

import twinpol.integrators
from helpers import full_basis_classical, traced_peak, trajectory_head
from twinpol import (CavityParams, IntegrationError, KickPulse, ModelError,
                     build_three_level, classical_total_energy, cm1_to_au, detect_peaks,
                     dipole_spectrum, measure_splitting, propagate_classical,
                     propagate_quantum)
from twinpol.classical import ClassicalState
from twinpol.integrators import integrate


def test_zero_coupling_keeps_field_dark(model3, pulse):
    cav = CavityParams(omega_c=1e-2, g=0.0, include_dse=False)
    traj = propagate_classical(model3, cav, pulse, 0, t_end=2e4, dt=1.0,
                               record_stride=10)
    assert np.max(np.abs(traj.q_series)) == 0.0
    assert np.max(np.abs(traj.p_series)) == 0.0


def test_initial_energy_is_eigenenergy(model3, cav):
    state = ClassicalState(np.array([0, 1, 0], complex), q=0.0, p=0.0, t=0.0)
    assert classical_total_energy(state, model3, cav) == pytest.approx(2e-3)


def test_dse_contributes_to_energy(model3):
    cav = CavityParams(omega_c=1e-2, g=2e-4, include_dse=True)
    state = ClassicalState(np.array([1, 0, 0], complex), q=0.0, p=0.0, t=0.0)
    # ground state carries (g^2/w_c) <mu^2>_00 = (g^2/w_c) * 1
    assert classical_total_energy(state, model3, cav) == pytest.approx(
        cav.g**2 / cav.omega_c)


def test_norm_and_energy_conservation(classical_r_traj):
    assert classical_r_traj.meta["norm_drift"] < 1e-8
    assert classical_r_traj.meta["energy_drift_post_pulse"] < 1e-7


def test_decoupled_energy_partition(model3, pulse):
    # g = 0: molecular and field energies separately constant after the kick
    cav = CavityParams(omega_c=1e-2, g=0.0, include_dse=False)
    traj = propagate_classical(model3, cav, pulse, 0, t_end=3e4, dt=1.0,
                               record_stride=10)
    mask = traj.post_pulse_mask()
    e_mol = (traj.populations[mask] * model3.energies).sum(axis=1)
    assert e_mol.max() - e_mol.min() < 1e-12


def test_kick_linearity(model3, cav):
    full = propagate_classical(model3, cav, KickPulse(amplitude=1e-4), 0,
                               t_end=2e4, dt=1.0, record_stride=10)
    half = propagate_classical(model3, cav, KickPulse(amplitude=5e-5), 0,
                               t_end=2e4, dt=1.0, record_stride=10)
    ratio = np.max(np.abs(full.dipole)) / np.max(np.abs(half.dipole))
    assert ratio == pytest.approx(2.0, rel=0.01)


def test_free_molecule_peaks_at_bare_frequencies(model3, pulse):
    # g -> 0 limit: spectrum peaks only at cavity-free transition frequencies
    cav = CavityParams(omega_c=1e-2, g=0.0, include_dse=False)
    traj = propagate_classical(model3, cav, pulse, 0, t_end=1.6e5, dt=1.0,
                               record_stride=8)
    spec = dipole_spectrum(traj, damping_tau=4e4)
    peaks = detect_peaks(spec, rel_threshold=0.01)
    assert len(peaks.peaks) == 1
    assert abs(peaks.peaks[0].omega - 10e-3) < spec.meta["bin_width"]


def test_resonant_run_splitting(classical_r_traj):
    # oracle: quantum static doublet gap 2 g mu
    spec = dipole_spectrum(classical_r_traj,
                           damping_tau=classical_r_traj.times[-1] / 4.0)
    peaks = detect_peaks(spec, rel_threshold=0.05)
    split = measure_splitting(peaks, (9.5e-3, 10.5e-3))
    assert abs(split - 4e-4) < spec.meta["bin_width"]


def test_off_resonant_populations_frozen(classical_p_traj):
    mask = classical_p_traj.post_pulse_mask()
    for k in (1, 2):
        series = classical_p_traj.populations[mask, k]
        assert series.max() - series.min() < 1e-4


def test_twin_window_has_single_unsplit_peak(classical_p_traj):
    # the classical model never splits the off-resonant line, so asking for a
    # splitting in that window reports the ambiguity
    from twinpol import AmbiguousPeaksError

    spec = dipole_spectrum(classical_p_traj,
                           damping_tau=classical_p_traj.times[-1] / 4.0)
    peaks = detect_peaks(spec, rel_threshold=0.02)
    with pytest.raises(AmbiguousPeaksError):
        measure_splitting(peaks, (7.5e-3, 8.5e-3))


def test_time_reversal(model3, cav, pulse):
    # forward then backward propagation returns the initial coefficients
    mu = model3.dipole
    g_fac = cav.g * np.sqrt(2 * cav.omega_c)

    def rhs(entry, y):
        f, a, b = entry           # f(t), -i e^{iEt}, e^{-iEt} at the stage time
        c = y[:3]
        q = y[3].real
        psi = b * c
        mu_psi = mu @ psi
        drive = g_fac * q + f
        dy = np.empty_like(y)
        dy[:3] = a * (drive * mu_psi)
        dy[3] = y[4].real
        dy[4] = -cav.omega_c**2 * q - g_fac * float(np.vdot(psi, mu_psi).real)
        return dy

    y0 = np.zeros(5, complex)
    y0[0] = 1.0
    n_steps = 20000
    tables = dict(phase_freqs=model3.energies, pulse=pulse)
    y_end = integrate(rhs, y0, 0.0, 1.0, n_steps, **tables)
    y_back = integrate(rhs, y_end, float(n_steps), -1.0, n_steps, **tables)
    assert np.max(np.abs(y_back - y0)) < 1e-6


# both light models from molecular state k, the ground state unless given;
# the guards are shared
FROM_STATE = {
    "classical": lambda model, cav, pulse, k=0, **kw: propagate_classical(
        model, cav, pulse, k, **kw),
    "quantum": lambda model, cav, pulse, k=0, **kw: propagate_quantum(
        model, cav, pulse, (k, 0), **kw),
}

# (arguments, what the diagnostic names) of runs both light models refuse.
# The short grid gave a one-record trajectory that dipole_spectrum failed on
# with an IndexError; a zero stride or a NaN dt failed inside the grid.
REFUSED_RUNS = {
    "coarse_dt": (dict(t_end=100.0, dt=10.0), "too coarse"),
    "short_grid": (dict(t_end=5.0, dt=1.0, record_stride=8),
                   "t_end is shorter than one record_stride"),
    "zero_stride": (dict(t_end=100.0, dt=1.0, record_stride=0), "record_stride"),
    "nan_dt": (dict(t_end=100.0, dt=float("nan")), "positive and finite"),
    "start_above": (dict(k=5, t_end=100.0, dt=1.0), r"outside 0\.\.2|not in the basis"),
    "start_below": (dict(k=-1, t_end=100.0, dt=1.0), r"outside 0\.\.2|not in the basis"),
}


@pytest.mark.parametrize("light", FROM_STATE)
@pytest.mark.parametrize("case", REFUSED_RUNS)
def test_refused_runs(model3, cav, pulse, light, case):
    kwargs, named = REFUSED_RUNS[case]
    with pytest.raises(ModelError, match=named):
        FROM_STATE[light](model3, cav, pulse, **kwargs)


@pytest.mark.parametrize("light", FROM_STATE)
def test_linear_response_guard(model3, cav, light):
    strong = KickPulse(amplitude=0.05)
    with pytest.raises(IntegrationError, match="linear-response"):
        FROM_STATE[light](model3, cav, strong, t_end=500.0, dt=1.0)


def test_trajectory_csv_roundtrip(classical_p_traj, tmp_path):
    path = tmp_path / "traj.csv"
    classical_p_traj.to_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[:4] == ["t", "mu", "q", "p"]
    assert header[4:] == ["p_psi0", "p_psi1", "p_psi2"]
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape[0] == classical_p_traj.times.size


def test_trajectory_head_is_the_shorter_run(model3, cav, pulse):
    # the session's 1.6e5 au fixtures are the head of the 3.2e5 au runs
    head = trajectory_head(propagate_classical(model3, cav, pulse, 1, t_end=4e4, dt=1.0,
                                               record_stride=8), 2e4)
    direct = propagate_classical(model3, cav, pulse, 1, t_end=2e4, dt=1.0, record_stride=8)
    for name in ("times", "dipole", "populations", "energy", "q_series", "p_series"):
        assert np.array_equal(getattr(head, name), getattr(direct, name)), name
    assert head.meta == direct.meta


def test_uncoupled_state_stays_exactly_empty(pulse):
    # mu02 = 0: from psi_1 the kick and the field reach psi_2 only
    model = build_three_level(0.0, 2e-3, 10e-3, 0.0, 1.0)
    cav = CavityParams(omega_c=1e-2, g=2e-4, include_dse=True)
    traj = propagate_classical(model, cav, pulse, 1, t_end=2e3, dt=1.0, record_stride=4)
    assert traj.meta["coupled_states"] == 2
    assert not traj.populations[:, 0].any() and not np.signbit(traj.populations[:, 0]).any()
    assert traj.populations[-1, 2] > 1e-8


def test_hcl_steps_the_coupled_states_only(hcl_model, pulse):
    # the Z-polarized field conserves M: from v0J2M0 the kick reaches the 22
    # M = 0 states of v <= 1, J <= 10
    cav = CavityParams(omega_c=cm1_to_au(2906.46), g=cm1_to_au(400.0), include_dse=True)
    init = hcl_model.state_index(v=0, J=2, M=0)
    grid = dict(t_end=400.0, dt=1.0, record_stride=4)
    traj = propagate_classical(hcl_model, cav, pulse, init, **grid)
    full = full_basis_classical(hcl_model, cav, pulse, init, **grid)
    assert traj.meta["coupled_states"] == 22
    outside = np.ones(hcl_model.n_states, bool)
    outside[[k for k, lab in enumerate(hcl_model.labels) if lab["M"] == 0]] = False
    assert not traj.populations[:, outside].any()
    # Each step's rhs sums at most n = 242 products per entry, in another
    # order in each run, so a step moves a series by at most n eps of its
    # scale; over the 400 steps those moves add up at most linearly.
    n_steps = traj.meta["rk4_steps"]
    for name in ("dipole", "energy", "q_series", "p_series", "populations"):
        a, b = getattr(traj, name), getattr(full, name)
        bound = n_steps * hcl_model.n_states * np.finfo(float).eps * np.max(np.abs(b))
        assert np.max(np.abs(a - b)) <= bound, name
    assert np.abs(traj.dipole).max() > 1e-6


def test_record_buffer_is_bounded(model3, cav, pulse):
    # 2,501 against 10,001 records: the peak grows by the added records'
    # populations and series (times and four series), and the buffered
    # states and their images stay within one chunk
    def run(t_end):
        return traced_peak(lambda: propagate_classical(model3, cav, pulse, 1, t_end=t_end,
                                                       dt=4.0, record_stride=2))
    (short, short_peak), (long, long_peak) = run(2e4), run(8e4)
    added = (long.times.size - short.times.size) * 8 * (model3.n_states + 5)
    assert long_peak - short_peak <= added + twinpol.integrators.TAIL_CHUNK_BYTES
