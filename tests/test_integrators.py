"""The tabled RK4 core against the one-vector stepping it replaced.

helpers.stepped_classical and helpers.stepped_quantum evaluate phases and the
pulse inside each rhs call; every Trajectory series of the tabled core must
equal theirs bit for bit.
"""

import numpy as np
import pytest

import twinpol.integrators
from helpers import stepped_classical, stepped_quantum
from twinpol import CavityParams, KickPulse, propagate_classical, propagate_quantum
from twinpol.integrators import integrate

CLASSICAL_SERIES = ("times", "populations", "dipole", "energy", "q_series", "p_series")
QUANTUM_SERIES = ("times", "populations", "dipole", "energy", "q_expect", "q2_expect")


@pytest.fixture
def chunks(monkeypatch):
    """Counts the chunks integrate tables."""
    calls = []
    stage_entries = twinpol.integrators._stage_entries

    def counted(t0, dt, lo, hi, *args):
        calls.append(hi - lo)
        return stage_entries(t0, dt, lo, hi, *args)

    monkeypatch.setattr(twinpol.integrators, "_stage_entries", counted)
    return calls


def assert_same_series(traj, reference, names):
    for name in names:
        assert np.array_equal(getattr(traj, name), reference[name]), name


@pytest.mark.parametrize("dse", [False, True], ids=["dse_off", "dse_on"])
@pytest.mark.parametrize("pulse", [KickPulse(), KickPulse.off()], ids=["kicked", "unkicked"])
@pytest.mark.parametrize("init", [0, 1], ids=["psi_0", "psi_1"])
def test_classical_matches_stepping(model3, dse, pulse, init, chunks):
    # 600 steps, past the pulse's 40-sigma window and shorter than one chunk
    cav = CavityParams(omega_c=1e-2, g=2e-4, include_dse=dse)
    grid = dict(t_end=600.0, dt=1.0, record_stride=7)
    traj = propagate_classical(model3, cav, pulse, init, **grid)
    assert_same_series(traj, stepped_classical(model3, cav, pulse, init, **grid),
                       CLASSICAL_SERIES)
    assert chunks == [600]


@pytest.mark.parametrize("light", ["classical", "quantum"])
def test_dt_0_3_matches_stepping(model3, cav, pulse, light):
    # t + dt and the next step's t0 + s dt differ in the last bit here
    grid = dict(t_end=300.0, dt=0.3, record_stride=3)
    if light == "classical":
        traj = propagate_classical(model3, cav, pulse, 1, **grid)
        ref, names = stepped_classical(model3, cav, pulse, 1, **grid), CLASSICAL_SERIES
    else:
        traj = propagate_quantum(model3, cav, pulse, (1, 0), **grid, method="rk4")
        ref, names = stepped_quantum(model3, cav, pulse, (1, 0), **grid), QUANTUM_SERIES
    assert_same_series(traj, ref, names)


def test_quantum_rk4_with_dse_matches_stepping(model3, pulse):
    cav = CavityParams(omega_c=1e-2, g=2e-4, include_dse=True)
    grid = dict(t_end=500.0, dt=1.0, record_stride=4)
    traj = propagate_quantum(model3, cav, pulse, (1, 0), **grid, method="rk4")
    assert_same_series(traj, stepped_quantum(model3, cav, pulse, (1, 0), **grid),
                       QUANTUM_SERIES)


def test_default_chunks_match_stepping(model3, cav, pulse, chunks):
    # 5003 steps span more than two chunks at the default budget; neither the
    # chunk length nor the record stride 7 divides them
    grid = dict(t_end=5003.0, dt=1.0, record_stride=7)
    traj = propagate_classical(model3, cav, pulse, 0, **grid)
    assert_same_series(traj, stepped_classical(model3, cav, pulse, 0, **grid),
                       CLASSICAL_SERIES)
    assert len(chunks) > 2 and sum(chunks) == 5003
    assert 5003 % chunks[0] != 0


@pytest.mark.parametrize("light", ["classical", "quantum"])
def test_small_chunks_match_stepping(model3, cav, pulse, light, chunks, monkeypatch):
    # 40 steps per chunk: 1003 steps make 25 full chunks and one of 3
    n = 3 if light == "classical" else 9
    monkeypatch.setattr(twinpol.integrators, "TAIL_CHUNK_BYTES", 40 * 3 * (16 + 32 * n))
    grid = dict(t_end=1003.0, dt=1.0, record_stride=7)
    if light == "classical":
        traj = propagate_classical(model3, cav, pulse, 1, **grid)
        ref, names = stepped_classical(model3, cav, pulse, 1, **grid), CLASSICAL_SERIES
    else:
        traj = propagate_quantum(model3, cav, pulse, (1, 0), **grid, method="rk4")
        ref, names = stepped_quantum(model3, cav, pulse, (1, 0), **grid), QUANTUM_SERIES
    assert_same_series(traj, ref, names)
    assert chunks == [40] * 25 + [3]


def test_rhs_gets_two_positional_arguments(model3, cav, pulse, monkeypatch):
    # a wrapper of the form counted(t, y) sees every evaluation
    calls = []

    def counting_integrate(rhs, *args, **kwargs):
        def counted(entry, y):
            calls.append(1)
            return rhs(entry, y)
        return integrate(counted, *args, **kwargs)

    monkeypatch.setattr(twinpol.integrators, "integrate", counting_integrate)
    traj = propagate_classical(model3, cav, pulse, 1, t_end=250.0, dt=1.0, record_stride=8)
    assert len(calls) == traj.meta["rhs_evals"] == 4 * traj.meta["rk4_steps"] == 1000


@pytest.mark.parametrize("y0", [np.array([1.0 + 0j, 0.0]), (np.array([1.0 + 0j]), 0.5)],
                         ids=["array", "tuple"])
def test_zero_steps_return_the_initial_state(y0, chunks):
    seen = []

    def rhs(entry, y):
        raise AssertionError("no step, no rhs call")

    y = integrate(rhs, y0, 2.0, 0.5, 0, lambda t, y: seen.append(t),
                  phase_freqs=np.array([0.0, 1.0]), pulse=KickPulse())
    assert seen == [2.0] and chunks == []
    if isinstance(y0, tuple):
        assert np.array_equal(y[0], y0[0]) and y[1:] == y0[1:]
    else:
        assert np.array_equal(y, y0) and y is not y0


def test_unkicked_exact_run_takes_no_step(model3, cav, chunks):
    traj = propagate_quantum(model3, cav, KickPulse.off(), (1, 0), t_end=400.0, dt=1.0,
                             record_stride=8)
    assert (traj.meta["rk4_steps"], traj.meta["rhs_evals"]) == (0, 0)
    assert chunks == []
    assert traj.populations[0].tolist() == [0.0, 1.0] + [0.0] * 7


def test_pulse_samples_equal_calls():
    pulse = KickPulse(amplitude=-3e-4, t0=40.0, sigma=2.5)
    times = np.linspace(-500.0, 700.0, 12000).reshape(-1, 3)
    samples = pulse.samples(times)
    assert samples.shape == times.shape
    assert [pulse(t) for t in times.ravel()] == samples.ravel().tolist()
    assert np.array_equal(np.signbit(samples), np.signbit([pulse(t) for t in times.ravel()])
                          .reshape(times.shape))
    assert not KickPulse.off().samples(times).any()
