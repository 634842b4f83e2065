"""The tabled RK4 core against the one-vector stepping it replaced.

helpers.stepped_classical and helpers.stepped_quantum evaluate phases and the
pulse inside each rhs call; every Trajectory series of the tabled core must
equal theirs bit for bit.
"""

import numpy as np
import pytest

import twinpol.integrators
from helpers import stepped_classical, stepped_quantum
from twinpol import (CavityParams, KickPulse, build_three_level, propagate_classical,
                     propagate_quantum)
from twinpol.integrators import integrate
from twinpol.model import mu_squared_matrix

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


@pytest.fixture
def captured(monkeypatch):
    """What integrate is handed, and what its rhs and observer see: the
    keyword tables, the rhs entries and copies of the observed states."""
    seen = {"entries": [], "states": []}
    original = twinpol.integrators.integrate

    def capturing(rhs, y0, t0, dt, n_steps, observer, observe_every, **tables):
        def rhs_seen(entry, y):
            seen["entries"].append(entry)
            return rhs(entry, y)

        def observer_seen(t, y):
            seen["states"].append(y.copy())
            observer(t, y)

        seen.update(tables)
        return original(rhs_seen, y0, t0, dt, n_steps, observer_seen, observe_every, **tables)

    monkeypatch.setattr(twinpol.integrators, "integrate", capturing)
    return seen


def assert_same_series(traj, reference, names):
    for name in names:
        assert np.array_equal(getattr(traj, name), reference[name]), name


@pytest.mark.parametrize("dse", [False, True], ids=["dse_off", "dse_on"])
@pytest.mark.parametrize("pulse", [KickPulse(), KickPulse.off()], ids=["kicked", "unkicked"])
@pytest.mark.parametrize("init", [0, 1], ids=["psi_0", "psi_1"])
def test_classical_matches_stepping(model3, dse, pulse, init, chunks):
    # 600 steps, past the pulse's 40-sigma window; a step tables 3 stage times
    # of f, a and b and the phased mu (and mu^2) on the 3 states, of which the
    # entries keep f and the phased operators, so the steps fit one chunk
    # without the self-energy and two with it
    cav = CavityParams(omega_c=1e-2, g=2e-4, include_dse=dse)
    grid = dict(t_end=600.0, dt=1.0, record_stride=7)
    traj = propagate_classical(model3, cav, pulse, init, **grid)
    assert_same_series(traj, stepped_classical(model3, cav, pulse, init, **grid),
                       CLASSICAL_SERIES)
    per_chunk = twinpol.integrators.TAIL_CHUNK_BYTES // (3 * (16 + 32 * 3 + 16 * 9 * (1 + dse)))
    assert chunks == ([436, 164] if dse else [600]) and chunks[0] == min(per_chunk, 600)


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
    # 40 steps per chunk: 1003 steps make 25 full chunks and one of 3.  A step
    # tables 3 stage times of f, a and b and, classically, the phased mu; the
    # classical entries keep f and the phased mu, the quantum ones (f, a, b)
    n, n_ops = (3, 1) if light == "classical" else (9, 0)
    monkeypatch.setattr(twinpol.integrators, "TAIL_CHUNK_BYTES",
                        40 * 3 * (16 + 32 * n + 16 * n * n * n_ops))
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


@pytest.mark.parametrize("y0", [np.array([1.0 + 0j, 0.0])], ids=["array"])
def test_zero_steps_return_the_initial_state(y0, chunks):
    seen = []

    def rhs(entry, y):
        raise AssertionError("no step, no rhs call")

    y = integrate(rhs, y0, 2.0, 0.5, 0, lambda t, y: seen.append(t),
                  phase_freqs=np.array([0.0, 1.0]), pulse=KickPulse())
    assert seen == [2.0] and chunks == []
    assert np.array_equal(y, y0) and y is not y0


def test_unkicked_exact_run_takes_no_step(model3, cav, chunks):
    traj = propagate_quantum(model3, cav, KickPulse.off(), (1, 0), t_end=400.0, dt=1.0,
                             record_stride=8)
    assert (traj.meta["rk4_steps"], traj.meta["rhs_evals"]) == (0, 0)
    assert chunks == []
    assert traj.populations[0].tolist() == [0.0, 1.0] + [0.0] * 7


@pytest.mark.parametrize("route", ["exact_kicked", "exact_unkicked", "rk4", "classical"])
def test_observe_gets_c_ordered_records(model3, cav, pulse, route, monkeypatch):
    # one flush for stepped and constant states: psi amplitude by record in C
    # order, y a column per record, or one column for a state constant after
    # the kick; a small budget makes several chunks of each
    module = twinpol.classical if route == "classical" else twinpol.quantum
    propagate, seen = module.propagate, []

    def spied(rhs, observe, series, **kwargs):
        def spy(t, psi, y):
            seen.append((t.size, psi.shape, psi.flags.c_contiguous, psi.dtype, y.shape))
            return observe(t, psi, y)
        return propagate(rhs, spy, series, **kwargs)

    monkeypatch.setattr(module, "propagate", spied)
    monkeypatch.setattr(twinpol.integrators, "TAIL_CHUNK_BYTES", 1 << 12)
    grid = dict(t_end=300.0, dt=1.0, record_stride=1)
    if route == "classical":
        traj = propagate_classical(model3, cav, pulse, 1, **grid)
        n_c, n_y = 3, 5
    else:
        kick = KickPulse.off() if route == "exact_unkicked" else pulse
        traj = propagate_quantum(model3, cav, kick, (1, 0), **grid,
                                 method="rk4" if route == "rk4" else "exact")
        n_c = n_y = 9
    n_rec, n_exact = traj.times.size, traj.meta["exact_records"]
    # the kicked exact run steps its records up to the first at or after the kick
    assert n_exact == {"exact_kicked": n_rec - traj.meta["rk4_steps"],
                       "exact_unkicked": n_rec}.get(route, 0)
    assert route != "exact_kicked" or 0 < n_exact < n_rec
    assert sum(records for records, *_ in seen) == n_rec
    done = 0
    for records, shape, c_order, dtype, y_shape in seen:
        assert shape == (n_c, records) and c_order and dtype == complex
        assert y_shape == (n_y, 1 if done >= n_rec - n_exact else records)
        done += records
    assert max(records for records, *_ in seen) > 1 and len(seen) > 2


def test_pulse_samples_equal_calls():
    pulse = KickPulse(amplitude=-3e-4, t0=40.0, sigma=2.5)
    times = np.linspace(-500.0, 700.0, 12000).reshape(-1, 3)
    samples = pulse.samples(times)
    assert samples.shape == times.shape
    assert [pulse(t) for t in times.ravel()] == samples.ravel().tolist()
    assert np.array_equal(np.signbit(samples), np.signbit([pulse(t) for t in times.ravel()])
                          .reshape(times.shape))
    assert not KickPulse.off().samples(times).any()


@pytest.mark.parametrize("dse", [False, True], ids=["dse_off", "dse_on"])
@pytest.mark.parametrize("model_name", ["all_coupled", "mu02_zero"])
def test_classical_state_is_one_array(model3, pulse, dse, model_name, captured):
    # C, then q and p with an imaginary part of exactly +0.0 in every record:
    # why complex arithmetic gives them the bits of float arithmetic
    model = model3 if model_name == "all_coupled" else build_three_level(0.0, 2e-3, 10e-3,
                                                                         0.0, 1.0)
    cav = CavityParams(omega_c=1e-2, g=2e-4, include_dse=dse)
    traj = propagate_classical(model, cav, pulse, 1, t_end=600.0, dt=1.0, record_stride=4)
    n = traj.meta["coupled_states"]
    assert n == (3 if model_name == "all_coupled" else 2)
    states = captured["states"]
    assert len(states) == traj.times.size
    for y in states:
        assert type(y) is np.ndarray and y.dtype == complex and y.shape == (n + 2,)
    field = np.array([y[n:] for y in states])
    assert not field.imag.any() and not np.signbit(field.imag).any()
    assert np.array_equal(field.real.T, [traj.q_series, traj.p_series])
    assert np.abs(traj.q_series).max() > 0.0


@pytest.mark.parametrize("route", ["classical", "classical_dse", "quantum_rk4", "quantum_exact"])
def test_rhs_entries_hold_what_each_rhs_reads(model3, pulse, route, captured):
    # (f, phased mu[, phased self-energy]) classically, (f, a, b) on the
    # quantum routes, each the table's value at the stage time
    cav = CavityParams(omega_c=1e-2, g=2e-4, include_dse=route == "classical_dse")
    grid = dict(t_end=40.0, dt=1.0, record_stride=4)     # inside the kick: 40 RK4 steps
    if route.startswith("classical"):
        propagate_classical(model3, cav, pulse, 1, **grid)
        expected_ops = [model3.dipole]
        if cav.include_dse:
            expected_ops.append(cav.dse_prefactor * mu_squared_matrix(model3))
    else:
        propagate_quantum(model3, cav, pulse, (1, 0), **grid, method=route.split("_")[1])
        expected_ops = []
    freqs, ops = captured["phase_freqs"], captured["operators"]
    assert len(ops) == len(expected_ops)
    assert all(np.array_equal(op, want) for op, want in zip(ops, expected_ops))
    entries = captured["entries"]
    assert len(entries) == 4 * 40
    for i, entry in enumerate(entries):
        step, stage = divmod(i, 4)
        t = step + (0.0, 0.5, 0.5, 1.0)[stage]
        phase = np.exp(1j * freqs * t)
        a, b = -1j * phase, np.conj(phase)
        tables = [(a[:, None] * op) * b for op in ops] if ops else [a, b]
        assert type(entry) is tuple and len(entry) == 1 + len(tables)
        assert type(entry[0]) is float and entry[0] == pulse(t)
        assert all(np.array_equal(got, want) for got, want in zip(entry[1:], tables))
