"""Helpers shared by the test modules."""

import tracemalloc

import numpy as np


def traced_peak(call):
    """(result, peak traced memory in bytes) of call()."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cluster(spec, center, window, floor_rel=0.002):
    """(intensity-weighted centre, summed intensity) of the sticks within
    window of center and above floor_rel of the strongest; (None, 0.0) if none.

    window has no default: neighbouring symmetric sectors sit 3.7e-5 hartree
    apart at N = 3 and 2.1e-5 at N = 5, so a window fit for one test merges
    sectors in another.
    """
    floor = floor_rel * spec.intensity.max()
    m = (np.abs(spec.omega - center) < window) & (spec.intensity > floor)
    if not m.any():
        return None, 0.0
    w = spec.intensity[m]
    return float(np.average(spec.omega[m], weights=w)), float(w.sum())


# -- one-vector RK4 stepping: the oracle for the tabled integrator -------------
#
# Each rhs evaluates its own phases, phased operators and pulse at the stage
# time, and the classical state is one complex vector (C, q, p).  The tabled
# core must reproduce these trajectories bit for bit.


def rk4_step(rhs, t, y, dt):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, y + (0.5 * dt) * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stepped_series(rhs, y0, columns, n_pops, n_ops, observe, names, t_end, dt,
                    record_stride):
    """Trajectory series of an RK4 run from t = 0 to t_end, recorded as
    integrators.propagate records them.  The amplitudes y[:len(columns)]
    fill those columns of n_pops populations, and observe(t, rows) gets the
    records in propagate's chunks (the records of a chunk of steps tabling
    n_ops operators): a row of times and the states as rows."""
    from twinpol.integrators import _chunk_steps

    n_steps = int(round(t_end / dt))
    n_c = len(columns)
    pops, held = [], []
    y, t = np.array(y0, copy=True), 0.0
    for step in range(n_steps + 1):
        if step:
            y = rk4_step(rhs, t, y, dt)
            t = step * dt
        if step % record_stride == 0:
            row = np.zeros(n_pops)
            row[columns] = np.abs(y[:n_c]) ** 2
            pops.append(row)
            held.append(y)
    times = np.arange(len(held)) * record_stride * dt
    chunk = max(1, _chunk_steps(n_c, n_ops) // record_stride)
    values = np.hstack([observe(times[lo:lo + chunk], np.array(held[lo:lo + chunk]))
                        for lo in range(0, len(held), chunk)])
    series = dict(zip(names, values))
    series["populations"] = np.array(pops)
    series["times"] = times
    return series


def coupled_states(dipole, start):
    """The states that dipole's nonzeros connect to start, ascending."""
    reached = np.arange(len(dipole)) == start
    while True:
        grown = reached | (dipole[reached] != 0.0).any(axis=0)
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


def stepped_classical(model, cav, pulse, init_state, t_end, dt, record_stride):
    """propagate_classical's series from the one-vector RK4 on the start's
    coupled states, forming the phased operators -i e^{iEt} op e^{-iEt} at
    every stage time."""
    import math

    from twinpol.classical import _total_energy
    from twinpol.model import mu_squared_matrix
    from twinpol.quantum import _expectations

    idx = coupled_states(model.dipole, init_state)
    n = idx.size
    sub = np.ix_(idx, idx)
    energies, mu = model.energies[idx], model.dipole[sub]
    mu2 = mu_squared_matrix(model)[sub]
    g_fac = cav.g * math.sqrt(2.0 * cav.omega_c)
    wc2 = cav.omega_c**2

    def phased(op, t):
        phase = np.exp(1j * energies * t)
        return (-1j * phase)[:, None] * op * np.conj(phase)

    def rhs(t, y):
        c = y[:n]
        q = y[n].real
        v = phased(mu, t).dot(c)
        dy = np.empty_like(y)
        dy[:n] = (g_fac * q + pulse(t)) * v
        if cav.include_dse:
            dy[:n] += phased(cav.dse_prefactor * mu2, t).dot(c)
        dy[n] = y[n + 1].real
        dy[n + 1] = -wc2 * q + g_fac * float(np.vdot(c, v).imag)
        return dy

    def observe(t, rows):
        psi = (np.exp(-1j * energies * t[:, None]) * rows[:, :n]).T
        q, p = rows[:, n:].real.T
        dipole = _expectations(mu, psi)
        return dipole, _total_energy(psi, q, p, energies, dipole, mu2, cav), q, p

    y0 = np.zeros(n + 2, complex)
    y0[np.flatnonzero(idx == init_state)] = 1.0
    return _stepped_series(rhs, y0, idx, model.n_states, 1 + cav.include_dse, observe,
                           ("dipole", "energy", "q_series", "p_series"),
                           t_end, dt, record_stride)


def full_basis_classical(model, cav, pulse, init_state, t_end, dt, record_stride):
    """propagate_classical's Trajectory with every model state stepped: the
    rhs the coupled-state run replaced, psi = b c and a (drive mu psi), on
    integrate's (a, b, f) entries."""
    import math

    from twinpol.classical import _total_energy
    from twinpol.integrators import propagate
    from twinpol.model import mu_squared_matrix
    from twinpol.quantum import _expectations

    mu = model.dipole
    mu2 = mu_squared_matrix(model) if cav.include_dse else None
    mu_c = mu.astype(complex)
    mu2_c = None if mu2 is None else mu2.astype(complex)
    g_fac = cav.g * math.sqrt(2.0 * cav.omega_c)
    dse = cav.dse_prefactor
    wc2 = cav.omega_c**2

    def rhs(entry, y):
        a, b, f = entry
        c, q, p = y
        psi = b * c
        mu_psi = mu_c @ psi
        w_psi = (g_fac * q + f) * mu_psi
        if dse:
            w_psi = w_psi + dse * (mu2_c @ psi)
        return a * w_psi, p, -wc2 * q - g_fac * float(np.vdot(psi, mu_psi).real)

    def observe(_, psi, y):
        c, q, p = y
        dipole = _expectations(mu, psi)
        return ((np.abs(c) ** 2).T,
                (dipole, _total_energy(psi, q, p, model.energies, dipole, mu2, cav), q, p))

    return propagate(
        rhs, (0.0, 0.0), observe, ("dipole", "energy", "q_series", "p_series"),
        kind="classical", phase_freqs=model.energies,
        pop_labels=[model.label_str(k) for k in range(model.n_states)],
        init_col=init_state, pulse=pulse, cav=cav, t_end=t_end, dt=dt,
        record_stride=record_stride, meta={"init_state": init_state})


def trajectory_head(traj, t_end):
    """The records of an RK4 trajectory up to t_end as the Trajectory of a run
    to t_end: t_end, the step counts, norm_drift and energy_drift_post_pulse
    recomputed."""
    import dataclasses

    from twinpol.integrators import post_pulse_energy_drift

    n = int(np.searchsorted(traj.times, t_end, side="right"))
    head = dataclasses.replace(
        traj, **{name: getattr(traj, name)[:n] for name in (
            "times", "dipole", "populations", "energy", "q_series", "p_series",
            "q_expect", "q2_expect") if getattr(traj, name) is not None},
        meta=dict(traj.meta))
    n_steps = int(round(t_end / traj.meta["dt"]))
    head.meta.update(t_end=n_steps * traj.meta["dt"], rk4_steps=n_steps, rhs_evals=4 * n_steps)
    head.meta["norm_drift"] = float(np.max(np.abs(head.populations.sum(axis=1) - 1.0)))
    head.meta["energy_drift_post_pulse"] = post_pulse_energy_drift(head)
    return head


def stepped_quantum(model, cav, pulse, init, t_end, dt, record_stride):
    """propagate_quantum(method="rk4")'s series from per-stage phases and pulse.

    The rhs's f mu psi term and the recorded <mu>, <q> and <q^2> use the same
    factored operators (apply_dipole, factored_expectations) as the
    propagator, so the two must agree bit for bit; the dense operators below
    are their oracles in tests/test_quantum.py."""
    from twinpol.quantum import (ProductBasis, _expectations, apply_dipole,
                                 assemble_hamiltonian, factored_expectations, real_matmul)

    basis = ProductBasis.full(model, cav.n_fock_max)
    ks, ns = basis.arrays()
    eps = model.energies[ks] + ns * cav.omega_c
    v_int = assemble_hamiltonian(model, cav, basis) - np.diag(eps)

    def rhs(t, c):
        phase = np.exp(1j * eps * t)
        psi = np.conj(phase) * c
        w_psi = real_matmul(v_int, psi)
        f = pulse(t)
        if f != 0.0:
            w_psi = w_psi + f * apply_dipole(model.dipole, basis, psi)
        return -1j * phase * w_psi

    def observe(t, rows):
        psi = (np.exp(-1j * eps * t[:, None]) * rows).T
        energy = np.sum(eps[:, None] * np.abs(psi) ** 2, axis=0) + _expectations(v_int, psi)
        mu, q, q2 = factored_expectations(model, cav, basis, psi)
        return mu, energy, q, q2

    c0 = np.zeros(basis.size, complex)
    c0[basis.index(*init)] = 1.0
    return _stepped_series(rhs, c0, np.arange(basis.size), basis.size, 0, observe,
                           ("dipole", "energy", "q_expect", "q2_expect"),
                           t_end, dt, record_stride)


# -- dense product-space operators: the oracles for the factored ones ----------


def kron_sum(h_mol, mu, mu2, omega_c, g, n_fock_max):
    """1 x H_mol + w_c N x 1 + g (a + a^dag) x mu + (g^2/w_c) 1 x mu^2 as a
    Kronecker sum on the full photon-major basis; mu2 = None leaves out the
    self-energy."""
    from twinpol.quantum import photon_ladder

    eye_ph = np.eye(n_fock_max + 1)
    h = np.kron(eye_ph, h_mol)
    h += np.kron(np.diag(np.arange(n_fock_max + 1) * omega_c), np.eye(len(h_mol)))
    h += np.kron(g * photon_ladder(n_fock_max), mu)
    if mu2 is not None:
        h += np.kron(eye_ph, (g**2 / omega_c) * mu2)
    return h


def restrict(op, basis, dim_mol):
    """Rows and columns of a photon-major full-space operator, in basis order."""
    ks, ns = basis.arrays()
    idx = ns * dim_mol + ks
    return op[np.ix_(idx, idx)]


def kron_hamiltonian(model, cav, basis):
    """assemble_hamiltonian's H as a Kronecker sum on the full basis, then
    restricted to basis."""
    from twinpol.model import mu_squared_matrix

    mu2 = mu_squared_matrix(model) if cav.include_dse else None
    h = kron_sum(np.diag(model.energies), model.dipole, mu2, cav.omega_c, cav.g,
                 basis.n_fock_max)
    return restrict(h, basis, model.n_states)


def mu_operator(model, basis):
    """mu x identity on the photon space."""
    return restrict(np.kron(np.eye(basis.n_fock_max + 1), model.dipole), basis,
                    model.n_states)


def _photon_operator(photon_op, basis):
    """photon_op(N_max) x identity on the molecular states, restricted to basis."""
    dim_mol = int(basis.arrays()[0].max()) + 1
    return restrict(np.kron(photon_op(basis.n_fock_max), np.eye(dim_mol)), basis, dim_mol)


def q_operator(cav, basis):
    """q = (a^dag + a) / sqrt(2 w_c) on the product basis."""
    import math

    from twinpol.quantum import photon_ladder

    return _photon_operator(photon_ladder, basis) / math.sqrt(2.0 * cav.omega_c)


def q2_operator(cav, basis):
    """q^2 = (a^dag a^dag + a a + 2 a^dag a + 1) / (2 w_c), exact ladder
    matrix elements (not the square of the truncated q matrix)."""
    from twinpol.quantum import photon_ladder_squared

    return _photon_operator(photon_ladder_squared, basis) / (2.0 * cav.omega_c)


# -- plain-Python gap merge: the oracle for make_stick_spectrum ----------------


def merge_sticks(positions, intensities, labels, merge_tol, min_intensity=0.0):
    """(centre, total, label) per merged stick, one stick at a time.

    After a stable sort a stick joins the group before it when it lies within
    merge_tol of that group's last stick.  A group carries its total at
    sum(p w) / sum(w), w = max(I, 1e-300), and the label of its first stick
    within _LABEL_ULPS ulps of the strongest stick below its largest
    intensity; groups with total <= min_intensity are dropped.
    """
    from twinpol.spectra import _LABEL_ULPS

    tie = _LABEL_ULPS * np.spacing(max((abs(x) for x in intensities), default=0.0))
    groups = []
    for i in sorted(range(len(positions)), key=lambda i: positions[i]):
        if groups and positions[i] - positions[groups[-1][-1]] <= merge_tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    merged = []
    for group in groups:
        total = sum(intensities[i] for i in group)
        if total > min_intensity:
            w = [max(intensities[i], 1e-300) for i in group]
            centre = sum(positions[i] * wi for i, wi in zip(group, w)) / sum(w)
            top = max(intensities[i] for i in group)
            near = [i for i in group if intensities[i] >= top - tie]
            merged.append((centre, total, labels[near[0]]))
    return merged


# -- plain 2-D formulas: the oracles for the table-built model pieces ----------


def sine_dvr_kinetic(n_points, length, mass):
    """Sine-DVR kinetic matrix from its 2-D formula in i - j and i + j."""
    import math

    n_box = n_points + 1
    i = np.arange(1, n_points + 1)
    pref = math.pi**2 / (4.0 * mass * length**2)
    diff = i[:, None] - i[None, :]
    summ = i[:, None] + i[None, :]
    with np.errstate(divide="ignore"):
        t = (-1.0) ** diff * (
            1.0 / np.sin(math.pi * diff / (2 * n_box)) ** 2
            - 1.0 / np.sin(math.pi * summ / (2 * n_box)) ** 2
        )
    np.fill_diagonal(
        t, (2.0 * n_box**2 + 1.0) / 3.0 - 1.0 / np.sin(math.pi * i / n_box) ** 2
    )
    return pref * t


def first_selection_rule_offender(dipole, labels):
    """(label, label) of the first nonzero dipole entry, in row-major order,
    that breaks dJ = +-1, dM = 0; None if there is none."""
    n = len(labels)
    for i in range(n):
        for j in range(n):
            if dipole[i, j] == 0.0:
                continue
            li, lj = labels[i], labels[j]
            if abs(li["J"] - lj["J"]) != 1 or li["M"] != lj["M"]:
                return li, lj
    return None


# -- per-state stick amplitudes: the oracle for the batched static sticks -------


def stick_inputs_per_state(sol, mu, labels, initial, merge_tol):
    """(positions, intensities, initial labels, final labels) of the sticks
    static_stick_spectrum hands to the merge, two matrix-vector products per
    initial state."""
    positions, intensities, labels_i, labels_f = [], [], [], []
    for i, w in initial:
        amps = sol.eigenvectors.T @ (mu @ sol.eigenvectors[:, i])
        omegas = sol.eigenvalues - sol.eigenvalues[i]
        inten = w * amps**2
        final = np.flatnonzero((omegas > merge_tol) & (inten != 0.0))
        positions.append(omegas[final])
        intensities.append(inten[final])
        labels_i += [labels[i]] * final.size
        labels_f += [labels[f] for f in final]
    return np.concatenate(positions), np.concatenate(intensities), labels_i, labels_f


# -- one full eigh per J: the oracle for the chained radial levels --------------


def morse_model_per_j(params, grid=None):
    """build_morse_rovib's model, without the doubling check, from one full
    eigh of the radial Hamiltonian per J."""
    from twinpol import RadialGrid
    from twinpol.model import (_effective_potential, _rovib_model, _sine_dvr_kinetic,
                               _with_diagonal)

    grid = grid or RadialGrid()
    kinetic = _sine_dvr_kinetic(grid.n_points, grid.r_max - grid.r_min, params.reduced_mass)
    radial = []
    for j in range(params.j_max + 1):
        v_eff = _effective_potential(params, j, grid.points())
        evals, evecs = np.linalg.eigh(_with_diagonal(kinetic, v_eff))
        evals, evecs = evals[:params.v_max + 1], evecs[:, :params.v_max + 1].copy()
        for k in range(params.v_max + 1):
            if evecs[np.argmax(np.abs(evecs[:, k])), k] < 0:
                evecs[:, k] = -evecs[:, k]
        radial.append((evals, evecs))
    return _rovib_model(params, grid, radial)


# -- one stick at a time: the oracle for the blocked broadening ----------------


def broadened_per_stick(grid, sticks, lineshape, width):
    """broaden_sticks's intensity on grid, adding one stick's profile over
    the whole grid at a time."""
    total = np.zeros_like(grid)
    for w0, inten in zip(sticks.omega, sticks.intensity):
        x = grid - w0
        if lineshape == "lorentzian":
            total += inten * (width / np.pi) / (x**2 + width**2)
        else:
            total += inten * np.exp(-0.5 * (x / width) ** 2) / (width * np.sqrt(2.0 * np.pi))
    return total
