import math

import numpy as np
import pytest

import twinpol.model
from helpers import first_selection_rule_offender, morse_model_per_j, sine_dvr_kinetic
from twinpol import (ConvergenceError, ModelError, MolecularModel, MorseParams, RadialGrid,
                     build_morse_rovib)
from twinpol.model import (_carried_floor, _certified_drift, _effective_potential,
                           _ritz_intervals, _sine_dvr_kinetic, _sine_interpolate,
                           _with_diagonal, z_direction_cosine)
from twinpol.units import CM1_PER_HARTREE, au_to_cm1


def test_dvr_kinetic_against_box_levels():
    # free particle in a box: E_n = (n pi / L)^2 / (2 m)
    mass, length, n = 1.5, 3.0, 200
    t = _sine_dvr_kinetic(n, length, mass)
    levels = np.linalg.eigvalsh(t)[:5]
    exact = np.array([(k * math.pi / length) ** 2 / (2 * mass) for k in range(1, 6)])
    assert np.allclose(levels, exact, rtol=1e-10)


@pytest.mark.parametrize("n", [8, 400, 800])
def test_dvr_kinetic_tables_match_2d_formula(n):
    assert np.array_equal(_sine_dvr_kinetic(n, 4.8, 1782.0), sine_dvr_kinetic(n, 4.8, 1782.0))


def test_rotational_constant_value():
    # direct arithmetic from the default constants
    assert au_to_cm1(MorseParams().rotational_constant) == pytest.approx(10.59, abs=0.01)


def test_j0_levels_match_closed_form(hcl_model):
    params = MorseParams()
    zero = params.analytic_level(0)
    for v in (0, 1):
        k = hcl_model.state_index(v=v, J=0, M=0)
        analytic = params.analytic_level(v) - zero
        assert abs(au_to_cm1(hcl_model.energies[k] - analytic)) < 0.1


def test_cavity_resonant_transition(hcl_model):
    # oracle: analytic Morse fundamental plus the rigid-rotor correction,
    # cross-checked against the grid eigensolver
    params = MorseParams()
    oracle = (params.analytic_level(1) - params.analytic_level(0)
              + 2.0 * params.rotational_constant)
    i00 = hcl_model.state_index(v=0, J=0, M=0)
    i11 = hcl_model.state_index(v=1, J=1, M=0)
    grid_value = hcl_model.energies[i11] - hcl_model.energies[i00]
    assert abs(au_to_cm1(grid_value - oracle)) < 2.0
    assert abs(au_to_cm1(grid_value) - 2906.46) < 5.0


def test_selection_rules(hcl_model):
    i000 = hcl_model.state_index(v=0, J=0, M=0)
    i120 = hcl_model.state_index(v=1, J=2, M=0)
    assert hcl_model.dipole[i000, i120] == 0.0       # dJ = 2 forbidden
    i111 = hcl_model.state_index(v=1, J=1, M=1)
    assert hcl_model.dipole[i000, i111] == 0.0       # dM = 1 forbidden
    i110 = hcl_model.state_index(v=1, J=1, M=0)
    assert hcl_model.dipole[i000, i110] != 0.0


def test_direction_cosine_values():
    assert z_direction_cosine(0, 1, 0) == pytest.approx(1 / math.sqrt(3))
    assert z_direction_cosine(1, 0, 0) == pytest.approx(1 / math.sqrt(3))
    assert z_direction_cosine(1, 2, 1) == pytest.approx(math.sqrt(3 / 15))
    assert z_direction_cosine(1, 3, 0) == 0.0
    # |M| = J' kills the J -> J - 1 branch
    assert z_direction_cosine(2, 1, 2) == 0.0


def test_energy_reference_and_ordering(hcl_model):
    i000 = hcl_model.state_index(v=0, J=0, M=0)
    assert hcl_model.energies[i000] == 0.0
    assert np.all(hcl_model.energies >= 0.0)


def test_grid_doubling_convergence():
    params = MorseParams(v_max=1, j_max=1)
    grid = RadialGrid()
    coarse = build_morse_rovib(params, grid, check_convergence=False)
    fine = build_morse_rovib(params, RadialGrid(n_points=2 * grid.n_points),
                             check_convergence=False)
    for v in (0, 1):
        for j in (0, 1):
            a = coarse.energies[coarse.state_index(v=v, J=j, M=0)]
            b = fine.energies[fine.state_index(v=v, J=j, M=0)]
            assert abs(au_to_cm1(a - b)) < 1e-4


# -- the grid-doubling certificate against eigvalsh on the doubled grid --------


def doubling_case(params, grid, j):
    """(coarse eigenvalues, coarse eigenvectors, doubled-grid kinetic matrix,
    its effective potential) for one J, from a full eigensolve."""
    length = grid.r_max - grid.r_min
    kinetic = _sine_dvr_kinetic(grid.n_points, length, params.reduced_mass)
    v_eff = _effective_potential(params, j, grid.points())
    evals, evecs = np.linalg.eigh(_with_diagonal(kinetic, v_eff))
    n_fine = 2 * grid.n_points
    kinetic_fine = _sine_dvr_kinetic(n_fine, length, params.reduced_mass)
    return evals, evecs, kinetic_fine, _effective_potential(params, j, grid.points(n_fine))


def certify(params, grid, j):
    """(certified bound, eigvalsh drift) of the lowest v_max + 1 levels, hartree."""
    k = params.v_max + 1
    evals, evecs, kinetic, v_fine = doubling_case(params, grid, j)
    bound, _ = _certified_drift(kinetic, v_fine, evals[:k],
                                _sine_interpolate(evecs[:, :k], v_fine.size),
                                0.5 * (evals[k - 1] + evals[k]))
    drift = np.max(np.abs(evals[:k] - np.linalg.eigvalsh(_with_diagonal(kinetic, v_fine))[:k]))
    return bound, drift


def count_fallbacks(monkeypatch):
    calls = []
    check = twinpol.model._check_doubling

    def counted(*args):
        calls.append(args[-1])
        return check(*args)

    monkeypatch.setattr(twinpol.model, "_check_doubling", counted)
    return calls


def test_coarse_grid_raises(monkeypatch):
    calls = count_fallbacks(monkeypatch)
    params = MorseParams(v_max=1, j_max=1)
    with pytest.raises(ConvergenceError, match="drift"):
        build_morse_rovib(params, RadialGrid(n_points=24))
    assert calls == [0]      # the certificate proves too little; eigvalsh raises


def count_choleskys(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


def count_full_eighs(monkeypatch, n=400):
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        if a.shape == (n, n):
            calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_default_grid_is_certified_for_every_j(monkeypatch):
    calls = count_fallbacks(monkeypatch)
    factorized = count_choleskys(monkeypatch)
    solved = count_full_eighs(monkeypatch)
    params = MorseParams()
    model = build_morse_rovib(params)
    assert calls == []
    assert factorized == [(800, 800)]     # one anchor, at J = 0, serves J = 0..10
    assert len(solved) == 1               # so does one coarse eigh
    monkeypatch.undo()
    unchecked = build_morse_rovib(params, check_convergence=False)
    assert np.array_equal(model.energies, unchecked.energies)
    assert np.array_equal(model.dipole, unchecked.dipole)
    assert model.content_hash() == unchecked.content_hash()
    tol = RadialGrid().convergence_tol_cm1 / CM1_PER_HARTREE
    for j in (0, params.j_max):
        bound, drift = certify(params, RadialGrid(), j)
        assert drift <= bound <= tol


def test_coarse_grid_falls_back_to_eigvalsh(monkeypatch):
    params, grid = MorseParams(v_max=1, j_max=1), RadialGrid(n_points=40)
    bound, drift = certify(params, grid, 0)
    tol = grid.convergence_tol_cm1 / CM1_PER_HARTREE
    assert drift <= tol < bound < math.inf
    calls = count_fallbacks(monkeypatch)
    build_morse_rovib(params, grid)
    assert calls == [0, 1]


def test_trial_space_without_ground_state_is_not_certified():
    params, grid = MorseParams(v_max=1), RadialGrid()
    evals, evecs, kinetic, v_fine = doubling_case(params, grid, 0)
    trial = _sine_interpolate(evecs[:, 1:3], v_fine.size)
    # rho above v = 2: the Ritz pairs are accurate, but v = 0 is a third level below rho
    assert _certified_drift(kinetic, v_fine, evals[1:3], trial,
                            0.5 * (evals[2] + evals[3]))[0] == math.inf
    # rho between v = 0 and v = 1, as for the claimed levels evals[:2]
    assert _certified_drift(kinetic, v_fine, evals[:2], trial,
                            0.5 * (evals[1] + evals[2]))[0] == math.inf
    # the same call with the true lowest pair certifies
    full = _sine_interpolate(evecs[:, :2], v_fine.size)
    assert _certified_drift(kinetic, v_fine, evals[:2], full,
                            0.5 * (evals[1] + evals[2]))[0] < 1e-9


def test_chained_floor_certifies_every_j_up_to_30(monkeypatch):
    checks = []
    certified_drift = twinpol.model._certified_drift

    def recorded(kinetic, v, evals, trial, rho, anchor=None):
        bound, new_anchor = certified_drift(kinetic, v, evals, trial, rho, anchor)
        drift = np.max(np.abs(evals - np.linalg.eigvalsh(_with_diagonal(kinetic, v))[:evals.size]))
        checks.append((drift, bound, new_anchor is not anchor))
        return bound, new_anchor

    monkeypatch.setattr(twinpol.model, "_certified_drift", recorded)
    fallbacks = count_fallbacks(monkeypatch)
    build_morse_rovib(MorseParams(j_max=30))
    tol = RadialGrid().convergence_tol_cm1 / CM1_PER_HARTREE
    assert len(checks) == 31 and fallbacks == []
    for drift, bound, _ in checks:
        assert drift <= bound <= tol
    anchored = [j for j, (_, _, new) in enumerate(checks) if new]
    assert anchored[0] == 0 and len(anchored) > 1


def test_carried_floor_refuses_a_negative_increment():
    diag = np.array([3.0, 2.0, 1.0])
    assert _carried_floor(None, diag) == -math.inf
    assert _carried_floor((0.5, diag), diag + [0.0, -1e-12, 0.25]) == -math.inf
    # the floor grows by the smallest increment, rounded down
    carried = _carried_floor((0.5, diag), diag + [0.25, 0.125, 0.5])
    assert 0.5 < carried < 0.625
    assert _carried_floor((0.5, diag), diag) < 0.5


def test_trial_space_without_ground_state_is_not_certified_from_an_anchor():
    params, grid = MorseParams(v_max=1), RadialGrid()
    evals0, evecs0, kinetic, v0 = doubling_case(params, grid, 0)
    n_fine = v0.size
    bound, anchor = _certified_drift(kinetic, v0, evals0[:2],
                                     _sine_interpolate(evecs0[:, :2], n_fine),
                                     0.5 * (evals0[1] + evals0[2]))
    assert bound < 1e-9 and anchor is not None
    evals, evecs, _, v1 = doubling_case(params, grid, 1)
    rho = 0.5 * (evals[1] + evals[2])
    # trial v = 1, 2 at J = 1: its top interval is above the carried floor
    trial = _sine_interpolate(evecs[:, 1:3], n_fine)
    theta, r, _ = _ritz_intervals(kinetic, v1, trial)
    assert theta[-1] + r[-1] >= _carried_floor(anchor, v1)
    assert _certified_drift(kinetic, v1, evals[:2], trial, rho, anchor)[0] == math.inf
    # the true lowest pair at J = 1 is certified by the carried floor alone
    bound, carried = _certified_drift(kinetic, v1, evals[:2],
                                      _sine_interpolate(evecs[:, :2], n_fine), rho, anchor)
    assert bound < 1e-9 and carried is anchor


def test_selection_rule_names_first_offender_in_row_major_order():
    labels = [{"v": 0, "J": j, "M": m} for j in range(3) for m in range(-j, j + 1)]
    n = len(labels)
    dipole = np.zeros((n, n))
    for i, k in [(0, 2), (2, 7), (1, 3), (0, 6)]:   # allowed, dM = 1, dJ = 0, dJ = 2
        dipole[i, k] = dipole[k, i] = 0.1
    first = first_selection_rule_offender(dipole, labels)
    assert first == (labels[0], labels[6])
    with pytest.raises(ModelError, match="violates") as err:
        MolecularModel(energies=np.zeros(n), dipole=dipole.copy(), labels=tuple(labels))
    assert str(err.value).startswith(f"dipole entry between {first[0]} and {first[1]} ")
    dipole[0, 6] = dipole[6, 0] = 0.0
    with pytest.raises(ModelError) as err:
        MolecularModel(energies=np.zeros(n), dipole=dipole, labels=tuple(labels))
    assert first_selection_rule_offender(dipole, labels) == (labels[1], labels[3])
    assert f"between {labels[1]} and {labels[3]} " in str(err.value)


def test_m_degeneracy(hcl_model):
    e = [hcl_model.energies[hcl_model.state_index(v=0, J=2, M=m)] for m in (-2, 0, 2)]
    assert np.allclose(e, e[0], atol=1e-14)


# -- the chained coarse levels against one full eigh per J ----------------------


def record_full_eighs(monkeypatch):
    """The J of each full coarse eigh a build takes, in order."""
    solved = []
    solve, levels = twinpol.model._solve_radial, twinpol.model._radial_levels

    def counted(*args):
        solved.append(None)
        return solve(*args)

    def numbered(theta, y, v, grid, j, n_keep):
        if solved and solved[-1] is None:
            solved[-1] = j
        return levels(theta, y, v, grid, j, n_keep)

    monkeypatch.setattr(twinpol.model, "_solve_radial", counted)
    monkeypatch.setattr(twinpol.model, "_radial_levels", numbered)
    return solved


@pytest.mark.parametrize("j_max", [10, 30])
def test_chained_levels_match_one_eigh_per_j(monkeypatch, j_max):
    solved = record_full_eighs(monkeypatch)
    params = MorseParams(j_max=j_max)
    model = build_morse_rovib(params)
    oracle = morse_model_per_j(params)
    assert solved[0] == 0
    # J <= 10 rides on the J = 0 anchor; the floor refuses higher J and re-anchors
    assert (len(solved) == 1) if j_max == 10 else (1 < len(solved) < j_max + 1)
    assert np.max(np.abs(model.energies - oracle.energies)) <= 1e-13
    nonzero = oracle.dipole != 0.0
    assert np.array_equal(model.dipole != 0.0, nonzero)
    assert np.all(np.abs(model.dipole - oracle.dipole)[nonzero]
                  <= 1e-10 * np.abs(oracle.dipole[nonzero]))


@pytest.mark.parametrize("refusal", ["small_anchor_basis", "no_floor"])
def test_refused_ritz_step_falls_back_to_eigh_per_j(monkeypatch, refusal):
    if refusal == "small_anchor_basis":
        # four pairs cannot carry the three lowest levels to J = 1 within eigh's rounding
        monkeypatch.setattr(twinpol.model, "_ANCHOR_PAIRS", 4)
    else:
        carried_floor = twinpol.model._carried_floor

        def no_coarse_floor(anchor, diag):
            # the doubled grid (800 points) keeps its floor; the coarse one proves nothing
            return carried_floor(anchor, diag) if diag.size == 800 else -math.inf

        monkeypatch.setattr(twinpol.model, "_carried_floor", no_coarse_floor)
    solved = record_full_eighs(monkeypatch)
    params = MorseParams()
    model = build_morse_rovib(params)
    assert solved == list(range(params.j_max + 1))
    assert model.content_hash() == morse_model_per_j(params).content_hash()
