import math

import numpy as np
import pytest

import twinpol.model
from helpers import first_selection_rule_offender, morse_model_per_j, sine_dvr_kinetic
from twinpol import (ConvergenceError, ModelError, MolecularModel, MorseParams, RadialGrid,
                     build_morse_rovib)
from twinpol.model import (_abs_norm, _box_levels, _carried_floor, _certify,
                           _effective_potential, _sine_dvr_kinetic, _sine_interpolate,
                           _sine_ritz, _with_diagonal,
                           z_direction_cosine)
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


@pytest.mark.parametrize("n", [8, 800])
def test_box_levels_are_the_kinetic_eigenvalues(n):
    kinetic = _sine_dvr_kinetic(n, 4.8, 1782.0)
    levels = _box_levels(n, 4.8, 1782.0)
    assert np.max(np.abs(levels - np.linalg.eigvalsh(kinetic))) <= 1e-13 * levels[-1]


def test_sine_ritz_projects_the_kinetic_matrix_in_the_sine_basis():
    # the kinetic part from the sine coefficients equals the dense projection
    params, grid = MorseParams(), RadialGrid()
    _, evecs, kinetic, v = doubling_case(params, grid, 3)
    u = evecs[:, :2]
    theta, y = _sine_ritz(u, v, _box_levels(v.size, grid.r_max - grid.r_min,
                                            params.reduced_mass))
    trial, _ = _sine_interpolate(u, v.size)
    dense, z = np.linalg.eigh(trial.T @ (kinetic @ trial + v[:, None] * trial))
    assert np.max(np.abs(theta - dense)) <= 1e-13 * abs(dense).max()
    assert np.allclose(np.abs(np.sum(y * (trial @ z), axis=0)), 1.0, rtol=0, atol=1e-12)
    assert np.allclose(np.linalg.norm(y, axis=0), 1.0, rtol=0, atol=1e-15)


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


# -- the one certificate of both grids against eigvalsh -------------------------


def record_calls(monkeypatch, owner, name, key):
    """Wraps owner.name so that each call appends key(*args) to the returned
    list, or nothing when key returns None."""
    calls = []
    func = getattr(owner, name)

    def recorded(*args, **kwargs):
        entry = key(*args)
        if entry is not None:
            calls.append(entry)
        return func(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def fallbacks(monkeypatch):
    """The J of each eigvalsh check of the doubled grid."""
    return record_calls(monkeypatch, twinpol.model, "_check_doubling", lambda *args: args[-1])


def factorizations(monkeypatch):
    """The size of each Cholesky factorization."""
    return record_calls(monkeypatch, np.linalg, "cholesky", lambda a: a.shape[0])


def full_eighs(monkeypatch, n=400):
    """One entry per eigh of an n x n matrix: the full coarse solves."""
    return record_calls(monkeypatch, np.linalg, "eigh",
                        lambda a: a.shape if a.shape == (n, n) else None)


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


def certify_trial(kinetic, v, coarse_vectors, rho, anchor=None):
    """(theta, radii, anchor) of _certify on the Ritz pairs of the coarse
    vectors' sine series, as the doubled grid makes them."""
    theta, y = _sine_ritz(coarse_vectors, v, np.linalg.eigvalsh(kinetic))
    radii, anchor = _certify(kinetic, v, _abs_norm(kinetic)(v), theta, y, rho, anchor)
    return theta, radii, anchor


def certify(params, grid, j):
    """(certified bound, eigvalsh drift) of the lowest v_max + 1 levels, hartree."""
    k = params.v_max + 1
    evals, evecs, kinetic, v_fine = doubling_case(params, grid, j)
    theta, radii, _ = certify_trial(kinetic, v_fine, evecs[:, :k],
                                    0.5 * (evals[k - 1] + evals[k]))
    bound = math.inf if radii is None else np.max(np.abs(evals[:k] - theta) + radii)
    drift = np.max(np.abs(evals[:k] - np.linalg.eigvalsh(_with_diagonal(kinetic, v_fine))[:k]))
    return bound, drift


def test_coarse_grid_raises(monkeypatch):
    calls = fallbacks(monkeypatch)
    params = MorseParams(v_max=1, j_max=1)
    with pytest.raises(ConvergenceError, match="drift"):
        build_morse_rovib(params, RadialGrid(n_points=24))
    assert calls == [0]      # the certificate proves too little; eigvalsh raises


def test_shifted_coarse_levels_fail_the_doubling_check(monkeypatch):
    # the true vectors give narrow intervals on the doubled grid, but the
    # levels they are compared with lie twice the tolerance off
    chain = twinpol.model._radial_chain
    shift = 2.0 * RadialGrid().convergence_tol_cm1 / CM1_PER_HARTREE

    def shifted(*args):
        for evals, evecs, next_level in chain(*args):
            yield evals + shift, evecs, next_level

    monkeypatch.setattr(twinpol.model, "_radial_chain", shifted)
    calls = fallbacks(monkeypatch)
    with pytest.raises(ConvergenceError, match="drift"):
        build_morse_rovib(MorseParams(v_max=1, j_max=1))
    assert calls == [0]


def test_undersized_grid_is_not_bound():
    # 8 points hold 8 levels; the top ones lie above the wall, and no level past
    # the grid's last is read
    with pytest.raises(ConvergenceError, match="does not bound the requested levels for J=0"):
        build_morse_rovib(MorseParams(v_max=7, j_max=1), RadialGrid(n_points=8))


def test_default_grid_is_certified_for_every_j(monkeypatch):
    calls = fallbacks(monkeypatch)
    factorized = factorizations(monkeypatch)
    solved = full_eighs(monkeypatch)
    params = MorseParams()
    model = build_morse_rovib(params)
    assert calls == []
    assert factorized == [800]            # one anchor, at J = 0, serves J = 0..10
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
    calls = fallbacks(monkeypatch)
    build_morse_rovib(params, grid)
    assert calls == [0, 1]


def test_trial_space_without_ground_state_is_not_certified():
    params, grid = MorseParams(v_max=1), RadialGrid()
    evals, evecs, kinetic, v_fine = doubling_case(params, grid, 0)
    # rho above v = 2: the Ritz pairs are accurate, but v = 0 is a third level below rho
    theta, radii, anchor = certify_trial(kinetic, v_fine, evecs[:, 1:3],
                                         0.5 * (evals[2] + evals[3]))
    assert radii is None and anchor[0] == -math.inf
    # rho between v = 0 and v = 1, as for the claimed levels evals[:2]
    rho = 0.5 * (evals[1] + evals[2])
    assert certify_trial(kinetic, v_fine, evecs[:, 1:3], rho)[1:] == (None, None)
    # the same call with the true lowest pair certifies
    theta, radii, anchor = certify_trial(kinetic, v_fine, evecs[:, :2], rho)
    assert np.max(np.abs(evals[:2] - theta) + radii) < 1e-9 and anchor[0] > theta[-1]


def test_certificate_needs_disjoint_intervals_below_the_wall():
    # h = diag(v): eigenvalues 0, 5, 8, 10, 100, and the wall min(v[0], v[-1]) = 8
    v = np.array([100.0, 0.0, 5.0, 10.0, 8.0])
    kinetic, e = np.zeros((5, 5)), np.eye(5)
    norm = _abs_norm(kinetic)(v)
    anchor = (7.0, v)                    # a floor on lambda_2 = 8
    # exact pairs: each radius is the rounding allowance alone
    radii, kept = _certify(kinetic, v, norm, np.array([0.0, 5.0]), e[:, 1:3], math.inf, anchor)
    assert np.array_equal(radii, np.full(2, v.size * np.finfo(float).eps * norm))
    assert kept is anchor
    # two overlapping intervals about lambda_0 do not prove lambda_1 lies in either
    y = np.column_stack([e[:, 1], e[:, 1] + 0.01 * e[:, 2]])
    y /= np.linalg.norm(y, axis=0)
    radii, kept = _certify(kinetic, v, norm, (y * (v[:, None] * y)).sum(axis=0), y,
                           math.inf, anchor)
    assert radii is None and kept is anchor
    # lambda_2 = 8 is at the wall, so it is not a bound level
    radii, kept = _certify(kinetic, v, norm, np.array([0.0, 5.0, 8.0]), e[:, [1, 2, 4]],
                           math.inf, (9.0, v))
    assert radii is None


def test_chained_floor_certifies_every_j_up_to_30(monkeypatch):
    """Both grids up to J = 30: each certified interval holds its eigvalsh level,
    one full eigh serves the coarse grid, and coarse and doubled grid alike
    re-anchor by a Cholesky where the carried floor falls behind."""
    checks = []
    certify_ = twinpol.model._certify

    def recorded(kinetic, v, norm, theta, y, rho, anchor):
        radii, new_anchor = certify_(kinetic, v, norm, theta, y, rho, anchor)
        exact = np.linalg.eigvalsh(_with_diagonal(kinetic, v))[:theta.size]
        checks.append((v.size, theta, radii, exact, new_anchor is not anchor))
        return radii, new_anchor

    monkeypatch.setattr(twinpol.model, "_certify", recorded)
    calls = fallbacks(monkeypatch)
    solved = full_eighs(monkeypatch)
    factorized = factorizations(monkeypatch)
    build_morse_rovib(MorseParams(j_max=30))
    assert calls == [] and len(solved) == 1
    coarse = [check for check in checks if check[0] == 400]
    fine = [check for check in checks if check[0] == 800]
    assert len(coarse) == 30 and len(fine) == 31
    for _, theta, radii, exact, _ in checks:
        assert radii is not None and np.all(np.abs(theta - exact) <= radii)
    anchored = [j for j, check in enumerate(fine) if check[-1]]
    assert anchored[0] == 0 and len(anchored) > 1
    assert any(check[-1] for check in coarse) and 400 in factorized


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
    _, radii, anchor = certify_trial(kinetic, v0, evecs0[:, :2], 0.5 * (evals0[1] + evals0[2]))
    assert radii is not None and anchor is not None
    evals, evecs, _, v1 = doubling_case(params, grid, 1)
    rho = 0.5 * (evals[1] + evals[2])
    # trial v = 1, 2 at J = 1: its top level is above the carried floor and rho
    theta, radii, carried = certify_trial(kinetic, v1, evecs[:, 1:3], rho, anchor)
    assert theta[-1] >= _carried_floor(anchor, v1) and theta[-1] >= rho
    assert radii is None and carried is anchor
    # the true lowest pair at J = 1 is certified by the carried floor alone
    theta, radii, carried = certify_trial(kinetic, v1, evecs[:, :2], rho, anchor)
    assert np.max(np.abs(evals[:2] - theta) + radii) < 1e-9 and carried is anchor


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


@pytest.mark.parametrize("j_max", [10, 30])
def test_chained_levels_match_one_eigh_per_j(monkeypatch, j_max):
    solved = full_eighs(monkeypatch)
    calls = fallbacks(monkeypatch)
    params = MorseParams(j_max=j_max)
    model = build_morse_rovib(params)
    # one full eigh, at J = 0, carries every J: the floor re-anchors by a Cholesky
    assert len(solved) == 1 and calls == []
    oracle = morse_model_per_j(params)
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
        # the doubled grid (800 points) keeps its floors; the coarse one proves none
        for name in ("_carried_floor", "_count_floor"):
            floor = getattr(twinpol.model, name)
            monkeypatch.setattr(twinpol.model, name, lambda *args, floor=floor: (
                floor(*args) if args[1].size == 800 else -math.inf))
    solved = full_eighs(monkeypatch)
    params = MorseParams()
    model = build_morse_rovib(params)
    # each J takes at most one full eigh, so j_max + 1 of them means one per J
    assert len(solved) == params.j_max + 1
    assert model.content_hash() == morse_model_per_j(params).content_hash()
