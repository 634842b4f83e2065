import math
from fractions import Fraction

import numpy as np
import pytest

import twinpol.model
from helpers import first_selection_rule_offender, morse_model_per_j, sine_dvr_kinetic
from twinpol import (ConvergenceError, ModelError, MolecularModel, MorseParams, RadialGrid,
                     build_morse_rovib)
from twinpol.model import (_abs_norm, _box_levels, _certify, _effective_potential,
                           _fd_floor, _fd_hop, _sine_dvr_kinetic, _sine_interpolate,
                           _sine_ritz, _sturm_count, _with_diagonal, z_direction_cosine)
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
    _, evecs, kinetic, _, v = doubling_case(params, grid, 3)
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
    """The size of each Cholesky factorization: none in a Morse build."""
    return record_calls(monkeypatch, np.linalg, "cholesky", lambda a: a.shape[0])


def full_eighs(monkeypatch, n=400):
    """One entry per eigh of an n x n matrix: the full coarse solves."""
    return record_calls(monkeypatch, np.linalg, "eigh",
                        lambda a: a.shape if a.shape == (n, n) else None)


def doubling_case(params, grid, j):
    """(coarse eigenvalues, coarse eigenvectors, doubled-grid kinetic matrix,
    its finite-difference coupling, its effective potential) for one J, from
    a full eigensolve."""
    length = grid.r_max - grid.r_min
    kinetic = _sine_dvr_kinetic(grid.n_points, length, params.reduced_mass)
    v_eff = _effective_potential(params, j, grid.points())
    evals, evecs = np.linalg.eigh(_with_diagonal(kinetic, v_eff))
    n_fine = 2 * grid.n_points
    kinetic_fine = _sine_dvr_kinetic(n_fine, length, params.reduced_mass)
    return (evals, evecs, kinetic_fine, _fd_hop(n_fine, length, params.reduced_mass),
            _effective_potential(params, j, grid.points(n_fine)))


def certify_trial(kinetic, hop, v, coarse_vectors, rho):
    """(theta, radii) of _certify on the Ritz pairs of the coarse vectors'
    sine series, as the doubled grid makes them."""
    theta, y = _sine_ritz(coarse_vectors, v, np.linalg.eigvalsh(kinetic))
    return theta, _certify(kinetic, hop, v, _abs_norm(kinetic)(v), theta, y, rho)


def certify(params, grid, j):
    """(certified bound, eigvalsh drift) of the lowest v_max + 1 levels, hartree."""
    k = params.v_max + 1
    evals, evecs, kinetic, hop, v_fine = doubling_case(params, grid, j)
    theta, radii = certify_trial(kinetic, hop, v_fine, evecs[:, :k],
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


def test_grid_refuses_a_tolerance_that_passes_any_drift():
    # drift > nan is False: a NaN tolerance let a 24-point grid pass whose
    # levels drift 0.34 cm^-1 on doubling
    for tol in (math.nan, math.inf, 0.0):
        with pytest.raises(ModelError, match="convergence_tol_cm1 must be positive and finite"):
            RadialGrid(n_points=24, convergence_tol_cm1=tol)


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
    assert calls == [] and factorized == []
    assert len(solved) == 1               # one coarse eigh, at J = 0, serves J = 0..10
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
    for j in (0, 1):
        evals, evecs, kinetic, hop, v_fine = doubling_case(params, grid, j)
        # rho above v = 2: the Ritz pairs are accurate, but v = 0 is a third
        # level below rho, and the Sturm count sees it
        rho = 0.5 * (evals[2] + evals[3])
        assert certify_trial(kinetic, hop, v_fine, evecs[:, 1:3], rho)[1] is None
        assert _fd_floor(v_fine, hop, _abs_norm(kinetic)(v_fine), rho, 2) == -math.inf
        # rho between v = 0 and v = 1, as for the claimed levels evals[:2]
        rho = 0.5 * (evals[1] + evals[2])
        theta, radii = certify_trial(kinetic, hop, v_fine, evecs[:, 1:3], rho)
        assert theta[-1] >= rho and radii is None
        # the same call with the true lowest pair certifies
        theta, radii = certify_trial(kinetic, hop, v_fine, evecs[:, :2], rho)
        assert np.max(np.abs(evals[:2] - theta) + radii) < 1e-9


def test_trial_space_without_ground_state_is_not_certified_from_an_anchor():
    """The coarse grid's step from an anchor: J = 1 takes its Ritz pairs on
    the J = 0 eigenvectors, as _radial_chain forms them."""
    params, grid = MorseParams(v_max=1), RadialGrid()
    r, k = grid.points(), params.v_max + 2
    length, mass = grid.r_max - grid.r_min, params.reduced_mass
    kinetic, hop = _sine_dvr_kinetic(r.size, length, mass), _fd_hop(r.size, length, mass)
    lam, u = np.linalg.eigh(_with_diagonal(kinetic, _effective_potential(params, 0, r)))
    v1 = _effective_potential(params, 1, r)
    exact = np.linalg.eigvalsh(_with_diagonal(kinetic, v1))
    norm = _abs_norm(kinetic)(v1)
    g = u.T @ (u / (2.0 * mass * r[:, None] ** 2))

    def from_anchor(keep):
        small = 2.0 * g[np.ix_(keep, keep)]
        small[np.diag_indices_from(small)] += lam[keep]
        theta, z = np.linalg.eigh(small)
        y = u[:, keep] @ z[:, :k]
        y /= np.linalg.norm(y, axis=0)
        rho = 0.5 * (theta[k - 1] + theta[k])
        return theta[:k], _certify(kinetic, hop, v1, norm, theta[:k], y, rho), rho

    # an anchor basis without v = 0: the Ritz pairs are J = 1's v = 1, 2, 3,
    # and the Sturm count sees v = 0 as a fourth level below rho
    theta, radii, rho = from_anchor(np.arange(1, 64))
    assert np.max(np.abs(theta - exact[1:k + 1])) < 1e-7
    assert radii is None and _fd_floor(v1, hop, norm, rho, k) == -math.inf
    # the anchor's lowest 64 eigenvectors certify J = 1's lowest levels
    theta, radii, _ = from_anchor(np.arange(64))
    assert np.max(np.abs(exact[:k] - theta) + radii) < 1e-9


def test_certificate_needs_disjoint_intervals_below_the_wall():
    # h = diag(v): eigenvalues 0, 5, 8, 10, 100, and the wall min(v[0], v[-1]) = 8;
    # a zero kinetic matrix is its own finite-difference minorant (hop = 0)
    v = np.array([100.0, 0.0, 5.0, 10.0, 8.0])
    kinetic, e = np.zeros((5, 5)), np.eye(5)
    norm = _abs_norm(kinetic)(v)
    # exact pairs: each radius is the rounding allowance alone; rho = 7 floors lambda_2 = 8
    radii = _certify(kinetic, 0.0, v, norm, np.array([0.0, 5.0]), e[:, 1:3], 7.0)
    assert np.array_equal(radii, np.full(2, v.size * np.finfo(float).eps * norm))
    # above lambda_2 no floor is proven, and the same pairs are refused
    assert _certify(kinetic, 0.0, v, norm, np.array([0.0, 5.0]), e[:, 1:3], 9.0) is None
    assert _certify(kinetic, 0.0, v, norm, np.array([0.0, 5.0]), e[:, 1:3], math.inf) is None
    # two overlapping intervals about lambda_0 do not prove lambda_1 lies in either
    y = np.column_stack([e[:, 1], e[:, 1] + 0.01 * e[:, 2]])
    y /= np.linalg.norm(y, axis=0)
    assert _certify(kinetic, 0.0, v, norm, (y * (v[:, None] * y)).sum(axis=0), y, 7.0) is None
    # lambda_2 = 8 is at the wall, so it is not a bound level
    assert _certify(kinetic, 0.0, v, norm, np.array([0.0, 5.0, 8.0]), e[:, [1, 2, 4]],
                    9.0) is None


def test_chained_floor_certifies_every_j_up_to_30(monkeypatch):
    """Both grids up to J = 30: each J is certified, each certified interval
    holds its eigvalsh level, one full eigh serves the coarse grid, and no
    grid is factorized."""
    checks = []
    certify_ = twinpol.model._certify

    def recorded(kinetic, hop, v, norm, theta, y, rho):
        radii = certify_(kinetic, hop, v, norm, theta, y, rho)
        exact = np.linalg.eigvalsh(_with_diagonal(kinetic, v))[:theta.size]
        checks.append((v.size, theta, radii, exact))
        return radii

    monkeypatch.setattr(twinpol.model, "_certify", recorded)
    calls = fallbacks(monkeypatch)
    solved = full_eighs(monkeypatch)
    factorized = factorizations(monkeypatch)
    build_morse_rovib(MorseParams(j_max=30))
    assert calls == [] and len(solved) == 1 and factorized == []
    assert [size for size, *_ in checks].count(400) == 30
    assert [size for size, *_ in checks].count(800) == 31
    for _, theta, radii, exact in checks:
        assert radii is not None and np.all(np.abs(theta - exact) <= radii)


def fd_kinetic(n, length, mass):
    """The 3-point finite-difference kinetic matrix on _sine_dvr_kinetic's grid."""
    return _fd_hop(n, length, mass) * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))


@pytest.mark.parametrize("n", [8, 11, 32, 64])
def test_fd_kinetic_lies_below_the_sine_dvr_matrix(n):
    length, mass = 4.8, MorseParams().reduced_mass
    kinetic = _sine_dvr_kinetic(n, length, mass)
    allowance = n * np.finfo(float).eps * _abs_norm(kinetic)(np.zeros(n))
    assert np.linalg.eigvalsh(kinetic - fd_kinetic(n, length, mass)).min() >= -allowance
    # the allowance bounds kinetic's own rounding: against the sine-DVR matrix
    # S diag(levels) S formed in extended precision, ||E||_F < allowance / 8
    ext = np.longdouble
    if np.finfo(ext).eps > 1e-3 * np.finfo(float).eps:
        pytest.skip("no extended precision on this platform")
    m = np.arange(1, n + 1, dtype=ext)
    pi = ext("3.14159265358979323846264338327950288")
    sines = np.sqrt(ext(2) / (n + 1)) * np.sin(pi * np.outer(m, m) / (n + 1))
    exact = (sines * ((pi * m / ext(length)) ** 2 / (2 * ext(mass)))) @ sines
    assert np.linalg.norm((kinetic - exact).astype(float)) < allowance / 8


def test_fd_floor_never_exceeds_the_eigenvalue():
    rng = np.random.default_rng(2101)
    params = MorseParams()
    proven = {"between": 0, "tight": 0, "at": 0}
    for _ in range(30):
        grid = RadialGrid(n_points=int(rng.integers(8, 97)))
        n, length, mass = grid.n_points, grid.r_max - grid.r_min, params.reduced_mass
        kinetic, hop = _sine_dvr_kinetic(n, length, mass), _fd_hop(n, length, mass)
        v = (_effective_potential(params, int(rng.integers(0, 61)), grid.points())
             + rng.uniform(0.0, 0.05, n))
        lam = np.linalg.eigvalsh(_with_diagonal(kinetic, v))
        lam_fd = np.linalg.eigvalsh(_with_diagonal(fd_kinetic(n, length, mass), v))
        norm = _abs_norm(kinetic)(v)
        for k in range(1, 6):
            # between two levels, at the minorant's own level (the floor's
            # tightest place), and at lambda_k itself
            rhos = {"between": 0.5 * (lam[k - 1] + lam[k]), "tight": lam_fd[k], "at": lam[k]}
            for kind, rho in rhos.items():
                floor = _fd_floor(v, hop, norm, rho, k)
                assert floor <= lam[k]
                proven[kind] += floor > -math.inf
    assert proven["between"] >= 100 and proven["tight"] >= 50 and proven["at"] == 0, proven


def exact_zero_pivot(diag, off, shift):
    """Whether a pivot before the last of tridiag(off, diag, off) - shift is
    exactly zero, in rational arithmetic."""
    d = None
    for a in diag[:-1]:
        d = Fraction(a) - Fraction(shift) - (0 if d is None else Fraction(off) ** 2 / d)
        if d == 0:
            return True
    return False


def test_sturm_count_matches_eigvalsh():
    rng = np.random.default_rng(2102)
    # pivots 0, -inf, 0, ... and 1, 0, -inf, 1
    cases = [(np.ones(6), 1.0, 1.0), (np.full(4, 3.0), 1.0, 2.0)]
    for _ in range(300):
        n = int(rng.integers(1, 40))
        if rng.random() < 0.5:      # small integers: exact zero pivots are common
            cases.append((rng.integers(-3, 4, n).astype(float), float(rng.choice([-1, 1])),
                          float(rng.integers(-4, 5))))
        else:
            cases.append((rng.normal(size=n), rng.normal(), rng.normal()))
    zero_pivots = 0
    for diag, off, shift in cases:
        lam = np.linalg.eigvalsh(np.diag(diag) + off * (np.eye(diag.size, k=1)
                                                          + np.eye(diag.size, k=-1)))
        if np.min(np.abs(lam - shift)) < 1e-9:      # the count at an eigenvalue is rounding's
            continue
        assert _sturm_count(diag, off, shift) == np.sum(lam < shift)
        zero_pivots += exact_zero_pivot(diag, off, shift)
    assert zero_pivots >= 10


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
    # one full eigh, at J = 0, carries every J
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
        # the doubled grid (800 points) keeps its floor; the coarse one proves none
        count = twinpol.model._sturm_count
        monkeypatch.setattr(twinpol.model, "_sturm_count", lambda diag, off, shift: (
            count(diag, off, shift) if diag.size == 800 else diag.size))
    solved = full_eighs(monkeypatch)
    params = MorseParams()
    model = build_morse_rovib(params)
    # each J takes at most one full eigh, so j_max + 1 of them means one per J
    assert len(solved) == params.j_max + 1
    assert model.content_hash() == morse_model_per_j(params).content_hash()
