import math
from fractions import Fraction

import numpy as np
import pytest

import twinpol.model
from helpers import (first_selection_rule_offender, morse_model_per_j, sine_dvr_kinetic,
                     traced_peak)
from twinpol import (ConvergenceError, ModelError, MolecularModel, MorseParams, RadialGrid,
                     build_morse_rovib)
from twinpol.model import (_abs_norm, _box_levels, _certify, _effective_potential,
                           _fd_floor, _fd_hop, _sine_coefficients, _sine_dvr_kinetic,
                           _sine_kinetic, _sine_modes, _sine_ritz, _sine_samples, _sturm_count,
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


@pytest.mark.parametrize("n", [8, 800])
def test_box_levels_are_the_kinetic_eigenvalues(n):
    kinetic = _sine_dvr_kinetic(n, 4.8, 1782.0)
    levels = _box_levels(n, 4.8, 1782.0)
    assert np.max(np.abs(levels - np.linalg.eigvalsh(kinetic))) <= 1e-13 * levels[-1]


def test_sine_ritz_projects_the_kinetic_matrix_in_the_sine_basis():
    # the kinetic part from the sine coefficients equals the dense projection
    params, grid = MorseParams(), RadialGrid()
    _, evecs, kinetic, _, v = doubling_case(params, grid, 3)
    coeffs = _sine_coefficients(evecs[:, :2])
    theta, y = _sine_ritz(coeffs, v, _box_levels(v.size, grid.r_max - grid.r_min,
                                                 params.reduced_mass))
    trial = _sine_samples(coeffs, v.size)
    dense, z = np.linalg.eigh(trial.T @ (kinetic @ trial + v[:, None] * trial))
    assert np.max(np.abs(theta - dense)) <= 1e-13 * abs(dense).max()
    assert np.allclose(np.abs(np.sum(y * (trial @ z), axis=0)), 1.0, rtol=0, atol=1e-12)
    assert np.allclose(np.linalg.norm(y, axis=0), 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [8, 9, 11, 16, 64, 127, 400, 401, 800])
def test_closed_form_sine_modes_match_the_transform(n):
    """_sine_modes against _sine_samples of the identity, u = eps / 2.

    Closed form: the angle pi m / (n + 1) < 2 pi carries the roundings of
    pi, of the product and of the quotient (3 u relative, 6 pi u absolute),
    sin its own u, and the prefactor p = sqrt(2 / (n + 1)) three more
    (quotient, sqrt, product): within p (6 pi + 4) u per entry.
    Transform: an FFT of length N is within log2(N) eta of its exact output
    in 2-norm, eta = u + gamma_4 sqrt(2) ~ (1 + 4 sqrt(2)) u for the
    twiddles and one butterfly (Higham 2002, Thm 24.2); N = 2 (n + 1) is no
    power of two, and Bluestein's three FFTs of length below 4N take
    3 log2(4N) for log2(N).  A unit column's odd extension has norm
    sqrt(2), its transform sqrt(2N), scaled by p / 2 to norm 1, so each
    entry lies within 3 log2(4N) eta, plus u for the scaling."""
    u = np.finfo(float).eps / 2
    p = math.sqrt(2.0 / (n + 1))
    bound = (p * (6 * math.pi + 4) + 3 * math.log2(8 * (n + 1)) * (1 + 4 * math.sqrt(2)) + 1) * u
    for m in sorted({min(n, 128), n}):
        modes = _sine_modes(n, m)
        assert modes.shape == (n, m)
        assert np.max(np.abs(modes - _sine_samples(np.eye(m), n))) <= bound


@pytest.mark.parametrize("n", [8, 11, 16, 64, 400, 800])
def test_sine_kinetic_stays_within_an_eighth_of_the_allowance(n):
    """Two sine transforms apply the tabled kinetic matrix to within n eps
    norm / 8, the part of _certify's allowance they may take, with norm from
    the grid's Morse potential; on the bare kinetic matrix (v = 0) too, from
    the 16 points of the smallest doubled grid."""
    params = MorseParams()
    grid = RadialGrid(n_points=n)
    length, mass = grid.r_max - grid.r_min, params.reduced_mass
    kinetic = _sine_dvr_kinetic(n, length, mass)
    apply = _sine_kinetic(_box_levels(n, length, mass))
    rng = np.random.default_rng(2201 + n)
    modes = _sine_samples(np.eye(n), n)
    y = np.column_stack([rng.normal(size=(n, 20)), modes[:, :4], modes[:, -4:],
                         np.eye(n)[:, [0, n // 2, n - 1]]])
    y /= np.linalg.norm(y, axis=0)
    error = np.linalg.norm(apply(y) - kinetic @ y, axis=0).max()
    potentials = [_effective_potential(params, 0, grid.points())] + [np.zeros(n)] * (n >= 16)
    for v in potentials:
        assert error <= n * np.finfo(float).eps * _abs_norm(n, length, mass)(v) / 8


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


def dense_abs_norm(kinetic, v):
    """|| |kinetic| + diag(|v|) ||_F of the formed matrix."""
    return float(np.linalg.norm(np.abs(kinetic) + np.diag(np.abs(v))))


@pytest.mark.parametrize("n", [8, 11, 400, 800])
def test_abs_norm_closed_form_matches_the_dense_matrix(n):
    params, length = MorseParams(), 4.8
    v = _effective_potential(params, 3, RadialGrid(n_points=n).points())
    kinetic = _sine_dvr_kinetic(n, length, params.reduced_mass)
    for pot in (v, np.zeros(n)):
        dense = dense_abs_norm(kinetic, pot)
        assert abs(_abs_norm(n, length, params.reduced_mass)(pot) - dense) <= 1e-14 * dense


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


def eigh_sizes(monkeypatch):
    """The size of each eigh, in call order."""
    return record_calls(monkeypatch, np.linalg, "eigh", lambda a: a.shape[0])


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
    theta, y = _sine_ritz(_sine_coefficients(coarse_vectors), v, np.linalg.eigvalsh(kinetic))
    return theta, _certify(kinetic.__matmul__, hop, v, dense_abs_norm(kinetic, v), theta, y, rho)


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


@pytest.mark.parametrize("v_max", [5, 6, 7])
def test_eight_point_grid_reads_no_mode_past_its_last(monkeypatch, v_max):
    """8 points hold 8 sine modes.  J = 0's Ritz step reads v_max + 2 pairs:
    at v_max = 5 it takes all 8 modes, and past that a full eigh decides."""
    params, grid = MorseParams(v_max=v_max, j_max=1), RadialGrid(n_points=8)
    modes = record_calls(monkeypatch, twinpol.model, "_sine_ritz", lambda c, *_: c.shape[1])
    if v_max >= 6:
        with pytest.raises(ConvergenceError, match="does not bound the requested levels for J=0"):
            build_morse_rovib(params, grid, check_convergence=False)
        assert modes == []
        return
    model = build_morse_rovib(params, grid, check_convergence=False)
    assert modes == [8]
    monkeypatch.undo()
    oracle = morse_model_per_j(params, grid)
    assert np.max(np.abs(model.energies - oracle.energies)) <= 1e-13


def test_default_grid_is_certified_for_every_j(monkeypatch):
    calls = fallbacks(monkeypatch)
    factorized = factorizations(monkeypatch)
    solved = full_eighs(monkeypatch)
    params = MorseParams()
    model = build_morse_rovib(params)
    assert calls == [] and factorized == []
    assert solved == []                   # J = 0 from sine modes, J = 1..10 chained from it
    monkeypatch.undo()
    unchecked = build_morse_rovib(params, check_convergence=False)
    assert np.array_equal(model.energies, unchecked.energies)
    assert np.array_equal(model.dipole, unchecked.dipole)
    assert model.content_hash() == unchecked.content_hash()
    tol = RadialGrid().convergence_tol_cm1 / CM1_PER_HARTREE
    for j in (0, params.j_max):
        bound, drift = certify(params, RadialGrid(), j)
        assert drift <= bound <= tol


@pytest.mark.parametrize("j_max", [10, 30])
def test_build_forms_no_coarse_eigh_and_no_doubled_kinetic_matrix(monkeypatch, j_max):
    # J = 0's Ritz step on the box's lowest 128 sine modes is the largest
    # eigh; the doubled grid applies its kinetic matrix by sine transforms
    sizes = eigh_sizes(monkeypatch)
    formed = record_calls(monkeypatch, twinpol.model, "_sine_dvr_kinetic", lambda n, *_: n)
    build_morse_rovib(MorseParams(j_max=j_max))
    assert sizes[0] == 2 * twinpol.model._ANCHOR_PAIRS == max(sizes) == 128
    assert sizes.count(128) == 1 and formed == [400]


def test_refused_sine_anchor_falls_back_to_the_full_eigh(monkeypatch):
    # every coarse-grid certificate refuses, J = 0's sine-mode anchor first
    certify_ = twinpol.model._certify
    refused = []

    def refuse_coarse(kinetic, hop, v, norm, theta, y, rho):
        if v.size == RadialGrid().n_points:
            refused.append(theta.size)
            return None
        return certify_(kinetic, hop, v, norm, theta, y, rho)

    monkeypatch.setattr(twinpol.model, "_certify", refuse_coarse)
    sizes = eigh_sizes(monkeypatch)
    params = MorseParams()
    model = build_morse_rovib(params)
    # J = 0 tries its 128 sine modes, then eigh decides it; each later J is
    # chained from the J below, refused, and decided by eigh
    assert sizes[:2] == [128, 400] and sizes.count(400) == params.j_max + 1
    assert refused == [params.v_max + 2] * (params.j_max + 1)
    monkeypatch.undo()
    assert model.content_hash() == morse_model_per_j(params).content_hash()


def test_default_build_and_hash_stay_within_their_memory():
    # the 400 x 400 eigh and the 800 x 800 kinetic matrix came to 8.6 MiB
    # traced, and the hash's whole JSON to 5.3 MiB
    model, peak = traced_peak(lambda: build_morse_rovib(MorseParams()))
    assert peak < 5 * 2**20
    _, peak = traced_peak(model.content_hash)
    assert peak < 2**20


def test_jmax30_build_holds_one_dipole(hcl_jmax30_build):
    # 1,922 states, a 28.2 MiB dipole: symmetrized as 0.5 (d + d^T) and then
    # copied into the model, the build peaked at 59 MiB traced
    model, peak = hcl_jmax30_build
    assert model.dipole.nbytes < peak < 40 * 2**20


def one_sided_symmetrized_dipole(params, radial):
    """_rovib_model's dipole as it was formed: each <v' J'| mu(R) |v J> A(J, J', M)
    for J' = J +- 1 filled once, then 0.5 (d + d^T)."""
    mu_r = params.dipole_function(RadialGrid().points())
    states = [(v, j, m) for v in range(params.v_max + 1) for j in range(params.j_max + 1)
              for m in range(-j, j + 1)]
    index = {s: k for k, s in enumerate(states)}
    d = np.zeros((len(states), len(states)))
    for j in range(params.j_max + 1):
        for jp in (j - 1, j + 1):
            if not 0 <= jp <= params.j_max:
                continue
            ms = range(-min(j, jp), min(j, jp) + 1)
            cosines = np.array([z_direction_cosine(j, jp, m) for m in ms])
            for v in range(params.v_max + 1):
                for vp in range(params.v_max + 1):
                    integral = float(radial[jp][1][:, vp] @ (mu_r * radial[j][1][:, v]))
                    d[[index[(vp, jp, m)] for m in ms],
                      [index[(v, j, m)] for m in ms]] = integral * cosines
    return 0.5 * (d + d.T)


@pytest.mark.parametrize("params", [MorseParams(), MorseParams(j_max=30),
                                    MorseParams(v_max=3, j_max=20)],
                         ids=["default", "j_max_30", "v_max_3_j_max_20"])
def test_dipole_pairs_hold_the_bits_of_the_symmetrized_matrix(params, monkeypatch):
    """Writing each entry and its transpose as 0.5 (a + b) keeps the bits,
    and so the content_hash, of symmetrizing the one-sided matrix."""
    seen = []
    build = twinpol.model._rovib_model
    monkeypatch.setattr(twinpol.model, "_rovib_model",
                        lambda params, grid, radial: seen.append(radial) or build(
                            params, grid, radial))
    model = build_morse_rovib(params)
    assert np.array_equal(model.dipole, one_sided_symmetrized_dipole(params, seen[0]))


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
        assert _fd_floor(v_fine, hop, dense_abs_norm(kinetic, v_fine), rho, 2) == -math.inf
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
    norm = dense_abs_norm(kinetic, v1)
    g = u.T @ (u / (2.0 * mass * r[:, None] ** 2))

    def from_anchor(keep):
        small = 2.0 * g[np.ix_(keep, keep)]
        small[np.diag_indices_from(small)] += lam[keep]
        theta, z = np.linalg.eigh(small)
        y = u[:, keep] @ z[:, :k]
        y /= np.linalg.norm(y, axis=0)
        rho = 0.5 * (theta[k - 1] + theta[k])
        return theta[:k], _certify(kinetic.__matmul__, hop, v1, norm, theta[:k], y, rho), rho

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
    kinetic, e = np.zeros((5, 5)).__matmul__, np.eye(5)
    norm = float(np.linalg.norm(v))
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
    holds its eigvalsh level, no full eigh serves the coarse grid, and no
    grid is factorized."""
    checks = []
    certify_ = twinpol.model._certify
    grid, mass = RadialGrid(), MorseParams().reduced_mass
    # the build applies the doubled grid's kinetic matrix by sine transforms;
    # the oracle forms both grids' tabled matrices
    dense = {n: _sine_dvr_kinetic(n, grid.r_max - grid.r_min, mass) for n in (400, 800)}

    def recorded(kinetic, hop, v, norm, theta, y, rho):
        radii = certify_(kinetic, hop, v, norm, theta, y, rho)
        exact = np.linalg.eigvalsh(_with_diagonal(dense[v.size], v))[:theta.size]
        checks.append((v.size, theta, radii, exact))
        return radii

    monkeypatch.setattr(twinpol.model, "_certify", recorded)
    calls = fallbacks(monkeypatch)
    solved = full_eighs(monkeypatch)
    factorized = factorizations(monkeypatch)
    build_morse_rovib(MorseParams(j_max=30))
    assert calls == [] and solved == [] and factorized == []
    assert [size for size, *_ in checks].count(400) == 31
    assert [size for size, *_ in checks].count(800) == 31
    for _, theta, radii, exact in checks:
        assert radii is not None and np.all(np.abs(theta - exact) <= radii)


def test_a_refused_doubled_grid_certificate_sends_that_j_alone_to_eigvalsh(monkeypatch):
    """The doubled grid certifies every J in one batch, each J on its own
    certificate: refusing J = 2's sends J = 2, and no other J, to the full
    eigvalsh check, and the model does not move."""
    params, grid = MorseParams(), RadialGrid()
    v_two = _effective_potential(params, 2, grid.points(2 * grid.n_points))
    certify_ = twinpol.model._certify
    doubled = []

    def refuse_j2(kinetic, hop, v, norm, theta, y, rho):
        if v.size == v_two.size:
            doubled.append(v)
            if np.array_equal(v, v_two):
                return None
        return certify_(kinetic, hop, v, norm, theta, y, rho)

    monkeypatch.setattr(twinpol.model, "_certify", refuse_j2)
    calls = fallbacks(monkeypatch)
    model = build_morse_rovib(params, grid)
    assert calls == [2] and len(doubled) == params.j_max + 1
    monkeypatch.undo()
    assert model.content_hash() == build_morse_rovib(params, grid).content_hash()


def fd_kinetic(n, length, mass):
    """The 3-point finite-difference kinetic matrix on _sine_dvr_kinetic's grid."""
    return _fd_hop(n, length, mass) * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))


@pytest.mark.parametrize("n", [8, 11, 32, 64])
def test_fd_kinetic_lies_below_the_sine_dvr_matrix(n):
    length, mass = 4.8, MorseParams().reduced_mass
    kinetic = _sine_dvr_kinetic(n, length, mass)
    allowance = n * np.finfo(float).eps * _abs_norm(n, length, mass)(np.zeros(n))
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
        norm = _abs_norm(n, length, mass)(v)
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
    # J = 0 from the box's sine modes carries every J: no full eigh
    assert solved == [] and calls == []
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
