import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import twinpol.cli
import twinpol.integrators
import twinpol.manymol
import twinpol.quantum
from twinpol import KickPulse, boltzmann_weights, propagate_quantum, thermal_initial_states
from twinpol.cli import RunConfig, main, run
from twinpol.errors import ConfigError
from twinpol.model import model_from_config
from twinpol.quantum import (ProductBasis, assemble_hamiltonian, diagonalize_polaritons,
                             dominant_eigenstate, solve_polaritons, static_stick_spectrum)
from twinpol.spectra import Spectrum, peaks_from_sticks

THREE_LEVEL_HEADER = """\
[three_level]
e1 = 2e-3 au
e2 = 10e-3 au

[cavity]
omega_c = 1e-2 au
g = 2e-4 au
dse = off
n_fock_max = 2
"""


def write(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return path


def test_validate_resolves_defaults(tmp_path, capsys):
    cfg = write(tmp_path, THREE_LEVEL_HEADER + "\n[protocol]\nframework = quantum_static\n")
    assert main(["validate", str(cfg)]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["cavity"]["n_fock_max"] == 2
    assert resolved["cavity"]["dse"] is False
    assert resolved["protocol"]["initial"] == "ground"


def test_unknown_key_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path, THREE_LEVEL_HEADER + "\n[protocol]\nframwork = typo\n")
    assert main(["validate", str(cfg)]) == 2
    assert "framwork" in capsys.readouterr().err


def test_unit_mismatch_is_config_error(tmp_path):
    cfg = write(tmp_path, "[three_level]\ne1 = 2e-3 parsec\n")
    with pytest.raises(ConfigError, match="parsec"):
        RunConfig.from_file(cfg)


def test_unknown_initial_names_valid_labels(tmp_path, capsys):
    cfg = write(tmp_path, THREE_LEVEL_HEADER
                + "\n[protocol]\nframework = quantum_td\ninitial = psi_3\n")
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "psi_3" in err and "psi0" in err


def test_unknown_thermal_key_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path, THREE_LEVEL_HEADER + """
[thermal]
temperature = 300 K
tempreature = 10 K

[protocol]
framework = quantum_static
initial = thermal
""")
    assert main(["validate", str(cfg)]) == 2
    assert "[thermal] has unknown key 'tempreature'" in capsys.readouterr().err


def test_thermal_empty_state_subset_is_config_error(tmp_path, capsys):
    # the 3-level model has no vibrational quantum number, so v = 1 selects
    # no state to weight
    cfg = write(tmp_path, THREE_LEVEL_HEADER + """
[thermal]
v = 1

[protocol]
framework = quantum_static
initial = thermal
""")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "subset is empty" in capsys.readouterr().err


@pytest.mark.parametrize("sections", ["[three_level]\n\n[morse]\n", ""],
                         ids=["both", "neither"])
def test_model_needs_exactly_one_section(tmp_path, capsys, sections):
    cfg = write(tmp_path, sections + "\n[protocol]\nframework = quantum_static\n")
    assert main(["validate", str(cfg)]) == 2
    assert ("config needs exactly one of [three_level] or [morse]"
            in capsys.readouterr().err)


@pytest.mark.parametrize("section", ["three_level", "morse", "thermal", "cavity",
                                     "protocol", "output"])
def test_unknown_key_in_any_section_is_config_error(tmp_path, capsys, section):
    model = "morse" if section == "morse" else "three_level"
    cfg = write(tmp_path, "".join(
        f"[{name}]\n" + ("typo_key = 1\n" if name == section else "") + "\n"
        for name in (model, "thermal", "cavity", "protocol", "output")))
    assert main(["validate", str(cfg)]) == 2
    assert f"[{section}] has unknown key 'typo_key'" in capsys.readouterr().err


MORSE_J1 = "[morse]\nj_max = 1\n"
MANYMOL = "\n[protocol]\nframework = manymol_bruteforce\n"

# (config text, what the diagnostic names); before the schema, the malformed
# values ended in a traceback and the values out of range passed validate
BAD_CONFIGS = {
    "int": (THREE_LEVEL_HEADER + "\n[protocol]\nrecord_stride = eight\n", "record_stride"),
    "int_morse": ("[morse]\nv_max = one\n", "v_max"),
    "float": (THREE_LEVEL_HEADER + "\n[protocol]\npeak_threshold = high\n",
              "peak_threshold"),
    "bool": (THREE_LEVEL_HEADER.replace("dse = off", "dse = maybe"), "dse"),
    "quantity": (THREE_LEVEL_HEADER + "\n[protocol]\nt_end = long au\n", "t_end"),
    "negative_dt": (THREE_LEVEL_HEADER + "\n[protocol]\ndt = -1 au\n",
                    "dt: must be positive"),
    "infinite_t_end": (THREE_LEVEL_HEADER + "\n[protocol]\nt_end = inf au\n",
                       "t_end: must be positive and finite"),
    "zero_stride": (THREE_LEVEL_HEADER + "\n[protocol]\nrecord_stride = 0\n",
                    "record_stride: must be positive"),
    "short_run": (THREE_LEVEL_HEADER + "\n[protocol]\nframework = classical\nt_end = 4 au\n",
                  "t_end is shorter than one record_stride"),
    # 1e13 record times alone need 72.8 TiB: np.arange raised a MemoryError
    "unallocatable_records": (THREE_LEVEL_HEADER + "\n[protocol]\nframework = classical\n"
                              "t_end = 1e13 au\ndt = 1 au\nrecord_stride = 1\n",
                              "10000000000001 records need"),
    "no_photons": (THREE_LEVEL_HEADER.replace("n_fock_max = 2", "n_fock_max = 0"),
                   "n_fock_max must be at least 1"),
    "negative_sigma": (THREE_LEVEL_HEADER + "\n[protocol]\nframework = quantum_td\n"
                       "pulse_sigma = -5 au\n", "sigma must be positive"),
    "symmetric_with_n0": (THREE_LEVEL_HEADER + MANYMOL + "initial = symmetric\nn0 = 1\n",
                          "exactly one of n0"),
    "n0_above_n_mol": (THREE_LEVEL_HEADER + MANYMOL + "initial = thermal\nn_mol = 4\n"
                       "n0 = 5\n", "n0 must lie in 0..4"),
    "no_molecules": (THREE_LEVEL_HEADER + MANYMOL + "initial = symmetric\nn_mol = 0\n",
                     "n_mol must be at least 1"),
    "thermo_limit_r0": (THREE_LEVEL_HEADER + "\n[protocol]\nframework = thermo_limit\n"
                        "initial = thermal\nr0 = 2\n", "r0 must lie in [0, 1]"),
    "morse_manymol": (MORSE_J1 + "\n[protocol]\nframework = manymol_analytic\n"
                      "initial = symmetric\n", "3-level model"),
    "morse_thermo_limit": (MORSE_J1 + "\n[protocol]\nframework = thermo_limit\n"
                           "initial = thermal\n", "thermo_limit expects a 3-level model"),
    "morse_sweep": (MORSE_J1 + "\n[cavity]\ng_sweep = 1e-4 au, 2e-4 au\n",
                    "g sweeps with splitting tables support the 3-level model"),
    "unknown_format": (THREE_LEVEL_HEADER + "\n[output]\nformats = csv, xml\n",
                       "unknown formats 'xml'"),
    # 8 points hold 8 levels, the top ones above the wall, for 9 requested ones
    "undersized_grid": ("[morse]\nv_max = 8\nn_points = 8\n",
                        "does not bound the requested levels for J=0"),
    # non-finite values: these validated, then run failed in the solver or the
    # weights (exit 3), crashed (amplitude, t0) or ran with a guard off
    "nan_g": (THREE_LEVEL_HEADER.replace("g = 2e-4 au", "g = nan au"),
              "coupling g must be nonnegative and finite"),
    "infinite_omega_c": (THREE_LEVEL_HEADER.replace("omega_c = 1e-2 au", "omega_c = inf au"),
                         "omega_c must be positive and finite"),
    "nan_temperature": (THREE_LEVEL_HEADER + "\n[thermal]\ntemperature = nan K\n"
                        "\n[protocol]\ninitial = thermal\n",
                        "temperature must be positive and finite"),
    "nan_pulse_amplitude": (THREE_LEVEL_HEADER + "\n[protocol]\nframework = quantum_td\n"
                            "pulse_amplitude = nan au\n", "amplitude and t0 must be finite"),
    "nan_pulse_t0": (THREE_LEVEL_HEADER + "\n[protocol]\nframework = quantum_td\n"
                     "pulse_t0 = nan au\n", "amplitude and t0 must be finite"),
    "infinite_sigma": (THREE_LEVEL_HEADER + "\n[protocol]\nframework = classical\n"
                       "pulse_sigma = inf au\n", "sigma must be positive and finite"),
    "nan_max_excitation": (THREE_LEVEL_HEADER + "\n[protocol]\nframework = quantum_td\n"
                           "pulse_max_excitation = nan\n", "max_excitation must be positive"),
    "nan_peak_threshold": (THREE_LEVEL_HEADER + "\n[protocol]\npeak_threshold = nan\n",
                           "peak_threshold: must lie in [0, 1]"),
    # these ran the whole Morse build first: r_e = nan failed on the finished
    # model, r_max = inf warned, then blamed the levels
    "nan_r_e": (MORSE_J1 + "r_e = nan bohr\n", "Morse parameter r_e must be positive and finite"),
    "infinite_r_max": (MORSE_J1 + "r_max = inf bohr\n", "finite r_min < r_max, got [1.2, inf]"),
    # malformed files: these ended in a configparser traceback, exit 1
    "duplicate_key": (THREE_LEVEL_HEADER.replace("e2 = 10e-3 au\n",
                                                 "e2 = 10e-3 au\ne1 = 3e-3 au\n"),
                      "option 'e1' in section 'three_level' already exists"),
    "duplicate_section": (THREE_LEVEL_HEADER + "\n[cavity]\ng = 1e-4 au\n",
                          "section 'cavity' already exists"),
    "no_section_header": ("e1 = 2e-3 au\n" + THREE_LEVEL_HEADER, "no section headers"),
    "not_key_value": (THREE_LEVEL_HEADER + "\n[protocol]\nframework quantum_static\n",
                      "'framework quantum_static"),
    "stray_percent": (THREE_LEVEL_HEADER + "\n[output]\ndirectory = out%1\n",
                      "[output] directory: '%' must be followed by '%' or '('"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", BAD_CONFIGS)
def test_config_errors_exit_2_at_validate_and_run(tmp_path, capsys, case):
    body, named = BAD_CONFIGS[case]
    cfg = write(tmp_path, body)
    assert main(["validate", str(cfg)]) == 2
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("config error: ") for line in err)
    assert named in err[0]
    assert not (tmp_path / "o" / "error.txt").exists()


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(THREE_LEVEL_HEADER.encode() + "# caf\xe9\n".encode("latin-1"))
    assert main(["validate", str(cfg)]) == 2
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("config error: ") and
                                 "'utf-8' codec can't decode byte 0xe9" in line for line in err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config", sorted(Path(__file__).parent.parent.glob("configs/*.cfg")),
                         ids=lambda path: path.stem)
def test_shipped_configs_validate(config, capsys):
    assert main(["validate", str(config)]) == 0


def test_manifest_rebuilds_the_morse_model(tmp_path):
    cfg = write(tmp_path, MORSE_J1 + "d_e = 37000 cm-1\ndipole_mu1 = 0.10 au\n"
                "\n[protocol]\nframework = quantum_static\n")
    run(RunConfig.from_file(cfg), tmp_path / "o")
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    rebuilt = RunConfig.from_manifest(manifest).build_model()
    assert rebuilt.content_hash() == manifest["model_hash"]
    assert manifest["model_hash"] != model_from_config({"morse": {"j_max": "1"}}).content_hash()


def test_format_flag_keeps_one_format(tmp_path):
    cfg = write(tmp_path, THREE_LEVEL_HEADER + TD_PROTOCOL.format(framework="classical",
                                                                  initial=""))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o"), "--format", "json"]) == 0
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["manifest.json",
                                                                  "peaks.json"]


def test_format_flag_keeps_files_the_run_did_not_write(tmp_path):
    cfg = write(tmp_path, THREE_LEVEL_HEADER + "\n[protocol]\nframework = quantum_static\n")
    other = tmp_path / "o" / "other" / "results.csv"
    other.parent.mkdir(parents=True)
    other.write_text("kept\n")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o"), "--format", "json"]) == 0
    assert other.read_text() == "kept\n"
    assert not (tmp_path / "o" / "sticks.csv").exists()


def test_sweep_format_flag_drops_only_sweep_artifacts(tmp_path):
    out = tmp_path / "sw"
    other = out / "g_000" / "notes.csv"
    other.parent.mkdir(parents=True)
    other.write_text("kept\n")
    assert main(["sweep", str(write(tmp_path, SWEEP)), "--out-dir", str(out),
                 "--format", "json"]) == 0
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*.csv")) == [
        "g_000/notes.csv"]
    assert (out / "sweep_summary.json").exists()
    assert (out / "g_003" / "manifest.json").exists()


def test_sweep_requires_g_list(tmp_path, capsys):
    cfg = write(tmp_path, THREE_LEVEL_HEADER + "\n[protocol]\nframework = quantum_static\n")
    assert main(["sweep", str(cfg)]) == 2


def test_static_run_and_determinism(tmp_path):
    cfg = write(tmp_path, THREE_LEVEL_HEADER + """
[protocol]
framework = quantum_static
initial = ground

[output]
directory = out
""")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "sticks.csv").read_bytes()
    b = (tmp_path / "b" / "sticks.csv").read_bytes()
    assert a == b
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["outputs"] == ["sticks.csv"]
    assert len(manifest["model_hash"]) == 40
    assert 0.99 < manifest["checks"]["min_dominant_overlap"] <= 1.0
    # two photon-parity blocks, of 5 and 4 states
    assert (manifest["checks"]["n_blocks"], manifest["checks"]["max_block_dim"]) == (2, 5)


def test_manifest_reruns_identically(tmp_path):
    cfg = write(tmp_path, THREE_LEVEL_HEADER + """
[protocol]
framework = classical
initial = psi_1
t_end = 2e4 au
dt = 1.0 au
record_stride = 20
""")
    run(RunConfig.from_file(cfg), tmp_path / "first")
    manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
    run(RunConfig.from_manifest(manifest), tmp_path / "second")
    for name in ("trajectory.csv", "spectrum.csv", "peaks.json"):
        assert (tmp_path / "first" / name).read_bytes() == \
               (tmp_path / "second" / name).read_bytes()


HCL_CONFIG = Path(__file__).parent.parent / "configs" / "hcl_thermal_cavity.cfg"
SEED_2006 = (404.3883975704299, 284.27302434251027)    # g (cm^-1), T (K)


@pytest.mark.parametrize("g_cm1, temperature", [
    (400.0, 300.0), SEED_2006, (SEED_2006[0] + 0.0016, SEED_2006[1])],
    ids=["shipped", "seed_2006", "seed_2006_g_plus_0.0016"])
def test_hcl_thermal_run_keeps_degenerate_pairs_unmixed(tmp_path, g_cm1, temperature):
    """Each +-M pair of the HCl H is exactly degenerate.  Diagonalized in one
    piece, the pair mixed as LAPACK chose: the best overlap of entry
    v0J4M-1;N0 was 0.499 at the bench's seed-2006 coupling, and the run
    exited 3."""
    text = (HCL_CONFIG.read_text().replace("g = 400 cm-1", f"g = {g_cm1!r} cm-1")
            .replace("temperature = 300 K", f"temperature = {temperature!r} K"))
    cfg = write(tmp_path, text)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["checks"]["min_dominant_overlap"] >= 0.99
    config = RunConfig.from_file(cfg)
    model, cav = config.build_model(), config.cavity(config.g_values[0])
    basis = ProductBasis.full(model, cav.n_fock_max)
    vecs = diagonalize_polaritons(assemble_hamiltonian(model, cav, basis)).eigenvectors
    assert min(np.max(vecs[basis.index(k, 0)] ** 2)
               for k, lab in enumerate(model.labels) if lab["v"] == 0) >= 0.99


def _fold_mirror(label: str) -> str:
    """A v J M label with M replaced by -|M|: the state's image in its
    class's representative, the -M side of the mirror pair."""
    return re.sub(r"M(\d+)", r"M-\1", label).replace("M-0", "M0")


def _whole_basis_sticks(model, cav, initial_entry, monkeypatch):
    """static_stick_spectrum on the whole product basis, the oracle; the
    sticks it merged (omega, intensity, labels_i, labels_f); and the
    solution's largest block, smallest gap within a block and ||H||_2."""
    basis = ProductBasis.full(model, cav.n_fock_max)
    sol = solve_polaritons(model, cav, basis)
    if initial_entry is None:
        weights = boltzmann_weights(model, 300.0, [k for k, lab in enumerate(model.labels)
                                                   if lab["v"] == 0])
        initial = thermal_initial_states(sol, basis, weights, 1e-4)
    else:
        initial = [(dominant_eigenstate(sol, basis, initial_entry), 1.0)]
    merged, merge = [], twinpol.quantum.make_stick_spectrum

    def capture(omega, inten, **kw):
        merged.append((omega, inten, kw["labels_i"], kw["labels_f"]))
        return merge(omega, inten, **kw)

    monkeypatch.setattr(twinpol.quantum, "make_stick_spectrum", capture)
    oracle = static_stick_spectrum(sol, model, basis, initial)
    monkeypatch.undo()
    gap = min(np.diff(sol.eigenvalues[cols]).min() for _, cols, _ in sol.blocks if cols.size > 1)
    return (oracle, merged[0], sol.block_sizes()["max_block_dim"], gap,
            np.abs(sol.eigenvalues).max())


@pytest.mark.parametrize("initial", ["thermal", "v0J2M0"])
def test_hcl_static_run_on_representatives_matches_the_whole_basis(tmp_path, monkeypatch,
                                                                   initial):
    """The static run solves one representative of each class of mirrored
    mu-components that holds a start (131 of HCl's 242 states when
    thermal, the start's 22 M = 0 states from v0J2M0) and never forms the
    whole product basis.  Its sticks are static_stick_spectrum's on the
    whole basis: the same rows, and omega and intensities within the
    rounding bound below.

    The two routes solve the same H blocks up to the self-energy: each
    entry of the representatives' mu^2 sums the same nonzero products as
    the whole model's, in another grouping, so the blocks differ by E with
    ||E||_2 <= (g^2 / w_c) 2 n eps || |mu| ||_2^2, n = 242.  eigh is
    backward stable: each route's eigenpairs are exact for its block
    perturbed by at most b eps ||H||_2 (b = 34, the largest block, taken as
    LAPACK's modest p(b)).  So eigenvalues differ by at most
    rho = ||E|| + 2 b eps ||H|| (Weyl) and unit eigenvectors by at most
    dv = sqrt(2) rho / (gap - 2 rho) + 2 b eps (Davis-Kahan, with the
    smallest gap between eigenvalues of one block; plus each route's loss
    of orthogonality).  A stick's omega = lambda_f - lambda_i moves by at
    most 2 rho, and a row, merged within merge_tol, has its centre clamped
    into its group's first and last positions: it moves by at most
    2 rho plus the span of the oracle's group.  A start's amplitudes over
    its finals, A = V^T mu v_i, move by at most
    dA = || |mu| ||_2 (sqrt(b) + 1) dv plus the regrouped sums mu x and
    V^T y, at most 2 gamma_n < 2 n eps times || |mu| ||_2 each and per
    route, sqrt(b) of them: dA += 4 sqrt(b) n eps || |mu| ||_2.  Its
    intensities w a^2 then move by at most w dA (2 ||A|| + dA) in sum,
    and ||A|| <= || |mu| ||_2; the weights sum to one, so the rows'
    intensities move by at most dA (2 || |mu| ||_2 + dA) in sum.

    Labels: a row takes the labels of its group's strongest stick.  The
    representative carries each class's summed weight, so a row's labels
    are those of the class (labels folded to -|M|) with the largest summed
    intensity in the oracle's group; from v0J2M0 they are the oracle's."""
    text = HCL_CONFIG.read_text()
    if initial != "thermal":
        text = text.replace("initial = thermal", f"initial = {initial}")
    cfg = write(tmp_path, text)
    config = RunConfig.from_file(cfg)
    model, cav = config.build_model(), config.cavity()
    formed, spectra = [], []
    full, sticks = ProductBasis.full.__func__, twinpol.cli.static_stick_spectrum
    monkeypatch.setattr(ProductBasis, "full", classmethod(
        lambda cls, m, n: formed.append(m.n_states) or full(cls, m, n)))
    monkeypatch.setattr(twinpol.cli, "static_stick_spectrum",
                        lambda *a, **kw: spectra.append(sticks(*a, **kw)) or spectra[-1])
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    monkeypatch.undo()
    checks = json.loads((tmp_path / "o" / "manifest.json").read_text())["checks"]
    solved = 131 if initial == "thermal" else 22
    assert formed == [solved] and checks["coupled_states"] == solved
    assert checks["basis_size"] == 726
    spec = spectra[0]

    start = None if initial == "thermal" else (model.state_index(v=0, J=2, M=0), 0)
    oracle, (omega, inten, labels_i, labels_f), b, gap, h_norm = _whole_basis_sticks(
        model, cav, start, monkeypatch)
    eps, n = np.finfo(float).eps, model.n_states
    mu = np.linalg.norm(np.abs(model.dipole), 2)
    rho = (cav.g**2 / cav.omega_c) * 2 * n * eps * mu**2 + 2 * b * eps * h_norm
    assert gap > 4 * rho
    dv = math.sqrt(2) * rho / (gap - 2 * rho) + 2 * b * eps
    d_amp = mu * (math.sqrt(b) + 1) * dv + 4 * math.sqrt(b) * n * eps * mu
    assert spec.omega.size == oracle.omega.size > (1000 if initial == "thermal" else 20)

    order = np.argsort(omega, kind="stable")
    pos = np.asarray(omega)[order]
    opens = np.diff(pos, prepend=-np.inf) > 1e-10
    first = np.flatnonzero(opens)
    group = np.cumsum(opens) - 1
    span = np.maximum.reduceat(pos, first) - pos[first]
    assert span.size == oracle.omega.size         # no group falls below min_intensity
    assert np.all(np.abs(spec.omega - oracle.omega) <= span + 2 * rho)
    assert np.sum(np.abs(spec.intensity - oracle.intensity)) <= d_amp * (2 * mu + d_amp)

    if initial != "thermal":
        assert spec.meta["labels_i"] == oracle.meta["labels_i"]
        assert spec.meta["labels_f"] == oracle.meta["labels_f"]
        return
    strongest = []
    for g in range(span.size):
        classes = {}
        for i in order[group == g]:
            key = (_fold_mirror(labels_i[i]), _fold_mirror(labels_f[i]))
            classes[key] = classes.get(key, 0.0) + inten[i]
        strongest.append(max(classes, key=classes.get))
    assert list(zip(spec.meta["labels_i"], spec.meta["labels_f"])) == strongest


HCL_TD_PROTOCOL = """
[protocol]
framework = quantum_td
initial = v0J2M0
t_end = 200 au
dt = 1.0 au
record_stride = 4
pulse_amplitude = 0 au
"""


def hcl_td_config(protocol: str = HCL_TD_PROTOCOL) -> str:
    """The shipped HCl config's model and cavity under a TD protocol."""
    static = HCL_CONFIG.read_text()
    return (static.split("[thermal]")[0] + "[cavity]"
            + static.split("[cavity]")[1].split("[protocol]")[0] + protocol)


def test_hcl_quantum_runs_build_no_dense_product_operator(tmp_path, monkeypatch):
    """The quantum routes apply mu, q and q^2 through their tensor factors
    and place H's slabs directly: no Kronecker product, no restricted copy
    of a full-space operator, and no dense builder left to call."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense product-space operator built")

    for name in ("mu_operator", "q_operator", "q2_operator"):
        assert not hasattr(twinpol.quantum, name)
    assert not hasattr(ProductBasis, "restrict")
    monkeypatch.setattr(np, "kron", refuse)
    # static solves one representative of each mirrored M component that
    # holds a start: M = 0, -1 .. -9 (2 blocks each) and the singleton
    # v0J10M-10 (3), 131 molecular states; td, from v0J2M0, its start's 22
    # M = 0 states, whose 66 product states make 2 blocks
    for kind, text, solved in (("static", HCL_CONFIG.read_text(), (23, 34, 131)),
                               ("td", hcl_td_config(), (2, 34, 22))):
        cfg = write(tmp_path, text, f"{kind}.cfg")
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / kind)]) == 0
        checks = json.loads((tmp_path / kind / "manifest.json").read_text())["checks"]
        assert (checks["n_blocks"], checks["max_block_dim"], checks["coupled_states"]) == solved
    assert json.loads((tmp_path / "td" / "manifest.json").read_text())["checks"][
        "method"] == "exact"


@pytest.mark.parametrize("case", ["hcl_vacuum", "three_level_kicked"])
def test_exact_quantum_td_never_forms_dense_eigenvectors(tmp_path, monkeypatch, case):
    """The exact route steps and records through the block-wise
    to_eigenbasis and from_eigenbasis, so reading
    PolaritonSolution.eigenvectors, which scatters every block into one
    dense matrix, fails an exact run."""
    def refuse(self):
        raise AssertionError("dense eigenvector matrix formed")

    monkeypatch.setattr(twinpol.quantum.PolaritonSolution, "eigenvectors", property(refuse))
    if case == "hcl_vacuum":
        text = hcl_td_config()
    else:
        text = THREE_LEVEL_HEADER + TD_PROTOCOL.format(framework="quantum_td",
                                                       initial="initial = psi_1")
    cfg = write(tmp_path, text)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    checks = json.loads((tmp_path / "o" / "manifest.json").read_text())["checks"]
    assert checks["method"] == "exact"
    assert (checks["rk4_steps"] > 0) == (case == "three_level_kicked")


def test_no_run_route_forms_a_dense_product_hamiltonian(tmp_path, monkeypatch, model3, cav):
    """Kicked exact runs step the pulse in the eigenbasis of H, so no run
    route calls assemble_hamiltonian; the RK4 oracle still does."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense product-space H formed")

    monkeypatch.setattr(twinpol.quantum, "assemble_hamiltonian", refuse)
    three_level = THREE_LEVEL_HEADER + TD_PROTOCOL.format(framework="quantum_td",
                                                          initial="initial = psi_1")
    hcl_kicked = hcl_td_config(HCL_TD_PROTOCOL.replace("pulse_amplitude = 0 au\n", ""))
    for name, text in (("three_level", three_level), ("hcl", hcl_kicked),
                       ("static", HCL_CONFIG.read_text())):
        cfg = write(tmp_path, text, f"{name}.cfg")
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / name)]) == 0
        if name != "static":      # the kick was stepped
            checks = json.loads((tmp_path / name / "manifest.json").read_text())["checks"]
            assert checks["rk4_steps"] > 0
    with pytest.raises(AssertionError, match="dense product-space H"):
        propagate_quantum(model3, cav, KickPulse(), (1, 0), 400.0, 1.0, 8, method="rk4")


@pytest.mark.parametrize("case", ["three_level", "hcl"])
def test_td_manifest_records_the_static_dominant_overlap(tmp_path, case):
    """An exact TD manifest's min_dominant_overlap, max |b(0)|^2 over the
    eigenbasis coefficients of its start, is the static route's for the
    same entry; a classical manifest records none."""
    def checks(framework, name):
        protocol = (TD_PROTOCOL.format(framework=framework, initial=f"initial = {start}")
                    if framework != "quantum_static"
                    else f"[protocol]\nframework = quantum_static\ninitial = {start}\n")
        text = (hcl_td_config(protocol) if case == "hcl" else THREE_LEVEL_HEADER + protocol)
        cfg = write(tmp_path, text, f"{name}.cfg")
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / name)]) == 0
        return json.loads((tmp_path / name / "manifest.json").read_text())["checks"]

    start = "v0J2M0" if case == "hcl" else "psi_1"
    td, static = checks("quantum_td", "td"), checks("quantum_static", "static")
    assert td["method"] == "exact"
    assert 0.5 < td["min_dominant_overlap"] == static["min_dominant_overlap"]
    if case == "three_level":
        assert "min_dominant_overlap" not in checks("classical", "classical")


CONFIG_DIR = Path(__file__).parent.parent / "configs"


@pytest.mark.parametrize("command, config", [
    ("run", "hcl_thermal_cavity.cfg"), ("run", "three_level_static.cfg"),
    ("run", "many_molecule_thermal.cfg"), ("sweep", "splitting_sweep.cfg"),
    ("run", "symmetric_bruteforce")])
def test_no_run_forms_dense_eigenvectors(tmp_path, monkeypatch, command, config):
    """Every reader of the eigenvectors (initial states, stick amplitudes,
    the dominant-overlap check, the many-molecule manifolds) goes through
    the block-wise transforms of PolaritonSolution, never its dense view."""
    def refuse(self):
        raise AssertionError("dense eigenvector matrix formed")

    monkeypatch.setattr(twinpol.quantum.PolaritonSolution, "eigenvectors", property(refuse))
    if config == "symmetric_bruteforce":
        text = (CONFIG_DIR / "many_molecule_thermal.cfg").read_text()
        cfg = write(tmp_path, text.replace("initial = thermal", "initial = symmetric")
                    .replace("n0 = 2\n", ""))
    else:
        cfg = CONFIG_DIR / config
    assert main([command, str(cfg), "--out-dir", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command, config", [
    ("run", "hcl_thermal_cavity.cfg"), ("run", "three_level_static.cfg"), ("run", "hcl_td"),
    ("run", "many_molecule_thermal.cfg"), ("run", "symmetric_bruteforce"),
    ("sweep", "splitting_sweep.cfg")])
def test_no_run_forms_a_dense_hamiltonian(tmp_path, monkeypatch, command, config):
    """Static, sweep, kick-free exact TD and brute-force runs gather H only
    block by block: product_hamiltonian is never asked for more entries than
    the largest block (brute force: fewer than the basis)."""
    largest = [0]
    build = twinpol.quantum.product_hamiltonian

    def recorded(*args):
        largest[0] = max(largest[0], len(args[5]))
        return build(*args)

    monkeypatch.setattr(twinpol.quantum, "product_hamiltonian", recorded)
    if config == "symmetric_bruteforce":
        text = (CONFIG_DIR / "many_molecule_thermal.cfg").read_text()
        cfg = write(tmp_path, text.replace("initial = thermal", "initial = symmetric")
                    .replace("n0 = 2\n", ""))
    elif config == "hcl_td":
        cfg = write(tmp_path, hcl_td_config())
    else:
        cfg = CONFIG_DIR / config
    assert main([command, str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    checks = [json.loads(path.read_text())["checks"]
              for path in (tmp_path / "o").rglob("manifest.json")]
    assert checks and largest[0] > 0
    for check in checks:
        if "max_block_dim" in check:
            assert largest[0] <= check["max_block_dim"]
        else:
            assert largest[0] < check["basis_size"]


def test_single_molecule_run_refuses_oversized_basis(tmp_path, monkeypatch):
    """With the budget lowered below the dense matrices of the HCl run's
    393 product states (its 131 representative molecular states), the run
    exits 3 before the product-space operators are built, and validate,
    which builds nothing, still passes."""
    def no_build(*args, **kwargs):
        raise AssertionError("operators built before the size check")

    monkeypatch.setattr(twinpol.quantum, "MEMORY_BUDGET", 2**20)
    monkeypatch.setattr(twinpol.quantum, "mu_squared_matrix", no_build)
    assert main(["validate", str(HCL_CONFIG)]) == 0
    assert main(["run", str(HCL_CONFIG), "--out-dir", str(tmp_path / "big")]) == 3
    error = (tmp_path / "big" / "error.txt").read_text()
    assert error.startswith("BasisSizeError: 393-state")
    assert not (tmp_path / "big" / "sticks.csv").exists()


def test_classical_run_refuses_records_over_budget(tmp_path, monkeypatch):
    """A classical run whose population records exceed the budget exits 3
    with error.txt before it allocates them; validate still passes."""
    monkeypatch.setattr(twinpol.quantum, "MEMORY_BUDGET", 2**20)
    cfg = write(tmp_path, THREE_LEVEL_HEADER + """
[protocol]
framework = classical
initial = psi_1
t_end = 1e5 au
dt = 1.0 au
record_stride = 1
""")
    assert main(["validate", str(cfg)]) == 0
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "big")]) == 3
    error = (tmp_path / "big" / "error.txt").read_text()
    assert error.startswith("BasisSizeError: 3-state basis needs")
    assert "100001 population records" in error
    assert not (tmp_path / "big" / "trajectory.csv").exists()


def test_quantum_td_run_outputs(tmp_path):
    cfg = write(tmp_path, THREE_LEVEL_HEADER + """
[protocol]
framework = quantum_td
initial = psi_0
t_end = 1e4 au
dt = 1.0 au
record_stride = 10
""")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    header = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,mu,q_expect,q2_expect,p_psi0;N0")
    peaks = json.loads((tmp_path / "o" / "peaks.json").read_text())
    assert "bin_width_au" in peaks
    # RK4 runs to the first record at or after the kick's support end (60.6 au)
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["checks"]["rk4_steps"] == 70
    # problem sizes: 4 rhs calls per step, the 994 records from 70 au on, 9 amplitudes
    checks = manifest["checks"]
    assert (checks["method"], checks["rhs_evals"], checks["exact_records"],
            checks["basis_size"], checks["n_blocks"], checks["max_block_dim"]) == (
                "exact", 280, 994, 9, 2, 5)


TD_PROTOCOL = """
[protocol]
framework = {framework}
{initial}
t_end = 400 au
dt = 1.0 au
record_stride = 10
"""


@pytest.mark.parametrize("framework", ["classical", "quantum_td"])
@pytest.mark.parametrize("initial", ["", "initial = ground"], ids=["default", "explicit"])
def test_td_ground_validates_and_runs_from_psi_0(tmp_path, framework, initial):
    cfg = write(tmp_path, THREE_LEVEL_HEADER
                + TD_PROTOCOL.format(framework=framework, initial=initial))
    psi_0 = write(tmp_path, THREE_LEVEL_HEADER
                  + TD_PROTOCOL.format(framework=framework, initial="initial = psi_0"),
                  name="psi_0.cfg")
    assert main(["validate", str(cfg)]) == 0
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "g")]) == 0
    assert main(["run", str(psi_0), "--out-dir", str(tmp_path / "p")]) == 0
    for name in ("trajectory.csv", "spectrum.csv", "peaks.json"):
        assert (tmp_path / "g" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()


@pytest.mark.parametrize("framework", ["classical", "quantum_td"])
def test_td_thermal_refused_by_validate_and_run(tmp_path, capsys, framework):
    cfg = write(tmp_path, THREE_LEVEL_HEADER + "\n[thermal]\ntemperature = 300 K\n"
                + TD_PROTOCOL.format(framework=framework, initial="initial = thermal"))
    assert main(["validate", str(cfg)]) == 2
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "t")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"{framework} runs start from one state") == 2
    assert not (tmp_path / "t").exists()


SWEEP = """\
[three_level]
e1 = 2e-3 au
e2 = 10e-3 au

[cavity]
omega_c = 1e-2 au
g_sweep = 0.5e-4 au, 1e-4 au, 1.5e-4 au, 2e-4 au
dse = off

[protocol]
framework = quantum_static
initial = ground
"""


def test_g_sweep_table_and_fit(tmp_path):
    cfg = write(tmp_path, SWEEP)
    assert main(["sweep", str(cfg), "--out-dir", str(tmp_path / "sw")]) == 0
    table = (tmp_path / "sw" / "sweep_table.csv").read_text().splitlines()
    assert table[0] == "g,r_splitting,p_splitting"
    assert len(table) == 5
    summary = json.loads((tmp_path / "sw" / "sweep_summary.json").read_text())
    assert summary["fit"]["slope_r"] == pytest.approx(2.0, rel=0.01)
    assert summary["fit"]["r2_r"] > 0.999
    assert (tmp_path / "sw" / "g_003" / "sticks.csv").exists()


def test_sweep_diagonalizes_each_coupling_once(tmp_path, monkeypatch):
    calls = []
    solve = twinpol.cli.solve_polaritons

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(twinpol.cli, "solve_polaritons", counted)
    assert main(["sweep", str(write(tmp_path, SWEEP)),
                 "--out-dir", str(tmp_path / "sw")]) == 0
    assert len(calls) == 4


def test_three_level_sweep_solves_once_per_coupling(tmp_path, monkeypatch):
    """Every solve goes through _solve_factors.  On the 3-level model the
    static run's representatives are the whole model, so the sweep reuses
    the run's solution for its splittings: one solve per g."""
    solved = []
    solve = twinpol.quantum._solve_factors

    def counted(*args):
        solved.append(args[5].size)
        return solve(*args)

    monkeypatch.setattr(twinpol.quantum, "_solve_factors", counted)
    assert main(["sweep", str(write(tmp_path, SWEEP)),
                 "--out-dir", str(tmp_path / "sw")]) == 0
    assert solved == [9] * 4
    checks = json.loads((tmp_path / "sw" / "g_000" / "manifest.json").read_text())["checks"]
    assert (checks["coupled_states"], checks["basis_size"]) == (3, 9)


def test_sweep_sticks_keep_their_labels(model3, cav, monkeypatch):
    # the 1% floor and the window select sticks; each keeps its own labels
    basis = ProductBasis.full(model3, cav.n_fock_max)
    sol = diagonalize_polaritons(assemble_hamiltonian(model3, cav, basis))
    ground = dominant_eigenstate(sol, basis, (0, 0))
    full = static_stick_spectrum(sol, model3, basis, [(ground, 1.0)])
    labels = dict(zip(full.omega, zip(full.meta["labels_i"], full.meta["labels_f"])))
    strong = full.intensity > 0.01 * full.intensity.max()
    assert 0 < strong.sum() < full.omega.size
    with pytest.raises(ValueError, match="entries for"):
        Spectrum("sticks", full.omega[strong], full.intensity[strong], full.meta)

    windowed = []

    def capture(spec):
        windowed.append(spec)
        return peaks_from_sticks(spec)

    monkeypatch.setattr(twinpol.cli, "peaks_from_sticks", capture)
    w02 = model3.transition_frequency(0, 2)
    twinpol.cli._stick_splitting(sol, model3, basis, (0, 0), (w02 - 5e-4, w02 + 5e-4))
    (spec,) = windowed
    assert spec.omega.size == 2
    assert list(zip(spec.meta["labels_i"], spec.meta["labels_f"])) == [
        labels[w] for w in spec.omega]


def test_manymol_frameworks(tmp_path):
    cfg = write(tmp_path, THREE_LEVEL_HEADER + """
[protocol]
framework = manymol_analytic
initial = thermal
n0 = 2
n_mol = 4
""")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "mm")]) == 0
    header = (tmp_path / "mm" / "sticks.csv").read_text().splitlines()[0]
    assert header == ("omega_cm1,omega_au,intensity,label_i,label_f,"
                      "n_mol,n0,branch,mechanism")


def test_plot_data_flag(tmp_path):
    cfg = write(tmp_path, THREE_LEVEL_HEADER + """
[protocol]
framework = quantum_static
initial = ground
""")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "pd"),
                 "--plot-data"]) == 0
    lines = (tmp_path / "pd" / "sticks_plot.dat").read_text().splitlines()
    assert all(len(line.split()) == 2 for line in lines)
    assert max(float(line.split()[1]) for line in lines) == 1.0


def test_thermo_limit_framework(tmp_path):
    cfg = write(tmp_path, THREE_LEVEL_HEADER + """
[protocol]
framework = thermo_limit
initial = thermal
r0 = 0.5
""")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "tl")]) == 0
    rows = (tmp_path / "tl" / "sticks.csv").read_text().splitlines()
    assert len(rows) == 4    # dark stick plus the split resonant doublet


def test_thermo_limit_symmetric_rejects_r0(tmp_path, capsys):
    body = THREE_LEVEL_HEADER + """
[protocol]
framework = thermo_limit
initial = symmetric
"""
    assert main(["run", str(write(tmp_path, body + "r0 = 0.2\n")),
                 "--out-dir", str(tmp_path / "bad")]) == 2
    assert "r0" in capsys.readouterr().err
    assert main(["run", str(write(tmp_path, body, "ok.cfg")),
                 "--out-dir", str(tmp_path / "ok")]) == 0


def test_run_builds_model_once(tmp_path, monkeypatch):
    calls = []
    build = twinpol.cli.model_from_config

    def counted(parser):
        calls.append(1)
        return build(parser)

    monkeypatch.setattr(twinpol.cli, "model_from_config", counted)
    cfg = write(tmp_path, THREE_LEVEL_HEADER + "\n[protocol]\nframework = quantum_static\n")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_export_model(tmp_path, capsys):
    cfg = write(tmp_path, THREE_LEVEL_HEADER)
    assert main(["export-model", str(cfg), "--out-dir", str(tmp_path / "m")]) == 0
    doc = json.loads((tmp_path / "m" / "model.json").read_text())
    assert doc["energies"] == [0.0, 2e-3, 10e-3]


def test_numerical_failure_exit_code(tmp_path, capsys):
    # dt far too coarse for the fastest phase -> numerical failure, code 3
    cfg = write(tmp_path, THREE_LEVEL_HEADER + """
[protocol]
framework = classical
initial = psi_0
t_end = 1e3 au
dt = 50.0 au
""")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "x")]) == 3
    assert (tmp_path / "x" / "error.txt").exists()


def test_seedless_check(tmp_path, capsys):
    cfg = write(tmp_path, THREE_LEVEL_HEADER + """
[protocol]
framework = manymol_analytic
initial = symmetric
n_mol = 3
""")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "sc"),
                 "--seedless-check"]) == 0
    assert "determinism check passed" in capsys.readouterr().out


def test_passed_seedless_check_runs_twice_and_writes_a_plain_runs_bytes(tmp_path, monkeypatch):
    real_run, calls = twinpol.cli.run, []

    def counting_run(config, out_dir, **kwargs):
        calls.append(out_dir)
        return real_run(config, out_dir, **kwargs)

    monkeypatch.setattr(twinpol.cli, "run", counting_run)
    cfg = write(tmp_path, THREE_LEVEL_HEADER + "\n[protocol]\nframework = quantum_static\n")
    checked, plain = tmp_path / "checked", tmp_path / "plain"
    assert main(["run", str(cfg), "--out-dir", str(checked), "--seedless-check",
                 "--plot-data"]) == 0
    assert len(calls) == 2
    assert main(["run", str(cfg), "--out-dir", str(plain), "--plot-data"]) == 0
    names = sorted(p.name for p in checked.iterdir())
    assert names == sorted(p.name for p in plain.iterdir()) and "manifest.json" in names
    assert all((checked / n).read_bytes() == (plain / n).read_bytes() for n in names)


def test_failed_seedless_check_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys):
    """Each run also writes its own call count, so the two runs differ."""
    real_run, calls = twinpol.cli.run, []

    def counting_run(config, out_dir, **kwargs):
        manifest = real_run(config, out_dir, **kwargs)
        calls.append(out_dir)
        (out_dir / "calls.txt").write_text(str(len(calls)))
        return manifest

    monkeypatch.setattr(twinpol.cli, "run", counting_run)
    cfg = write(tmp_path, THREE_LEVEL_HEADER + "\n[protocol]\nframework = quantum_static\n")
    out = tmp_path / "sc"
    assert main(["run", str(cfg), "--out-dir", str(out), "--seedless-check"]) == 3
    assert "determinism check FAILED" in capsys.readouterr().err
    assert len(calls) == 2 and not out.exists()


def test_seedless_check_classical_over_several_chunks(tmp_path, capsys):
    # 4000 RK4 steps: more than two chunks of tabled phases and pulse values
    cfg = write(tmp_path, THREE_LEVEL_HEADER + """
[protocol]
framework = classical
initial = psi_1
t_end = 4000 au
dt = 1.0 au
record_stride = 8
""")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "sc"),
                 "--seedless-check"]) == 0
    assert "determinism check passed" in capsys.readouterr().out
    checks = json.loads((tmp_path / "sc" / "manifest.json").read_text())["checks"]
    assert (checks["method"], checks["rk4_steps"], checks["rhs_evals"]) == (
        "rk4", 4000, 16000)
    assert checks["coupled_states"] == 3
    assert 4000 > 2 * twinpol.integrators._chunk_steps(3, 1)    # 3 states, the phased mu


def test_manymol_bruteforce_records_basis_sizes(tmp_path):
    cfg = write(tmp_path, THREE_LEVEL_HEADER + """
[protocol]
framework = manymol_bruteforce
initial = thermal
n0 = 2
n_mol = 4
""")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "bf")]) == 0
    manifest = json.loads((tmp_path / "bf" / "manifest.json").read_text())
    # groups [2, 2]: C(4, 2)^2 occupation states; 3^4 strings; 3 photon states each
    assert manifest["checks"] == {"basis_size": 6 * 6 * 3, "product_basis_size": 81 * 3}


def test_manymol_bruteforce_refuses_oversized_basis(tmp_path, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("operators built before the size check")

    monkeypatch.setattr(twinpol.manymol, "collective_operator", no_build)
    cfg = write(tmp_path, THREE_LEVEL_HEADER + """
[protocol]
framework = manymol_bruteforce
initial = symmetric
n_mol = 2000
""")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "big")]) == 3
    error = (tmp_path / "big" / "error.txt").read_text()
    # C(2002, 2) occupation states times 3 photon states
    assert error.startswith("BasisSizeError: 6009003-state")
