"""Config-driven command line front end.

A run is described by one INI-style file with unit-suffixed values:

    [three_level]          # or [morse]
    e1 = 2e-3 au
    e2 = 10e-3 au

    [cavity]
    omega_c = 1e-2 au
    g = 2e-4 au            # or g_sweep = 0.5e-4, 1e-4, ... au
    dse = off
    n_fock_max = 2

    [protocol]
    framework = quantum_static   # classical | quantum_td | quantum_static |
                                 # manymol_bruteforce | manymol_analytic | thermo_limit
    initial = ground             # psi_k | ground | thermal | symmetric | vVjJmM

    [output]
    directory = out

Commands: run, sweep, validate, export-model.  Exit codes: 0 success,
2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .cavity import CavityParams, KickPulse, write_csv
from .classical import propagate_classical
from .errors import ConfigError, ModelError, TwinpolError
from .integrators import record_grid
from .manymol import (ManyMolConfig, analytic_nonsymmetric_spectrum,
                      analytic_symmetric_spectrum, brute_force_spectrum,
                      thermodynamic_limit_spectrum)
from .model import (MODEL_SECTIONS, MolecularModel, ThermalWeights, boltzmann_weights,
                    model_from_config, parse_float, parse_int, parse_quantity,
                    read_config, read_section)
from .quantum import (PolaritonSolution, ProductBasis, _dominant_eigenstates,
                      _representatives, _thermal_starts, dominant_eigenstate,
                      propagate_quantum, solve_polaritons, static_stick_spectrum)
from .spectra import (Spectrum, detect_peaks, dipole_spectrum, fit_through_origin,
                      measure_splitting, peaks_from_sticks)

FRAMEWORKS = ("classical", "quantum_static", "quantum_td",
              "manymol_bruteforce", "manymol_analytic", "thermo_limit")
FORMATS = ("csv", "json")


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected on/off, got {raw!r}")


def _choice(options):
    def parse_choice(raw: str, key: str) -> str:
        if raw not in options:
            raise ConfigError(f"unknown {key} {raw!r} (choose from {', '.join(options)})")
        return raw
    return parse_choice


def _positive(parse):
    def parse_positive(raw: str, key: str):
        value = parse(raw, key)
        if not 0 < value < float("inf"):
            raise ConfigError(f"{key}: must be positive and finite, got {raw!r}")
        return value
    return parse_positive


def _fraction(raw: str, key: str) -> float:
    value = parse_float(raw, key)
    if not 0 <= value <= 1:
        raise ConfigError(f"{key}: must lie in [0, 1], got {raw!r}")
    return value


def _list_of(parse):
    def parse_list(raw: str, key: str) -> list:
        return [parse(item.strip(), key) for item in raw.split(",") if item.strip()]
    return parse_list


# section -> {key: (parser, default text)}: with MODEL_SECTIONS, every section a
# run config may have.  RunConfig._check checks the ranges no parser checks.
RUN_SECTIONS = {
    "thermal": {"temperature": (parse_quantity, "300 K"), "v": (parse_int, None)},
    "cavity": {
        "omega_c": (parse_quantity, "1e-2 au"),
        "g": (parse_quantity, "2e-4 au"),     # the first g_sweep value when only that is given
        "g_sweep": (_list_of(parse_quantity), None),
        "dse": (_parse_bool, "on"), "n_fock_max": (parse_int, "2"),
    },
    "protocol": {
        "framework": (_choice(FRAMEWORKS), "quantum_static"), "initial": (None, "ground"),
        "t_end": (_positive(parse_quantity), "1.6e5 au"),
        "dt": (_positive(parse_quantity), "1.0 au"),
        "record_stride": (_positive(parse_int), "8"),
        "pulse_amplitude": (parse_quantity, "1e-4 au"), "pulse_t0": (parse_quantity, "25.0 au"),
        "pulse_sigma": (parse_quantity, "5.0 au"), "pulse_max_excitation": (parse_float, "1e-2"),
        "damping_tau": (_positive(parse_quantity), None),    # None: t_end / 8
        "pad_factor": (_positive(parse_int), "4"), "peak_threshold": (_fraction, "0.01"),
        "n_mol": (parse_int, "1"), "n0": (parse_int, None), "r0": (parse_float, "0.5"),
    },
    "output": {"directory": (None, "twinpol_out"),
               "formats": (_list_of(_choice(FORMATS)), "csv,json")},  # see --format
}


class RunConfig:
    """Fully resolved run description; reconstructible from its dict form."""

    def __init__(self, resolved: dict):
        self.raw = resolved
        self._model: MolecularModel | None = None

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """Read and check a config file.  Every run section is parsed by its
        schema, defaults echoed; the model section keeps its text."""
        sections = read_config(path)
        for name in sections:
            if name not in MODEL_SECTIONS and name not in RUN_SECTIONS:
                raise ConfigError(f"unknown section [{name}]")
        model = model_from_config(sections)
        kind = "three_level" if "three_level" in sections else "morse"
        raw: dict = {"model_kind": kind, kind: sections[kind]}
        for name, schema in RUN_SECTIONS.items():
            if name != "thermal" or name in sections:
                raw[name] = read_section(sections, name, schema)
        if raw["cavity"]["g_sweep"] and "g" not in sections["cavity"]:
            raw["cavity"]["g"] = raw["cavity"]["g_sweep"][0]
        if raw.get("thermal", {}).get("v", 0) is None:     # v is echoed only when given
            del raw["thermal"]["v"]
        config = cls(raw)
        config._model = model      # built once, while validating
        config._check()
        return config

    @classmethod
    def from_manifest(cls, manifest: dict) -> "RunConfig":
        return cls(manifest["config"])

    def _check(self):
        """Build what run builds, so that a value out of its range is a config
        error here rather than a numerical failure in run."""
        model, proto = self.build_model(), self.raw["protocol"]
        framework, initial = proto["framework"], proto["initial"]
        if framework in ("manymol_bruteforce", "manymol_analytic", "thermo_limit"):
            if initial not in ("thermal", "symmetric"):
                raise ConfigError(f"initial = {initial!r}: {framework} takes "
                                  "'thermal' or 'symmetric'")
            if framework == "thermo_limit" and initial == "symmetric" and proto["r0"] != 0.5:
                raise ConfigError("initial = symmetric fixes r0 = 0.5: every molecule is "
                                  "half in psi_0; drop r0 or set it to 0.5")
        elif initial == "thermal":
            if framework in ("classical", "quantum_td"):
                raise ConfigError(f"{framework} runs start from one state; initial = "
                                  "thermal is for quantum_static (use ground, psi_k or vVjJmM)")
            if "thermal" not in self.raw:
                raise ConfigError("initial = thermal needs a [thermal] section")
        else:
            _initial_state_index(initial, model)    # raises with valid labels listed
        if len(self.g_values) > 1 and model.n_states != 3:
            raise ConfigError("g sweeps with splitting tables support the 3-level model")
        try:
            cavities = [self.cavity(g) for g in self.g_values]
            if framework in ("classical", "quantum_td"):
                self.pulse()
                record_grid(proto["t_end"], proto["dt"], proto["record_stride"])
            elif framework in ("manymol_bruteforce", "manymol_analytic"):
                self.manymol(cavities[0].g)
            elif framework == "thermo_limit":
                self.thermo_limit_sticks(cavities[0].g)
            if "thermal" in self.raw:
                _thermal_weights(self.raw["thermal"], model)
        except ModelError as err:
            raise ConfigError(str(err)) from None

    # -- builders ---------------------------------------------------------

    def build_model(self) -> MolecularModel:
        if self._model is None:
            self._model = model_from_config(self.raw)
        return self._model

    def cavity(self, g: float | None = None) -> CavityParams:
        sec = self.raw["cavity"]
        return CavityParams(omega_c=sec["omega_c"], g=sec["g"] if g is None else g,
                            include_dse=sec["dse"], n_fock_max=sec["n_fock_max"])

    def pulse(self) -> KickPulse:
        sec = self.raw["protocol"]
        return KickPulse(
            amplitude=sec["pulse_amplitude"], t0=sec["pulse_t0"],
            sigma=sec["pulse_sigma"], max_excitation=sec["pulse_max_excitation"],
        )

    def manymol(self, g: float) -> ManyMolConfig:
        sec = self.raw["protocol"]
        return ManyMolConfig.from_model(self.build_model(), g, sec["n_mol"], n0=sec["n0"],
                                        symmetric=sec["initial"] == "symmetric")

    def thermo_limit_sticks(self, g: float) -> Spectrum:
        sec, model = self.raw["protocol"], self.build_model()
        if model.n_states != 3:
            raise ModelError("thermo_limit expects a 3-level model")
        return thermodynamic_limit_spectrum(
            sec["r0"], sec["initial"], g, float(model.dipole[0, 2]),
            model.transition_frequency(0, 2), model.transition_frequency(1, 2))

    @property
    def framework(self) -> str:
        return self.raw["protocol"]["framework"]

    @property
    def g_values(self) -> list[float]:
        return self.raw["cavity"].get("g_sweep") or [self.raw["cavity"]["g"]]


def _thermal_weights(thermal: dict, model: MolecularModel) -> ThermalWeights:
    """Boltzmann weights of a resolved [thermal] section, over the states of
    vibrational level v when v is given."""
    subset = None
    if "v" in thermal:
        subset = [k for k, lab in enumerate(model.labels) if lab.get("v") == thermal["v"]]
    return boltzmann_weights(model, thermal["temperature"], subset)


def _initial_state_index(initial: str, model: MolecularModel) -> int:
    if initial == "ground":
        return 0
    m = re.fullmatch(r"psi_(\d+)", initial)
    if m:
        k = int(m.group(1))
        if k >= model.n_states or model.is_rovib():
            raise ConfigError(
                f"initial state {initial!r} not in the model; valid labels: "
                + ", ".join(model.label_str(i) for i in range(min(model.n_states, 12)))
            )
        return k
    m = re.fullmatch(r"v(\d+)J(\d+)M(-?\d+)", initial)
    if m and model.is_rovib():
        try:
            return model.state_index(v=int(m.group(1)), J=int(m.group(2)),
                                     M=int(m.group(3)))
        except TwinpolError:
            raise ConfigError(f"initial state {initial!r} not in the model") from None
    raise ConfigError(f"cannot parse initial state {initial!r} "
                      "(use psi_k, vVjJmM, ground, thermal, or symmetric)")


# -- run execution ----------------------------------------------------------


def run(config: RunConfig, out_dir: Path, plot_data: bool = False) -> dict:
    """Execute one run (or sweep) and write all artifact files."""
    out_dir.mkdir(parents=True, exist_ok=True)
    g_values = config.g_values
    if len(g_values) > 1:
        return _run_sweep(config, out_dir, g_values, plot_data)
    return _run_single(config, out_dir, g_values[0], plot_data)[0]


def _run_single(config: RunConfig, out_dir: Path, g: float,
                plot_data: bool = False) -> tuple[dict, PolaritonSolution | None]:
    """Run one coupling; returns the manifest and the polariton solution of
    the full basis when the run diagonalized it."""
    model = config.build_model()
    cav = config.cavity(g)
    proto = config.raw["protocol"]
    framework = config.framework
    outputs: list[str] = []
    checks: dict = {}
    plots: list[tuple[str, object]] = []
    sol = None

    if framework in ("classical", "quantum_td"):
        init = _initial_state_index(proto["initial"], model)
        pulse = config.pulse()
        if framework == "classical":
            traj = propagate_classical(model, cav, pulse, init,
                                       proto["t_end"], proto["dt"],
                                       proto["record_stride"])
        else:
            traj = propagate_quantum(model, cav, pulse, (init, 0),
                                     proto["t_end"], proto["dt"],
                                     proto["record_stride"])
        traj.to_csv(out_dir / "trajectory.csv")
        outputs.append("trajectory.csv")
        spec = dipole_spectrum(traj, proto["damping_tau"], proto["pad_factor"])
        spec.to_csv(out_dir / "spectrum.csv")
        outputs.append("spectrum.csv")
        plots.append(("spectrum", spec))
        peaks = detect_peaks(spec, proto["peak_threshold"])
        (out_dir / "peaks.json").write_text(
            json.dumps(peaks.to_json_dict(), indent=1, sort_keys=True))
        outputs.append("peaks.json")
        checks = {key: traj.meta[key] for key in (
            "norm_drift", "energy_drift_post_pulse", "method", "rk4_steps",
            "rhs_evals", "exact_records")}
        checks.update(bin_width=spec.meta["bin_width"], basis_size=len(traj.pop_labels))
        checks.update({key: traj.meta[key] for key in (
            "n_blocks", "max_block_dim", "min_dominant_overlap", "coupled_states")
            if key in traj.meta})

    elif framework == "quantum_static":
        # one representative of each class of mirrored mu-components
        part, starts = _representatives(model, _static_starts(config, model))
        basis = ProductBasis.full(part, cav.n_fock_max)
        sol = solve_polaritons(part, cav, basis)
        states, overlaps = _dominant_eigenstates(sol, basis, [(j, 0) for j, _ in starts])
        spec = static_stick_spectrum(sol, part, basis,
                                     [(i, w) for i, (_, w) in zip(states, starts)])
        spec.to_csv(out_dir / "sticks.csv")
        outputs.append("sticks.csv")
        plots.append(("sticks", spec))
        checks = {"basis_size": (cav.n_fock_max + 1) * model.n_states,
                  "coupled_states": part.n_states, **sol.block_sizes(),
                  "min_dominant_overlap": float(np.min(overlaps))}
        sol = sol if part is model else None

    else:
        if framework == "manymol_bruteforce":
            spec = brute_force_spectrum(
                model, cav, proto["n_mol"], n0=proto["n0"],
                symmetric=proto["initial"] == "symmetric")
            checks = {key: spec.meta[key] for key in ("basis_size", "product_basis_size")}
        elif framework == "manymol_analytic":
            cfg = config.manymol(cav.g)
            spec = (analytic_symmetric_spectrum(cfg) if cfg.symmetric
                    else analytic_nonsymmetric_spectrum(cfg))
        else:
            spec = config.thermo_limit_sticks(cav.g)
        _write_manymol(spec, out_dir / "sticks.csv", proto)
        outputs.append("sticks.csv")
        plots.append(("sticks", spec))

    if plot_data:
        for stem, sp in plots:
            name = f"{stem}_plot.dat"
            _write_plot_data(sp, out_dir / name)
            outputs.append(name)

    manifest = {
        "package_version": __version__,
        "config": config.raw,
        "g": g,
        "model_hash": model.content_hash(),
        "outputs": outputs,
        "checks": checks,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest, sol


def _static_starts(config: RunConfig, model) -> list[tuple[int, float]]:
    """(molecular state, weight) of each start of a static run."""
    proto = config.raw["protocol"]
    if proto["initial"] == "thermal":
        return _thermal_starts(_thermal_weights(config.raw["thermal"], model), 1e-4)
    return [(_initial_state_index(proto["initial"], model), 1.0)]


def _write_plot_data(spec, path):
    """Two-column (frequency in cm^-1, normalized intensity) plot file."""
    norm = spec.normalized()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for w, i in zip(norm.omega_cm1, norm.intensity):
            fh.write(f"{w:.17g} {i:.17g}\n")


def _write_manymol(spec, path, proto):
    """Quantum stick schema plus the n_mol, n0, branch, mechanism columns."""
    n = spec.omega.size
    finite = proto["framework"] != "thermo_limit"
    bare = Spectrum(spec.kind, spec.omega, spec.intensity,
                    {"labels_i": spec.meta.get("labels_i", [""] * n),
                     "labels_f": spec.meta.get("labels_f", [""] * n)})
    extra = {
        "n_mol": [proto["n_mol"] if finite else ""] * n,
        "n0": [proto["n0"] if finite and proto["n0"] is not None else ""] * n,
        "branch": spec.meta.get("branch", [""] * n),
        "mechanism": spec.meta.get("mechanism", [""] * n),
    }
    bare.to_csv(path, extra_columns=extra)


def _run_sweep(config: RunConfig, out_dir: Path, g_values: list[float],
               plot_data: bool = False) -> dict:
    """Child run per coupling plus a splitting-vs-g table with linear fits."""
    model = config.build_model()
    w02 = model.transition_frequency(0, 2)
    w12 = model.transition_frequency(1, 2)
    quarter = abs(w02 - w12) / 4.0
    rows = []
    for i, g in enumerate(g_values):
        child_dir = out_dir / f"g_{i:03d}"
        child_dir.mkdir(parents=True, exist_ok=True)
        _, sol = _run_single(config, child_dir, g, plot_data)
        cav = config.cavity(g)
        basis = ProductBasis.full(model, cav.n_fock_max)
        if sol is None:
            sol = solve_polaritons(model, cav, basis)
        r_split = _stick_splitting(sol, model, basis, (0, 0), (w02 - quarter, w02 + quarter))
        p_split = _stick_splitting(sol, model, basis, (1, 0), (w12 - quarter, w12 + quarter))
        rows.append((g, r_split, p_split))

    gs, r_split, p_split = (np.array(col) for col in zip(*rows))
    write_csv(out_dir / "sweep_table.csv", ["g", "r_splitting", "p_splitting"],
              [gs, r_split, p_split])
    slope_r, r2_r = fit_through_origin(gs, r_split)
    slope_p, r2_p = fit_through_origin(gs, p_split)
    summary = {
        "package_version": __version__,
        "config": config.raw,
        "g_values": list(map(float, gs)),
        "fit": {"slope_r": slope_r, "r2_r": r2_r, "slope_p": slope_p, "r2_p": r2_p},
        "children": [f"g_{i:03d}" for i in range(len(g_values))],
    }
    (out_dir / "sweep_summary.json").write_text(json.dumps(summary, indent=1,
                                                           sort_keys=True))
    return summary


def _stick_splitting(sol, model, basis, init_entry, window):
    initial = [(dominant_eigenstate(sol, basis, init_entry), 1.0)]
    spec = static_stick_spectrum(sol, model, basis, initial, min_intensity=0.0)
    strong = spec.select(spec.intensity > 0.01 * spec.intensity.max())
    return measure_splitting(peaks_from_sticks(strong.in_window(*window)), window)


# -- entry point -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="twinpol",
                                 description="cavity polariton spectra toolkit")
    ap.add_argument("command", choices=["run", "sweep", "validate", "export-model"])
    ap.add_argument("config", help="path to the run config file")
    ap.add_argument("--out-dir", default=None, help="output directory override")
    ap.add_argument("--format", default=None, choices=FORMATS,
                    help="restrict output formats")
    ap.add_argument("--seedless-check", action="store_true",
                    help="run twice and verify bit-identical outputs")
    ap.add_argument("--plot-data", action="store_true",
                    help="also emit two-column plot files per spectrum")
    args = ap.parse_args(argv)

    try:
        config = RunConfig.from_file(args.config)
    except TwinpolError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir or config.raw["output"]["directory"])
    try:
        if args.command == "validate":
            print(json.dumps(config.raw, indent=1, sort_keys=True))
            return 0
        if args.command == "export-model":
            out_dir.mkdir(parents=True, exist_ok=True)
            model = config.build_model()
            model.save_json(out_dir / "model.json")
            print(f"model written to {out_dir / 'model.json'} "
                  f"(hash {model.content_hash()})")
            return 0
        if args.command == "sweep" and len(config.g_values) < 2:
            print("config error: sweep needs g_sweep in [cavity]", file=sys.stderr)
            return 2
        if args.seedless_check:
            with tempfile.TemporaryDirectory() as tmp_a, \
                 tempfile.TemporaryDirectory() as tmp_b:
                manifest = run(config, Path(tmp_a), plot_data=args.plot_data)
                run(config, Path(tmp_b), plot_data=args.plot_data)
                if not _dirs_identical(Path(tmp_a), Path(tmp_b)):
                    print("determinism check FAILED", file=sys.stderr)
                    return 3
                print("determinism check passed")
                # no artifact holds its directory's path: the first run's bytes are out_dir's
                shutil.copytree(tmp_a, out_dir, dirs_exist_ok=True)
        else:
            manifest = run(config, out_dir, plot_data=args.plot_data)
        if args.format:
            _restrict_formats(out_dir, manifest, args.format)
        print(f"run complete; outputs in {out_dir}")
        if "fit" in manifest:
            fit = manifest["fit"]
            print(f"sweep fit: slope_r={fit['slope_r']:.6g} (R2={fit['r2_r']:.6f}), "
                  f"slope_p={fit['slope_p']:.6g} (R2={fit['r2_p']:.6f})")
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (TwinpolError, np.linalg.LinAlgError) as err:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "error.txt").write_text(f"{type(err).__name__}: {err}\n")
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


def _restrict_formats(out_dir: Path, manifest: dict, fmt: str):
    """Drop the run's own csv or json artifacts.  The manifest (a sweep's
    summary) always stays, and so does every file the run did not write."""
    drop = ".json" if fmt == "csv" else ".csv"
    # a sweep's summary lists no outputs of its own: its one artifact is the table
    names = list(manifest.get("outputs", ["sweep_table.csv"]))
    for child in manifest.get("children", []):
        child_manifest = json.loads((out_dir / child / "manifest.json").read_text())
        names += [f"{child}/{name}" for name in child_manifest["outputs"]]
    for name in names:
        if name.endswith(drop):
            (out_dir / name).unlink()


def _dirs_identical(a: Path, b: Path) -> bool:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return False
    return all(filecmp.cmp(a / f, b / f, shallow=False) for f in files_a)


if __name__ == "__main__":
    sys.exit(main())
