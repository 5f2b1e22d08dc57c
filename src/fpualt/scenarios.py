"""Scenario files, the experiment runner, and the odd-p sweep.

Scenario files are flat ``key = value`` text with ``[section]`` markers
and ``#`` comments (grammar in the README).  A scenario names a system
(full chain, reduced, quasi-harmonic, or cartoon), an initial state, an
integrator configuration, and the outputs to write.  Initial states may
be given in the normalisation of a shipped reference table
(``frame = ref:<table>``); they are then mapped through the scaling fit
and the trajectory is additionally emitted in that reference frame.
"""

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .chain import ChainParams, build_chain
from .coupling import (PatternViolationError, cycle_decomposition,
                       enumerate_invariant_candidates, excitation_digraph,
                       jan_check, map_reference_state, map_to_reference_frame,
                       scaling_equivalence, square_map)
from .dynamics import (EQUILIBRIUM_RESIDUAL_TOL, IntegratorConfig,
                       cartoon_system, find_equilibria,
                       has_modal_coordinates, integrate, mode_actions,
                       relative_drift)
from .refdata import REFERENCE_TABLES, load_reference, reference_for
from .reduction import build_reduced
from .spectral import to_quasi_harmonic
from .writers import (actions_csv, energy_csv, trajectory_csv, write_csv,
                      write_manifest, write_svg_lines)


log = logging.getLogger(__name__)


class ScenarioError(ValueError):
    """Malformed scenario file; message carries file and line number."""


@dataclass
class Scenario:
    name: str
    kind: str                      # full | reduced | quasiharmonic | cartoon
    params: dict
    frame: str = "native"          # native | ref:<table>
    positions: dict = field(default_factory=dict)   # 1-based index -> value
    velocities: dict = field(default_factory=dict)
    t_end: float = 100.0
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    sample_dt: float = 1.0
    outputs: set = field(default_factory=lambda: {"trajectory", "energy"})
    path: str = ""

    def config(self, overrides=None) -> IntegratorConfig:
        o = overrides or {}
        return IntegratorConfig(
            t_end=o.get("t_end", self.t_end),
            abs_tol=o.get("abs_tol", self.abs_tol),
            rel_tol=o.get("rel_tol", self.rel_tol),
            sample_dt=o.get("sample_dt", self.sample_dt),
        )


_KINDS = ("full", "reduced", "quasiharmonic", "cartoon")
_OUTPUTS = ("trajectory", "actions", "energy", "analysis")


def _parse_float(value, where):
    try:
        return float(value)
    except ValueError:
        raise ScenarioError(f"{where}: not a number: {value!r}") from None


def parse_scenario(path) -> Scenario:
    """Parse a scenario file; every error names the offending line."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    sections = {"scenario": {}, "system": {}, "initial": {},
                "integrate": {}, "outputs": {}}
    section = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in sections:
                    raise ScenarioError(f"{where}: unknown section [{section}]")
                continue
            if "=" not in line:
                raise ScenarioError(f"{where}: expected 'key = value', got {line!r}")
            if section is None:
                raise ScenarioError(f"{where}: entry before any [section]")
            key, value = (s.strip() for s in line.split("=", 1))
            if not key or not value:
                raise ScenarioError(f"{where}: empty key or value")
            sections[section][key.lower()] = (value, where)

    sys_sec = sections["system"]
    if "kind" not in sys_sec:
        raise ScenarioError(f"{path}: [system] must set 'kind'")
    kind, kw = sys_sec.pop("kind")
    kind = kind.lower()
    if kind not in _KINDS:
        raise ScenarioError(f"{kw}: kind must be one of {_KINDS}, got {kind!r}")
    params = {}
    for key, (value, where) in sys_sec.items():
        if key in ("p", "n_pairs", "id"):
            try:
                params[key] = int(value)
            except ValueError:
                raise ScenarioError(f"{where}: {key} must be an integer") from None
        elif key in ("a", "alpha", "beta") or key.startswith("omega"):
            params[key] = _parse_float(value, where)
        else:
            raise ScenarioError(f"{where}: unknown [system] key {key!r}")

    scen = Scenario(
        name=sections["scenario"].get("name", (path.stem, ""))[0],
        kind=kind, params=params, path=str(path))

    for key, (value, where) in sections["initial"].items():
        if key == "frame":
            frame = value.lower()
            if frame != "native" and not frame.startswith("ref:"):
                raise ScenarioError(
                    f"{where}: frame must be 'native' or 'ref:<table>'")
            if frame != "native" and kind != "quasiharmonic":
                raise ScenarioError(
                    f"{where}: reference-frame initial data requires a "
                    "quasiharmonic system")
            if frame != "native" and frame[4:] not in REFERENCE_TABLES:
                raise ScenarioError(
                    f"{where}: unknown reference table {frame[4:]!r}; "
                    f"available: {sorted(REFERENCE_TABLES)}")
            scen.frame = frame
        elif key[0] in "qx" and key[1:].isdigit():
            scen.positions[int(key[1:])] = _parse_float(value, where)
        elif key[0] == "v" and key[1:].isdigit():
            scen.velocities[int(key[1:])] = _parse_float(value, where)
        else:
            raise ScenarioError(f"{where}: unknown [initial] key {key!r}")

    for key, (value, where) in sections["integrate"].items():
        if key in ("t_end", "abs_tol", "rel_tol", "sample_dt"):
            setattr(scen, key, _parse_float(value, where))
        else:
            raise ScenarioError(f"{where}: unknown [integrate] key {key!r}")

    if sections["outputs"]:
        outputs = set()
        for key, (value, where) in sections["outputs"].items():
            if key not in _OUTPUTS:
                raise ScenarioError(f"{where}: unknown output {key!r}")
            if value.lower() in ("true", "yes", "1"):
                outputs.add(key)
            elif value.lower() not in ("false", "no", "0"):
                raise ScenarioError(f"{where}: output flags are true/false")
        scen.outputs = outputs
    return scen


def _build_system(scen: Scenario):
    p = scen.params
    if scen.kind == "full":
        return build_chain(ChainParams(
            n_pairs=p.get("n_pairs", 2), a=p.get("a", 0.01),
            alpha=p.get("alpha", 1.0), beta=p.get("beta", 0.0)))
    if scen.kind == "reduced":
        return build_reduced(p.get("p", 3), p.get("a", 0.01), p.get("alpha", 1.0))
    if scen.kind == "quasiharmonic":
        return to_quasi_harmonic(
            build_reduced(p.get("p", 3), p.get("a", 0.01), p.get("alpha", 1.0)))
    omegas = [p[k] for k in sorted(p) if k.startswith("omega")]
    return cartoon_system(p.get("id", 1), omegas or None)


def _resolve_initial(scen: Scenario, system):
    """Initial state vector plus (fit, reference) when frame = ref:<table>."""
    d = system.dof

    def fill(d_, entries):
        vec = np.zeros(d_)
        for idx, val in entries.items():
            if not 1 <= idx <= d_:
                raise ScenarioError(
                    f"{scen.path}: initial index {idx} out of range 1..{d_}")
            vec[idx - 1] = val
        return vec

    if scen.frame == "native":
        return np.concatenate([fill(d, scen.positions),
                               fill(d, scen.velocities)]), None, None
    ref = load_reference(scen.frame.split(":", 1)[1])
    fit = scaling_equivalence(system, ref)
    x_ref = fill(ref.dof, scen.positions)
    v_ref = fill(ref.dof, scen.velocities)
    x0, v0 = map_reference_state(fit, x_ref, v_ref)
    return np.concatenate([x0, v0]), fit, ref


@dataclass
class RunResult:
    scenario: Scenario
    trajectory: object
    files: list
    manifest: dict
    exit_code: int


def run_scenario(scenario, out_dir, overrides=None) -> RunResult:
    """Run one scenario and write its requested outputs.

    Returns exit code 0 on success and 2 when the integration ended in a
    divergence or step-underflow report.
    """
    scen = scenario if isinstance(scenario, Scenario) else parse_scenario(scenario)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    system = _build_system(scen)
    y0, fit, ref = _resolve_initial(scen, system)
    cfg = scen.config(overrides)

    t0 = time.perf_counter()
    tr = integrate(system, y0, cfg)
    wall = time.perf_counter() - t0

    coord = "q" if scen.kind in ("full", "reduced") else "x"
    files = []

    def emit(name):
        files.append(str(out / name))
        return out / name

    if "trajectory" in scen.outputs:
        trajectory_csv(emit(f"{scen.name}_trajectory.csv"), tr, coord=coord)
        pos = tr.positions()
        write_svg_lines(
            emit(f"{scen.name}_trajectory.svg"), tr.times,
            [pos[:, j] for j in range(tr.dof)],
            labels=[f"{coord}{j + 1}" for j in range(tr.dof)],
            title=scen.name, xlabel="t", ylabel=coord)
        if fit is not None:
            pos_ref = map_to_reference_frame(fit, pos)
            vel_ref = map_to_reference_frame(fit, tr.velocities())
            header = ["t"]
            cols = [tr.times]
            for j in range(ref.dof):
                header += [f"x{j + 1}", f"v{j + 1}"]
                cols += [pos_ref[:, j], vel_ref[:, j]]
            write_csv(emit(f"{scen.name}_trajectory_ref.csv"), header, cols)
            write_svg_lines(
                emit(f"{scen.name}_trajectory_ref.svg"), tr.times,
                [pos_ref[:, j] for j in range(ref.dof)],
                labels=[f"x{j + 1}" for j in range(ref.dof)],
                title=f"{scen.name} (reference frame)", xlabel="t", ylabel="x")

    if "actions" in scen.outputs and has_modal_coordinates(system):
        series = mode_actions(system, tr)
        actions_csv(emit(f"{scen.name}_actions.csv"), series)
        write_svg_lines(
            emit(f"{scen.name}_actions.svg"), series.times,
            [series.actions[:, j] for j in range(series.actions.shape[1])],
            labels=[f"E{j + 1}" for j in range(series.actions.shape[1])],
            title=f"{scen.name}: mode actions", xlabel="t", ylabel="E")

    drift = None
    if system.energy is not None:
        energies = system.energy(tr.states)
        drift = relative_drift(energies)
        if "energy" in scen.outputs:
            energy_csv(emit(f"{scen.name}_energy.csv"), tr.times, energies)

    if "analysis" in scen.outputs and scen.kind == "quasiharmonic":
        text = analysis_report(system)
        path = emit(f"{scen.name}_analysis.txt")
        path.write_text(text)

    manifest = {
        "name": scen.name,
        "scenario_file": scen.path,
        "version": __version__,
        "system": {"kind": scen.kind, **scen.params},
        "initial": {"frame": scen.frame,
                    "positions": scen.positions, "velocities": scen.velocities,
                    "state_vector": y0},
        "integrator": {"t_end": cfg.t_end, "abs_tol": cfg.abs_tol,
                       "rel_tol": cfg.rel_tol, "sample_dt": cfg.sample_dt},
        "status": tr.status,
        "message": tr.message,
        "t_reached": tr.t_reached,
        "n_steps": tr.n_steps,
        "n_rejected": tr.n_rejected,
        "n_rhs": tr.n_rhs,
        "h_min": tr.h_min,
        "h_median": tr.h_median,
        "h_max": tr.h_max,
        "energy_drift": drift,
        "wall_time_s": wall,
        "outputs": files,
    }
    if fit is not None:
        manifest["reference_frame"] = {
            "table": scen.frame.split(":", 1)[1],
            "mode_scales": fit.scales,
            "sign_flips": list(fit.sign_flips),
            "permutation": list(fit.permutation),
            "fit_residual": fit.residual,
        }
    write_manifest(out / f"{scen.name}_manifest.json", manifest)
    files.append(str(out / f"{scen.name}_manifest.json"))
    return RunResult(scenario=scen, trajectory=tr, files=files,
                     manifest=manifest, exit_code=0 if tr.ok else 2)


# --- analysis report ----------------------------------------------------------


def _fmt(x, digits=17):
    return f"{x:.{digits - 1}e}"


def analysis_report(sys) -> str:
    """Human-readable structure report for one quasi-harmonic system."""
    lines = [f"system: {sys.name or 'quasi-harmonic'}  "
             f"(p={sys.p}, a={sys.a!r}, alpha={sys.alpha!r}, modes={sys.dof})"]
    lines.append("modes (1-based, pair order unless loaded from file):")
    for i, (lam, lab) in enumerate(zip(sys.lambdas, sys.labels), start=1):
        tag = f"{lab.kind:<9s} pair {lab.pair}" if lab else "?"
        lines.append(f"  x{i:<3d} lambda = {_fmt(lam, 12)}   {tag}")
    try:
        sq = square_map(sys)
    except PatternViolationError as exc:
        lines.append(f"forcing squares: PATTERN VIOLATION: {exc}")
        return "\n".join(lines) + "\n"
    lines.append("forcing squares: rho = "
                 + " ".join(f"{i}->{j}" for i, j in sorted(sq.rho.items())))
    jc = jan_check(sys.p, sq.rho) if sys.p else {}
    if jc:
        ok = all(v[2] for v in jc.values())
        lines.append(f"min(2i, p-2i) formula: {'agrees' if ok else 'DISAGREES'}"
                     + ("" if ok else f" at {[i for i, v in jc.items() if not v[2]]}"))
    lines.append(f"cycles: {cycle_decomposition(sq.rho)}")
    edges = excitation_digraph(sq)
    lines.append("cross-group excitation: "
                 + "  ".join(f"x{a}->x{b}" for a, b in edges))
    cands = enumerate_invariant_candidates(sys)
    inv = [c for c in cands if c.invariant]
    lines.append(f"invariant candidate sets (unions of cycles): {len(cands)} tested, "
                 f"{len(inv)} invariant")
    for c in inv:
        lines.append(f"  kept modes {list(c.kept_modes)} ({c.n_kept} modes), "
                     f"hidden coupling {c.max_violation:.2e}")
    for a_, b_ in containments(inv):
        lines.append(f"  containment: kept {a_} inside kept {b_}")
    ref = reference_for(sys.p, sys.a) if sys.p else None
    if ref is not None and ref.dof == sys.dof:
        fit = scaling_equivalence(sys, ref)
        lines.append(
            f"scaling fit vs table {ref.name}: residual {fit.residual:.3e}, "
            f"max entry mismatch {fit.max_rel_mismatch:.3e}, "
            f"{len(fit.pattern_mismatches)} pattern mismatches")
    return "\n".join(lines) + "\n"


def containments(invariants):
    """Strict containments V(Y1) < V(Y2), i.e. kept(Y1) < kept(Y2)."""
    pairs = []
    for c1 in invariants:
        for c2 in invariants:
            k1, k2 = set(c1.kept_modes), set(c2.kept_modes)
            if k1 < k2:
                pairs.append((sorted(k1), sorted(k2)))
    return pairs


def equilibria_report(sys, alpha=None) -> str:
    reports = find_equilibria(sys, alpha=alpha)
    lines = [f"equilibria of {getattr(sys, 'name', '') or type(sys).__name__} "
             f"({len(reports)} found; static residual tolerance "
             f"{EQUILIBRIUM_RESIDUAL_TOL:g})"]
    for r in reports:
        eig = ", ".join(f"{z.real:+.6g}{z.imag:+.6g}j" for z in r.eigenvalues)
        lines.append(f"  point ({', '.join(f'{v:.10g}' for v in r.point)})  "
                     f"residual {r.residual:.2e}")
        lines.append(f"    eigenvalues: {eig}")
        lines.append(f"    classification: {r.n_center} centre / "
                     f"{r.n_unstable} unstable / {r.n_stable} stable")
    return "\n".join(lines) + "\n"


# --- odd-p sweep --------------------------------------------------------------


def _is_prime(n):
    if n < 2:
        return False
    return all(n % k for k in range(2, int(n ** 0.5) + 1))


@dataclass
class SweepRow:
    p: int
    lambdas: np.ndarray
    rho: dict
    cycles: tuple
    jan_ok: bool
    invariants: list
    optical_forces_acoustic: bool
    acoustic_forces_optical: bool
    fit_residual: float = None
    failures: list = field(default_factory=list)


@dataclass
class SweepReport:
    a: float
    alpha: float
    rows: list

    @property
    def failures(self):
        return [(row.p, f) for row in self.rows for f in row.failures]


def sweep_odd_p(p_max: int = 47, a: float = 0.01,
                alpha: float = 1.0) -> SweepReport:
    """Reduction -> spectral -> coupling analysis for every odd p <= p_max.

    Assertion failures (square pattern, the min(2i, p-2i) formula, and
    the high-low interaction verdict for prime p) are recorded per p
    without aborting the sweep.  Each p's wall time and candidate count
    are logged at INFO level.
    """
    if p_max > 199:
        raise ValueError("sweep guard: p_max must be <= 199 for desk-scale "
                         f"runtime, got {p_max}")
    rows = []
    for p in range(3, p_max + 1, 2):
        t0 = time.perf_counter()
        row, n_candidates = _sweep_row(p, a, alpha)
        rows.append(row)
        log.info("sweep p=%d: %.3f s, %d invariant candidates tested",
                 p, time.perf_counter() - t0, n_candidates)
    return SweepReport(a=a, alpha=alpha, rows=rows)


def _sweep_row(p, a, alpha):
    """One p of the sweep: its row and the number of candidates tested."""
    sys = to_quasi_harmonic(build_reduced(p, a, alpha))
    failures = []
    try:
        sq = square_map(sys)
    except PatternViolationError as exc:
        return SweepRow(p=p, lambdas=sys.lambdas, rho={}, cycles=(),
                        jan_ok=False, invariants=[],
                        optical_forces_acoustic=False,
                        acoustic_forces_optical=False,
                        failures=[f"square pattern violated: {exc}"]), 0
    jc = jan_check(p, sq.rho)
    jan_ok = all(v[2] for v in jc.values())
    if not jan_ok:
        failures.append(f"rho disagrees with min(2i, p-2i) at "
                        f"{[i for i, v in jc.items() if not v[2]]}")
    cyc = cycle_decomposition(sq.rho).cycles
    cands = enumerate_invariant_candidates(sys)
    inv = [c for c in cands if c.invariant]
    opt_to_ac = any(r % 2 == 1 and m % 2 == 0 for i in sq.evidence
                    for (r, m, _) in sq.evidence[i])
    ac_to_opt = any(r % 2 == 0 and m % 2 == 1 for i in sq.evidence
                    for (r, m, _) in sq.evidence[i])
    if _is_prime(p) and not (opt_to_ac and ac_to_opt):
        failures.append("no high-low interaction found for prime p")
    if _is_prime(p) and p >= 5 and inv:
        failures.append(f"unexpected invariant sets for prime p: "
                        f"{[c.kept_modes for c in inv]}")
    ref = reference_for(p, a)
    fit_res = None
    if ref is not None and ref.dof == sys.dof and alpha == 1.0:
        fit_res = scaling_equivalence(sys, ref).residual
    return SweepRow(p=p, lambdas=sys.lambdas, rho=sq.rho, cycles=cyc,
                    jan_ok=jan_ok, invariants=inv,
                    optical_forces_acoustic=opt_to_ac,
                    acoustic_forces_optical=ac_to_opt,
                    fit_residual=fit_res, failures=failures), len(cands)


def sweep_report_text(report: SweepReport) -> str:
    lines = [f"odd-p sweep (a={report.a!r}, alpha={report.alpha!r}, "
             f"{len(report.rows)} systems)", ""]
    for row in report.rows:
        lines.append(f"== p = {row.p} "
                     f"({'prime' if _is_prime(row.p) else 'composite'}) ==")
        npairs = (row.p - 1) // 2
        for j in range(1, npairs + 1):
            lines.append(f"  pair {j}: lambda = {_fmt(row.lambdas[2 * j - 2], 12)} "
                         f"(acoustic), {_fmt(row.lambdas[2 * j - 1], 12)} (optical)"
                         f"   sum {row.lambdas[2 * j - 2] + row.lambdas[2 * j - 1]:.12f}")
        if row.rho:
            lines.append("  rho: " + " ".join(f"{i}->{j}"
                                              for i, j in sorted(row.rho.items())))
            lines.append("  cycles: " + " ".join(
                "(" + " ".join(map(str, c)) + ")" for c in row.cycles))
            lines.append(f"  min(2i,p-2i) formula: "
                         f"{'agrees' if row.jan_ok else 'DISAGREES'}")
            lines.append(f"  interaction: optical squares force acoustic "
                         f"equations: {'yes' if row.optical_forces_acoustic else 'no'}; "
                         f"acoustic force optical: "
                         f"{'yes' if row.acoustic_forces_optical else 'no'}")
        if row.invariants:
            for c in row.invariants:
                lines.append(f"  invariant V(Y): kept modes {list(c.kept_modes)} "
                             f"({c.n_kept} modes), hidden coupling "
                             f"{c.max_violation:.2e}")
            for a_, b_ in containments(row.invariants):
                lines.append(f"  containment: kept {a_} inside kept {b_}")
        else:
            lines.append("  invariant V(Y): none")
        if row.fit_residual is not None:
            lines.append(f"  scaling fit vs shipped table: residual "
                         f"{row.fit_residual:.3e}")
        for f in row.failures:
            lines.append(f"  FAILURE: {f}")
        lines.append("")
    n_fail = len(report.failures)
    lines.append(f"sweep result: {len(report.rows)} systems, "
                 f"{n_fail} assertion failure(s)")
    return "\n".join(lines) + "\n"
