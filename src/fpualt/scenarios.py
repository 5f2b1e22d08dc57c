"""Scenario files, the experiment runner, and the odd-p sweep.

Scenario files are flat ``key = value`` text with ``[section]`` markers
and ``#`` comments (grammar in the README).  A scenario names a system
(full chain, reduced, quasi-harmonic, or cartoon), an initial state, an
integrator configuration, and the outputs to write.  The kinds table
``_KINDS`` holds, per kind, its [system] keys, its builder, the letter
of its coordinates and the outputs it can write; ``run_scenario`` reads
all of them from there and has no branch of its own per kind.

``parse_scenario`` only reads the text into a :class:`Scenario` of raw
strings and records the file:line of every value; one checker,
``_checked``, then converts and checks every field, and ``run_scenario``
calls the same checker on a Scenario built in code.  So a value in code
is converted as a file spells it (``'5'`` is 5), ``p``, ``n_pairs``,
``id`` and the initial indices must be integers, and a refusal names
the value's line, or its field when it has none, before anything is
written.  Initial states may be given in the normalisation of the
shipped full table of the scenario's p (``frame = ref:<table>``); they
are then mapped through the scaling fit and the trajectory is
additionally emitted in that reference frame.
"""

import logging
import math
import operator
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .chain import SIZE_LIMIT, ChainParams, build_chain, is_index
from .coupling import (CycleDecomposition, PatternViolationError, ScalingFit,
                       SquareMap, _invariant_unions, cycle_decomposition,
                       excitation_digraph, jan_check, map_reference_state,
                       map_to_reference_frame, scaling_equivalence,
                       square_map)
from .dynamics import (EQUILIBRIUM_RESIDUAL_TOL, IntegratorConfig, Trajectory,
                       cartoon_system, find_equilibria, integrate,
                       mode_actions, relative_drift)
from .refdata import FULL_TABLES, REFERENCE_TABLES, load_reference, reference_for
from .reduction import build_reduced
from .spectral import to_quasi_harmonic
from .writers import (actions_csv, energy_csv, trajectory_csv,
                      write_manifest, write_svg_lines)


log = logging.getLogger(__name__)


class ScenarioError(ValueError):
    """Malformed scenario; the message names the file and line of the
    value, or its field in a Scenario built in code."""


@dataclass
class Scenario:
    name: str
    kind: str                      # full | reduced | quasiharmonic | cartoon
    params: dict
    frame: str = "native"          # native | ref:<table>
    positions: dict = field(default_factory=dict)   # 1-based index -> value
    velocities: dict = field(default_factory=dict)
    t_end: float = 100.0
    abs_tol: float = IntegratorConfig.abs_tol
    rel_tol: float = IntegratorConfig.rel_tol
    sample_dt: float = IntegratorConfig.sample_dt
    outputs: set = field(default_factory=lambda: {"trajectory", "energy"})
    path: str = ""
    # file:line of each value read from a file, keyed by (field, key): the
    # [system] key, initial index or output, and None for the other fields
    lines: dict = field(default_factory=dict, repr=False)

    def config(self, overrides=None) -> IntegratorConfig:
        """The integrator settings, each of ``overrides`` replacing the
        scenario's own."""
        return IntegratorConfig(**{name: getattr(self, name) for name in _INTEGRATE}
                                | (overrides or {}))


# Each kind's [system] keys with their defaults, its builder, which
# takes them all by name, the letter of its coordinates and the outputs
# it can write.  A key is an integer if its default is one and a float
# otherwise; the cartoon frequencies default to the model's own.  Mode
# actions need modal coordinates, and the structure analysis a coupling
# tensor built from a chain.
_Kind = namedtuple("_Kind", "defaults build coord outputs")
_OUTPUTS = ("trajectory", "actions", "energy", "analysis")
_KINDS = {
    "full": _Kind({"n_pairs": 2, "a": 0.01, "alpha": 1.0, "beta": 0.0},
                  lambda kw: build_chain(ChainParams(**kw)),
                  "q", ("trajectory", "energy")),
    "reduced": _Kind({"p": 3, "a": 0.01, "alpha": 1.0},
                     lambda kw: build_reduced(**kw),
                     "q", ("trajectory", "energy")),
    "quasiharmonic": _Kind({"p": 3, "a": 0.01, "alpha": 1.0},
                           lambda kw: to_quasi_harmonic(build_reduced(**kw)),
                           "x", _OUTPUTS),
    "cartoon": _Kind({"id": 1, "omega1": None, "omega2": None, "omega3": None},
                     lambda kw: cartoon_system(kw["id"], [
                         w for k, w in kw.items()
                         if k != "id" and w is not None] or None),
                     "x", ("trajectory", "actions", "energy")),
}
_INTEGRATE = tuple(f.name for f in fields(IntegratorConfig))   # the [integrate] keys
_TRUE = ("true", "yes", "1")             # output flags; false, no, 0 are off
_SECTIONS = ("scenario", "system", "initial", "integrate", "outputs")
# The (section, key) of each field that holds one value; the rest are dicts.
_SCALARS = {("scenario", "name"), ("system", "kind"), ("initial", "frame"),
            *(("integrate", key) for key in _INTEGRATE)}
# The container fields of a Scenario and the types each may have.
_CONTAINERS = {"params": dict, "positions": dict, "velocities": dict,
               "outputs": (dict, set, frozenset, list, tuple)}
# A frame names the full table of the scenario's own p.
_FRAME_P = {name: p for (p, _), name in FULL_TABLES.items()}


def _where(scen: Scenario, name, key=None):
    """The file:line of a value, or its field in a Scenario built in code."""
    return scen.lines.get((name, key), f"scenario {scen.name!r}, field {name!r}")


def _parse_float(value, where):
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{where}: not a number: {value!r}") from None
    if not math.isfinite(number):
        raise ScenarioError(f"{where}: not a finite number: {value!r}")
    return number


def _parse_int(value, what, where):
    """An int, or a string that spells one; a float is refused."""
    try:
        return int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{where}: {what} must be an integer, "
                            f"got {value!r}") from None


def parse_scenario(path) -> Scenario:
    """Read a scenario file into a Scenario of raw strings, recording the
    file:line of every value, and check it (``_checked``); every error
    names the offending line."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    values = {"name": path.stem, "kind": None, "params": {}}
    lines, first = {}, {}                  # first: (section, key) -> file:line
    section = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in _SECTIONS:
                    raise ScenarioError(f"{where}: unknown section [{section}]")
                continue
            if "=" not in line:
                raise ScenarioError(f"{where}: expected 'key = value', got {line!r}")
            if section is None:
                raise ScenarioError(f"{where}: entry before any [section]")
            key, value = (s.strip() for s in line.split("=", 1))
            if not key or not value:
                raise ScenarioError(f"{where}: empty key or value")
            key = key.lower()
            if (section, key) in first:
                raise ScenarioError(f"{where}: [{section}] key {key!r} given "
                                    f"twice, first at {first[section, key]}")
            first[section, key] = where
            if (section, key) in _SCALARS:
                name, key = key, None
            elif section in ("system", "outputs"):
                name = "params" if section == "system" else "outputs"
            elif section == "initial" and key[0] in "qxv" and key[1:].isdigit():
                name, key = ("velocities" if key[0] == "v" else "positions",
                             int(key[1:]))
                if (name, key) in lines:
                    raise ScenarioError(f"{where}: initial {name} index {key} "
                                        f"given twice, first at {lines[name, key]}")
            else:
                raise ScenarioError(
                    f"{where}: unknown [{section}] key {key!r}"
                    + ("; it takes name" if section == "scenario" else ""))
            lines[name, key] = where
            if key is None:
                values[name] = value
            else:
                values.setdefault(name, {})[key] = value
    if values["kind"] is None:
        raise ScenarioError(f"{path}: [system] must set 'kind'")
    return _checked(Scenario(**values, path=str(path), lines=lines))


def _checked(scen: Scenario) -> Scenario:
    """``scen`` with every field converted as a scenario file spells it
    and checked, or a ScenarioError naming the value's line or field.

    ``outputs`` is a set (or list) of names or, as the parser gives it, a
    dict of true/false flags; ``params``, ``positions`` and
    ``velocities`` are dicts.
    """
    for name, types in _CONTAINERS.items():
        if not isinstance(value := getattr(scen, name), types):
            raise ScenarioError(f"{_where(scen, name)}: must be a dict"
                                f"{' or a set' * (name == 'outputs')}, got {value!r}")
    kind = str(scen.kind).lower()
    if not isinstance(scen.kind, str) or kind not in _KINDS:
        raise ScenarioError(f"{_where(scen, 'kind')}: kind must be one of "
                            f"{tuple(_KINDS)}, got {scen.kind!r}")
    defaults, params = _KINDS[kind].defaults, {}
    for key, value in scen.params.items():
        where = _where(scen, "params", key)
        if key not in defaults:
            raise ScenarioError(
                f"{where}: unknown [system] key {key!r} for kind {kind!r}; "
                f"it takes {', '.join(defaults)}")
        if value is None and defaults[key] is None:     # a model's own omega
            continue
        params[key] = (_parse_int(value, key, where) if isinstance(defaults[key], int)
                       else _parse_float(value, where))

    frame = scen.frame.lower() if isinstance(scen.frame, str) else scen.frame
    if frame != "native":
        where = _where(scen, "frame")
        p = params.get("p", defaults.get("p"))
        if not (isinstance(frame, str) and frame.startswith("ref:")):
            raise ScenarioError(f"{where}: frame must be 'native' or 'ref:<table>'")
        if kind != "quasiharmonic":
            raise ScenarioError(f"{where}: reference-frame initial data requires "
                                "a quasiharmonic system")
        if frame[4:] not in REFERENCE_TABLES:
            raise ScenarioError(f"{where}: unknown reference table {frame[4:]!r}; "
                                f"available: {sorted(_FRAME_P)}")
        if _FRAME_P.get(frame[4:]) != p:
            raise ScenarioError(
                f"{where}: {frame} is not the full table of p = {p}; a frame "
                f"takes {', '.join(sorted(_FRAME_P))}, each for its own p")

    initial = {name: {} for name in ("positions", "velocities")}
    for name, values in initial.items():
        for key, value in getattr(scen, name).items():
            where = _where(scen, name, key)
            index = _parse_int(key, f"initial {name} index", where)
            if index in values:
                raise ScenarioError(
                    f"{where}: initial {name} index {index} given twice")
            values[index] = _parse_float(value, where)
    numbers = {name: _parse_float(getattr(scen, name), _where(scen, name))
               for name in _INTEGRATE}

    flags = (scen.outputs if isinstance(scen.outputs, dict)
             else dict.fromkeys(scen.outputs, "true"))
    flags = {key: str(flag).lower() for key, flag in flags.items()}
    for key, flag in flags.items():
        where = _where(scen, "outputs", key)
        if key not in _OUTPUTS:
            raise ScenarioError(f"{where}: unknown output {key!r}")
        if flag not in _TRUE + ("false", "no", "0"):
            raise ScenarioError(f"{where}: output flags are true/false")
        if flag in _TRUE and key not in _KINDS[kind].outputs:
            raise ScenarioError(
                f"{where}: kind {kind!r} cannot write output {key!r}; "
                f"it writes {', '.join(_KINDS[kind].outputs)}")
    checked = replace(scen, kind=kind, params=params, frame=frame, **initial, **numbers,
                      outputs={key for key, flag in flags.items() if flag in _TRUE})
    try:
        checked.config().validate()
    except ValueError as exc:         # the message starts with the field's name
        raise ScenarioError(f"{_where(scen, str(exc).split()[0])}: {exc}") from None
    return checked


def _build_system(scen: Scenario):
    kind = _KINDS[scen.kind]
    return kind.build({**kind.defaults, **scen.params})


def _resolve_initial(scen: Scenario, system):
    """Initial state vector plus the scaling fit when frame = ref:<table>."""

    def fill(d, name):
        vec = np.zeros(d)
        for idx, val in getattr(scen, name).items():
            if not 1 <= idx <= d:
                raise ScenarioError(f"{_where(scen, name, idx)}: initial "
                                    f"{name} index {idx} out of range 1..{d}")
            vec[idx - 1] = val
        return vec

    ref = None if scen.frame == "native" else load_reference(scen.frame[4:])
    d = system.dof if ref is None else ref.dof
    y0 = np.concatenate([fill(d, "positions"), fill(d, "velocities")])
    if ref is None:
        return y0, None
    try:
        fit = scaling_equivalence(system, ref)
    except ValueError as exc:
        raise ScenarioError(f"{_where(scen, 'frame')}: {exc}") from None
    return np.concatenate(map_reference_state(fit, y0[:d], y0[d:])), fit


def _plot(path, times, values, letter, title):
    """One line per column of ``values``, labelled letter1, letter2, ..."""
    write_svg_lines(path, times, list(values.T),
                    labels=[f"{letter}{j + 1}" for j in range(values.shape[1])],
                    title=title, xlabel="t", ylabel=letter)


def _write_trajectory(emit, tr, stem, coord, title):
    trajectory_csv(emit(f"{stem}.csv"), tr, coord=coord)
    _plot(emit(f"{stem}.svg"), tr.times, tr.positions(), coord, title)


# The phases of a run timed in its manifest: building the system and
# its initial state, integrating, the energy along the trajectory, and
# every output file but the manifest (the analysis report included).
_PHASES = ("build", "integrate", "energy", "writers")


@dataclass
class RunResult:
    scenario: Scenario
    trajectory: object
    files: list
    manifest: dict
    exit_code: int


def run_scenario(scenario, out_dir, overrides=None) -> RunResult:
    """Run one scenario and write its requested outputs.

    ``scenario`` is a scenario file or a Scenario built in code; both go
    through the one checker (``_checked``).  Every check runs before the
    output directory is made, so a refused scenario writes nothing.  Returns exit code 0 on success and 2 when
    the integration ended in a divergence or step-underflow report.

    The manifest holds the scenario (``name``, ``scenario_file``,
    ``version``, ``system``, ``initial``), the ``integrator`` settings
    as :class:`IntegratorConfig` holds them, every field of
    :class:`Trajectory` but ``times`` and ``states`` (so a field added
    there is recorded with no edit here), ``energy_drift``,
    ``wall_time_s``, ``phase_s``, ``outputs`` and, for a run in a
    reference frame, ``reference_frame``.
    """
    scen = (_checked(scenario) if isinstance(scenario, Scenario)
            else parse_scenario(scenario))
    clock = [time.perf_counter()]          # the end of each of _PHASES
    system = _build_system(scen)
    y0, fit = _resolve_initial(scen, system)
    cfg = scen.config(overrides)
    clock.append(time.perf_counter())
    tr = integrate(system, y0, cfg)
    clock.append(time.perf_counter())
    energies = system.energy(tr.states)
    clock.append(time.perf_counter())

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []

    def emit(name):
        files.append(str(out / name))
        return out / name

    if "trajectory" in scen.outputs:
        _write_trajectory(emit, tr, f"{scen.name}_trajectory",
                          _KINDS[scen.kind].coord, scen.name)
        if fit is not None:
            mapped = [map_to_reference_frame(fit, tr.positions()),
                      map_to_reference_frame(fit, tr.velocities())]
            _write_trajectory(emit, replace(tr, states=np.hstack(mapped)),
                              f"{scen.name}_trajectory_ref", "x",
                              f"{scen.name} (reference frame)")

    if "actions" in scen.outputs:
        series = mode_actions(system, tr)
        actions_csv(emit(f"{scen.name}_actions.csv"), series)
        _plot(emit(f"{scen.name}_actions.svg"), series.times, series.actions,
              "E", f"{scen.name}: mode actions")

    if "energy" in scen.outputs:
        energy_csv(emit(f"{scen.name}_energy.csv"), tr.times, energies)

    if "analysis" in scen.outputs:
        emit(f"{scen.name}_analysis.txt").write_text(analysis_report(system))
    clock.append(time.perf_counter())
    phase_s = dict(zip(_PHASES, np.diff(clock).tolist()))

    manifest = {
        "name": scen.name,
        "scenario_file": scen.path,
        "version": __version__,
        "system": {"kind": scen.kind, **scen.params},
        "initial": {"frame": scen.frame,
                    "positions": scen.positions, "velocities": scen.velocities,
                    "state_vector": y0},
        "integrator": asdict(cfg),
        **{f.name: getattr(tr, f.name) for f in fields(Trajectory)
           if f.name not in ("times", "states")},
        "energy_drift": relative_drift(energies),
        "wall_time_s": phase_s["integrate"],
        "phase_s": phase_s,
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


# --- structure census ----------------------------------------------------------


def _fmt(x):
    return f"{x:.11e}"


def _is_prime(n):
    return n > 1 and all(n % k for k in range(2, int(n ** 0.5) + 1))


@dataclass
class SweepRow:
    """The structure census of one quasi-harmonic system.

    ``violation`` is the square-pattern failure, if any; the census then
    stops, with no squares (so no rho), cycles, candidates or fit.  The
    high-low interaction verdicts are that pattern: ``square_map``
    returns only when both squares of every pair i fill both equations
    of pair rho(i), so in every pair the optical square forces an
    acoustic equation and the acoustic square an optical one.

    ``squares.rho`` is numbered by the system's pair slots (modes 2i-1, 2i).
    ``formula`` lists the chain pairs i whose rho(i) differs from
    min(2i, p - 2i), rho renumbered by the pairs the mode labels name;
    it is None when the labels do not number every pair 1..(p-1)/2 once
    (a subsystem, which keeps its parent's p, or a cartoon).
    ``failures`` are the sweep's assertion failures for this system.
    """

    p: int
    lambdas: np.ndarray
    squares: SquareMap = None
    violation: str = None
    formula: list = None
    cycles: tuple = ()
    n_candidates: int = 0
    invariants: list = field(default_factory=list)
    fit: ScalingFit = None       # against the shipped table ``fit_table``
    fit_table: str = None
    fit_error: str = None        # why that fit could not be made
    failures: list = field(default_factory=list)


def _chain_pairs(sys):
    """{slot: chain pair} as the mode labels number the pair slots, or
    None unless both labels of every slot name one pair and the slots
    name every pair 1..(p-1)/2 once."""
    labels = sys.labels
    if None in labels:
        return None
    pairs = [lab.pair for lab in labels[0::2]]
    if ([lab.pair for lab in labels[1::2]] != pairs
            or sorted(pairs) != list(range(1, (sys.p - 1) // 2 + 1))):
        return None
    return dict(enumerate(pairs, start=1))


def structure_census(sys) -> SweepRow:
    """Square map, rho, formula check, cycles, invariant sets, table fit
    and the sweep's failures of one system, each found once.

    The analysis report and the odd-p sweep both read their verdicts
    from this census.  Every one of them, the table fit included, reads
    only the lambdas and the monomial list, never alpha, which
    multiplies every coupling alike.  The system is fitted against the
    shipped table for its (p, a), when that table has as many modes; a
    fit whose modes do not align leaves ``fit`` None and says why in
    ``fit_error``, as no verdict reads the fit.
    """
    row = SweepRow(p=sys.p, lambdas=sys.lambdas)
    try:
        row.squares = square_map(sys)
    except PatternViolationError as exc:
        row.violation = str(exc)
        row.failures.append(f"square pattern violated: {exc}")
        return row
    pair = _chain_pairs(sys)
    if pair is not None:
        chain_rho = {pair[i]: pair[j] for i, j in row.squares.rho.items()}
        row.formula = [i for i, (_, _, ok) in jan_check(sys.p, chain_rho).items()
                       if not ok]
        if row.formula:
            row.failures.append(f"rho disagrees with min(2i, p-2i) at {row.formula}")
    row.cycles = cycle_decomposition(row.squares.rho).cycles
    # every nonempty proper union of cycles is a candidate
    row.n_candidates = max(2 ** len(row.cycles) - 2, 0)
    row.invariants = _invariant_unions(sys, row.cycles)
    ref = reference_for(sys.p, sys.a)
    if ref is not None and ref.dof == sys.dof:
        row.fit_table = ref.name
        try:
            row.fit = scaling_equivalence(sys, ref)
        except ValueError as exc:        # the modes do not align
            row.fit_error = str(exc)
    if _is_prime(sys.p) and sys.p >= 5 and row.invariants:
        row.failures.append(f"unexpected invariant sets for prime p: "
                            f"{[c.kept_modes for c in row.invariants]}")
    return row


def _invariant_lines(invariants, tag=""):
    """One line per invariant set V(Y), then one per strict containment
    V(Y1) < V(Y2), i.e. kept(Y1) < kept(Y2)."""
    kept = [set(c.kept_modes) for c in invariants]
    return ([f"  {tag}kept modes {list(c.kept_modes)} ({c.n_kept} modes), "
             f"hidden coupling {c.max_violation:.2e}" for c in invariants]
            + [f"  containment: kept {sorted(k1)} inside kept {sorted(k2)}"
               for k1 in kept for k2 in kept if k1 < k2])


def analysis_report(sys) -> str:
    """Human-readable structure report for one quasi-harmonic system."""
    lines = [f"system: {sys.name or 'quasi-harmonic'}  "
             f"(p={sys.p}, a={sys.a!r}, alpha={sys.alpha!r}, modes={sys.dof})"]
    lines.append("modes (1-based, pair order unless loaded from file):")
    for i, (lam, lab) in enumerate(zip(sys.lambdas, sys.labels), start=1):
        tag = f"{lab.kind:<9s} pair {lab.pair}" if lab else "?"
        lines.append(f"  x{i:<3d} lambda = {_fmt(lam)}   {tag}")
    row = structure_census(sys)
    if row.violation:
        lines.append(f"forcing squares: PATTERN VIOLATION: {row.violation}")
        return "\n".join(lines) + "\n"
    lines.append("forcing squares: rho = "
                 + " ".join(f"{i}->{j}" for i, j in sorted(row.squares.rho.items())))
    if row.formula is not None:
        lines.append("min(2i, p-2i) formula: "
                     + (f"DISAGREES at {row.formula}" if row.formula else "agrees"))
    lines.append(f"cycles: {CycleDecomposition(row.cycles)}")
    lines.append("cross-group excitation: " + "  ".join(
        f"x{a}->x{b}" for a, b in excitation_digraph(row.squares)))
    lines.append(f"invariant candidate sets (unions of cycles): "
                 f"{row.n_candidates} tested, {len(row.invariants)} invariant")
    lines += _invariant_lines(row.invariants)
    if row.fit is not None:
        lines.append(
            f"scaling fit vs table {row.fit_table}: residual {row.fit.residual:.3e}, "
            f"max entry mismatch {row.fit.max_rel_mismatch:.3e}, "
            f"{len(row.fit.pattern_mismatches)} pattern mismatches")
    if row.fit_error:
        lines.append(f"scaling fit vs table {row.fit_table}: not made ({row.fit_error})")
    return "\n".join(lines) + "\n"


def equilibria_report(sys) -> str:
    reports = find_equilibria(sys)
    lines = [f"equilibria of {getattr(sys, 'name', '') or type(sys).__name__} "
             f"({len(reports)} found; static residual tolerance "
             f"{EQUILIBRIUM_RESIDUAL_TOL:g} * max(1, |x|))"]
    for r in reports:
        eig = ", ".join(f"{z.real:+.6g}{z.imag:+.6g}j" for z in r.eigenvalues)
        lines.append(f"  point ({', '.join(f'{v:.10g}' for v in r.point)})  "
                     f"residual {r.residual:.2e}")
        lines.append(f"    eigenvalues: {eig}")
        lines.append(f"    classification: {r.n_center} centre / "
                     f"{r.n_unstable} unstable / {r.n_stable} stable")
    return "\n".join(lines) + "\n"


# --- odd-p sweep --------------------------------------------------------------


@dataclass
class SweepReport:
    a: float
    rows: list

    @property
    def failures(self):
        return [(row.p, f) for row in self.rows for f in row.failures]


def sweep_odd_p(p_max: int = 47, a: float = 0.01) -> SweepReport:
    """Reduction -> spectral -> structure census for every odd p <= p_max.

    The census is alpha-free (:func:`structure_census`), so the systems
    are built at alpha = 1.

    The forcing-square pattern is the high-low interaction verdict: a p
    whose squares break it records that failure.  A rho that disagrees
    with min(2i, p-2i) and, for prime p >= 5, any invariant set are
    failures too.  They are recorded per p without aborting the sweep.
    Each p's wall time, candidate count and smallest listed coupling
    relative to the largest are logged at INFO level.  A p_max outside
    3..SIZE_LIMIT is refused.
    """
    if not (is_index(p_max) and 3 <= p_max <= SIZE_LIMIT):
        raise ValueError(f"sweep guard: p_max must be in 3..{SIZE_LIMIT}, "
                         f"got {p_max}")
    rows = []
    for p in range(3, p_max + 1, 2):
        t0 = time.perf_counter()
        sys = to_quasi_harmonic(build_reduced(p, a))
        rows.append(structure_census(sys))
        coeff = np.abs(sys.monomials.coeff)
        log.info("sweep p=%d: %.3f s, %d invariant candidates tested, smallest "
                 "coupling %.3g of the largest", p, time.perf_counter() - t0,
                 rows[-1].n_candidates, coeff.min() / coeff.max())
    return SweepReport(a=a, rows=rows)


def sweep_report_text(report: SweepReport) -> str:
    lines = [f"odd-p sweep (a={report.a!r}, {len(report.rows)} systems)", ""]
    for row in report.rows:
        lines.append(f"== p = {row.p} "
                     f"({'prime' if _is_prime(row.p) else 'composite'}) ==")
        npairs = (row.p - 1) // 2
        for j in range(1, npairs + 1):
            lines.append(f"  pair {j}: lambda = {_fmt(row.lambdas[2 * j - 2])} "
                         f"(acoustic), {_fmt(row.lambdas[2 * j - 1])} (optical)"
                         f"   sum {row.lambdas[2 * j - 2] + row.lambdas[2 * j - 1]:.12f}")
        if row.squares is not None:
            lines.append("  rho: " + " ".join(f"{i}->{j}" for i, j
                                              in sorted(row.squares.rho.items())))
            lines.append(f"  cycles: {CycleDecomposition(row.cycles)}")
            lines.append(f"  min(2i,p-2i) formula: "
                         f"{'DISAGREES' if row.formula else 'agrees'}")
            # squares mean the square pattern holds, and the pattern is
            # the verdict: both squares of a pair fill both equations
            lines.append("  interaction: optical squares force acoustic "
                         "equations: yes; acoustic force optical: yes")
        lines += (_invariant_lines(row.invariants, "invariant V(Y): ")
                  or ["  invariant V(Y): none"])
        if row.fit is not None:
            lines.append(f"  scaling fit vs shipped table: residual "
                         f"{row.fit.residual:.3e}")
        for f in row.failures:
            lines.append(f"  FAILURE: {f}")
        lines.append("")
    n_fail = len(report.failures)
    lines.append(f"sweep result: {len(report.rows)} systems, "
                 f"{n_fail} assertion failure(s)")
    return "\n".join(lines) + "\n"
