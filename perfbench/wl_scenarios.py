"""Workload ``scenarios``: the shipped scenario files through the CLI.

Each job is ``fpualt.cli.main(["run", <file>, ...])`` in-process, writing
CSV, SVG and manifest files.  The systems are small (2 to 6 degrees of
freedom, all four kinds), so per-step Python and numpy overhead in the
integrator and the small right-hand sides dominate; it is also the only
workload that writes files.  The seed sets the job order of every round
and a small relative jitter of the bounded scenarios' initial values.
``fig_p3_divergent`` stays exact and runs to its own horizon, because it
must diverge (exit code 2); the bounded scenarios are cut to ``T_END``.

The traced run replays each job through the public functions that
``run_scenario`` calls, with a span around each, and checks that the
replay reaches the same step count and final state as the CLI job.
"""

import contextlib
import io
import json
import re
import time

import numpy as np
from fpualt import (ChainParams, FullState, analysis_report, build_chain,
                    build_reduced, cartoon_system, cli, eigendecompose,
                    eval_accel_full, eval_accel_reduced, eval_qh_rhs,
                    hamiltonian, integrate, load_reference,
                    map_reference_state, map_to_reference_frame,
                    mode_actions, parse_scenario, reduced_energy,
                    scaling_equivalence, to_quasi_harmonic)
from fpualt.dynamics import energy_function, system_dof
from fpualt.reduction import ReducedState
from fpualt.writers import (actions_csv, energy_csv, trajectory_csv,
                            write_csv, write_manifest, write_svg_lines)

from common import (Outcome, digest, probe_integrator_rhs, sample_states,
                    us_per_call)

T_END = 100.0
TINY_T_END = 5.0
# fig_p3_center starts next to a separatrix: a relative jitter of 1e-4
# already sends it onto the escaping branch within T_END for some seeds.
JITTER_REL = 1e-5
DIVERGENT = "fig_p3_divergent"
DRIFT_LIMIT = 1e-8               # criterion 11
N_SCENARIOS = 8
_INITIAL_ENTRY = re.compile(r"^(\s*[xqv]\d+\s*=\s*)(\S+)(.*)$")


def _jitter(text, rng):
    """Scale every initial position/velocity entry by 1 + JITTER_REL*u."""
    out, section = [], None
    for line in text.splitlines(keepends=True):
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
        m = _INITIAL_ENTRY.match(line) if section == "initial" else None
        if m:
            value = float(m.group(2)) * (1.0 + JITTER_REL * rng.uniform(-1, 1))
            line = f"{m.group(1)}{value!r}{m.group(3)}\n"
        out.append(line)
    return "".join(out)


def _last_line(path):
    return path.read_bytes().rstrip(b"\n").rsplit(b"\n", 1)[-1]


class Scenarios:
    name = "scenarios"
    setup_repeats = 9
    kernels = ("small_numpy", "small_numpy", "python")
    setup_kernels = kernels
    replays = True

    def __init__(self, root, work, seed, tiny=False):
        self.sources = sorted((root / "scenarios").glob("*.scn"))
        if len(self.sources) != N_SCENARIOS:
            raise FileNotFoundError(
                f"expected {N_SCENARIOS} scenario files in {root / 'scenarios'}, "
                f"found {len(self.sources)}")
        self.work = work
        self.seed = seed
        self.t_end = TINY_T_END if tiny else T_END

    def setup(self, tracer):
        rng = np.random.default_rng([self.seed, 0])
        jobdir = self.work / "jobs"
        jobdir.mkdir(exist_ok=True)
        self.jobs = []
        for src in self.sources:
            text = src.read_text()
            if src.stem != DIVERGENT:
                text = _jitter(text, rng)
            path = jobdir / src.name
            path.write_text(text)
            with tracer.span("scenarios.parse_scenario"):
                parse_scenario(path)
            self.jobs.append((src.stem, path))
        self.order_rng = np.random.default_rng([self.seed, 1])
        warm = self.work / "warmup"
        for _, path in self.jobs:
            self._cli(path, warm, ["--t-end", "1"])

    def round_jobs(self, r):
        return [self.jobs[i] for i in self.order_rng.permutation(len(self.jobs))]

    def _args(self, name):
        return [] if name == DIVERGENT else ["--t-end", repr(self.t_end)]

    def _cli(self, path, out_dir, extra):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["run", str(path), "--out-dir", str(out_dir), *extra])

    def _check(self, out, name, exit_code, drift):
        expected = 2 if name == DIVERGENT else 0
        if exit_code != expected:
            out.fail(f"{name}: exit code {exit_code}, expected {expected}")
        if name != DIVERGENT and not (drift is not None and drift <= DRIFT_LIMIT):
            out.fail(f"{name}: energy drift {drift} > {DRIFT_LIMIT:g}")

    def timed(self, job):
        """The CLI job, as a user runs it."""
        path = job
        name = path.stem
        out_dir = self.work / "cli"
        t0 = time.perf_counter()
        rc = self._cli(path, out_dir, self._args(name))
        seconds = time.perf_counter() - t0
        manifest = json.loads((out_dir / f"{name}_manifest.json").read_text())
        final = _last_line(out_dir / f"{name}_trajectory.csv")
        out = Outcome(
            seconds=seconds,
            fingerprint=(rc, manifest["n_steps"], manifest["n_rejected"],
                         digest(final)),
            counts={"steps": manifest["n_steps"],
                    "rejected": manifest["n_rejected"],
                    "sim_time": manifest["t_reached"],
                    "run_overhead_s": seconds - manifest["wall_time_s"]})
        self._check(out, name, rc, manifest["energy_drift"])
        return out

    # --- traced replay -----------------------------------------------------

    def _build(self, scen, tracer):
        p = scen.params
        if scen.kind == "full":
            with tracer.span("chain.build_chain"):
                return build_chain(ChainParams(
                    n_pairs=p.get("n_pairs", 2), a=p.get("a", 0.01),
                    alpha=p.get("alpha", 1.0), beta=p.get("beta", 0.0)))
        if scen.kind == "cartoon":
            omegas = [p[k] for k in sorted(p) if k.startswith("omega")]
            with tracer.span("dynamics.cartoon_system"):
                return cartoon_system(p.get("id", 1), omegas or None)
        pp = p.get("p", 3)
        with tracer.span("reduction.build_reduced", p=pp):
            red = build_reduced(pp, p.get("a", 0.01), p.get("alpha", 1.0))
        if scen.kind == "reduced":
            return red
        with tracer.span("spectral.eigendecompose", p=pp):
            basis = eigendecompose(red)
        with tracer.span("spectral.to_quasi_harmonic", p=pp):
            return to_quasi_harmonic(red, basis)

    def _initial(self, scen, system, tracer):
        def fill(d, entries):
            vec = np.zeros(d)
            for idx, val in entries.items():
                vec[idx - 1] = val
            return vec

        if scen.frame == "native":
            d = system_dof(system)
            return np.concatenate([fill(d, scen.positions),
                                   fill(d, scen.velocities)]), None, None
        with tracer.span("refdata.load_reference"):
            ref = load_reference(scen.frame.split(":", 1)[1])
        with tracer.span("coupling.scaling_equivalence"):
            fit = scaling_equivalence(system, ref)
        with tracer.span("coupling.map_reference_state"):
            x0, v0 = map_reference_state(fit, fill(ref.dof, scen.positions),
                                         fill(ref.dof, scen.velocities))
        return np.concatenate([x0, v0]), fit, ref

    def run(self, job, tracer):
        """Replay of the CLI job through the public functions it calls."""
        path = job
        out_dir = self.work / "replay"
        out_dir.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        with tracer.span("scenarios.parse_scenario"):
            scen = parse_scenario(path)
        system = self._build(scen, tracer)
        y0, fit, ref = self._initial(scen, system, tracer)
        cfg = scen.config({} if scen.name == DIVERGENT else {"t_end": self.t_end})
        with tracer.span("dynamics.integrate"):
            tr = integrate(system, y0, cfg)
        coord = "q" if scen.kind in ("full", "reduced") else "x"
        written = []

        def emit(suffix):
            written.append(out_dir / f"{scen.name}_{suffix}")
            return written[-1]

        if "trajectory" in scen.outputs:
            with tracer.span("writers.trajectory_csv"):
                trajectory_csv(emit("trajectory.csv"), tr, coord=coord)
            pos = tr.positions()
            with tracer.span("writers.write_svg_lines"):
                write_svg_lines(emit("trajectory.svg"), tr.times,
                                [pos[:, j] for j in range(tr.dof)],
                                labels=[f"{coord}{j + 1}" for j in range(tr.dof)],
                                title=scen.name, xlabel="t", ylabel=coord)
            if fit is not None:
                with tracer.span("coupling.map_to_reference_frame"):
                    pos_ref = map_to_reference_frame(fit, pos)
                    vel_ref = map_to_reference_frame(fit, tr.velocities())
                header, cols = ["t"], [tr.times]
                for j in range(ref.dof):
                    header += [f"x{j + 1}", f"v{j + 1}"]
                    cols += [pos_ref[:, j], vel_ref[:, j]]
                with tracer.span("writers.write_csv"):
                    write_csv(emit("trajectory_ref.csv"), header, cols)
                with tracer.span("writers.write_svg_lines"):
                    write_svg_lines(emit("trajectory_ref.svg"), tr.times,
                                    [pos_ref[:, j] for j in range(ref.dof)],
                                    labels=[f"x{j + 1}" for j in range(ref.dof)],
                                    title=f"{scen.name} (reference frame)",
                                    xlabel="t", ylabel="x")
        if "actions" in scen.outputs and scen.kind in ("quasiharmonic", "cartoon"):
            with tracer.span("dynamics.mode_actions"):
                series = mode_actions(system, tr)
            with tracer.span("writers.actions_csv"):
                actions_csv(emit("actions.csv"), series)
            n = series.actions.shape[1]
            with tracer.span("writers.write_svg_lines"):
                write_svg_lines(emit("actions.svg"), series.times,
                                [series.actions[:, j] for j in range(n)],
                                labels=[f"E{j + 1}" for j in range(n)],
                                title=f"{scen.name}: mode actions",
                                xlabel="t", ylabel="E")
        with tracer.span("dynamics.energy_drift"):
            efun = energy_function(system)
            energies = np.array([efun(y) for y in tr.states])
            drift = float(np.abs(energies - energies[0]).max()
                          / max(abs(energies[0]), 1e-12))
        if "energy" in scen.outputs:
            with tracer.span("writers.energy_csv"):
                energy_csv(emit("energy.csv"), tr.times, energies)
        if "analysis" in scen.outputs and scen.kind == "quasiharmonic":
            with tracer.span("scenarios.analysis_report"):
                text = analysis_report(system)
            (out_dir / f"{scen.name}_analysis.txt").write_text(text)
        manifest = {"name": scen.name, "system": {"kind": scen.kind, **scen.params},
                    "initial": {"frame": scen.frame, "state_vector": y0},
                    "status": tr.status, "message": tr.message,
                    "t_reached": tr.t_reached, "n_steps": tr.n_steps,
                    "n_rejected": tr.n_rejected, "energy_drift": drift,
                    "outputs": [str(f) for f in written]}
        with tracer.span("writers.write_manifest"):
            write_manifest(out_dir / f"{scen.name}_manifest.json", manifest)
        seconds = time.perf_counter() - t0
        rc = 0 if tr.ok else 2
        final = _last_line(out_dir / f"{scen.name}_trajectory.csv")
        out = Outcome(
            seconds=seconds,
            fingerprint=(rc, tr.n_steps, tr.n_rejected, digest(final)),
            counts={"steps": tr.n_steps, "rejected": tr.n_rejected,
                    "rhs_calls": tr.n_rhs, "sim_time": tr.t_reached,
                    "bytes": sum(f.stat().st_size for f in written)},
            extra={"system": system, "trajectory": tr, "kind": scen.kind})
        if scen.kind == "quasiharmonic":
            out.counts["nnz"] = int(np.count_nonzero(system.bilinear))
            out.counts["entries"] = system.bilinear.size
        self._check(out, scen.name, rc, drift)
        return out

    def probe(self, job, out, tracer, sink):
        system, kind = out.extra["system"], out.extra["kind"]
        states = sample_states(out.extra["trajectory"].states)
        if kind == "full":
            d = system.n_particles
            args = [(system, FullState(y[:d], y[d:])) for y in states]
            sink["chain.accel_us"].append(us_per_call(eval_accel_full, args))
            sink["chain.hamiltonian_us"].append(us_per_call(hamiltonian, args))
        elif kind == "reduced":
            d = system.dof
            args = [(system, ReducedState(y[:d], y[d:])) for y in states]
            sink["reduction.accel_us"].append(us_per_call(eval_accel_reduced, args))
            sink["reduction.energy_us"].append(us_per_call(reduced_energy, args))
        elif kind == "quasiharmonic":
            d = system.dof
            key = ("spectral.qh_rhs_us.p47" if system.p == 47
                   else "spectral.qh_rhs_us.small")
            sink[key].append(us_per_call(eval_qh_rhs, [(system, y[:d]) for y in states]))
        out.counts["rhs_est_s"] = (out.counts["rhs_calls"] * 1e-6
                                   * probe_integrator_rhs(system, states))
