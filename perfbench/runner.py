"""Set-up, rounds, checks and metrics of one benchmark run.

A run sets the workload up several times (``setup_s`` is the median),
then runs whole rounds of the workload's seeded job set until the
requested seconds have passed.  Every job's output is checked, and every
job must repeat its first result exactly in later rounds.  The
workload's calibration kernels run before and after every set-up and
job, and all reported times are scaled to the kernels' reference speed
(see ``common.CAL_REF_S``); the raw times are kept in the results file.
"""

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from common import CAL_REF_S, Calibrator, P_BANDS
from tracer import NULL_TRACER, Tracer, duration, self_times
from wl_ensemble import Ensemble
from wl_scenarios import Scenarios
from wl_structure import Structure

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_CLASSES = {"scenarios": Scenarios, "ensemble": Ensemble,
                    "structure": Structure}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "job_ms_p50": "ms",
             "peak_rss_mb": "MB"}

# Per-layer metrics summed over the spans of one round, median over rounds.
ROUND_SPANS = {
    "dynamics.energy_drift_ms": ("dynamics.energy_drift",),
    "coupling.square_map_ms": ("coupling.square_map", "coupling.jan_check"),
    "coupling.invariants_ms": ("coupling.cycle_decomposition",
                               "coupling.enumerate_invariant_candidates"),
    "coupling.scaling_fit_ms": ("coupling.scaling_equivalence",
                                "coupling.map_reference_state",
                                "coupling.map_to_reference_frame"),
    "spectral.save_load_ms": ("spectral.save_system", "spectral.load_system"),
    "dynamics.equilibria_ms": ("dynamics.find_equilibria",),
    "writers.csv_ms": ("writers.trajectory_csv", "writers.write_csv",
                       "writers.actions_csv", "writers.energy_csv"),
    "writers.svg_ms": ("writers.write_svg_lines",),
    "writers.manifest_ms": ("writers.write_manifest",),
    "scenarios.parse_ms": ("scenarios.parse_scenario",),
    "refdata.load_ms": ("refdata.load_reference", "refdata.reference_for"),
}
# Per-call metrics of the analysis pipeline, median per band of p.
BAND_SPANS = {
    "linalg.jacobi_ms": "linalg.jacobi_eigh",
    "spectral.eigendecompose_ms": "spectral.eigendecompose",
    "spectral.to_qh_ms": "spectral.to_quasi_harmonic",
    "reduction.build_ms": "reduction.build_reduced",
}
# Per-call probes in microseconds, median over the probes of the run.
PROBES = ("chain.accel_us", "reduction.accel_us", "spectral.qh_rhs_us.small",
          "spectral.qh_rhs_us.p47", "chain.hamiltonian_us",
          "reduction.energy_us")
# Counts per round; every round of a run must give the same values.
ROUND_COUNTS = {"dynamics.steps": "steps", "dynamics.rejected": "rejected",
                "dynamics.rhs_calls": "rhs_calls",
                "coupling.candidates": "candidates", "writers.bytes": "bytes"}
DERIVED_UNITS = {"dynamics.integrate_s": "s", "dynamics.us_per_step": "us",
                 "dynamics.accept_ratio": "ratio", "dynamics.rhs_share": "ratio",
                 "dynamics.sim_time_per_s": "t/s",
                 "spectral.tensor_nnz_frac": "ratio",
                 "scenarios.run_overhead_ms": "ms"}


def layer_unit(name):
    if name in DERIVED_UNITS:
        return DERIVED_UNITS[name]
    if name in PROBES:
        return "us"
    if name in ROUND_COUNTS:
        return "bytes" if name == "writers.bytes" else "count"
    return "ms"


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


# --- context -------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest():
    """SHA-256 of src/fpualt, which identifies the code without git."""
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "fpualt").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(f.relative_to(ROOT).as_posix().encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def context(seed):
    return {"cpu": _cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": _git_commit(), "source_sha256": _source_digest(),
            "seed": seed,
            "threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
            "cal_ref_s_per_kernel": CAL_REF_S}


# --- the run -------------------------------------------------------------------


class Run:
    """Set-up, rounds, checks and raw measurements of one benchmark run."""

    def __init__(self, wl, seconds, tracer):
        self.wl = wl
        self.seconds = seconds
        self.tracer = tracer
        self.setup_raw = []
        self.setup_ref = []
        self.rounds = []             # per round: list of (job id, Outcome)
        self.first = {}              # job id -> fingerprint of its first run
        self.failures = []           # (job id, message, wrong)
        self.scale_of = {}           # tracer job key -> speed scale
        self.probes = defaultdict(list)
        self.untraced_s = self.traced_s = 0.0
        self.cals = []

    def _scale(self, calibrator, samples):
        """Speed scale of the interval since the previous calibration."""
        cal = calibrator.measure()
        scale = calibrator.ref_s / (0.5 * (samples[-1] + cal))
        samples.append(cal)
        return scale

    def execute(self):
        tracing = self.tracer.enabled
        setup_cal = Calibrator(self.wl.setup_kernels)
        setup_cals = [setup_cal.measure()]
        for k in range(self.wl.setup_repeats):
            key = f"setup{k}"
            if tracing:
                self.tracer.job = key
            t0 = time.perf_counter()
            self.wl.setup(self.tracer)
            raw = time.perf_counter() - t0
            scale = self.scale_of[key] = self._scale(setup_cal, setup_cals)
            self.setup_raw.append(raw)
            self.setup_ref.append(raw * scale)
        calibrator = Calibrator(self.wl.kernels)
        self.cals.append(calibrator.measure())
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < self.seconds:
            outcomes = []
            for job_id, job in self.wl.round_jobs(r):
                key = f"r{r}:{job_id}"
                out = self.wl.timed(job)
                probes = defaultdict(list)
                if tracing:
                    self.tracer.round, self.tracer.job = r, key
                    out = self._traced(job_id, job, out, probes)
                out.scale = self.scale_of[key] = self._scale(calibrator, self.cals)
                out.extra = {}          # systems and trajectories: free them
                for name, values in probes.items():
                    self.probes[name] += [v * out.scale for v in values]
                self._check(job_id, out)
                outcomes.append((job_id, out))
            self.rounds.append(outcomes)
            r += 1

    def _traced(self, job_id, job, ref, probes):
        """Run ``job`` untraced and traced; the traced outcome is kept."""
        plain = self.wl.run(job, NULL_TRACER) if self.wl.replays else ref
        with self.tracer.span("bench.job"):
            out = self.wl.run(job, self.tracer)
        if out.fingerprint != ref.fingerprint:
            out.fail(f"{job_id}: traced run {out.fingerprint} differs from "
                     f"untraced run {ref.fingerprint}")
        out.failures += [f for f in ref.failures if f not in out.failures]
        out.wrong = out.wrong or ref.wrong
        for key, value in ref.counts.items():
            out.counts.setdefault(key, value)
        self.untraced_s += plain.seconds
        self.traced_s += out.seconds
        self.wl.probe(job, out, self.tracer, probes)
        return out

    def _check(self, job_id, out):
        first = self.first.setdefault(job_id, out.fingerprint)
        if out.fingerprint != first:
            out.fail(f"{job_id}: result {out.fingerprint} differs from the "
                     f"first run of the same job {first}")
        for msg in out.failures:
            self.failures.append((job_id, msg, out.wrong))

    # --- derived numbers ---

    def jobs(self):
        return [out for rnd in self.rounds for _, out in rnd]

    def attempted(self):
        return len(self.jobs())

    def failed(self):
        return sum(1 for out in self.jobs() if out.failures)

    def correct(self):
        return not any(wrong for _, _, wrong in self.failures)

    def round_sum(self, key):
        return [sum(out.counts.get(key, 0) for _, out in rnd) for rnd in self.rounds]

    def round_walls(self, raw=False):
        return [sum(out.seconds if raw else out.ref_seconds for _, out in rnd)
                for rnd in self.rounds]

    def e2e(self):
        per_job = defaultdict(list)
        for rnd in self.rounds:
            for job_id, out in rnd:
                per_job[job_id].append(out.ref_seconds)
        job_medians = [statistics.median(v) for v in per_job.values()]
        return {"setup_s": statistics.median(self.setup_ref),
                "wall_s": statistics.median(self.round_walls()),
                "job_ms_p50": 1e3 * statistics.median(job_medians),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    def tail(self):
        """Highest whole percentile with at least 10 jobs beyond it."""
        times = sorted(out.ref_seconds for out in self.jobs())
        n = len(times)
        for pct in range(99, 0, -1):
            k = int(n * pct / 100)
            if k >= 1 and n - k >= 10:
                return pct, 1e3 * times[k - 1], n
        return None, None, n

    def sim_time_per_s(self):
        sim = sum(self.round_sum("sim_time"))
        return sim / sum(self.round_walls()) if sim else None

    def _span_time(self, span):
        return duration(span) * self.scale_of[span["job"]]

    def layer_metrics(self):
        by_round = defaultdict(lambda: defaultdict(float))
        band_calls = defaultdict(list)
        for s in self.tracer.spans:
            if s["round"] is not None and not s.get("probe"):
                by_round[s["round"]][s["name"]] += self._span_time(s)
            if "p" in s:
                band_calls[s["name"], s["p"]].append(self._span_time(s))
        rounds = range(len(self.rounds))
        m = {}
        for metric, names in ROUND_SPANS.items():
            m[metric] = 1e3 * _median(sum(by_round[r][n] for n in names)
                                      for r in rounds)
        for metric, name in BAND_SPANS.items():
            for band, lo, hi in P_BANDS:
                calls = [d for (n, p), ds in band_calls.items()
                         if n == name and lo <= p <= hi for d in ds]
                m[f"{metric}.{band}"] = 1e3 * _median(calls)
        for name in PROBES:
            m[name] = _median(self.probes[name])
        for metric, key in ROUND_COUNTS.items():
            m[metric] = self.round_sum(key)[0]
        nnz, entries = self.round_sum("nnz")[0], self.round_sum("entries")[0]
        m["spectral.tensor_nnz_frac"] = nnz / entries if entries else 0.0
        integ = [by_round[r]["dynamics.integrate"] for r in rounds]
        steps, rej = self.round_sum("steps"), self.round_sum("rejected")
        # Both factors of the RHS estimate are raw times, so the share
        # is taken against the raw integration time.
        integ_raw = [sum(duration(s) for s in self.tracer.spans
                         if s["round"] == r and s["name"] == "dynamics.integrate")
                     for r in rounds]
        rhs_est = self.round_sum("rhs_est_s")
        sim = self.round_sum("sim_time")
        overhead = [sum(out.counts.get("run_overhead_s", 0.0) * out.scale
                        for _, out in rnd) for rnd in self.rounds]
        m["dynamics.integrate_s"] = _median(integ)
        m["dynamics.us_per_step"] = _median(1e6 * t / s
                                            for t, s in zip(integ, steps) if s)
        m["dynamics.accept_ratio"] = _median(s / (s + j) for s, j in zip(steps, rej) if s)
        m["dynamics.rhs_share"] = _median(e / t for e, t in zip(rhs_est, integ_raw) if t)
        m["dynamics.sim_time_per_s"] = _median(x / t for x, t in zip(sim, integ) if t)
        m["scenarios.run_overhead_ms"] = 1e3 * _median(overhead)
        return m

    def layer_self_ms(self):
        """Self time per layer (module), per round, median over rounds."""
        spans = self.tracer.spans
        per = defaultdict(lambda: defaultdict(float))
        for s, t in zip(spans, self_times(spans)):
            if s["round"] is not None and not s.get("probe"):
                per[s["name"].split(".", 1)[0]][s["round"]] += t * self.scale_of[s["job"]]
        n = len(self.rounds)
        return {layer: 1e3 * statistics.median([v.get(r, 0.0) for r in range(n)])
                for layer, v in sorted(per.items())}


def run_once(workload, seed, seconds, trace, tiny=False, write=True):
    """One benchmark run; returns (result line dict, details dict)."""
    (BENCH_DIR / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=BENCH_DIR / "work"))
    try:
        wl = WORKLOAD_CLASSES[workload](ROOT, work, seed, tiny)
        run = Run(wl, seconds, Tracer() if trace else NULL_TRACER)
        run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in run.layer_metrics().items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in run.e2e().items()}
    pct, tail_ms, n_jobs = run.tail()
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "context": context(seed), "rounds": len(run.rounds),
        "jobs_per_round": len(run.rounds[0]),
        "setup_s_raw": run.setup_raw, "setup_s_ref": run.setup_ref,
        "round_wall_s_raw": run.round_walls(raw=True),
        "round_wall_s_ref": run.round_walls(),
        "job_s_raw_and_scale": [[(j, o.seconds, o.scale) for j, o in rnd]
                                for rnd in run.rounds],
        "kernels": list(wl.kernels),
        "calibration_s_median": statistics.median(run.cals),
        "job_ms_tail": ({"percentile": pct, "value": tail_ms, "jobs": n_jobs}
                        if pct else None),
        "sim_time_per_s": run.sim_time_per_s(),
        "failed_frac": run.failed() / run.attempted(),
        "failing_jobs": sorted({(j, m) for j, m, _ in run.failures}),
        "fingerprints": {k: list(v) for k, v in sorted(run.first.items())},
    }
    if trace:
        details["layer_self_ms_per_round"] = run.layer_self_ms()
        details["tracing_overhead"] = (run.traced_s / run.untraced_s - 1.0
                                       if run.untraced_s else None)
    result = {"correct": run.correct(), "attempted": run.attempted(),
              "failed": run.failed(), "metrics": metrics}
    if write:
        out = BENCH_DIR / "results"
        out.mkdir(exist_ok=True)
        with open(out / f"{workload}-seed{seed}-trace{trace}.json", "w") as fh:
            json.dump({**details, "result": result}, fh, indent=1, default=str)
            fh.write("\n")
        if trace:
            run.tracer.write(out / f"spans-{workload}-seed{seed}.json")
    return result, details


def print_summary(result, d):
    ctx = d["context"]
    print(f"workload {d['workload']}  seed {d['seed']}  trace {d['trace']}  "
          f"rounds {d['rounds']} x {d['jobs_per_round']} jobs")
    print(f"context: {ctx['cpu']}, nproc {ctx['nproc']}, python {ctx['python']}, "
          f"numpy {ctx['numpy']}, commit {ctx['git_commit']}, "
          f"src {ctx['source_sha256']}, threads {ctx['threads']}")
    print(f"times at reference speed: calibration kernels {d['kernels']} "
          f"take {1e3 * d['calibration_s_median']:.3g} ms here, "
          f"{1e3 * CAL_REF_S * len(d['kernels']):g} ms at reference speed")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    tail = d["job_ms_tail"]
    if tail:
        print(f"  job_ms_tail: p{tail['percentile']} = {tail['value']:.6g} ms "
              f"over {tail['jobs']} jobs")
    if d["sim_time_per_s"]:
        print(f"  sim_time_per_s: {d['sim_time_per_s']:.6g} model time units per second")
    print(f"  failed_frac: {result['failed']}/{result['attempted']} = "
          f"{d['failed_frac']:.4g}")
    for job, msg in d["failing_jobs"]:
        print(f"  FAILED {job}: {msg}")
    if d["trace"]:
        print("  self time per layer per round: " + ", ".join(
            f"{k} {v:.4g} ms" for k, v in d["layer_self_ms_per_round"].items()))
        if d["tracing_overhead"] is not None:
            print(f"  tracing overhead: {100 * d['tracing_overhead']:+.2f} % "
                  "(traced against untraced job time)")


def selfcheck(workloads):
    """Tiny sizes: every workload, both modes, twice with one seed."""
    ok = True
    for workload in workloads:
        for trace in (0, 1):
            runs = [run_once(workload, 7, 0.5, trace, tiny=True, write=False)
                    for _ in range(2)]
            (res, det), (res2, det2) = runs
            same = det["fingerprints"] == det2["fingerprints"]
            if trace:
                counts = [{k: r["metrics"][k]["value"] for k in
                           (*ROUND_COUNTS, "spectral.tensor_nnz_frac")}
                          for r, _ in runs]
                same = same and counts[0] == counts[1]
            good = res["correct"] and res2["correct"] and same
            ok = ok and good
            print(f"selfcheck {workload:9s} trace {trace}: "
                  f"{'PASS' if good else 'FAIL'}  (attempted {res['attempted']}, "
                  f"failed {res['failed']}, repeat identical {same})")
    return 0 if ok else 1
