"""Workload ``ensemble``: seeded optical-mode starts of one p=47 system.

The p=47 quasi-harmonic system (46 modes) is built during set-up.  Each
job integrates one initial state with only optical modes excited (the
high -> low forcing experiment) and evaluates its energy drift, in
memory.  The dense p=47 right-hand side is most of the integration
time, so this workload shows RHS changes and is the control for
per-step overhead and the writers, which dominate ``scenarios``.
"""

import time

import numpy as np
from fpualt import (IntegratorConfig, build_reduced, eigendecompose,
                    energy_drift, eval_qh_rhs, integrate, reduced_energy,
                    to_quasi_harmonic)
from fpualt.reduction import ReducedState

from common import (Outcome, digest, probe_integrator_rhs, probe_jacobi,
                    sample_states, us_per_call)
from tracer import NULL_TRACER

P = 47
A = 0.01
AMPLITUDE = (0.05, 0.15)     # largest optical amplitude of a member
DRIFT_LIMIT = 1e-8           # criterion 11


class Ensemble:
    name = "ensemble"
    setup_repeats = 9
    kernels = ("einsum",)                # the jobs are mostly the dense RHS
    setup_kernels = ("small_numpy",)     # set-up is mostly the Jacobi solve
    replays = False

    def __init__(self, root, work, seed, tiny=False):
        self.seed = seed
        self.members = 2 if tiny else 8
        self.t_end = 2.0 if tiny else 40.0

    def setup(self, tracer):
        with tracer.span("reduction.build_reduced", p=P):
            red = build_reduced(P, A, 1.0)
        with tracer.span("spectral.eigendecompose", p=P):
            basis = eigendecompose(red)
        with tracer.span("spectral.to_quasi_harmonic", p=P):
            self.system = to_quasi_harmonic(red, basis)
        rng = np.random.default_rng([self.seed, 2])
        d = self.system.dof
        optical = np.arange(1, d, 2)        # pair order: acoustic, optical
        self.states = []
        for _ in range(self.members):
            x = np.zeros(d)
            x[optical] = rng.uniform(-1.0, 1.0, optical.size)
            x *= rng.uniform(*AMPLITUDE) / np.abs(x).max()
            self.states.append(np.concatenate([x, np.zeros(d)]))
        self.order_rng = np.random.default_rng([self.seed, 3])
        if tracer.enabled:
            probe_jacobi(tracer, red)

    def round_jobs(self, r):
        return [(f"member{i}", i)
                for i in self.order_rng.permutation(self.members)]

    def timed(self, job):
        return self.run(job, NULL_TRACER)

    def run(self, job, tracer):
        qh = self.system
        cfg = IntegratorConfig(t_end=self.t_end)
        t0 = time.perf_counter()
        with tracer.span("dynamics.integrate"):
            tr = integrate(qh, self.states[job], cfg)
        with tracer.span("dynamics.energy_drift"):
            drift = energy_drift(qh, tr)
        seconds = time.perf_counter() - t0
        out = Outcome(
            seconds=seconds,
            fingerprint=(tr.status, tr.n_steps, tr.n_rejected, tr.n_rhs,
                         digest(tr.final_state())),
            counts={"steps": tr.n_steps, "rejected": tr.n_rejected,
                    "rhs_calls": tr.n_rhs, "sim_time": tr.t_reached,
                    "nnz": int(np.count_nonzero(qh.bilinear)),
                    "entries": qh.bilinear.size},
            extra={"trajectory": tr})
        if tr.status != "ok":
            out.fail(f"member {job}: status {tr.status}: {tr.message}")
        if not drift <= DRIFT_LIMIT:
            out.fail(f"member {job}: energy drift {drift:.3e} > {DRIFT_LIMIT:g}")
        return out

    def probe(self, job, out, tracer, sink):
        qh = self.system
        states = sample_states(out.extra["trajectory"].states)
        d = qh.dof
        sink["spectral.qh_rhs_us.p47"].append(
            us_per_call(eval_qh_rhs, [(qh, y[:d]) for y in states]))
        t = qh.basis.t
        sink["reduction.energy_us"].append(us_per_call(
            reduced_energy,
            [(qh.reduced, ReducedState(t @ y[:d], t @ y[d:])) for y in states]))
        out.counts["rhs_est_s"] = (out.counts["rhs_calls"] * 1e-6
                                   * probe_integrator_rhs(qh, states))
