"""Workload ``structure``: per-p coupling analysis, no integration.

Each job builds the reduced system for one odd p at a=0.01, diagonalises
it, forms the quasi-harmonic tensor, analyses its forcing squares and
invariant sets, fits the shipped table where one exists and round-trips
the system file.  Two more jobs run the Newton equilibrium search for
p=3 and p=5.  The cost is the Jacobi solver, the tensor build and the
coupling analysis, so this workload is the control for integrator
changes and the target of an exact modal basis.

The job set is drawn per band of p so that its cost is comparable from
seed to seed.  One p comes from each band below and above two fixed
middle systems of nearly equal cost (p = 45, 47); with the p=3 and p=5
equilibrium jobs on either side, five jobs are cheaper and five dearer
than the middle two, so the median job time is the mean of theirs.  The upper bands
are narrow because the cost grows as p^3 and the Jacobi sweep count
varies between neighbouring p: with bands 51-61 ... 91-99 the drawn p
alone moved the round time by 7 % from seed to seed.  The dearest job,
p=99, is fixed for the same reason.  Every p >= 91 is refused today
with a false square-pattern violation; the p=99 job is counted as
failed, not left out.  p > 99 is left out: p=199 alone took 8 s of a
15-s round, which left two rounds per run and a seed-to-seed spread of
9 % in the round time.
"""

import time

import numpy as np
from fpualt import (PatternViolationError, build_reduced,
                    cycle_decomposition, eigendecompose,
                    enumerate_invariant_candidates, eval_qh_rhs,
                    find_equilibria, jan_check, load_system, reference_for,
                    save_system, scaling_equivalence, square_map,
                    to_quasi_harmonic)

from common import Outcome, digest, is_prime, probe_jacobi
from tracer import NULL_TRACER

A = 0.01
LOW_BANDS = ((3, 9), (11, 19), (21, 29), (31, 39))
MIDDLE_P = (45, 47)
HIGH_BANDS = ((51, 55), (63, 69), (75, 79))
TOP_P = 99
EQUILIBRIA_P = (3, 5)
FIT_RESIDUAL_LIMIT = 1e-2        # criterion 4 bound for the p=5, p=9 tables
EQUILIBRIUM_RESIDUAL_LIMIT = 1e-12

TINY_LOW_BANDS = ((3, 9),)
TINY_MIDDLE_P = (11,)
TINY_TOP_P = 91


class Structure:
    name = "structure"
    setup_repeats = 9
    kernels = ("small_numpy", "small_numpy", "python")
    setup_kernels = kernels
    replays = False

    def __init__(self, root, work, seed, tiny=False):
        self.seed = seed
        self.work = work
        self.tiny = tiny

    def setup(self, tracer):
        rng = np.random.default_rng([self.seed, 4])
        if self.tiny:
            low, mid, high, top, eq = TINY_LOW_BANDS, TINY_MIDDLE_P, (), TINY_TOP_P, (3,)
        else:
            low, mid, high, top, eq = (LOW_BANDS, MIDDLE_P, HIGH_BANDS, TOP_P,
                                       EQUILIBRIA_P)
        ps = [int(rng.choice(np.arange(lo, hi + 1, 2))) for lo, hi in low + high]
        ps += [*mid, top]
        self.jobs = [(f"p{p}", ("analyse", p)) for p in ps]
        self.jobs += [(f"equilibria_p{p}", ("equilibria", p)) for p in eq]
        self.order_rng = np.random.default_rng([self.seed, 5])
        # Warm-up, untraced: one full job on a system with a shipped table.
        self.run(("analyse", 9), NULL_TRACER)

    def round_jobs(self, r):
        return [self.jobs[i] for i in self.order_rng.permutation(len(self.jobs))]

    def timed(self, job):
        return self.run(job, NULL_TRACER)

    def _build(self, p, tracer):
        with tracer.span("reduction.build_reduced", p=p):
            red = build_reduced(p, A, 1.0)
        with tracer.span("spectral.eigendecompose", p=p):
            basis = eigendecompose(red)
        with tracer.span("spectral.to_quasi_harmonic", p=p):
            qh = to_quasi_harmonic(red, basis)
        return red, qh

    def run(self, job, tracer):
        kind, p = job
        t0 = time.perf_counter()
        red, qh = self._build(p, tracer)
        out = (self._analyse if kind == "analyse" else self._equilibria)(p, qh, tracer)
        out.seconds = time.perf_counter() - t0
        out.extra["reduced"] = red
        return out

    def _analyse(self, p, qh, tracer):
        out = Outcome(seconds=0.0, fingerprint=())
        sums = qh.lambdas[0::2] + qh.lambdas[1::2]
        worst = float(np.abs(sums - (2.0 + 2.0 * A)).max())
        if worst > 1e-12:
            out.fail(f"p={p}: pair sums differ from 2+2a by {worst:.3e}")
        n_cand = 0
        try:
            with tracer.span("coupling.square_map", p=p):
                sq = square_map(qh)
        except PatternViolationError as exc:
            verdict = "violation"
            out.fail(f"p={p}: square pattern violated: {exc}", wrong=False)
        else:
            with tracer.span("coupling.jan_check", p=p):
                jc = jan_check(p, sq.rho)
            bad = [i for i, v in jc.items() if not v[2]]
            if bad:
                out.fail(f"p={p}: rho disagrees with min(2i, p-2i) at {bad}")
            with tracer.span("coupling.cycle_decomposition", p=p):
                verdict = str(cycle_decomposition(sq.rho))
            with tracer.span("coupling.enumerate_invariant_candidates", p=p):
                cands = enumerate_invariant_candidates(qh)
            n_cand = len(cands)
            inv = [c.kept_modes for c in cands if c.invariant]
            if is_prime(p) and p >= 5 and inv:
                out.fail(f"p={p}: prime p has invariant sets {inv}")
        with tracer.span("refdata.reference_for", p=p):
            ref = reference_for(p, A)
        if ref is not None and ref.dof == qh.dof:
            with tracer.span("coupling.scaling_equivalence", p=p):
                fit = scaling_equivalence(qh, ref)
            if not fit.residual <= FIT_RESIDUAL_LIMIT:
                out.fail(f"p={p}: scaling fit residual {fit.residual:.3e}")
        path = self.work / f"system_p{p}.txt"
        with tracer.span("spectral.save_system", p=p):
            save_system(qh, path)
        with tracer.span("spectral.load_system", p=p):
            back = load_system(path)
        if not (np.array_equal(back.bilinear, qh.bilinear)
                and np.array_equal(back.lambdas, qh.lambdas)):
            out.fail(f"p={p}: save/load round trip changed the system")
        nnz = int(np.count_nonzero(qh.bilinear))
        out.counts = {"candidates": n_cand, "nnz": nnz,
                      "entries": qh.bilinear.size}
        out.fingerprint = (p, verdict, n_cand, nnz,
                           digest(qh.lambdas, qh.bilinear))
        return out

    def _equilibria(self, p, qh, tracer):
        out = Outcome(seconds=0.0, fingerprint=())
        with tracer.span("dynamics.find_equilibria", p=p):
            reports = find_equilibria(qh)
        if not reports:
            out.fail(f"equilibria p={p}: none found (the origin always is one)")
        for r in reports:
            res = float(np.abs(eval_qh_rhs(qh, r.point)).max())
            if res > EQUILIBRIUM_RESIDUAL_LIMIT:
                out.fail(f"equilibria p={p}: point {r.point} has residual {res:.3e}")
        points = np.array([r.point for r in reports])
        out.fingerprint = ("equilibria", p, len(reports), digest(points))
        return out

    def probe(self, job, out, tracer, sink):
        probe_jacobi(tracer, out.extra["reduced"])
