"""Pieces shared by the three workloads: job outcomes, hashing, probes."""

import hashlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from fpualt import linalg
from fpualt.dynamics import acceleration_function

# Per-call metrics of the analysis pipeline are reported per band of p.
# p=47 is its own band: it is the ensemble system and the structure
# workload's median job.
P_BANDS = (("p3-45", 3, 45), ("p47", 47, 47), ("p51-99", 51, 99))


# Reported times are scaled to a reference speed.  The shared 2-core
# sandbox changes its CPU speed by up to 2x within seconds, and different
# kinds of work slow down by different amounts: small-array numpy calls
# the most, a dense einsum or plain interpreter arithmetic about half as
# much (log-log slope 0.4-0.45 against the former).  So each workload
# names kernels that do the same kinds of work as its own hot path, a
# kernel named twice weighing twice; the runner times them before and
# after every job, and each job time is multiplied by
# CAL_REF_S * len(kernels) / (mean kernel time around it).  Every kernel
# takes about CAL_REF_S in the sandbox's usual state.
CAL_REF_S = 0.004


class Calibrator:
    """Times a fixed set of kernels; see the comment above."""

    def __init__(self, kernels):
        self.kernels = [getattr(self, f"_{name}") for name in kernels]
        self.ref_s = CAL_REF_S * len(kernels)
        rng = np.random.default_rng(0)
        self.tensor = rng.normal(size=(46, 46, 46))
        self.vector = rng.normal(size=46)

    def measure(self):
        t0 = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        return time.perf_counter() - t0

    def _small_numpy(self):
        """Small-array numpy calls, as in the integrator and Jacobi steps."""
        x = np.arange(8.0)
        s = 0.0
        for _ in range(1500):
            s += float((x * 1.0001).sum())

    def _python(self):
        """Interpreter arithmetic, as in parsing, formatting and bookkeeping."""
        s = 0
        for i in range(60000):
            s += i * i

    def _einsum(self):
        """The dense contraction of the p=47 quasi-harmonic RHS."""
        for _ in range(40):
            np.einsum("ijk,j,k->i", self.tensor, self.vector, self.vector)


@dataclass
class Outcome:
    """Result of one job, as the runner checks and aggregates it.

    ``failures`` holds one message per failed check.  ``wrong`` is set
    when a check found a wrong result (a bad value, a wrong exit code, a
    mismatch between runs), as opposed to the program refusing the job
    with an error of its own.  ``fingerprint`` must repeat exactly for
    the same job and seed.  ``extra`` carries objects for the traced
    run's probes and is never compared.  ``scale`` converts the measured
    ``seconds`` to reference-speed seconds; the runner sets it.
    """

    seconds: float
    fingerprint: tuple
    failures: list = field(default_factory=list)
    wrong: bool = False
    counts: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    scale: float = 1.0

    @property
    def ref_seconds(self):
        return self.seconds * self.scale

    def fail(self, message, wrong=True):
        self.failures.append(message)
        self.wrong = self.wrong or wrong


def digest(*arrays):
    """Short SHA-256 of the raw bytes of arrays or byte strings."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def is_prime(n):
    return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))


def us_per_call(fn, args, min_calls=256, batches=3):
    """Median over batches of the mean time of ``fn(*a)`` for a in args."""
    reps = max(1, -(-min_calls // len(args)))
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            for a in args:
                fn(*a)
        times.append((time.perf_counter() - t0) / (reps * len(args)))
    return 1e6 * statistics.median(times)


def sample_states(states, n=32):
    """At most n rows of a trajectory, evenly spaced, for probes."""
    idx = np.unique(np.linspace(0, len(states) - 1, min(n, len(states))).astype(int))
    return [states[i].copy() for i in idx]


def probe_integrator_rhs(system, states):
    """µs per call of the acceleration map the integrator evaluates."""
    accel = acceleration_function(system)
    d = states[0].size // 2
    return us_per_call(accel, [(y[:d],) for y in states])


def probe_jacobi(tracer, red):
    """Time linalg.jacobi_eigh on the mass-weighted stiffness of ``red``."""
    dm = 1.0 / np.sqrt(red.masses)
    s = dm[:, None] * red.stiffness * dm[None, :]
    with tracer.span("linalg.jacobi_eigh", p=red.p, probe=True):
        linalg.jacobi_eigh(s)
