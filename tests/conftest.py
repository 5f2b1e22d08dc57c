import itertools
from pathlib import Path

import numpy as np
import pytest

from fpualt import (build_reduced, check_invariance, cycle_decomposition,
                    eigendecompose, run_scenario, square_map,
                    to_quasi_harmonic)

REPO = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO / "scenarios"

SWEEP_A = 0.01
ODD_P = tuple(range(3, 49, 2))


@pytest.fixture(scope="session")
def systems():
    """Reduced system, modal basis and quasi-harmonic form for all odd p <= 47."""
    out = {}
    for p in ODD_P:
        red = build_reduced(p, SWEEP_A, 1.0)
        basis = eigendecompose(red)
        out[p] = (red, basis, to_quasi_harmonic(red, basis))
    return out


BOUNDED_SCENARIOS = ("fig_p3_unstable", "fig_p3_forcing", "fig_p3_center",
                     "fig_p5_forcing", "fig_p5_reverse", "cartoon_bounded",
                     "cartoon_forced")
DIVERGENT_SCENARIOS = ("fig_p3_divergent",)


@pytest.fixture(scope="session")
def scenario_results(tmp_path_factory):
    """Run every shipped scenario once; results shared across test modules."""
    out_dir = tmp_path_factory.mktemp("scenario_runs")
    results = {}
    for name in BOUNDED_SCENARIOS + DIVERGENT_SCENARIOS:
        results[name] = run_scenario(SCENARIO_DIR / f"{name}.scn", out_dir / name)
    return results


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)


def brute_force_candidates(qh):
    """check_invariance on every union of cycles of rho, in report order.

    The reference for ``enumerate_invariant_candidates``, which reads the
    same verdicts from the cycle coupling table and must reproduce these
    field for field: the same candidates in the same order, with
    max_violation and worst_entry bitwise (dataclass equality compares
    the floats with ==, and a magnitude is never -0.0).
    """
    cycles = cycle_decomposition(square_map(qh).rho).cycles
    out = []
    for r in range(1, len(cycles)):
        for combo in itertools.combinations(cycles, r):
            out.append(check_invariance(
                qh, {m for cycle in combo for i in cycle for m in (2 * i - 1, 2 * i)}))
    out.sort(key=lambda c: (len(c.frozen_modes), sorted(c.frozen_modes)))
    return out
