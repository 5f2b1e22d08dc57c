"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Three criteria compare with published values that the exact systems do
not reproduce as printed.  Each test asserts what the exact system
gives, by the rules below, and prints the measured evidence:

* printed precision (criterion 3): a published value is correct if it
  lies within half a unit of its last printed digit, so "2.00504" is
  compared within 5e-6 and "0.0149623" within 5e-8 (criteria 1 and 4
  use 5e-6 for six-figure values on the same rule).  The exact optical
  eigenvalue 1.01 + sqrt(0.9901) = 2.0050376877 is 2.31e-6 from
  "2.00504", which that rule accepts and a 1e-6 bound could not; the
  computed eigenvalues are held to the closed form at 1e-12 instead;
* Bezout completeness (criterion 8): the p=5 static equations are four
  quadratics with integer coefficients, so they have at most 2^4 = 16
  isolated roots.  Newton finds 16 distinct real ones, each with
  residual <= 1e-12, so the set is complete.  Two of the four published
  points, (2,-1,1,-2) and (2,-1,1,3), are among them; the other two,
  (3,-1,1,-1) and (3,-1,1,3), have exact static residuals (0,-6,-4,0)
  and (0,-6,0,0) and must be refused as non-equilibria;
* cartoon evidence (criterion 10d): along xdd + 0.01 x = x y,
  ydd + y = x^2 / 2 from x = y = 0.1 the slow action E1 ranges over
  [0.48, 3.01] E1(0) on the 1-unit samples to t = 1000.  An independent
  scipy DOP853 run at rtol 1e-12 gives the same peak to 1e-9 relative
  (test_dynamics.py checks it to 1e-6), and its peak barely moves over a run 20
  times longer (3.018x to t = 20000), so E1 is bounded and does not
  grow.  Bounded means a peak below 10 E1(0), the growth that the forced
  cartoon must reach (it reaches about 300x).
"""

import math

import numpy as np
import pytest

from fpualt import (ChainParams, FullState, IntegratorConfig, build_chain,
                    build_reduced, cartoon_system, check_invariance,
                    classify_equilibrium,
                    cycle_decomposition, embed_chain, embed_state,
                    enumerate_invariant_candidates, eval_accel_reduced,
                    excitation_digraph, extract_subsystem, find_equilibria,
                    first_order_response, integrate, jan_check,
                    linear_spectrum_full, load_reference, mode_actions,
                    scaling_equivalence, square_map, to_quasi_harmonic)
from fpualt.coupling import map_to_reference_frame
from fpualt.spectral import all_pair_eigenvalues

from conftest import BOUNDED_SCENARIOS


def half_unit(printed):
    """Half a unit of the last printed digit of a published decimal."""
    return 0.5 * 10.0 ** -len(printed.partition(".")[2])


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def test_criterion_01_spectrum_n6():
    spec = linear_spectrum_full(build_chain(ChainParams(3, 0.01, 1.0)))
    expected = np.array([2.02, 2.00504, 2.00504, 0.0149623, 0.0149623, 0.0])
    dev = np.abs(spec - expected).max()
    assert report("1 (N=6 spectrum)", dev <= 5e-6, f"max deviation {dev:.2e}")


def test_criterion_02_pair_eigenvalues(systems):
    worst_match = worst_sum = 0.0
    for p, (_, basis, _) in systems.items():
        worst_match = max(worst_match,
                          np.abs(basis.lambdas - all_pair_eigenvalues(0.01, p)).max())
        sums = basis.lambdas[0::2] + basis.lambdas[1::2]
        worst_sum = max(worst_sum, np.abs(sums - 2.02).max())
    ok = worst_match <= 1e-12 and worst_sum <= 1e-12
    assert report("2 (pair eigenvalues, odd p <= 47)", ok,
                  f"closed-form dev {worst_match:.2e}, pair-sum dev {worst_sum:.2e}")


def test_criterion_03_p3_scaling(systems):
    fit = scaling_equivalence(systems[3][2], load_reference("p3_full"))
    lam = systems[3][2].lambdas
    closed_dev = float(np.abs(lam - all_pair_eigenvalues(0.01, 3)).max())
    published = ("0.0149623", "2.00504")
    printed = [(s, abs(l - float(s)), half_unit(s)) for l, s in zip(lam, published)]
    ok = (fit.residual <= 1e-6 and closed_dev <= 1e-12
          and all(dev <= tol for _, dev, tol in printed))
    assert report(
        "3 (p=3 vs reference table)", ok,
        f"residual {fit.residual:.2e} (<= 1e-6: {fit.residual <= 1e-6}); "
        f"closed-form lambda dev {closed_dev:.2e} (<= 1e-12); exact "
        f"eigenvalues {lam[0]:.10f}, {lam[1]:.10f}; published "
        + ", ".join(f"{s} off by {dev:.3e} (half last digit {tol:.0e})"
                    for s, dev, tol in printed))


def test_criterion_04_p5_p9_scaling(systems):
    fit5 = scaling_equivalence(systems[5][2], load_reference("p5_full"))
    fit9 = scaling_equivalence(systems[9][2], load_reference("p9_full"))
    published9 = np.sort([0.019391, 2.00061, 0.0149623, 2.00504,
                          0.00821511, 2.01178, 0.00231905, 2.01768])
    lam_dev = np.abs(np.sort(systems[9][2].lambdas) - published9).max()
    ok = fit5.residual <= 1e-2 and fit9.residual <= 1e-2 and lam_dev <= 5e-6
    assert report("4 (p=5/p=9 vs reference tables)", ok,
                  f"residuals {fit5.residual:.2e}/{fit9.residual:.2e}, "
                  f"lambda set dev {lam_dev:.2e}")


def test_criterion_05_square_pattern(systems):
    for p, (_, _, qh) in systems.items():
        sq = square_map(qh)                       # raises on violation
        assert all(ok for (_, _, ok) in jan_check(p, sq.rho).values()), p
    edges = dict(excitation_digraph(square_map(systems[9][2])))
    cycle = [1]
    while edges[cycle[-1]] != cycle[0]:
        cycle.append(edges[cycle[-1]])
    six_cycle_ok = len(cycle) == 6 and set(cycle) == {1, 4, 7, 2, 3, 8}
    two_cycle_ok = edges[5] == 6 and edges[6] == 5
    ok = six_cycle_ok and two_cycle_ok
    assert report("5 (forcing squares + permutation formula)", ok,
                  f"all odd p <= 47 unique; p=9 digraph 6-cycle {cycle} "
                  f"plus 2-cycle (5 6)")


def test_criterion_06_invariant_manifolds(systems):
    expected = {9: [2], 15: [2, 4], 27: [2, 8], 45: [2, 4, 8, 14]}
    details = []
    ok = True
    for p, sizes in expected.items():
        inv = [c for c in enumerate_invariant_candidates(systems[p][2])
               if c.invariant]
        got = sorted(c.n_kept for c in inv)
        ok &= got == sizes
        details.append(f"p={p}: {got}")
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        inv = [c for c in enumerate_invariant_candidates(systems[p][2])
               if c.invariant]
        ok &= not inv
    kept = {c.n_kept: set(c.kept_modes)
            for c in enumerate_invariant_candidates(systems[45][2])
            if c.invariant}
    containments_ok = (kept[2] < kept[8] and kept[2] < kept[14]
                       and kept[4] < kept[14] and not kept[8] <= kept[14])
    kept27 = {c.n_kept: set(c.kept_modes)
              for c in enumerate_invariant_candidates(systems[27][2])
              if c.invariant}
    containments_ok &= kept27[2] < kept27[8]
    ok &= containments_ok
    assert report("6 (invariant manifold census)", ok,
                  "; ".join(details) + "; primes 5..47 none; "
                  f"containments {'ok' if containments_ok else 'WRONG'}")


def test_criterion_07_embedding(systems, rng):
    sub = extract_subsystem(systems[9][2], (5, 6))
    fit = scaling_equivalence(sub, systems[3][2])
    small = build_chain(ChainParams(2, 0.01, 1.0))
    big = embed_chain(small, 2)
    st = FullState(rng.uniform(-0.1, 0.1, 4), rng.uniform(-0.01, 0.01, 4))
    cfg = IntegratorConfig(t_end=100.0, sample_dt=5.0)
    tr_small = integrate(small, st, cfg)
    tr_big = integrate(big, embed_state(st, 2), cfg)
    restricted = np.concatenate([tr_big.states[:, 0:4], tr_big.states[:, 8:12]],
                                axis=1)
    emb_dev = np.abs(restricted - tr_small.states).max()
    ok = fit.residual <= 1e-8 and emb_dev <= 1e-6
    assert report("7 (embedding)", ok,
                  f"subsystem fit residual {fit.residual:.2e}, "
                  f"trajectory restriction dev {emb_dev:.2e}")


def test_criterion_08_equilibria(systems):
    red3, _, _ = systems[3]
    reports3 = find_equilibria(red3)
    pts3 = {tuple(np.round(r.point, 8)): r for r in reports3}
    ok3 = set(pts3) == {(0.0, 0.0), (1.0, 2.0), (1.0, -1.0), (-2.0, -1.0)}
    expected_eigs = {(1.0, 2.0): (2.4525, 0.1223),
                     (1.0, -1.0): (0.5477, 0.5477),
                     (-2.0, -1.0): (0.5758, 0.5211)}
    for pt, (omega, sigma) in expected_eigs.items():
        r = pts3[pt]
        w = max(abs(z.imag) for z in r.eigenvalues)
        s = max(abs(z.real) for z in r.eigenvalues)
        ok3 &= abs(w - omega) <= 1e-3 and abs(s - sigma) <= 1e-3

    red5, _, _ = systems[5]
    reports5 = find_equilibria(red5)
    pts5 = {tuple(np.round(r.point, 8)) for r in reports5}
    worst5 = max(r.residual for r in reports5)
    published = ((2.0, -1.0, 1.0, -2.0), (2.0, -1.0, 1.0, 3.0))
    ok5 = (len(reports5) == 16 and worst5 <= 1e-12
           and (0.0, 0.0, 0.0, 0.0) in pts5 and all(pt in pts5 for pt in published))
    misprinted = ((3.0, -1.0, 1.0, -1.0), (3.0, -1.0, 1.0, 3.0))
    refusals = []
    for pt in misprinted:
        try:
            classify_equilibrium(red5, np.array(pt))
        except ValueError as exc:
            refusals.append((pt, "not an equilibrium" in str(exc), str(exc)))
        else:
            refusals.append((pt, False, "accepted as an equilibrium"))
    ok5 &= all(refused for _, refused, _ in refusals)
    detail = (f"p=3 complete set with matching eigenvalues: {ok3}; "
              f"p=5 {len(reports5)} equilibria (Bezout bound 16), worst "
              f"residual {worst5:.1e}, origin and published {published} "
              f"present: {ok5}")
    detail += "".join(f"; misprinted {pt}: {msg}" for pt, _, msg in refusals)
    assert report("8 (equilibria)", ok3 and ok5, detail)


def test_criterion_09_first_order_response():
    ref = load_reference("p3_full")
    resp = first_order_response(ref, driven=1, driver=2, amplitude=0.2)
    tr = integrate(ref, np.array([0.0, 0.2, 0.0, 0.0]),
                   IntegratorConfig(t_end=200.0))
    dev = np.abs(resp(tr.times) - tr.positions()[:, 0]).max()
    assert report("9 (first-order response)", dev <= 0.03,
                  f"max |closed form - integration| = {dev:.4f} over 200 units")


def test_criterion_10_interaction_dynamics(systems, scenario_results):
    # (a) symmetric-manifold instability in the 6-particle chain
    tr_a = scenario_results["fig_p3_unstable"].trajectory
    max_q3 = float(np.abs(tr_a.positions()[:, 2]).max())
    ok_a = max_q3 >= 5e-3

    # (b) optical start excites the acoustic mode (reference frame)
    qh5 = systems[5][2]
    fit5 = scaling_equivalence(qh5, load_reference("p5_full"))
    tr_b = scenario_results["fig_p5_forcing"].trajectory
    x_ref_b = map_to_reference_frame(fit5, tr_b.positions())
    max_x1 = float(np.abs(x_ref_b[:, 0]).max())
    ok_b = max_x1 >= 1e-2

    # (c) reverse excitation of the optical modes
    tr_c = scenario_results["fig_p5_reverse"].trajectory
    x_ref_c = map_to_reference_frame(fit5, tr_c.positions())
    max_x2 = float(np.abs(x_ref_c[:, 1]).max())
    max_x4 = float(np.abs(x_ref_c[:, 3]).max())
    ok_c = max_x2 >= 1e-3 and max_x4 >= 1e-3

    # (d) cartoons: bounded action vs strong forcing
    e1_bounded = mode_actions(cartoon_system(1),
                              scenario_results["cartoon_bounded"].trajectory
                              ).actions[:, 0]
    e1_forced = mode_actions(cartoon_system(2),
                             scenario_results["cartoon_forced"].trajectory
                             ).actions[:, 0]
    ok_d1 = float(e1_bounded.max()) < 10.0 * e1_bounded[0]
    ok_d2 = float(e1_forced.max()) >= 10.0 * e1_forced[0]

    detail = (f"(a) max|q3| = {max_q3:.3e} >= 5e-3: {ok_a}; "
              f"(b) max|x1|_ref = {max_x1:.3e} >= 1e-2: {ok_b}; "
              f"(c) max|x2|,|x4|_ref = {max_x2:.2e},{max_x4:.2e} >= 1e-3: {ok_c}; "
              f"(d) cartoon-1 action range [{e1_bounded.min() / e1_bounded[0]:.2f}, "
              f"{e1_bounded.max() / e1_bounded[0]:.2f}]x < 10x: {ok_d1}, "
              f"cartoon-2 growth {e1_forced.max() / e1_forced[0]:.0f}x >= 10x: {ok_d2}")
    assert report("10 (interaction dynamics)", ok_a and ok_b and ok_c and ok_d1 and ok_d2,
                  detail)


def test_criterion_11_numerical_hygiene(scenario_results):
    details = []
    ok = True
    for name in BOUNDED_SCENARIOS:
        res = scenario_results[name]
        drift = res.manifest["energy_drift"]
        ok &= res.trajectory.ok and drift is not None and drift <= 1e-8

        scen = res.scenario
        from fpualt.scenarios import _build_system, _resolve_initial
        system = _build_system(scen)
        y0, _ = _resolve_initial(scen, system)
        t_rev = min(scen.t_end, 100.0)
        cfg = IntegratorConfig(t_end=t_rev, abs_tol=scen.abs_tol,
                               rel_tol=scen.rel_tol, sample_dt=t_rev)
        fwd = integrate(system, y0, cfg)
        d = fwd.dof
        yf = fwd.final_state()
        back = integrate(system, np.concatenate([yf[:d], -yf[d:]]), cfg)
        yb = back.final_state()
        rev = max(np.abs(yb[:d] - y0[:d]).max(), np.abs(yb[d:] + y0[d:]).max())
        ok &= rev <= 1e-6
        details.append(f"{name}: drift {drift:.1e}, reversal {rev:.1e}")
    assert report("11 (numerical hygiene)", ok, "; ".join(details))
