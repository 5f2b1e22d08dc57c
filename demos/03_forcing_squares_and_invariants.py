"""The forcing-square pattern, the pair permutation, and invariant sets.

In quasi-harmonic form the squares of each mode pair i appear in exactly
one other pair's equations -- the permutation rho, which matches
min(2i, p - 2i) in every tested case.  Unions of rho's cycles are the
only candidates for invariant sets V(Y); the surviving subsystems are
exactly the embedded smaller chains (divisors of p).
"""

from fpualt import (build_reduced, check_invariance, cycle_decomposition,
                    enumerate_invariant_candidates, excitation_digraph,
                    extract_subsystem, jan_check, scaling_equivalence,
                    square_map, to_quasi_harmonic)

for p in (5, 9, 15, 17, 45):
    qh = to_quasi_harmonic(build_reduced(p, 0.01, 1.0))
    sq = square_map(qh)
    jan = jan_check(p, sq.rho)
    inv = enumerate_invariant_candidates(qh)
    print(f"p = {p}")
    print(f"  rho: {' '.join(f'{i}->{j}' for i, j in sorted(sq.rho.items()))}"
          f"   (min(2i, p-2i) agrees: {all(ok for *_, ok in jan.values())})")
    print(f"  cycles: {cycle_decomposition(sq.rho)}")
    if inv:
        for c in inv:
            print(f"  invariant V(Y): kept modes {list(c.kept_modes)} "
                  f"({c.n_kept} modes)")
    else:
        print("  invariant V(Y): none (expected for prime p)")

# the p=9 excitation loop: squares force across the acoustic/optical split
qh9 = to_quasi_harmonic(build_reduced(9, 0.01, 1.0))
edges = excitation_digraph(square_map(qh9))
print("\np=9 cross-group excitation edges:",
      "  ".join(f"x{a}->x{b}" for a, b in edges))

# the 2-mode subsystem of p=9 is the p=3 system again, up to mode scaling
sub = extract_subsystem(qh9, (5, 6))
fit = scaling_equivalence(sub, to_quasi_harmonic(build_reduced(3, 0.01, 1.0)))
print(f"\nextracted p=9 subsystem vs built p=3 system: fit residual "
      f"{fit.residual:.2e} (identical up to scaling)")

# arbitrary (non-pair) candidate sets can be tested directly
qh5 = to_quasi_harmonic(build_reduced(5, 0.01, 1.0))
cand = check_invariance(qh5, {1, 4})
print(f"\np=5, freeze modes {{1, 4}}: invariant={cand.invariant}, "
      f"largest coupling into the frozen equations {cand.max_violation:.3e}")
