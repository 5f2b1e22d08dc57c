import itertools
from pathlib import Path

import numpy as np
import pytest

from fpualt import (InvariantCandidate, ModeLabel, QuasiHarmonicSystem,
                    build_reduced, check_invariance, cycle_decomposition,
                    eigendecompose, run_scenario, square_map, to_quasi_harmonic)

REPO = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO / "scenarios"

SWEEP_A = 0.01
ODD_P = tuple(range(3, 49, 2))

# One Hypothesis profile for every property test: reproducible examples,
# no example database and no per-example deadline, so that a test sets
# only its ``max_examples``.  Tier-1 still collects without Hypothesis.
try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("fpualt", derandomize=True, database=None,
                              deadline=None)
    settings.load_profile("fpualt")


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

    The reference for ``table_oracle``, which must reproduce these field
    for field: the same candidates in the same order, with max_violation
    and worst_entry bitwise (dataclass equality compares the floats with
    ==, and a magnitude is never -0.0).  ``enumerate_invariant_candidates``
    must reproduce the invariant ones.
    """
    cycles = cycle_decomposition(square_map(qh).rho).cycles
    out = []
    for r in range(1, len(cycles)):
        for combo in itertools.combinations(cycles, r):
            out.append(check_invariance(
                qh, {m for cycle in combo for i in cycle for m in (2 * i - 1, 2 * i)}))
    out.sort(key=lambda c: (len(c.frozen_modes), sorted(c.frozen_modes)))
    return out


def non_permutation_table():
    """A p = 5 table whose four squares all sit in equations 1 and 2."""
    i, j = [0, 1] * 4, [0, 0, 1, 1, 2, 2, 3, 3]
    labels = tuple(ModeLabel(kind, pair) for pair in (1, 2)
                   for kind in ("acoustic", "optical"))
    return QuasiHarmonicSystem(lambdas=[0.01, 2.0, 0.02, 2.1], labels=labels,
                               alpha=1.0, a=0.01, p=5,
                               monomials=[np.array(i), np.array(j), np.array(j),
                                          np.full(8, 0.5)])


# The cycle coupling table enumerator that listed every union of cycles
# of rho with its verdict, kept verbatim as an oracle for
# ``enumerate_invariant_candidates``, whose list must equal the invariant
# entries of ``table_oracle``.


def _verdict(sys, frozen, kept, max_violation, worst_flat):
    """The InvariantCandidate for V(Y) from its largest violation.

    ``worst_flat`` is the flat tensor index of the first (i, j, k) that
    reaches ``max_violation``; it is ignored when the violation is 0.
    """
    worst = None
    if max_violation > 0.0:
        i, jk = divmod(int(worst_flat), sys.dof ** 2)
        j, k = sorted(divmod(jk, sys.dof))
        m = sys.monomials
        at = (m.i == i) & (m.j == j) & (m.k == k)
        worst = (i + 1, j + 1, k + 1, float(m.coeff[at].sum()))
    return InvariantCandidate(frozen_modes=frozen, kept_modes=kept,
                              invariant=max_violation == 0.0,
                              max_violation=max_violation, worst_entry=worst)


def _cycle_table(sys: QuasiHarmonicSystem, cycle_of):
    """The cycle coupling table, from one pass over the tensor's nonzeros.

    ``cycle_of[m]`` is the cycle of 0-based mode m.  Entry [A, B, C] of
    the first (c, c, c) array is the largest monomial magnitude |B_ijk|
    (twice that for j != k) over the equations i of the modes of cycle A
    and the modes j, k of cycles B and C; the second array holds the
    flat tensor index of the lexicographically first (i, j, k) reaching
    it.  Blocks without a nonzero entry hold 0 and the tensor size.
    """
    c = int(cycle_of.max()) + 1
    dense = dense_bilinear(sys)
    b = dense.ravel()
    flat = np.flatnonzero(b)
    i, j, k = np.unravel_index(flat, dense.shape)
    mags = np.abs(b[flat]) * np.where(j == k, 1.0, 2.0)
    block = (cycle_of[i] * c + cycle_of[j]) * c + cycle_of[k]
    largest = np.zeros(c ** 3)
    np.maximum.at(largest, block, mags)
    at_max = mags == largest[block]
    first = np.full(c ** 3, b.size)
    np.minimum.at(first, block[at_max], flat[at_max])
    return largest.reshape(c, c, c), first.reshape(c, c, c)


def table_oracle(sys: QuasiHarmonicSystem):
    """Test every pair-structured Y formed as a union of cycles of rho.

    Returns the full list of candidates (nonempty, proper) with their
    verdicts, ordered by the size of Y and then by its sorted modes;
    callers filter on ``invariant``.  Each verdict is read from the cycle
    coupling table and equals what :func:`check_invariance` gives for
    the same Y, which also tests arbitrary non-pair Y.
    """
    cycles = cycle_decomposition(square_map(sys).rho).cycles
    c = len(cycles)
    if c < 2:
        return []
    cycle_of = np.empty(sys.dof, dtype=np.intp)
    for n, cycle in enumerate(cycles):
        for i in cycle:
            cycle_of[[2 * i - 2, 2 * i - 1]] = n
    largest, first = _cycle_table(sys, cycle_of)
    keyed = []
    for r in range(1, c):
        # all unions freezing r cycles at once: (frozen, kept, kept) blocks
        combos = np.array(list(itertools.combinations(range(c), r)))
        n = len(combos)
        is_frozen = np.zeros((n, c), dtype=bool)
        is_frozen[np.arange(n)[:, None], combos] = True
        rests = np.nonzero(~is_frozen)[1].reshape(n, c - r)
        block = (combos[:, :, None, None], rests[:, None, :, None],
                 rests[:, None, None, :])
        violations = largest[block].reshape(n, -1)
        max_violation = violations.max(axis=1)
        at_max = violations == max_violation[:, None]
        worst_flat = np.where(at_max, first[block].reshape(n, -1),
                              sys.dof ** 3).min(axis=1)
        frozen_mode = is_frozen[:, cycle_of]
        frozen = _split_rows(frozen_mode)
        kept = _split_rows(~frozen_mode)
        for u in range(n):
            keyed.append(((len(frozen[u]), frozen[u]), _verdict(
                sys, frozenset(frozen[u]), tuple(kept[u]),
                float(max_violation[u]), worst_flat[u])))
    keyed.sort(key=lambda item: item[0])
    return [cand for _, cand in keyed]


def _split_rows(mask):
    """The 1-based column indices of the True entries of each row, as lists."""
    rows, cols = np.nonzero(mask)
    ends = np.cumsum(np.bincount(rows, minlength=len(mask))).tolist()
    cols = (cols + 1).tolist()
    return [cols[start:end] for start, end in zip([0] + ends[:-1], ends)]


# The dense coupling build that the closed-form monomial list replaced,
# kept as an oracle for ``QuasiHarmonicSystem.monomials``: one GEMM
# F (G x G), symmetrisation, the cutoff at 1e-12 of the largest entry
# that the build then applied, and the selection-rule mask over all d^3
# entries.


def selection_rule(pairs, p: int) -> np.ndarray:
    """Boolean mask of the entries (i, j, k) a sine-mode basis allows.

    ``pairs`` holds the 1-based pair index of every mode.  An entry can
    be nonzero only if its pair indices I, J, K satisfy I + J + K = p or
    one of them is the sum of the other two; every other entry of the
    coupling tensor vanishes identically.
    """
    i, j, k = np.ix_(pairs, pairs, pairs)
    return (i + j + k == p) | (i == j + k) | (j == i + k) | (k == i + j)


def dense_gemm(sys, basis):
    """The symmetrised dense GEMM F (G x G) of the dense build, before its
    cutoff and mask."""
    g = sys.bonds @ basis.t
    f = -(basis.t_inv * (1.0 / sys.masses)[None, :]) @ sys.bonds.T
    p, d = g.shape
    b = (f @ (g[:, :, None] * g[:, None, :]).reshape(p, d * d)).reshape(d, d, d)
    return 0.5 * (b + b.transpose(0, 2, 1))


def dense_tensor_oracle(sys, basis=None):
    """The dense (d, d, d) coupling tensor of ``to_quasi_harmonic(sys, basis)``
    as the dense build computed it."""
    if basis is None:
        basis = eigendecompose(sys)
    b = dense_gemm(sys, basis)
    cutoff = 1e-12 * np.abs(b).max()
    b[(np.abs(b) < cutoff) | ~selection_rule([lab.pair for lab in basis.labels], sys.p)] = 0.0
    return b


def dense_bilinear(sys):
    """The dense (d, d, d) tensor B of ``sys`` with C(x, x)_i = x . B_i . x,
    scattered from its monomial list on its own: each square's coefficient
    at (i, j, j), half of each cross coefficient at (i, j, k) and (i, k, j)."""
    i, j, k, coeff = sys.monomials
    b = np.zeros((sys.dof,) * 3)
    half = np.where(j == k, coeff, 0.5 * coeff)
    b[i, j, k] = half
    b[i, k, j] = half
    return b


def tensor_monomials(b):
    """The 0-based (i, j, k, coeff) list of a dense (d, d, d) tensor, read
    from the nonzeros of its j <= k half: coeff is 2 B_ijk for j < k and
    B_ijj for the squares."""
    i, j, k = np.nonzero(b)
    upper = j <= k
    i, j, k = i[upper], j[upper], k[upper]
    return i, j, k, b[i, j, k] * np.where(j == k, 1.0, 2.0)


def assert_matches_dense_build(p, a):
    """The closed-form list of a built system against the dense build.

    The list holds the entries the selection rule allows; at a = 1, the
    entries the dense build's cutoff keeps, which leaves out those that
    cancel there.  Near a = 1 that cutoff also drops genuine couplings of
    size (a - 1), so it gives the pattern only at a = 1.  The coefficient
    of every allowed entry, an unlisted one counting as 0, is within
    1e-13 of the largest of the dense GEMM's.
    """
    red = build_reduced(p, a, 1.0)
    qh = to_quasi_harmonic(red)
    d = qh.dof
    upper = np.arange(d)[:, None] <= np.arange(d)
    allowed = selection_rule([lab.pair for lab in qh.labels], p) & upper
    pattern = allowed
    if a == 1.0:
        pattern = (dense_tensor_oracle(red, qh.basis) != 0.0) & upper
    got = qh.monomials
    for column, want in zip(got[:3], np.nonzero(pattern)):
        assert np.array_equal(column, want)
    i, j, k = np.nonzero(allowed)
    want = dense_gemm(red, qh.basis)[i, j, k] * np.where(j == k, 1.0, 2.0)
    keys = (i * d + j) * d + k
    coeff = np.zeros(keys.size)
    coeff[np.searchsorted(keys, (got.i * d + got.j) * d + got.k)] = got.coeff
    assert np.abs(coeff - want).max() <= 1e-13 * np.abs(want).max()


# The dense-tensor contraction that every quasi-harmonic right-hand side
# used before the bond factors F (G x)^2 served all of them, kept as an
# oracle for ``QuasiHarmonicSystem.accel`` and ``jac``.


def einsum_field(sys):
    """(rhs, jac) of ``sys`` by contracting its dense tensor
    (:func:`dense_bilinear`)."""
    alpha, b, lam = sys.alpha, dense_bilinear(sys), sys.lambdas

    def rhs(x):
        return alpha * np.einsum("ijk,...j,...k->...i", b, x, x) - lam * x

    def jac(x):
        return np.diag(-lam) + 2.0 * alpha * np.einsum("ijk,...k->...ij", b, x)

    return rhs, jac


def assert_field_matches_oracle(sys, x, rtol=1e-13):
    """``sys.accel`` and ``sys.jac`` agree with :func:`einsum_field` at
    the state ``x`` within ``rtol`` of the largest term of the expanded
    sums: sum_b |F_ib| (|G| |x|)_b^2 (or |lambda x|) for the right-hand
    side, 2 |F| diag(|G| |x|) |G| (or lambda) for the Jacobian."""
    rhs, jac = sys.accel, sys.jac
    rhs_t, jac_t = einsum_field(sys)
    abs_f, abs_g = np.abs(sys.f), np.abs(sys.g)
    bonds = abs_g @ np.abs(x)
    scale = max(np.abs(sys.lambdas * x).max(), (abs_f @ bonds ** 2).max())
    assert np.abs(rhs(x) - rhs_t(x)).max() <= rtol * scale
    jscale = max(np.abs(sys.lambdas).max(), (2.0 * (abs_f * bonds) @ abs_g).max())
    assert np.abs(jac(x) - jac_t(x)).max() <= rtol * jscale


# The bitmask GF(2) sign solver of the scaling fit, kept verbatim as an
# oracle for ``coupling._solve_signs_gf2``, the row reduction that
# replaced it: both must give the same solution or both None.


def gf2_signs_oracle(rows, rhs, n):
    """Solve rows . eps = rhs over GF(2); None if inconsistent.

    Free variables (modes untouched by any sign constraint) default to
    zero, i.e. no flip.
    """
    pivots = {}   # column -> (bitmask, parity)
    for row, b in zip(rows, rhs):
        mask = sum(bit << c for c, bit in enumerate(row))
        b = int(b)
        col = 0
        while mask:
            col = (mask & -mask).bit_length() - 1   # lowest set bit
            if col not in pivots:
                break
            pmask, pb = pivots[col]
            mask ^= pmask
            b ^= pb
        if mask:
            pivots[col] = (mask, b)
        elif b:
            return None
    eps = [0] * n
    for col in sorted(pivots, reverse=True):
        mask, b = pivots[col]
        val = b
        rest = mask & ~(1 << col)
        while rest:
            c2 = (rest & -rest).bit_length() - 1
            val ^= eps[c2]
            rest &= rest - 1
        eps[col] = val
    return eps
