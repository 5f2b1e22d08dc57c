"""Structure analysis of the quasi-harmonic coupling tensor.

The central observation: for every pair i there is exactly one pair
j = rho(i) such that the squares x_{2i-1}^2 and x_{2i}^2 occur in the
right-hand sides of both equations of pair j and nowhere else.  The
permutation rho obeys rho(i) = min(2i, p - 2i) in every tested case.
Unions of cycles of rho are the only candidates for invariant sets
V(Y) = {x_i = xdot_i = 0 for i in Y}; whether a candidate is actually
invariant depends on the mixed quadratic terms and is decided here
directly from the coupling.  One pass over its monomials gives the cycle
forcing relation, and V(Y) is invariant iff its kept cycles are closed
under it: :func:`enumerate_invariant_candidates` lists just those
closed sets (Ganter's NextClosure), and :func:`check_invariance` is the
mode-level test, with the size and place of a violation, for an
arbitrary Y.

Every step reads the system's monomial list (``sys.monomials``), and a
coefficient is present iff it is listed.  That is exact for systems
built by :func:`fpualt.spectral.to_quasi_harmonic`, whose lists hold
exactly the entries the sine-mode selection rule allows, with no
magnitude cutoff (at the equal-mass a = 1, those of each mode's single
cosine; an a within round-off of 1 is refused), and for tables read
from files, whose absent entries are not printed.

Mode and pair indices in this module's public objects are 1-based,
matching every printed report; array storage stays 0-based.
"""

from dataclasses import dataclass, field

import numpy as np

from .spectral import QuasiHarmonicSystem, _mode_index


class PatternViolationError(RuntimeError):
    """The forcing-square uniqueness pattern failed; the message says how."""


@dataclass(frozen=True)
class SquareMap:
    """Location of the forcing squares of every pair.

    ``rho[i]`` is the unique pair whose two equations contain both
    squares of pair i; the squares themselves are the entries of the
    system's monomial list with j == k.
    """

    rho: dict


@dataclass(frozen=True)
class CycleDecomposition:
    cycles: tuple   # tuples of 1-based pair indices, fixed points included

    def __str__(self):
        return " ".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles)


@dataclass(frozen=True)
class InvariantCandidate:
    """Verdict for a candidate invariant set V(Y), Y = frozen mode indices."""

    frozen_modes: frozenset
    kept_modes: tuple
    invariant: bool
    max_violation: float
    worst_entry: tuple = None    # (i, j, k, coeff) of the largest violation

    @property
    def n_kept(self):
        return len(self.kept_modes)


def _pair_of_mode(m):
    return (m + 1) // 2


def _modes_of_pair(i):
    return (2 * i - 1, 2 * i)


def square_map(sys: QuasiHarmonicSystem) -> SquareMap:
    """Locate every forcing square and extract the pair permutation rho.

    A coefficient counts as present iff it is listed.  Raises
    PatternViolationError when the squares of some pair do not occupy
    exactly the two equations of exactly one pair, or when two pairs
    force one pair, so that rho is not a permutation.
    """
    d = sys.dof
    if d % 2:
        raise ValueError("square analysis needs an even number of modes "
                         f"(built from odd p), got {d}")
    npairs = d // 2

    # the 1-based equations r of the square x_m^2 of each mode m
    m = sys.monomials
    square = m.j == m.k
    present = [set() for _ in range(d)]
    for mode, r in zip(m.j[square].tolist(), (m.i[square] + 1).tolist()):
        present[mode].add(r)

    rho, forced = {}, {}        # forced[j]: the pair whose squares force j
    for i in range(1, npairs + 1):
        eq_sets = present[2 * i - 2:2 * i]
        target_pairs = {_pair_of_mode(r) for r in eq_sets[0] | eq_sets[1]}
        if len(target_pairs) != 1:
            raise PatternViolationError(
                f"squares of pair {i} occur in equations of pairs "
                f"{sorted(target_pairs)} (expected exactly one)")
        j = target_pairs.pop()
        if eq_sets[0] != set(_modes_of_pair(j)) or eq_sets[1] != set(_modes_of_pair(j)):
            raise PatternViolationError(
                f"squares of pair {i} do not fill both equations of pair {j}: "
                f"acoustic square in {sorted(eq_sets[0])}, "
                f"optical square in {sorted(eq_sets[1])}")
        if j in forced:
            raise PatternViolationError(
                f"squares of pairs {forced[j]} and {i} both force pair {j} "
                f"(rho is not a permutation)")
        rho[i], forced[j] = j, i
    return SquareMap(rho=rho)


def jan_check(p: int, rho: dict) -> dict:
    """Compare rho against min(2i, p-2i); disagreement is reported, not raised.

    Returns {i: (rho_i, expected, agree)} for every pair index.
    """
    expected = {i: min(2 * i, p - 2 * i) for i in rho}
    return {i: (j, expected[i], j == expected[i]) for i, j in sorted(rho.items())}


def cycle_decomposition(rho: dict) -> CycleDecomposition:
    """Disjoint cycles of the pair permutation, fixed points included.

    Each cycle starts at its smallest element; cycles are sorted by that
    element.  Raises ValueError if rho is not a permutation.
    """
    keys = sorted(rho)
    if sorted(rho.values()) != keys:
        raise ValueError(f"not a permutation: {rho}")
    seen = set()
    cycles = []
    for start in keys:
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = rho[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = rho[nxt]
        cycles.append(tuple(cyc))
    return CycleDecomposition(cycles=tuple(cycles))


def check_invariance(sys: QuasiHarmonicSystem, frozen_modes) -> InvariantCandidate:
    """Decide whether V(Y) is invariant for an arbitrary mode set Y.

    Y (1-based) is invariant iff no equation of a frozen mode contains a
    quadratic term built purely from kept modes -- mixed terms count.
    A violation reports the largest such monomial magnitude and the
    first (i, j, k) reaching it.
    """
    d = sys.dof
    frozen = frozenset(_mode_index(sys, m, "frozen") for m in frozen_modes)
    if not frozen or not frozen < set(range(1, d + 1)):
        raise ValueError(
            f"Y must be a nonempty proper subset of 1..{d}, got {sorted(frozen)}")
    kept = tuple(m for m in range(1, d + 1) if m not in frozen)
    is_frozen = np.zeros(d, dtype=bool)
    is_frozen[np.array(sorted(frozen)) - 1] = True
    m = sys.monomials
    hits = np.flatnonzero(is_frozen[m.i] & ~is_frozen[m.j] & ~is_frozen[m.k])
    mags = np.abs(m.coeff[hits])
    max_violation = float(mags.max(initial=0.0))
    worst = None
    if max_violation > 0.0:
        n = hits[np.argmax(mags)]
        worst = (int(m.i[n]) + 1, int(m.j[n]) + 1, int(m.k[n]) + 1,
                 float(m.coeff[n]))
    return InvariantCandidate(frozen_modes=frozen, kept_modes=kept,
                              invariant=max_violation == 0.0,
                              max_violation=max_violation, worst_entry=worst)


def _forcing_relation(sys: QuasiHarmonicSystem, cycle_of):
    """The cycle forcing relation, from one pass over the monomial list.

    ``cycle_of[m]`` is the cycle of 0-based mode m.  Entry [C, A, B] of
    the boolean (c, c, c) array, symmetric in A and B, says that cycle C
    is forced by cycles A and B: an equation of a mode of C has a
    nonzero coefficient on the product of a mode of A and a mode of B.
    """
    c = int(cycle_of.max()) + 1
    force = np.zeros((c, c, c), dtype=bool)
    i, j, k = (cycle_of[index] for index in sys.monomials[:3])
    force[i, j, k] = force[i, k, j] = True
    return force


def _closure(force, kept):
    """The least superset of the cycle mask ``kept`` that forces no cycle
    outside itself."""
    while True:
        grown = kept | force[:, kept][:, :, kept].any(axis=(1, 2))
        if (grown == kept).all():
            return kept
        kept = grown


def _closed_sets(force):
    """Every closed cycle mask, in lectic order (Ganter's NextClosure)."""
    c = len(force)
    kept = _closure(force, np.zeros(c, dtype=bool))
    yield kept
    n = c - 1
    while n >= 0:
        if not kept[n]:
            trial = kept.copy()
            trial[n], trial[n + 1:] = True, False
            nxt = _closure(force, trial)
            if (nxt[:n] == kept[:n]).all():
                yield nxt
                kept, n = nxt, c
        n -= 1


def enumerate_invariant_candidates(sys: QuasiHarmonicSystem):
    """The invariant V(Y) among the unions Y of cycles of rho.

    V(Y) is invariant iff its kept cycles K are closed: no two cycles
    of K (one cycle twice included) force a cycle outside K.  The closed
    K are listed with NextClosure over the cycle forcing relation, so
    only the invariant unions are ever built.  Returns one
    InvariantCandidate per nonempty proper Y, with ``invariant`` true,
    ``max_violation`` 0.0 and no ``worst_entry``, ordered by the size of
    Y and then by its sorted modes; each equals what
    :func:`check_invariance` gives for the same Y.  The other unions of
    the 2^c - 2 are not invariant; :func:`check_invariance` reports
    their violations and tests arbitrary non-pair Y.
    """
    return _invariant_unions(sys, cycle_decomposition(square_map(sys).rho).cycles)


def _invariant_unions(sys: QuasiHarmonicSystem, cycles):
    """:func:`enumerate_invariant_candidates` for the cycles of rho."""
    if len(cycles) < 2:
        return []
    cycle_of = np.empty(sys.dof, dtype=np.intp)
    for n, cycle in enumerate(cycles):
        for i in cycle:
            cycle_of[[2 * i - 2, 2 * i - 1]] = n
    found = []
    for closed in _closed_sets(_forcing_relation(sys, cycle_of)):
        kept = closed[cycle_of]
        if kept.any() and not kept.all():
            found.append(InvariantCandidate(
                frozen_modes=frozenset((np.flatnonzero(~kept) + 1).tolist()),
                kept_modes=tuple((np.flatnonzero(kept) + 1).tolist()),
                invariant=True, max_violation=0.0))
    return sorted(found, key=lambda cand: (len(cand.frozen_modes),
                                           sorted(cand.frozen_modes)))


def extract_subsystem(sys: QuasiHarmonicSystem, kept_modes) -> QuasiHarmonicSystem:
    """Restrict the system to ``kept_modes`` (1-based).

    A kept mode that is not an integer in 1..d is refused, naming it.
    The complement must pass :func:`check_invariance`; restriction of a
    non-invariant complement is refused.
    """
    d = sys.dof
    kept = sorted({_mode_index(sys, m, "kept") for m in kept_modes})
    if kept == list(range(1, d + 1)):
        return sys
    frozen = frozenset(range(1, d + 1)) - set(kept)
    cand = check_invariance(sys, frozen)
    if not cand.invariant:
        raise ValueError(
            f"complement of {kept} is not invariant "
            f"(violation {cand.max_violation:.3e} at {cand.worst_entry})")
    idx = np.array(kept) - 1
    renumber = np.full(d, -1)
    renumber[idx] = np.arange(idx.size)
    i, j, k = (renumber[index] for index in sys.monomials[:3])
    inside = (i >= 0) & (j >= 0) & (k >= 0)
    return QuasiHarmonicSystem(
        lambdas=sys.lambdas[idx].copy(),
        monomials=[column[inside] for column in (i, j, k, sys.monomials.coeff)],
        labels=tuple(sys.labels[i] for i in idx),
        alpha=sys.alpha, a=sys.a, p=sys.p,
        name=f"{sys.name}|modes{kept}",
    )


def excitation_digraph(sq: SquareMap):
    """Cross-group forcing edges: mode m -> mode r if x_m^2 drives eq r.

    For each pair i the acoustic square lands in the optical equation of
    pair rho(i) and vice versa, giving the excitation cycles the sweep
    report prints.  Edges are (source_mode, target_mode), 1-based.
    """
    edges = []
    for i, j in sorted(sq.rho.items()):
        ac_i, op_i = _modes_of_pair(i)
        ac_j, op_j = _modes_of_pair(j)
        edges.append((ac_i, op_j))
        edges.append((op_i, ac_j))
    return edges


# ---------------------------------------------------------------------------
# Normalisation-independent comparison of coupling tensors
# ---------------------------------------------------------------------------


@dataclass
class ScalingFit:
    """Result of fitting per-mode scales between two coupling tensors.

    ``scales[i]`` maps mode i+1 of the permuted source system onto the
    reference normalisation; ``sign_flips`` marks modes needing a global
    sign change.  ``residual`` is the weighted RMS log-magnitude
    mismatch over the common entries (weights |C_ref|), a relative
    measure.  ``pattern_mismatches`` lists entries present on one side
    only.
    """

    permutation: tuple        # ref mode slot -> source mode (1-based)
    scales: np.ndarray
    sign_flips: tuple
    residual: float
    max_rel_mismatch: float
    pattern_mismatches: list = field(default_factory=list)
    sign_consistent: bool = True

    @property
    def signed_scales(self):
        """The scales with each flipped mode's sign folded in."""
        s = self.scales.copy()
        s[[m - 1 for m in self.sign_flips]] *= -1.0
        return s


def _solve_signs_gf2(rows, rhs):
    """Solve rows . eps = rhs over GF(2); None if inconsistent.

    Row reduction of the augmented matrix, pivots taken left to right.
    Free variables (modes untouched by any sign constraint) are zero,
    i.e. no flip, so each pivot variable reads its row's parity.
    """
    aug = np.column_stack([rows, rhs]).astype(bool)
    pivots = []
    for col in range(aug.shape[1] - 1):
        rank = len(pivots)
        if rank == len(aug):
            break
        r = rank + int(np.argmax(aug[rank:, col]))
        if not aug[r, col]:
            continue
        aug[[rank, r]] = aug[[r, rank]]
        hit = aug[:, col].copy()
        hit[rank] = False
        aug[hit] ^= aug[rank]
        pivots.append(col)
    if aug[len(pivots):, -1].any():
        return None
    eps = np.zeros(aug.shape[1] - 1, dtype=bool)
    eps[pivots] = aug[:len(pivots), -1]
    return eps


def _monomials_by_slot(sys: QuasiHarmonicSystem, slot):
    """{(i, j, k): coeff} of the system's monomial list, 0-based, with
    each mode m renamed ``slot[m]`` and j <= k restored after it."""
    i, j, k = (slot[index] for index in sys.monomials[:3])
    keys = zip(i.tolist(), np.minimum(j, k).tolist(), np.maximum(j, k).tolist())
    return dict(zip(keys, sys.monomials.coeff.tolist()))


# Relative eigenvalue tolerance for aligning the modes of two systems.
LAMBDA_MATCH_TOL = 1e-4


def scaling_equivalence(source: QuasiHarmonicSystem,
                        ref: QuasiHarmonicSystem) -> ScalingFit:
    """Fit per-mode scale factors mapping ``source`` onto ``ref``.

    Under x_i -> s_i x_i a coupling entry transforms as
    c_{i,jk} -> c_{i,jk} s_j s_k / s_i, so equivalent systems differ by
    a diagonal rescaling of modes.  The modes are first aligned by
    matching eigenvalues (within ``LAMBDA_MATCH_TOL``), signs are resolved
    exactly (allowing one global flip per mode), and log magnitudes are
    fitted by weighted least squares.
    """
    d = source.dof
    if ref.dof != d:
        raise ValueError(f"dimension mismatch: {d} vs {ref.dof}")

    # Permutation aligning source modes with the reference order.
    perm = []
    for lam_ref in ref.lambdas:
        diffs = np.abs(source.lambdas - lam_ref)
        diffs[perm] = np.inf
        cand = int(np.argmin(diffs))
        if diffs[cand] > LAMBDA_MATCH_TOL * max(1.0, abs(lam_ref)):
            raise ValueError(
                f"no source eigenvalue matches reference {ref.name!r} "
                f"eigenvalue {float(lam_ref)!r} within {LAMBDA_MATCH_TOL}")
        perm.append(cand)
    perm0 = np.array(perm)

    src_mono = _monomials_by_slot(source, np.argsort(perm0))
    ref_mono = _monomials_by_slot(ref, np.arange(d))
    common = sorted(src_mono.keys() & ref_mono.keys())
    mismatches = [(i + 1, j + 1, k + 1,
                   "source" if (i, j, k) in src_mono else "reference",
                   src_mono.get((i, j, k), 0.0), ref_mono.get((i, j, k), 0.0))
                  for i, j, k in sorted(src_mono.keys() ^ ref_mono.keys())]
    if not common:
        raise ValueError("no common nonzero tensor entries")
    i, j, k = np.array(common).T
    src_v = np.array([src_mono[key] for key in common])
    ref_v = np.array([ref_mono[key] for key in common])

    # c_{i,jk} -> c_{i,jk} s_j s_k / s_i: log magnitudes obey amat . log s,
    # and the signs eps_i + eps_j + eps_k = parity of disagreement (GF(2)).
    eye = np.eye(d)
    amat = eye[j] + eye[k] - eye[i]
    eps = _solve_signs_gf2(amat % 2, np.sign(ref_v) != np.sign(src_v))
    sign_ok = eps is not None
    flips = tuple((np.flatnonzero(eps) + 1).tolist()) if sign_ok else ()

    # Log-magnitude least squares, weighted by reference magnitude.
    bvec = np.log(np.abs(ref_v)) - np.log(np.abs(src_v))
    wvec = np.abs(ref_v)
    sw = np.sqrt(wvec)
    u, *_ = np.linalg.lstsq(amat * sw[:, None], bvec * sw, rcond=None)
    log_resid = amat @ u - bvec
    residual = float(np.sqrt(np.sum(wvec * log_resid**2) / np.sum(wvec)))
    max_rel = float(np.abs(np.expm1(log_resid)).max())
    if not sign_ok:
        residual = np.inf

    return ScalingFit(
        permutation=tuple(int(x) + 1 for x in perm0),
        scales=np.exp(u),
        sign_flips=flips,
        residual=residual,
        max_rel_mismatch=max_rel,
        pattern_mismatches=mismatches,
        sign_consistent=sign_ok,
    )


def map_reference_state(fit: ScalingFit, *rows):
    """Map each argument, positions, velocities or rows of them (..., d)
    given in the reference normalisation, onto the source system's
    coordinates (source mode order); one array per argument.

    If x_src = P (s * x_ref) with P the fitted alignment, trajectories
    of the source system divided back by the scales reproduce reference
    trajectories.  Sign flips are folded into the scales here.
    """
    order = np.argsort(fit.permutation)       # the ref slot of each source mode
    return tuple((fit.signed_scales * np.asarray(x, dtype=float))[..., order]
                 for x in rows)


def map_to_reference_frame(fit: ScalingFit, x_src_traj):
    """Project source-frame samples (n, d) back to the reference frame."""
    x = np.asarray(x_src_traj, dtype=float)
    return x[..., np.array(fit.permutation) - 1] / fit.signed_scales
