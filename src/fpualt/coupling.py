"""Structure analysis of the quasi-harmonic coupling tensor.

The central observation: for every pair i there is exactly one pair
j = rho(i) such that the squares x_{2i-1}^2 and x_{2i}^2 occur in the
right-hand sides of both equations of pair j and nowhere else.  The
permutation rho obeys rho(i) = min(2i, p - 2i) in every tested case.
Unions of cycles of rho are the only candidates for invariant sets
V(Y) = {x_i = xdot_i = 0 for i in Y}; whether a candidate is actually
invariant depends on the mixed quadratic terms and is decided here
directly from the tensor.  :func:`enumerate_invariant_candidates` reads
every union's verdict from one cycle coupling table, built in a single
pass over the tensor's nonzeros; :func:`check_invariance` is the
mode-level test for an arbitrary Y.

A coefficient is present iff it is nonzero.  That is exact for systems
built by :func:`fpualt.spectral.to_quasi_harmonic`, which store the
entries the sine-mode selection rule forbids, and those that cancel to
round-off, as exact zeros, and for tables read from files, whose absent
entries are not printed.

Mode and pair indices in this module's public objects are 1-based,
matching every printed report; array storage stays 0-based.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .spectral import QuasiHarmonicSystem


class PatternViolationError(RuntimeError):
    """The forcing-square uniqueness pattern failed; carries the evidence."""

    def __init__(self, message, offending=None):
        super().__init__(message)
        self.offending = offending or []


@dataclass(frozen=True)
class SquareMap:
    """Location of the forcing squares of every pair.

    ``rho[i]`` is the unique pair whose two equations contain both
    squares of pair i; ``evidence[i]`` lists (equation, square_mode,
    coefficient) for every nonzero occurrence.
    """

    p: int
    rho: dict
    evidence: dict


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

    A coefficient counts as present iff it is nonzero.  Raises
    PatternViolationError when the squares of some pair do not occupy
    exactly the two equations of exactly one pair.
    """
    d = sys.dof
    if d % 2:
        raise ValueError("square analysis needs an even number of modes "
                         f"(built from odd p), got {d}")
    npairs = d // 2

    rho, evidence = {}, {}
    for i in range(1, npairs + 1):
        ev = []
        eq_sets = []
        for m in _modes_of_pair(i):
            coeffs = sys.bilinear[:, m - 1, m - 1]
            present = {int(r) + 1 for r in np.flatnonzero(coeffs)}
            eq_sets.append(present)
            ev.extend((r, m, float(coeffs[r - 1])) for r in sorted(present))
        occupied = eq_sets[0] | eq_sets[1]
        target_pairs = {_pair_of_mode(r) for r in occupied}
        if len(target_pairs) != 1:
            raise PatternViolationError(
                f"squares of pair {i} occur in equations of pairs "
                f"{sorted(target_pairs)} (expected exactly one)", ev)
        j = target_pairs.pop()
        if eq_sets[0] != set(_modes_of_pair(j)) or eq_sets[1] != set(_modes_of_pair(j)):
            raise PatternViolationError(
                f"squares of pair {i} do not fill both equations of pair {j}: "
                f"acoustic square in {sorted(eq_sets[0])}, "
                f"optical square in {sorted(eq_sets[1])}", ev)
        rho[i] = j
        evidence[i] = ev
    return SquareMap(p=sys.p, rho=rho, evidence=evidence)


def jan_formula(p: int, i: int) -> int:
    """The conjectured image min(2i, p - 2i) of pair i."""
    return min(2 * i, p - 2 * i)


def jan_check(p: int, rho: dict) -> dict:
    """Compare rho against min(2i, p-2i); disagreement is reported, not raised.

    Returns {i: (rho_i, expected, agree)} for every pair index.
    """
    return {i: (j, jan_formula(p, i), j == jan_formula(p, i))
            for i, j in sorted(rho.items())}


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
            if nxt in seen:
                raise ValueError(f"not a permutation: {rho}")
            cyc.append(nxt)
            seen.add(nxt)
            nxt = rho[nxt]
        cycles.append(tuple(cyc))
    return CycleDecomposition(cycles=tuple(cycles))


def _verdict(sys, frozen, kept, max_violation, worst_flat):
    """The InvariantCandidate for V(Y) from its largest violation.

    ``worst_flat`` is the flat tensor index of the first (i, j, k) that
    reaches ``max_violation``; it is ignored when the violation is 0.
    """
    worst = None
    if max_violation > 0.0:
        i, jk = divmod(int(worst_flat), sys.dof ** 2)
        j, k = sorted(divmod(jk, sys.dof))
        worst = (i + 1, j + 1, k + 1, sys.monomial(i + 1, j + 1, k + 1))
    return InvariantCandidate(frozen_modes=frozen, kept_modes=kept,
                              invariant=max_violation == 0.0,
                              max_violation=max_violation, worst_entry=worst)


def check_invariance(sys: QuasiHarmonicSystem, frozen_modes) -> InvariantCandidate:
    """Decide whether V(Y) is invariant for an arbitrary mode set Y.

    Y (1-based) is invariant iff no equation of a frozen mode contains a
    quadratic term built purely from kept modes -- mixed terms count.
    """
    d = sys.dof
    frozen = frozenset(int(m) for m in frozen_modes)
    if not frozen or not frozen < set(range(1, d + 1)):
        raise ValueError(
            f"Y must be a nonempty proper subset of 1..{d}, got {sorted(frozen)}")
    kept = tuple(m for m in range(1, d + 1) if m not in frozen)
    kept0 = np.array(kept) - 1
    frozen0 = np.array(sorted(frozen)) - 1

    block = sys.bilinear[np.ix_(frozen0, kept0, kept0)]
    mult = np.where(np.eye(len(kept0), dtype=bool), 1.0, 2.0)
    mags = np.abs(block) * mult[None, :, :]
    r, jj, kk = np.unravel_index(np.argmax(mags), mags.shape)
    worst_flat = np.ravel_multi_index((frozen0[r], kept0[jj], kept0[kk]),
                                      sys.bilinear.shape)
    return _verdict(sys, frozen, kept, float(mags.max(initial=0.0)), worst_flat)


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
    b = sys.bilinear.ravel()
    flat = np.flatnonzero(b)
    i, j, k = np.unravel_index(flat, sys.bilinear.shape)
    mags = np.abs(b[flat]) * np.where(j == k, 1.0, 2.0)
    block = (cycle_of[i] * c + cycle_of[j]) * c + cycle_of[k]
    largest = np.zeros(c ** 3)
    np.maximum.at(largest, block, mags)
    at_max = mags == largest[block]
    first = np.full(c ** 3, b.size)
    np.minimum.at(first, block[at_max], flat[at_max])
    return largest.reshape(c, c, c), first.reshape(c, c, c)


def enumerate_invariant_candidates(sys: QuasiHarmonicSystem):
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
                              sys.bilinear.size).min(axis=1)
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


def extract_subsystem(sys: QuasiHarmonicSystem, kept_modes) -> QuasiHarmonicSystem:
    """Restrict the system to ``kept_modes`` (1-based).

    The complement must pass :func:`check_invariance`; restriction of a
    non-invariant complement is refused.
    """
    d = sys.dof
    kept = sorted(set(int(m) for m in kept_modes))
    if kept == list(range(1, d + 1)):
        return sys
    frozen = frozenset(range(1, d + 1)) - set(kept)
    cand = check_invariance(sys, frozen)
    if not cand.invariant:
        raise ValueError(
            f"complement of {kept} is not invariant "
            f"(violation {cand.max_violation:.3e} at {cand.worst_entry})")
    idx = np.array(kept) - 1
    return QuasiHarmonicSystem(
        lambdas=sys.lambdas[idx].copy(),
        bilinear=sys.bilinear[np.ix_(idx, idx, idx)].copy(),
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
    n_common: int
    pattern_mismatches: list = field(default_factory=list)
    sign_consistent: bool = True


def _solve_signs_gf2(rows, rhs, n):
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
    used = set()
    perm = []
    for lam_ref in ref.lambdas:
        diffs = np.abs(source.lambdas - lam_ref)
        cand = int(np.argmin(np.where([i in used for i in range(d)], np.inf, diffs)))
        if diffs[cand] > LAMBDA_MATCH_TOL * max(1.0, abs(lam_ref)):
            raise ValueError(
                f"no source eigenvalue matches reference {lam_ref!r} "
                f"within {LAMBDA_MATCH_TOL}")
        used.add(cand)
        perm.append(cand)
    perm0 = np.array(perm)

    src_b = source.bilinear[np.ix_(perm0, perm0, perm0)]
    mult = np.where(np.eye(d, dtype=bool), 1.0, 2.0)[None, :, :]
    src_mono = src_b * mult
    ref_mono = ref.bilinear * mult

    triu = [(i, j, k) for i in range(d) for j in range(d) for k in range(j, d)]
    common, mismatches = [], []
    for (i, j, k) in triu:
        in_src = src_mono[i, j, k] != 0.0
        in_ref = ref_mono[i, j, k] != 0.0
        if in_src and in_ref:
            common.append((i, j, k))
        elif in_src != in_ref:
            side = "source" if in_src else "reference"
            mismatches.append((i + 1, j + 1, k + 1, side,
                               float(src_mono[i, j, k]), float(ref_mono[i, j, k])))
    if not common:
        raise ValueError("no common nonzero tensor entries")

    # Signs: eps_i + eps_j + eps_k = parity of sign disagreement (GF(2)).
    rows, rhs = [], []
    for (i, j, k) in common:
        row = [0] * d
        for m in (i, j, k):
            row[m] ^= 1
        rows.append(row)
        rhs.append(0 if np.sign(ref_mono[i, j, k]) == np.sign(src_mono[i, j, k]) else 1)
    eps = _solve_signs_gf2(rows, rhs, d)
    sign_ok = eps is not None
    flips = tuple(i + 1 for i, e in enumerate(eps or []) if e)

    # Log-magnitude least squares, weighted by reference magnitude.
    amat = np.zeros((len(common), d))
    bvec = np.empty(len(common))
    wvec = np.empty(len(common))
    for row_idx, (i, j, k) in enumerate(common):
        amat[row_idx, j] += 1.0
        amat[row_idx, k] += 1.0
        amat[row_idx, i] -= 1.0
        bvec[row_idx] = np.log(abs(ref_mono[i, j, k])) - np.log(abs(src_mono[i, j, k]))
        wvec[row_idx] = abs(ref_mono[i, j, k])
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
        n_common=len(common),
        pattern_mismatches=mismatches,
        sign_consistent=sign_ok,
    )


def map_reference_state(fit: ScalingFit, x_ref, v_ref=None):
    """Map positions/velocities given in the reference normalisation onto
    the source system's coordinates (source mode order).

    If x_src = P (s * x_ref) with P the fitted alignment, trajectories
    of the source system divided back by the scales reproduce reference
    trajectories.  Sign flips are folded into the scales here.
    """
    d = len(fit.permutation)
    s = fit.scales.copy()
    for m in fit.sign_flips:
        s[m - 1] = -s[m - 1]
    x_src = np.zeros(d)
    v_src = np.zeros(d)
    x_ref = np.asarray(x_ref, dtype=float)
    v_ref = np.zeros(d) if v_ref is None else np.asarray(v_ref, dtype=float)
    for ref_slot, src_mode in enumerate(fit.permutation):
        x_src[src_mode - 1] = s[ref_slot] * x_ref[ref_slot]
        v_src[src_mode - 1] = s[ref_slot] * v_ref[ref_slot]
    return x_src, v_src


def map_to_reference_frame(fit: ScalingFit, x_src_traj):
    """Project source-frame samples (n, d) back to the reference frame."""
    x = np.asarray(x_src_traj, dtype=float)
    s = fit.scales.copy()
    for m in fit.sign_flips:
        s[m - 1] = -s[m - 1]
    cols = [x[..., src_mode - 1] / s[ref_slot]
            for ref_slot, src_mode in enumerate(fit.permutation)]
    return np.stack(cols, axis=-1)
