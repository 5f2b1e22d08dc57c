"""Normal-mode transformation of the reduced system.

The linear part M^{-1} K of the reduced system decomposes into
(p-1)/2 two-by-two blocks indexed by j = 1 .. (p-1)/2, each contributing
one acoustic and one optical eigenvalue

    lambda = (1+a) -/+ sqrt((1+a)^2 - 4 a sin^2(pi j / p)),

so that every pair sums to 2 + 2a exactly: the diatomic dispersion
relation, which :mod:`fpualt.chain` evaluates for the periodic chain
through the same arithmetic.  The eigenvectors are closed
form too: in the mass-weighted symmetric form M^{-1/2} K M^{-1/2} each is
the sine mode sin(pi j n / p) times the block's eigenvector, one
amplitude on the odd and one on the even sites, which avoids the small-a
ill-conditioning of the raw eigenvector matrix.  A reduced system is made
from (p, a, alpha) alone, so this closed form describes every one, and
the basis is built from it with no dense check against that form.
Substituting q = T x into the quadratic vector N(q) = -D^T (D q)^2 and
premultiplying by T^{-1} M^{-1} yields the quasi-harmonic system

    xdd_i + lambda_i x_i = alpha * sum_{j<=k} c_{i,jk} x_j x_k
                         = alpha * (F (G x)^2)_i,

with the bond factors G = D T (modes -> bond extensions, p x (p-1)) and
F = -T^{-1} M^{-1} D^T ((p-1) x p).  Every quasi-harmonic system
evaluates its right-hand side in this one form, as two small mat-vecs:
a system given its coupling as a list gets factors by polarisation,
x_j x_k = ((x_j + x_k)^2 - x_j^2 - x_k^2) / 2.

The coupling B_{i,jk} = sum_b F_{ib} G_{bj} G_{bk} is kept as one list
of monomial coefficients (:class:`Monomials`), which the structure
analysis and the system files read.  A built system forms it in closed
form on first use: for the sine basis F = -diag(1/mu) G^T, mu the modal
masses, and each column of G is two cosines, of indices J and p - J
for a mode of pair J.  A bond sum of three such cosines is p/4 times
[one index is the sum of the other two] - [the three sum to 2p], so an
entry vanishes identically unless the pair indices I, J, K satisfy
I + J + K = p or one is the sum of the other two, and each allowed
2x2x2 block costs O(1) (:func:`_closed_form_monomials`).  Presence is
this pair rule alone, with no magnitude test: at a != 1 every allowed
entry is listed, however small.  At the equal-mass a = 1 every mode is a
single cosine, so the weights of the other cosine are exact zeros and
the entries they would carry are left out; an a within round-off of 1,
where an allowed entry comes out as exactly 0, is refused, and so is an
a so small that one underflows to 0.  So a
coupling is present iff it is listed.  Tables read from files, extracted
subsystems and the cartoon models of :mod:`fpualt.dynamics` are given
their list instead, as the field ``given`` (None for a built system);
the system is a plain frozen dataclass, so ``dataclasses.replace``
makes another of either kind.  The list is the one reader of the
coupling: the dense tensor ``bilinear`` is a view made from it on
demand, which nothing in the package reads and which stays because
perfbench/ reads it.

A built modal system is itself a bond-space system
(:class:`fpualt.chain.BondSystem`): bond operator G and the modal masses
diag(T^T M T), which are 1 for the basis built here and stay exact for
any column scaling of T.  Its energy is that system's,
sum m_j v_j^2/2 + sum_b V((G x)_b).  A given list with a fully symmetric
tensor has the energy (|v|^2 + sum lambda x^2)/2 - (alpha/3) B(x, x, x),
B(x, x, x) = x . F (G x)^2.  Printed tables, whose tensors are not
symmetric, carry no exact energy.

Modes are kept in pair order: (acoustic, optical) for j = 1, 2, ...

System files (:func:`save_system`, :func:`load_system`) are plain text:
a header, the mode lines, then the entry lines, in that order.  The
entry block is written with one %-format, in which only the coefficient
is converted per entry (the index fields are the text of each mode
index, made once per mode), and read in one forward pass over the
file: the header and mode lines one by one, then the entries in one
``numpy.loadtxt`` call.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .chain import BondSystem, _dispersion, is_index, require_finite
from .reduction import ReducedSystem


class DegenerateSpectrumError(RuntimeError):
    """The system is too near a degenerate one to resolve: two eigenvalues
    are too close to order, or a is so near 1 that couplings cancel to 0."""


@dataclass(frozen=True)
class ModeLabel:
    kind: str          # "acoustic" or "optical"
    pair: int          # 1-based pair index j

    def __str__(self):
        return f"{self.kind} {self.pair}"


@dataclass(frozen=True, eq=False)
class ModalBasis:
    """Diagonalising basis of a reduced system, modes in pair order.

    Columns of ``t`` are eigenvectors of M^{-1} K (q = T x), normalised
    to unit M-weighted norm with the dominant component positive.
    """

    lambdas: np.ndarray
    t: np.ndarray
    t_inv: np.ndarray
    labels: tuple


def pair_eigenvalues(a: float, p: int, j: int):
    """Closed-form (acoustic, optical) eigenvalues of pair j.

    These are the eigenvalues of the 2x2 block
    [[2a, 2a cos(pi j/p)], [2 cos(pi j/p), 2]].  Raises ValueError when
    a is so large that (1 + a)^2 overflows.
    """
    if not 1 <= j <= (p - 1) // 2:
        raise ValueError(f"pair index j must be in 1..{(p - 1) // 2}, got {j}")
    return _dispersion(a, math.sin(math.pi * j / p))


def all_pair_eigenvalues(a: float, p: int):
    """All p-1 eigenvalues in pair order (acoustic_1, optical_1, ...)."""
    return np.array([lam for j in range(1, (p - 1) // 2 + 1)
                     for lam in pair_eigenvalues(a, p, j)])


def pair_labels(p: int):
    return tuple(ModeLabel(kind, j) for j in range(1, (p - 1) // 2 + 1)
                 for kind in ("acoustic", "optical"))


# Eigenvalues closer than 2x this collide.
EIGEN_MATCH_TOL = 1e-9


def eigendecompose(sys: ReducedSystem) -> ModalBasis:
    """Closed-form modal basis of the reduced linear part, in pair order.

    Mode (j, acoustic/optical) of the mass-weighted form
    S = M^{-1/2} K M^{-1/2} is the sine mode sin(pi j n / p) on sites
    n = 1 .. p-1, weighted by the amplitudes (A, B) of the symmetric
    block [[2, -2 sqrt(a) c_j], [-2 sqrt(a) c_j, 2a]], c_j = cos(pi j / p):
    A on the odd sites (mass 1), B on the even sites (mass 1/a).  The
    eigenvalues are :func:`all_pair_eigenvalues`.  T = M^{-1/2} U has
    unit M-weighted columns with the dominant component positive; where
    components tie in magnitude (at composite p), the first one counts.

    Every reduced system is made from (p, a, alpha), so the closed form
    describes each one and the basis is not checked against S here; the
    test suite checks it over odd p and a.  Raises DegenerateSpectrumError
    if eigenvalues collide within ``EIGEN_MATCH_TOL``.
    """
    p, a = sys.p, sys.a
    analytic = all_pair_eigenvalues(a, p)
    gaps = np.diff(np.sort(analytic))
    if gaps.size and gaps.min() < 2.0 * EIGEN_MATCH_TOL:
        raise DegenerateSpectrumError(
            f"eigenvalue gap {gaps.min():.3e} below resolution for "
            f"p={p}, a={a}"
        )

    j = np.arange(1, (p - 1) // 2 + 1)
    # Block eigenvectors from the rotation angle, tan(2 theta) =
    # 2 S_12 / (S_11 - S_22): (cos, sin) belongs to the larger (optical)
    # eigenvalue, (-sin, cos) to the smaller (acoustic).
    theta = 0.5 * np.arctan2(-4.0 * math.sqrt(a) * np.cos(np.pi * j / p),
                             2.0 - 2.0 * a)
    cos, sin = np.cos(theta), np.sin(theta)
    amp_odd = np.stack([-sin, cos], axis=1).ravel()     # pair order
    amp_even = np.stack([cos, sin], axis=1).ravel()
    n = np.arange(1, p)
    sines = np.sin(np.pi * np.outer(n, np.repeat(j, 2)) / p)
    u = sines * np.where((n % 2 == 1)[:, None], amp_odd, amp_even)
    u /= np.linalg.norm(u, axis=0)

    t = (1.0 / np.sqrt(sys.masses))[:, None] * u     # columns have unit M-norm
    mag = np.abs(t)   # first component within round-off of the column max
    dominant = np.argmax(mag >= (1.0 - 1e-12) * mag.max(axis=0), axis=0)
    signs = np.where(t[dominant, np.arange(t.shape[1])] < 0, -1.0, 1.0)
    t = t * signs
    t_inv = (u * signs).T * np.sqrt(sys.masses)[None, :]
    return ModalBasis(lambdas=analytic, t=t, t_inv=t_inv,
                      labels=pair_labels(p))


class Monomials(NamedTuple):
    """The coupling as its list of monomial coefficients.

    Entry n says that equation ``i[n]`` has the term ``coeff[n]`` x_j x_k,
    j = ``j[n]`` <= k = ``k[n]``; the indices are 0-based, the entries
    are in lexicographic (i, j, k) order and every coefficient is
    nonzero.  For j < k the coefficient is 2 B_ijk, for the squares B_ijj.
    """

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    coeff: np.ndarray


@dataclass(frozen=True, eq=False)
class QuasiHarmonicSystem:
    """Diagonal linear part plus a quadratic coupling,
    xdd_i = -lambda_i x_i + alpha * sum_{j<=k} c_{i,jk} x_j x_k.

    The coupling is the monomial list ``monomials`` (:class:`Monomials`).
    A system is given it as the field ``given`` (files, subsystems,
    cartoons, tables built in code), which is checked and put in
    canonical order (:func:`_checked_monomials`), or it is built by
    :func:`to_quasi_harmonic`, has ``given`` None and forms its list
    from ``basis`` and ``reduced`` in closed form on first use, so a
    system that is only integrated never does.  The generated
    constructor is the only one, so ``dataclasses.replace`` makes
    another system of either kind (the same list at another alpha, say).
    A built system's ``lambdas``, ``a`` and ``p`` are those of its basis
    and reduced system, or it is refused: its energy and its list are
    formed from those two, so another spectrum is a system given its
    list.  ``alpha`` and ``labels`` stay free.

    Every system has bond factors ``g`` and ``f`` with
    C(x, x) = F (G x)^2, formed on first use: G = D T and
    F = -T^{-1} M^{-1} D^T for a built system, the polarisation of the
    list (:func:`_polarised_factors`) for a given one.  The acceleration
    ``accel``, its Jacobian ``jac`` and the energy read only these.

    The list is the one way the package reads the coupling.
    ``bilinear`` is the symmetric tensor B with C(x, x)_i = x . B_i . x,
    a dense view made from the list on demand; nothing in the package
    reads it, and it stays because perfbench/ reads it.

    ``lambdas`` is kept as a 1-d float array, ``alpha`` and ``a`` as
    Python floats, so a numpy scalar is written as its number in a
    system file or a report header.  A non-finite lambda or
    alpha is refused with a ValueError naming it (``alpha must be a
    finite number, got nan``), and so are no modes, a ``p`` that is not
    an integer and a mode label (``None`` for an unlabelled mode) whose
    kind is not exactly acoustic or optical or whose pair is not a
    positive integer, so every system, however it is made, has finite
    values and labels a system file can hold.  The list and lambdas
    carry the structure; alpha only multiplies every coupling alike.
    """

    lambdas: np.ndarray
    labels: tuple
    alpha: float
    a: float = math.nan
    p: int = 0
    basis: ModalBasis = None
    reduced: ReducedSystem = None
    name: str = ""
    given: Monomials = None

    def __post_init__(self):
        lambdas = np.asarray(self.lambdas, dtype=float)
        if lambdas.ndim != 1:
            raise ValueError(f"lambdas must be one-dimensional, got shape {lambdas.shape}")
        if not np.isfinite(np.append(self.alpha, lambdas)).all():    # then name the first
            require_finite(alpha=self.alpha, **{f"lambda {n}": lam
                                                for n, lam in enumerate(lambdas, start=1)})
        for name, value in (("lambdas", lambdas), ("alpha", float(self.alpha)),
                            ("a", float(self.a))):
            object.__setattr__(self, name, value)
        if not lambdas.size:
            raise ValueError("a quasi-harmonic system needs at least one mode")
        if len(self.labels) != len(lambdas):
            raise ValueError(f"{len(self.labels)} labels for {len(lambdas)} modes")
        if not is_index(self.p):
            raise ValueError(f"p must be an integer, got {self.p!r}")
        for n, lab in enumerate(self.labels, start=1):     # None: an unlabelled mode
            if lab is not None and not (lab.kind in ("acoustic", "optical")
                                        and is_index(lab.pair) and lab.pair >= 1):
                raise ValueError(f"mode {n} label ({lab.kind!r}, {lab.pair!r}) is not "
                                 "acoustic or optical with a positive integer pair")
        if self.given is not None:
            object.__setattr__(self, "given", _checked_monomials(self.given, len(lambdas)))
        elif self.basis is None or self.reduced is None:
            raise ValueError("a quasi-harmonic system needs given= or the "
                             "basis and reduced system it is built from")
        elif not (np.array_equal(lambdas, self.basis.lambdas)
                  and (self.a, self.p) == (self.reduced.a, self.reduced.p)):
            raise ValueError("a built system has the lambdas, a and p of its basis and "
                             "reduced system; give given= for another system")

    @property
    def dof(self):
        return self.lambdas.size

    @cached_property
    def _factors(self):
        """(G, F), see the class docstring."""
        if self.given is None:
            sys, basis = self.reduced, self.basis
            return (sys.bonds @ basis.t,
                    -(basis.t_inv * (1.0 / sys.masses)[None, :]) @ sys.bonds.T)
        return _polarised_factors(self.monomials, self.dof)

    @property
    def g(self) -> np.ndarray:
        """The (n_bonds, d) bond factor G."""
        return self._factors[0]

    @property
    def f(self) -> np.ndarray:
        """The (d, n_bonds) bond factor F."""
        return self._factors[1]

    @cached_property
    def accel(self):
        """The map (x, out=None) -> xdd = -Lambda x + alpha F (G x)^2, built
        once per system.

        Without ``out`` it takes one state (d,) or rows (n, d).
        ``accel(x, out)`` takes one state, writes into the (d,) array
        ``out`` and returns it, with every intermediate in scratch arrays
        made once per system object, so it must not run in two threads at
        once.  That form is the integrator's hot path, so it makes only
        the numpy calls its arithmetic needs: the bound ``dot`` methods
        and ufuncs are closure locals, alpha is a 0-d array (numpy
        multiplies it faster than a Python float) and its multiply is
        skipped when alpha is 1, which 1 * x = x makes exact.
        """
        lam, g, f, scaled = self.lambdas, self.g, self.f, self.alpha != 1.0
        alpha, gx, fgx = np.array(self.alpha), np.empty(len(g)), np.empty(self.dof)
        dot_g, dot_f = g.dot, f.dot
        multiply, subtract = np.multiply, np.subtract

        def accel(x, out=None):
            if out is None:
                return alpha * f.dot(g.dot(x.T) ** 2).T - lam * x
            dot_g(x, gx)
            multiply(gx, gx, gx)
            dot_f(gx, fgx)
            if scaled:
                multiply(alpha, fgx, fgx)
            multiply(lam, x, out)
            return subtract(fgx, out, out)

        return accel

    def jac(self, x):
        """The acceleration Jacobian diag(-Lambda) + 2 alpha F diag(G x) G of
        one state (d,) or of rows (n, d): (d, d) or (n, d, d)."""
        g, f = self.g, self.f
        gx = (g @ x.T).T
        # 2 before alpha: 2 alpha overflows for alpha >= 2^1023
        return np.diag(-self.lambdas) + self.alpha * (2.0 * (f * gx[..., None, :]) @ g)

    @cached_property
    def energy(self):
        """Energy map of rows [x, v], vectorised, or None if none is known.

        A built system's modal flow is the bond-space system with bond
        operator G and the modal masses diag(T^T M T), so its energy
        sum m_j v_j^2/2 + sum_b V((G x)_b) is exact for any column scaling
        of T.  A given list whose tensor is fully symmetric within
        SYMMETRY_TOL_REL is the gradient of a cubic potential, so the
        energy is (|v|^2 + sum lambda x^2)/2 - (alpha/3) B(x, x, x), with
        B(x, x, x) = x . F (G x)^2.  Other lists (the printed tables) carry
        no exact invariant: None.
        """
        if self.given is None:
            return BondSystem(masses=_modal_masses(self.reduced, self.basis),
                              bonds=self.g, alpha=self.alpha).energy
        if not _fully_symmetric(self.monomials, self.dof):
            return None
        d, alpha, lam, g, f = self.dof, self.alpha, self.lambdas, self.g, self.f

        def energy(y):
            x, v = y[..., :d], y[..., d:]
            cubic = np.sum(x * (f @ (g @ x.T) ** 2).T, axis=-1)
            return 0.5 * np.sum(v * v + lam * x * x, axis=-1) - (alpha / 3.0) * cubic

        return energy

    @cached_property
    def monomials(self) -> Monomials:
        """The coupling's monomial list: the one given, or for a built
        system formed once in closed form (:func:`_closed_form_monomials`)."""
        if self.given is not None:
            return self.given
        return _closed_form_monomials(self.reduced, self.basis)

    @cached_property
    def bilinear(self) -> np.ndarray:
        """The dense (d, d, d) tensor B, symmetric in its last two axes;
        only perfbench/ reads it."""
        i, j, k, coeff = self.monomials
        d = self.dof
        b = np.zeros((d, d, d))
        half = np.where(j == k, coeff, 0.5 * coeff)
        b[i, j, k] = half
        b[i, k, j] = half
        return b


def _mode_index(sys: QuasiHarmonicSystem, m, what: str) -> int:
    """Mode ``m`` (1-based) of ``sys`` as an int; a ValueError names a
    ``what`` mode that is not an integer in 1..d."""
    if not (is_index(m) and 1 <= m <= sys.dof):
        raise ValueError(f"{what} mode {m!r} is not an integer in 1..{sys.dof}")
    return int(m)


# Relative to the largest entry, the tolerance to which the cubic-potential
# energy of a system given a list tests the tensor's full symmetry.
SYMMETRY_TOL_REL = 1e-12


def _modal_masses(sys: ReducedSystem, basis: ModalBasis):
    """diag(T^T M T): ones for :func:`eigendecompose`'s basis."""
    return sys.masses @ basis.t ** 2


def _canonical(i, j, k, coeff, d):
    """The entries sorted into lexicographic (i, j, k) order, and their
    sorted flat keys (i d + j) d + k."""
    keys = (i * d + j) * d + k
    order = np.argsort(keys)
    return Monomials(i[order], j[order], k[order], coeff[order]), keys[order]


def _checked_monomials(monomials, d) -> Monomials:
    """A given (i, j, k, coeff) list, 0-based, checked and in canonical order.

    Raises ValueError for columns of different shapes or non-integer
    indices, and names the entry (1-based): the first whose indices are
    not in 1..d with j <= k, else the first non-finite coefficient, else
    the first repeated (i, j, k).  Zero coefficients are dropped.
    """
    *index, coeff = columns = [np.asarray(column) for column in monomials]
    if len({column.shape for column in columns}) > 1:
        raise ValueError(f"entry columns differ in shape: {[c.shape for c in columns]}")
    if any(column.size and column.dtype.kind not in "iu" for column in index):
        raise ValueError("entry indices must be integers")
    i, j, k = (column.astype(np.intp, copy=False) for column in index)
    coeff = coeff.astype(float, copy=False)

    def entry(n):
        return int(i[n]) + 1, int(j[n]) + 1, int(k[n]) + 1

    bad = np.flatnonzero((i < 0) | (i >= d) | (j < 0) | (j > k) | (k >= d))
    if bad.size:
        raise ValueError(f"entry indices out of range: {entry(bad[0])}")
    bad = np.flatnonzero(~np.isfinite(coeff))
    if bad.size:
        raise ValueError(f"non-finite entry {(*entry(bad[0]), float(coeff[bad[0]]))}")
    mono, keys = _canonical(i, j, k, coeff, d)
    repeated = np.flatnonzero(keys[1:] == keys[:-1])
    if repeated.size:
        n = repeated[0]
        raise ValueError("repeated entry "
                         f"{tuple(int(index[n]) + 1 for index in mono[:3])}")
    nonzero = mono.coeff != 0.0
    return Monomials(*(column[nonzero] for column in mono))


def _fully_symmetric(m: Monomials, d) -> bool:
    """Whether the tensor B of a monomial list is symmetric in all three
    indices within SYMMETRY_TOL_REL of its largest entry.

    B is symmetric in j, k by construction, so it is fully symmetric iff
    each listed B_ijk (c, or c/2 for j < k) equals its two partners that
    move i, B_{j,min(i,k),max(i,k)} and B_{k,min(i,j),max(i,j)}; an
    unlisted partner is 0.  Read from the sorted list, without the dense
    view.
    """
    i, j, k, c = m
    b = np.append(np.where(j == k, c, 0.5 * c), 0.0)
    keys = np.append((i * d + j) * d + k, d ** 3)   # the sentinel ends each search
    tol = SYMMETRY_TOL_REL * np.abs(b).max()
    for first, (u, w) in ((j, (i, k)), (k, (i, j))):
        partner = (first * d + np.minimum(u, w)) * d + np.maximum(u, w)
        at = np.searchsorted(keys, partner)
        other = np.where(keys[at] == partner, b[at], 0.0)
        if np.abs(b[:-1] - other).max(initial=0.0) > tol:
            return False
    return True


def _polarised_factors(m: Monomials, d):
    """Bond factors (G, F) with F (G x)^2 = C(x, x) for a monomial list.

    By polarisation, x_j x_k = ((x_j + x_k)^2 - x_j^2 - x_k^2) / 2: G
    stacks the identity and one row e_j + e_k per distinct mixed pair
    j < k.  A square entry adds c to F[i, j]; a mixed one adds c/2 to
    F[i, d + pair] and -c/2 to F[i, j] and F[i, k].
    """
    i, j, k, c = m
    mixed = j < k
    pairs, slot = np.unique(j[mixed] * d + k[mixed], return_inverse=True)
    eye = np.eye(d)
    g = np.vstack([eye, eye[pairs // d] + eye[pairs % d]])
    im, half = i[mixed], 0.5 * c[mixed]
    rows = np.concatenate([i[~mixed], im, im, im])
    cols = np.concatenate([j[~mixed], d + slot, j[mixed], k[mixed]])
    f = np.bincount(rows * len(g) + cols, np.concatenate([c[~mixed], half, -half, -half]),
                    d * len(g))
    return g, f.reshape(d, len(g))


# The cosine triples of an allowed pair triple (I, J <= K), one table per
# rule: [s, t, u] is (4/p) sum_b cos(pi K_I (b+1/2)/p) cos(..K_J..) cos(..K_K..)
# with K_I = I for s = 0 and p - I for s = 1, likewise t for J and u for K.
# It is 1 where one index is the sum of the other two and -1 where the
# three sum to 2p.
_COSINE_RULES = np.array([
    [[[0, 1], [1, 0]], [[1, 0], [0, -1]]],     # I + J + K = p
    [[[1, 0], [0, -1]], [[0, 1], [1, 0]]],     # I = J + K
    [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]],     # K = I + J
], dtype=float)


def _closed_form_monomials(sys: ReducedSystem, basis: ModalBasis) -> Monomials:
    """The monomial list of the coupling B = F (G x)^2, in closed form.

    For a sine-mode basis (columns T_n = c_o sin(pi J n/p) on the odd
    sites n and c_e sin(pi J n/p) on the even ones, J the column's pair,
    any column scaling), F = -diag(1/mu) G^T with the modal masses
    mu = diag(T^T M T), so B_ijk = -(1/mu_i) sum_b G_bi G_bj G_bk.  Each
    column of G is two cosines, G_b = w0 cos(pi J (b+1/2)/p)
    + w1 cos(pi (p-J) (b+1/2)/p) with w0 = (c_o + c_e) sin(pi J/2p) and
    w1 = (c_o - c_e) cos(pi J/2p), and a bond sum of three cosines is
    p/4 times an entry of ``_COSINE_RULES``.  So only the pair triples
    with I + J + K = p or one pair the sum of the other two couple, each
    in a 2x2x2 block of O(1) cost.  c_o and c_e are read from the first
    two rows of T.  Every entry of an allowed block is listed, however
    small, except at a = 1: there c_o = c_e for an acoustic mode and
    c_o = -c_e for an optical one, so w1 of an acoustic mode and w0 of an
    optical one are set to an exact 0 and the entries they carry are left
    out.  Raises
    DegenerateSpectrumError if, at any other a, an allowed entry comes
    out as exactly 0: a within a few ulps of 1, where a weight w cancels
    to 0, or an a so small (p = 3, a below about 1e-216) that the entry
    underflows.
    """
    p, t = sys.p, basis.t
    d = t.shape[1]
    npairs = d // 2
    pair = np.array([lab.pair for lab in basis.labels])
    c_o, c_e = t[:2] / np.sin(np.pi * np.outer((1, 2), pair) / p)
    half = np.pi * pair / (2 * p)
    w = np.array([(c_o + c_e) * np.sin(half), (c_o - c_e) * np.cos(half)])
    if sys.a == 1.0:                        # every mode is a single cosine
        optical = np.array([lab.kind == "optical" for lab in basis.labels])
        w[0, optical] = w[1, ~optical] = 0.0
    modes = np.argsort(pair, kind="stable").reshape(npairs, 2)
    wp = w.T[modes]                         # [pair - 1, mode of pair, cosine]

    # (I, J <= K), 0-based: I is p - J - K, J + K or K - J, if that is a pair.
    jk = np.arange(npairs)
    j, k = jk[:, None], jk[None, :]
    cand = np.array([p - 3 - j - k, j + k + 1, k - j - 1])
    rule, jj, kk = np.nonzero((cand >= 0) & (cand < npairs) & (j <= k))
    ii = cand[rule, jj, kk]
    # block[n, a, b, c] = sum_stu rule[s, t, u] wp[I, a, s] wp[J, b, t] wp[K, c, u]
    block = _COSINE_RULES[rule] @ wp[kk].transpose(0, 2, 1)[:, None]
    block = wp[jj][:, None] @ block
    block = (wp[ii] @ block.reshape(-1, 2, 4)).reshape(-1, 2, 2, 2)
    mi, mj, mk = modes[ii], modes[jj], modes[kk]
    block *= (-0.25 * p / _modal_masses(sys, basis)[mi])[:, :, None, None]
    repeat = np.zeros(block.shape, dtype=bool)
    repeat[jj == kk, :, 1, 0] = True            # the repeat of [:, :, 0, 1]
    keep = (block != 0.0) & ~repeat
    if sys.a != 1.0 and not (keep | repeat).all():
        if (w == 0.0).any():                # c_o = -+c_e to the last bit
            raise DegenerateSpectrumError(
                f"an allowed coupling cancels to 0 for p={p}, a={sys.a!r}: a is "
                "within round-off of the equal-mass a = 1")
        raise DegenerateSpectrumError(
            f"an allowed coupling underflows to 0 for p={p}, a={sys.a!r}")
    shape = block.shape
    i = np.broadcast_to(mi[:, :, None, None], shape)[keep]
    j = np.broadcast_to(mj[:, None, :, None], shape)[keep]
    k = np.broadcast_to(mk[:, None, None, :], shape)[keep]
    j, k = np.minimum(j, k), np.maximum(j, k)
    block = block[keep]
    return _canonical(i, j, k, np.where(j == k, block, 2.0 * block), d)[0]


def to_quasi_harmonic(sys: ReducedSystem, basis: ModalBasis = None) -> QuasiHarmonicSystem:
    """Pull the reduced quadratic vector back through the modal basis.

    The bond factors G = D T, F = -T^{-1} M^{-1} D^T and the monomial
    list are formed on first use (:func:`_closed_form_monomials`).  The
    list holds exactly the couplings the sine-mode selection rule allows
    (at a = 1, those of the single cosine of each mode), so a coupling is
    present iff it is listed.
    """
    if basis is None:
        basis = eigendecompose(sys)
    if basis.t.shape[0] != sys.dof:
        raise ValueError("basis dimension does not match the system")
    return QuasiHarmonicSystem(
        lambdas=basis.lambdas.copy(), labels=basis.labels,
        alpha=sys.alpha, a=sys.a, p=sys.p, basis=basis, reduced=sys,
        name=f"p{sys.p}",
    )


def eval_qh_rhs(sys: QuasiHarmonicSystem, x):
    """xdd = -Lambda x + alpha * C(x, x)."""
    x = np.asarray(x, dtype=float)
    if x.size != sys.dof:
        raise ValueError(f"state has {x.size} modes, system has {sys.dof}")
    return sys.accel(x)


# ---------------------------------------------------------------------------
# Plain-text system files: header "p a alpha", one lambda line per mode
# ("<lambda> <kind> <pair>"), then one line "i j k value" per nonzero
# monomial coefficient, everything 1-based with 17 significant digits.
# The three blocks come in this order; "#" starts a comment anywhere.
# ---------------------------------------------------------------------------

# the index fields are given as text: the bytes of "%d %d %d %.16e\n"
_ENTRY_LINE = "%s %s %s %.16e\n"
_ENTRY_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("k", np.int64),
                         ("c", np.float64)])


def save_system(sys: QuasiHarmonicSystem, path):
    """Write ``sys`` as a system file (format above).

    Every system the constructor accepts has a header and mode lines that
    :func:`load_system` reads back, but for one without mode labels (a
    cartoon) or with a non-finite ``a``: such a system is refused with a
    ValueError naming what it lacks, before ``path`` is opened.
    """
    missing = [what for what, ok in (("mode labels", None not in sys.labels),
                                     ("finite a", math.isfinite(sys.a)))
               if not ok]
    if missing:
        raise ValueError(f"cannot save system {sys.name!r}: it has no "
                         f"{', no '.join(missing)}")
    names = np.array([str(n) for n in range(1, sys.dof + 1)], dtype=object)
    columns = [names[index].tolist() for index in sys.monomials[:3]]
    columns.append(sys.monomials.coeff.tolist())
    flat = [None] * (4 * len(columns[0]))        # i, j, k, coeff per line
    for n, column in enumerate(columns):
        flat[n::4] = column
    with open(path, "w") as fh:
        fh.write(f"{sys.p} {sys.a!r} {sys.alpha!r}\n" + "".join(
            f"{lam:.16e} {lab}\n" for lam, lab in zip(sys.lambdas, sys.labels)))
        fh.write(_ENTRY_LINE * len(columns[0]) % tuple(flat))


def load_system(path, name: str = "") -> QuasiHarmonicSystem:
    """Read a system file written by :func:`save_system` (comments allowed).

    One forward pass: the header and the mode lines are parsed line by
    line, and the first other line and the rest of the file make the
    entry block, which ``numpy.loadtxt`` reads in one call.  Any line
    that does not parse or holds an infinite or NaN value raises
    ValueError naming ``path``: only then is the file read again, to name
    that line, unless it cannot seek (a pipe), when the message is
    numpy's; the entries are then checked, cleaned of zeros and sorted
    as every given list is (:class:`QuasiHarmonicSystem`), and a refusal
    there is prefixed with ``path`` too.
    """
    with open(path) as fh:
        (p, a, alpha), lams, labels, first = _read_preamble(fh, path)
        entries = _read_entries(fh, first, path)
    i, j, k, c = (entries[key] for key in _ENTRY_DTYPE.names)
    try:
        return QuasiHarmonicSystem(np.array(lams), tuple(labels), alpha, a, p,
                                   name=name or str(path),
                                   given=(i - 1, j - 1, k - 1, c))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_preamble(fh, path):
    """Header and mode lines, and the first other line as (0-based line
    number, text), or None at the end of the file."""
    header, lams, labels, first = None, [], [], None
    for number, raw in enumerate(fh):
        line = raw.split("#", 1)[0].strip()
        parts = line.split()
        if header is not None and parts and not (
                len(parts) == 3 and parts[1] in ("acoustic", "optical")):
            first = number, raw
            break
        if not parts:
            continue
        try:
            if header is None:
                if len(parts) != 3:
                    raise ValueError
                header = (int(parts[0]), _finite(parts[1]), _finite(parts[2]))
            else:
                lams.append(_finite(parts[0]))
                labels.append(ModeLabel(parts[1], int(parts[2])))
        except ValueError:
            what = "mode line" if header else "header"
            raise ValueError(f"{path}: malformed {what} {line!r}") from None
    if header is None or not lams:
        stop = f"; {line!r} is not a mode line" if first else ""
        raise ValueError(f"{path}: missing header or mode lines{stop}")
    return header, lams, labels, first


def _read_entries(fh, first, path):
    """The entry block: line ``first`` and the rest of ``fh``."""
    if first is None:         # no entry lines: loadtxt would warn
        return np.zeros(0, _ENTRY_DTYPE)
    try:
        return np.loadtxt(itertools.chain([first[1]], fh), dtype=_ENTRY_DTYPE,
                          comments="#", ndmin=1)
    except ValueError as exc:
        if fh.seekable():     # name the first entry line that does not parse
            fh.seek(0)
            for raw in itertools.islice(fh, first[0], None):
                line = raw.split("#", 1)[0].strip()
                parts = line.split()
                if parts and len(parts) != 4:
                    raise ValueError(f"{path}: unrecognised line {line!r}") from None
                if parts and not _is_entry(parts):
                    raise ValueError(f"{path}: malformed entry line {line!r}") from None
        raise ValueError(f"{path}: {exc}") from None


def _finite(text):
    """The float ``text`` spells; ValueError if it is infinite or NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError
    return value


def _is_entry(parts):
    """Whether four fields read as three integer indices and a float."""
    try:
        int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
    except ValueError:
        return False
    return True
