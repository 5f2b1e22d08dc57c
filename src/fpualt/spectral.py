"""Normal-mode transformation of the reduced system.

The linear part M^{-1} K of the reduced system decomposes into
(p-1)/2 two-by-two blocks indexed by j = 1 .. (p-1)/2, each contributing
one acoustic and one optical eigenvalue

    lambda = (1+a) -/+ sqrt((1+a)^2 - 4 a sin^2(pi j / p)),

so that every pair sums to 2 + 2a exactly.  The eigenvectors are closed
form too: in the mass-weighted symmetric form M^{-1/2} K M^{-1/2} each is
the sine mode sin(pi j n / p) times the block's eigenvector, one
amplitude on the odd and one on the even sites, which avoids the small-a
ill-conditioning of the raw eigenvector matrix.  Substituting q = T x
into the quadratic vector N(q) = -D^T (D q)^2 and premultiplying by
T^{-1} M^{-1} yields the quasi-harmonic system

    xdd_i + lambda_i x_i = alpha * sum_{j<=k} c_{i,jk} x_j x_k
                         = alpha * (F (G x)^2)_i,

with the bond factors G = D T (modes -> bond extensions, p x (p-1)) and
F = -T^{-1} M^{-1} D^T ((p-1) x p).  Systems built here carry G and F and
evaluate the right-hand side as two small mat-vecs.  The coupling tensor
B_{i,jk} = sum_b F_{ib} G_{bj} G_{bk} is formed from the same factors for
the structure analysis and the system files; systems that carry only a
tensor (tables read from files, extracted subsystems, the cartoon models
of :mod:`fpualt.dynamics`) contract it instead.

Products of three modes sum to zero over the bonds unless the pair
indices I, J, K satisfy I + J + K = p or one is the sum of the other
two.  Built systems store every other entry as an exact zero, and
also zero allowed entries that cancel to round-off (below
DROP_THRESHOLD_REL of the largest entry, as at a = 1), so the structure
analysis reads presence as "nonzero".  (At a = 0.01 and p <= 199 the
allowed entries stay above 3e-12 of the largest one, while the
forbidden ones compute to below 2e-14 before they are zeroed.)

With bond factors the modal system is itself a bond-space system
(:class:`fpualt.chain.BondSystem`): bond operator G and the modal masses
diag(T^T M T), which are 1 for the basis built here and stay exact for
any column scaling of T.  Its energy is that system's,
sum m_j v_j^2/2 + sum_b V((G x)_b).  A fully symmetric tensor has the
energy (|v|^2 + sum lambda x^2)/2 - (alpha/3) B(x, x, x).  Printed
tables, whose tensors are not symmetric, carry no exact energy.

Modes are kept in pair order: (acoustic, optical) for j = 1, 2, ...

System files (:func:`save_system`, :func:`load_system`) are plain text:
a header, the mode lines, then the entry lines, in that order.  The
entry block is written with one %-format per chunk of lines and read
with one ``numpy.loadtxt`` pass.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chain import BondSystem
from .reduction import ReducedSystem


class DegenerateSpectrumError(RuntimeError):
    """Two eigenvalues are too close to assign a canonical mode order."""


@dataclass(frozen=True)
class ModeLabel:
    kind: str          # "acoustic" or "optical"
    pair: int          # 1-based pair index j

    def __str__(self):
        return f"{self.kind} {self.pair}"


@dataclass(frozen=True)
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
    [[2a, 2a cos(pi j/p)], [2 cos(pi j/p), 2]].
    """
    if not 1 <= j <= (p - 1) // 2:
        raise ValueError(f"pair index j must be in 1..{(p - 1) // 2}, got {j}")
    s2 = math.sin(math.pi * j / p) ** 2
    disc = math.sqrt((1.0 + a) ** 2 - 4.0 * a * s2)
    return (1.0 + a) - disc, (1.0 + a) + disc


def all_pair_eigenvalues(a: float, p: int):
    """All p-1 eigenvalues in pair order (acoustic_1, optical_1, ...)."""
    out = np.empty(p - 1)
    for j in range(1, (p - 1) // 2 + 1):
        lo, hi = pair_eigenvalues(a, p, j)
        out[2 * j - 2] = lo
        out[2 * j - 1] = hi
    return out


def pair_labels(p: int):
    labels = []
    for j in range(1, (p - 1) // 2 + 1):
        labels.append(ModeLabel("acoustic", j))
        labels.append(ModeLabel("optical", j))
    return tuple(labels)


# Eigenvalues closer than 2x this collide; the closed-form basis must
# diagonalise the system's own S to this, relative to the largest eigenvalue.
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

    Raises DegenerateSpectrumError if eigenvalues collide within
    ``EIGEN_MATCH_TOL``, or if the basis does not diagonalise the system's
    own S to ``EIGEN_MATCH_TOL`` relative to the largest eigenvalue (a
    system the closed form does not describe).
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

    dm = 1.0 / np.sqrt(sys.masses)
    s = dm[:, None] * sys.stiffness * dm[None, :]
    residual = np.abs(s @ u - u * analytic).max()
    if residual > EIGEN_MATCH_TOL * analytic.max():
        raise DegenerateSpectrumError(
            "the closed-form sine modes do not diagonalise this system "
            f"(residual {residual:.3e})"
        )

    t = dm[:, None] * u                      # columns have unit M-norm
    mag = np.abs(t)   # first component within round-off of the column max
    dominant = np.argmax(mag >= (1.0 - 1e-12) * mag.max(axis=0), axis=0)
    signs = np.where(t[dominant, np.arange(t.shape[1])] < 0, -1.0, 1.0)
    t = t * signs
    t_inv = (u * signs).T * np.sqrt(sys.masses)[None, :]
    return ModalBasis(lambdas=analytic, t=t, t_inv=t_inv,
                      labels=pair_labels(p))


@dataclass(frozen=True)
class QuasiHarmonicSystem:
    """Diagonal linear part plus symmetric quadratic coupling tensor.

    ``bilinear[i]`` is the symmetric matrix B_i with
    xdd_i = -lambda_i x_i + alpha * x . B_i . x; the printed (monomial)
    coefficient of x_j x_k with j < k is 2 B_i[j, k], and B_i[j, j] for
    the squares.  In systems built by :func:`to_quasi_harmonic` the
    entries the selection rule forbids are exact zeros, and the system
    also carries the bond factors ``g`` (G = D T) and ``f`` (F = -T^{-1}
    M^{-1} D^T) with C(x, x) = F (G x)^2, which the right-hand side and the
    energy use.  ``basis`` and ``reduced`` record where the system came
    from; the energy reads the modal masses from them.
    """

    lambdas: np.ndarray
    bilinear: np.ndarray          # (d, d, d), symmetric in the last two axes
    labels: tuple
    alpha: float
    a: float = math.nan
    p: int = 0
    basis: ModalBasis = None
    reduced: ReducedSystem = None
    name: str = ""
    g: np.ndarray = None          # (p, d) bond factor G, or None
    f: np.ndarray = None          # (d, p) bond factor F, or None

    @property
    def dof(self):
        return self.lambdas.size

    @property
    def masses(self):
        """Ones: the static field is already the acceleration."""
        return np.ones(self.dof)

    def static_field(self, alpha=None):
        """The right-hand side and its Jacobian, see :func:`qh_field`."""
        return qh_field(self, alpha)

    @cached_property
    def accel(self):
        """The map x -> xdd = -Lambda x + alpha C(x, x), built once per system."""
        return qh_field(self)[0]

    @cached_property
    def energy(self):
        """Energy map of rows [x, v], vectorised, or None if none is known.

        With bond factors the modal flow is the bond-space system with
        bond operator G and the modal masses diag(T^T M T), so its energy
        sum m_j v_j^2/2 + sum_b V((G x)_b) is exact for any column scaling
        of T.  A tensor that is fully symmetric within DROP_THRESHOLD_REL
        is the gradient of a cubic potential, so the energy is
        (|v|^2 + sum lambda x^2)/2 - (alpha/3) B(x, x, x).  Other tensors
        (the printed tables) carry no exact invariant: None.
        """
        if self.g is not None:
            modal_masses = self.reduced.masses @ self.basis.t ** 2
            return BondSystem(masses=modal_masses, bonds=self.g,
                              alpha=self.alpha).energy
        d, alpha = self.dof, self.alpha
        b, lam = self.bilinear, self.lambdas
        tol = DROP_THRESHOLD_REL * np.abs(b).max(initial=0.0)
        if any(np.abs(b - b.transpose(axes)).max(initial=0.0) > tol
               for axes in ((1, 0, 2), (0, 2, 1))):
            return None

        def energy(y):
            x, v = y[..., :d], y[..., d:]
            cubic = np.sum(x * np.einsum("ijk,...j,...k->...i", b, x, x), axis=-1)
            return 0.5 * np.sum(v * v + lam * x * x, axis=-1) - (alpha / 3.0) * cubic

        return energy

    def monomial(self, i: int, j: int, k: int) -> float:
        """Coefficient of the monomial x_j x_k in equation i (1-based)."""
        j, k = min(j, k), max(j, k)
        mult = 1.0 if j == k else 2.0
        return mult * self.bilinear[i - 1, j - 1, k - 1]

    def monomial_entries(self, threshold=0.0):
        """(i, j, k, coeff) with j <= k, 1-based, |coeff| > threshold.

        Ordered lexicographically by (i, j, k).
        """
        return zip(*self._monomial_columns(threshold))

    def _monomial_columns(self, threshold=0.0):
        """The columns i, j, k, coeff of :meth:`monomial_entries`, as lists."""
        j, k = np.triu_indices(self.dof)
        coeff = self.bilinear[:, j, k] * np.where(j == k, 1.0, 2.0)
        i, pair = np.nonzero(np.abs(coeff) > threshold)
        return ((i + 1).tolist(), (j[pair] + 1).tolist(),
                (k[pair] + 1).tolist(), coeff[i, pair].tolist())

    def tensor_scale(self) -> float:
        """Largest monomial magnitude, a scale for the coupling entries."""
        d = self.dof
        mult = np.where(np.eye(d, dtype=bool), 1.0, 2.0)
        return float(np.abs(self.bilinear * mult[None, :, :]).max())


# Pure round-off relative to the largest entry, far below any physical
# coupling: built tensors drop smaller entries, and the cubic-potential
# energy of tensor-only systems tests full symmetry to this tolerance.
DROP_THRESHOLD_REL = 1e-12


def selection_rule(pairs, p: int) -> np.ndarray:
    """Boolean mask of the entries (i, j, k) a sine-mode basis allows.

    ``pairs`` holds the 1-based pair index of every mode.  An entry can
    be nonzero only if its pair indices I, J, K satisfy I + J + K = p or
    one of them is the sum of the other two; every other entry of the
    coupling tensor vanishes identically.
    """
    i, j, k = np.ix_(pairs, pairs, pairs)
    return (i + j + k == p) | (i == j + k) | (j == i + k) | (k == i + j)


def to_quasi_harmonic(sys: ReducedSystem, basis: ModalBasis = None,
                      name: str = "") -> QuasiHarmonicSystem:
    """Pull the reduced quadratic vector back through the modal basis.

    Entries that :func:`selection_rule` forbids, and entries below
    ``DROP_THRESHOLD_REL`` of the largest one, are stored as exact zeros,
    so a coupling is present iff it is nonzero.  The cutoff matters where
    the rule allows an entry that still cancels, as at a = 1, where it
    computes to round-off.
    """
    if basis is None:
        basis = eigendecompose(sys)
    if basis.t.shape[0] != sys.dof:
        raise ValueError("basis dimension does not match the system")
    g = sys.bonds @ basis.t
    f = -(basis.t_inv * (1.0 / sys.masses)[None, :]) @ sys.bonds.T
    p, d = g.shape
    b = (f @ (g[:, :, None] * g[:, None, :]).reshape(p, d * d)).reshape(d, d, d)
    b = 0.5 * (b + b.transpose(0, 2, 1))
    cutoff = DROP_THRESHOLD_REL * np.abs(b).max()
    b[(np.abs(b) < cutoff) | ~selection_rule([lab.pair for lab in basis.labels], sys.p)] = 0.0
    return QuasiHarmonicSystem(
        lambdas=basis.lambdas.copy(), bilinear=b, labels=basis.labels,
        alpha=sys.alpha, a=sys.a, p=sys.p, basis=basis, reduced=sys,
        name=name or f"p{sys.p}", g=g, f=f,
    )


def qh_field(sys: QuasiHarmonicSystem, alpha=None):
    """Return (rhs, jac): x -> -Lambda x + alpha C(x, x) and its Jacobian.

    C(x, x) = F (G x)^2 when the system carries bond factors; otherwise
    the coupling tensor is contracted, C(x, x)_i = x . B_i . x.  Both
    maps take one state (d,) or rows (n, d) and return (d,) / (d, d) or
    (n, d) / (n, d, d).
    """
    if alpha is None:
        alpha = sys.alpha
    lam = sys.lambdas
    if sys.g is not None:
        g, f = sys.g, sys.f

        def rhs(x):
            return alpha * (f @ (g @ x.T) ** 2).T - lam * x

        def jac(x):
            gx = (g @ x.T).T
            return np.diag(-lam) + 2.0 * alpha * (f * gx[..., None, :]) @ g
    else:
        b = sys.bilinear

        def rhs(x):
            return alpha * np.einsum("ijk,...j,...k->...i", b, x, x) - lam * x

        def jac(x):
            return np.diag(-lam) + 2.0 * alpha * np.einsum("ijk,...k->...ij", b, x)

    return rhs, jac


def eval_qh_rhs(sys: QuasiHarmonicSystem, x, alpha=None):
    """xdd = -Lambda x + alpha * C(x, x)."""
    x = np.asarray(x, dtype=float)
    if x.size != sys.dof:
        raise ValueError(f"state has {x.size} modes, system has {sys.dof}")
    return sys.static_field(alpha)[0](x)


# ---------------------------------------------------------------------------
# Plain-text system files: header "p a alpha", one lambda line per mode
# ("<lambda> <kind> <pair>"), then one line "i j k value" per nonzero
# monomial coefficient, everything 1-based with 17 significant digits.
# The three blocks come in this order; "#" starts a comment anywhere.
# ---------------------------------------------------------------------------

_ENTRY_LINE = "%d %d %d %.16e\n"
_ENTRY_CHUNK = 8192                     # lines per formatted write
_ENTRY_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("k", np.int64),
                         ("c", np.float64)])


def save_system(sys: QuasiHarmonicSystem, path):
    columns = sys._monomial_columns()
    fields = [None] * (4 * len(columns[0]))      # i, j, k, coeff per line
    for n, column in enumerate(columns):
        fields[n::4] = column
    step = 4 * _ENTRY_CHUNK
    with open(path, "w") as fh:
        fh.write(f"{sys.p} {sys.a!r} {sys.alpha!r}\n")
        for lam, lab in zip(sys.lambdas, sys.labels):
            fh.write(f"{lam:.16e} {lab.kind} {lab.pair}\n")
        for start in range(0, len(fields), step):
            chunk = tuple(fields[start:start + step])
            fh.write(_ENTRY_LINE * (len(chunk) // 4) % chunk)


def load_system(path, name: str = "") -> QuasiHarmonicSystem:
    """Read a system file written by :func:`save_system` (comments allowed).

    The header and the mode lines are parsed line by line; the first
    other line starts the entry block, which is read in one pass.  Any
    line that does not parse raises ValueError naming ``path``.
    """
    with open(path) as fh:
        (p, a, alpha), lams, labels = _read_preamble(fh, path)
        entries = _read_entries(fh, path)
    d = len(lams)
    i, j, k, c = (entries[key] for key in _ENTRY_DTYPE.names)
    bad = np.flatnonzero((i < 1) | (i > d) | (j < 1) | (j > k) | (k > d))
    if bad.size:
        n = bad[0]
        raise ValueError(f"{path}: entry indices out of range: "
                         f"{(int(i[n]), int(j[n]), int(k[n]))}")
    val = np.where(j == k, c, 0.5 * c)
    b = np.zeros((d, d, d))
    b[i - 1, j - 1, k - 1] = val
    b[i - 1, k - 1, j - 1] = val
    return QuasiHarmonicSystem(
        lambdas=np.array(lams), bilinear=b, labels=tuple(labels),
        alpha=alpha, a=a, p=p, name=name or str(path),
    )


def _read_preamble(fh, path):
    """Header and mode lines; leaves ``fh`` at the first entry line."""
    header, lams, labels = None, [], []
    while True:
        start = fh.tell()
        raw = fh.readline()
        line = raw.split("#", 1)[0].strip()
        parts = line.split()
        if not raw or (header is not None and parts and not (
                len(parts) == 3 and parts[1] in ("acoustic", "optical"))):
            break
        if not parts:
            continue
        try:
            if header is None:
                if len(parts) != 3:
                    raise ValueError
                header = (int(parts[0]), float(parts[1]), float(parts[2]))
            else:
                lams.append(float(parts[0]))
                labels.append(ModeLabel(parts[1], int(parts[2])))
        except ValueError:
            what = "mode line" if header else "header"
            raise ValueError(f"{path}: malformed {what} {line!r}") from None
    if header is None or not lams:
        raise ValueError(f"{path}: missing header or mode lines")
    fh.seek(start)
    return header, lams, labels


def _read_entries(fh, path):
    """The entry block, from the current position of ``fh`` to the end."""
    start = fh.tell()
    if not fh.read(1):        # no entry lines: loadtxt would warn
        return np.zeros(0, _ENTRY_DTYPE)
    fh.seek(start)
    try:
        return np.loadtxt(fh, dtype=_ENTRY_DTYPE, comments="#", ndmin=1)
    except ValueError as exc:
        fh.seek(start)
        for raw in fh:        # name the first line that does not parse
            line = raw.split("#", 1)[0].strip()
            parts = line.split()
            if parts and len(parts) != 4:
                raise ValueError(f"{path}: unrecognised line {line!r}") from None
            if parts and not _is_entry(parts):
                raise ValueError(f"{path}: malformed entry line {line!r}") from None
        raise ValueError(f"{path}: {exc}") from None


def _is_entry(parts):
    """Whether four fields read as three integer indices and a float."""
    try:
        int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
    except ValueError:
        return False
    return True
