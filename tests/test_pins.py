"""The hot paths pinned bitwise to the expressions they replaced.

Both builders take the chain's masses from one layout, and the symmetry
residual compares the lifted acceleration with the lift of its own
head.  Every system's acceleration evaluates its matrix-vector products
with ``ndarray.dot`` and puts the force's sign into the mass divisor,
and its ``out`` form writes through scratch made once per system and
skips the multiply by alpha when alpha is 1.  The systems below take
both sides of that branch for bond systems with and without a quartic
term and for built and given quasi-harmonic systems, and two of the
scratch pairs mix alpha = 1 with alpha != 1.  The RK8 step writes its
stage sums, error norm and right-hand sides into buffers made once per
run, and its step-size summary takes the median from ``statistics``;
the CSV and SVG writers format a chunk of values with one ``%``.
None of this may change a bit: each form is compared with the old one,
kept here verbatim but for the landing tolerance 1e-12 * t_end, for
single states and rows, for whole trajectories (with t_end below and
above 1, rejected steps and a non-finite wall), for step lists of odd,
even and one length and of integers, and for columns with -0.0,
subnormals, +-1e308, non-finite values, integers, one row and none.  A
y range the old SVG writer could not draw is widened instead.
``dataclasses.replace`` at another alpha gives, bit for bit, the system
made from the same list (or, for a built system, the same chain) at
that alpha.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from fpualt import (ChainParams, IntegratorConfig, QuasiHarmonicSystem,
                    ReducedState, Trajectory, build_chain, build_reduced,
                    cartoon_system, extract_subsystem, integrate, load_reference,
                    load_system, save_system, symmetry_residual, to_quasi_harmonic)
from fpualt.dynamics import (DIVERGENCE_NORM, _ERROR_EXPONENT, _MAX_GROWTH,
                             _MIN_SHRINK, _N_STAGES, _PI_ALPHA, _PI_BETA, _RK_A,
                             _RK_B, _RK_E3, _RK_E5, _SAFETY, _step_size_summary,
                             as_state_vector)
from fpualt.writers import (_H, _MAX_POINTS, _MB, _ML, _MR, _MT, _PALETTE,
                            _ROW_CHUNK, _W, _fmt_num, _ticks, write_csv,
                            write_svg_lines)


def given_at_alpha(sys, alpha):
    """The quasi-harmonic system with the given list of ``sys`` at another alpha."""
    m = sys.monomials
    return QuasiHarmonicSystem(sys.lambdas, sys.labels, alpha,
                               given=(m.i, m.j, m.k, m.coeff))


SYSTEMS = {
    "full": lambda: build_chain(ChainParams(n_pairs=3, a=0.01)),
    "full_quartic": lambda: build_chain(ChainParams(n_pairs=2, a=0.3, beta=0.25)),
    "full_quartic_alpha": lambda: build_chain(ChainParams(2, 0.3, alpha=-2.0, beta=0.25)),
    "reduced": lambda: build_reduced(5, 0.01),
    "reduced_alpha": lambda: build_reduced(5, 0.01, alpha=0.7),
    "built_qh": lambda: to_quasi_harmonic(build_reduced(5, 0.01)),
    "built_qh_alpha": lambda: to_quasi_harmonic(build_reduced(5, 0.01, alpha=0.7)),
    "given_qh": lambda: load_reference("p5_full"),
    "given_qh_alpha": lambda: given_at_alpha(load_reference("p5_full"), 0.5),
    "cartoon1": lambda: cartoon_system(1),
    "cartoon2": lambda: cartoon_system(2),
}


def old_accel(sys):
    """The acceleration as the @ expressions computed it."""
    if hasattr(sys, "bonds"):
        bonds, alpha, beta = sys.bonds, sys.alpha, sys.beta

        def accel(q):
            e = bonds @ q.T
            f = e + alpha * e * e
            if beta:
                f = f + beta * e**3
            return -(bonds.T @ f).T / sys.masses

        return accel
    return lambda x: sys.alpha * (sys.f @ (sys.g @ x.T) ** 2).T - sys.lambdas * x


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def states(rng, d):
    """Single states and rows over several scales, with -0.0 and subnormals."""
    rows = rng.uniform(-1.0, 1.0, (24, d)) * np.repeat([1e-3, 0.1, 1.0, 3.0], 6)[:, None]
    rows[0] = -0.0
    rows[1, 0] = 5e-324
    return [rows[n] for n in range(len(rows))] + [rows, rows[:1]]


def filled(accel, q):
    """accel(q, out) for one state: checks that it returns ``out`` and
    leaves q as it was, and returns the result."""
    kept, out = q.copy(), np.full(q.shape, np.nan)
    assert accel(q, out) is out
    assert same_bits(q, kept)
    return out


@pytest.mark.parametrize("kind", SYSTEMS)
def test_accel_matches_the_matmul_form(kind, rng):
    sys = SYSTEMS[kind]()
    for q in states(rng, sys.dof):
        assert same_bits(sys.accel(q), old_accel(sys)(q)), q
        if q.ndim == 1:
            assert same_bits(filled(sys.accel, q), old_accel(sys)(q)), q


def saved_subsystem(tmp_path):
    """The (5, 6) subsystem of the built p = 9 system, through a system file."""
    save_system(extract_subsystem(to_quasi_harmonic(build_reduced(9, 0.01)), (5, 6)),
                tmp_path / "sub.txt")
    return load_system(tmp_path / "sub.txt")


@pytest.mark.parametrize("make", [
    lambda tmp_path: load_reference("p3_full"), lambda tmp_path: cartoon_system(1),
    saved_subsystem], ids=["p3_full", "cartoon1", "saved_p9_sub56"])
def test_replace_matches_a_given_list_at_that_alpha(make, rng, tmp_path):
    # dataclasses.replace was refused for every given system: the
    # constructor had no keyword for the list it was given
    sys = make(tmp_path)
    replaced, expected = dataclasses.replace(sys, alpha=2.0), given_at_alpha(sys, 2.0)
    for q in states(rng, sys.dof):
        assert same_bits(replaced.accel(q), expected.accel(q)), q


def test_replace_keeps_the_bond_factors_of_a_built_system(rng):
    built = to_quasi_harmonic(build_reduced(9, 0.01))
    replaced = dataclasses.replace(built, alpha=2.0)
    assert same_bits(replaced.g, built.g) and same_bits(replaced.f, built.f)
    expected = to_quasi_harmonic(build_reduced(9, 0.01, alpha=2.0))
    for q in states(rng, built.dof):
        assert same_bits(replaced.accel(q), expected.accel(q)), q


PAIRS = {
    "reduced": lambda: (build_reduced(5, 0.01), build_reduced(7, 0.01)),
    "built_qh": lambda: (to_quasi_harmonic(build_reduced(5, 0.01)),
                         to_quasi_harmonic(build_reduced(47, 0.01))),
    "full_quartic": lambda: (build_chain(ChainParams(2, 0.3, beta=0.25)),
                             build_chain(ChainParams(3, 0.3, alpha=-2.0, beta=0.25))),
    "given_qh": lambda: (load_reference("p5_full"),
                         given_at_alpha(load_reference("p3_full"), 0.5)),
}


@pytest.mark.parametrize("kind", PAIRS)
def test_out_forms_keep_their_own_scratch(kind, rng):
    # the out form of each system writes its intermediates into scratch
    # of its own: interleaved calls on two systems of one kind and
    # different sizes (alpha 1 and alpha -2 or 0.5 in the last two pairs)
    # must not disturb each other
    first, second = PAIRS[kind]()
    for q, x in zip(states(rng, first.dof)[:24], states(rng, second.dof)[:24]):
        assert same_bits(filled(first.accel, q), old_accel(first)(q))
        assert same_bits(filled(second.accel, x), old_accel(second)(x))


# --- the chain's masses and its symmetric manifold ------------------------------


@pytest.mark.parametrize("a", [0.01, 0.3, 3.0, 1e-8, np.float64(0.7)])
def test_builders_share_the_alternating_masses(a):
    # each builder filled the masses 1, 1/a, 1, 1/a, ... of its own
    for n_pairs in (2, 3, 8):
        layout = np.array([1.0, 1.0 / a] * n_pairs)
        assert same_bits(build_chain(ChainParams(n_pairs, a)).masses, layout)
        assert same_bits(build_reduced(2 * n_pairs + 1, a).masses, layout)


def old_symmetry_residual(sys, state):
    """The residual as three parts: acc_p, acc_2p and acc_{2p-i} + acc_i."""
    p = state.q.size + 1

    def lift(x):
        return np.concatenate([x, [0.0], -x[::-1], [0.0]])

    acc = sys.accel(lift(state.q))
    head, mid = acc[: p - 1], acc[p - 1]
    tail, last = acc[p : 2 * p - 1], acc[2 * p - 1]
    return float(
        max(abs(mid), abs(last), np.abs(tail + head[::-1]).max(initial=0.0))
    )


@pytest.mark.parametrize("p", [3, 5, 7])
def test_symmetry_residual_matches_the_three_part_max(p, rng):
    # masses perturbed by 1e-3 break the mirror relation acc_{2p-i} =
    # -acc_i, so the residual is not 0 (acc_p and acc_2p stay 0: the
    # forces on a site between mirrored neighbours cancel for any mass)
    chain = build_chain(ChainParams(p, 0.01, beta=0.25))
    chain = dataclasses.replace(
        chain, masses=chain.masses * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, 2 * p)))
    for q in states(rng, p - 1)[:24]:
        state = ReducedState(q, np.zeros(p - 1))
        new = symmetry_residual(chain, state)
        assert same_bits(np.float64(new), np.float64(old_symmetry_residual(chain, state)))
        assert new > 0.0 or not q.any()


# --- the RK8 step ---------------------------------------------------------------

_RK_A_ROWS = tuple(_RK_A[s, :s] for s in range(_N_STAGES))


def _stage_sums(k):
    """The views k[:s].T for s = 0 .. len(k), built once per run."""
    return [k[:s].T for s in range(len(k) + 1)]


def old_rk_stages(accel, y, h, k, sums):
    """Fill stages 1..11 of ``k`` for a step h from y, given k[0] = f(y).

    ``sums`` are the views of :func:`_stage_sums`.  Each stage writes its
    velocity and acceleration straight into its row of ``k``.  Returns
    the order-8 solution y + h sum_s b_s k_s.
    """
    d = y.size // 2
    for s in range(1, _N_STAGES):
        ys = y + h * sums[s].dot(_RK_A_ROWS[s])
        k[s, :d] = ys[d:]
        k[s, d:] = accel(ys[:d])
    return y + h * sums[_N_STAGES].dot(_RK_B)


def old_derivative(accel, y, out):
    """Write [v, accel(q)] of y = [q, v] into out, from the allocating accel."""
    d = y.size // 2
    out[:d] = y[d:]
    out[d:] = accel(y[:d])


def old_initial_step(accel, y0, f0, atol, rtol, t_span):
    """Hairer's starting step, probing with :func:`old_derivative`."""
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = np.empty_like(y1)
    old_derivative(accel, y1, f1)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0)
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ERROR_EXPONENT
    return min(100.0 * h0, h1, t_span)


def old_integrate(system, state0, cfg):
    """The step loop with a new array for every stage sum, error term and
    right-hand side: it never calls the ``out`` form of ``accel``."""
    with np.errstate(all="ignore"):
        return _old_integrate(system, state0, cfg)


def _old_integrate(system, state0, cfg):
    accel = system.accel
    d = system.dof

    y = as_state_vector(system, state0)
    t = 0.0
    times = [0.0]
    states = [y.copy()]
    k = np.empty((_N_STAGES + 1, 2 * d))   # k[0] = f(y); k[12] = f(y_new)
    sums, k_t = _stage_sums(k), k.T
    old_derivative(accel, y, k[0])

    sample_idx = 1
    eps_t = 1e-12 * cfg.t_end
    min_step_rel = 16.0 * np.finfo(float).eps

    h_free = old_initial_step(accel, y, k[0], cfg.abs_tol, cfg.rel_tol, cfg.t_end)

    err_prev = 1e-4
    n_attempts = 0
    accepted_h = []
    status, message = "ok", ""

    abs_y = np.abs(y)     # |y| of the current state, kept from the error scale
    while t < cfg.t_end - eps_t:
        if not abs_y.max() <= DIVERGENCE_NORM:     # NaN fails too
            status = "diverged"
            message = (f"state norm {abs_y.max():.3e} exceeded "
                       f"{DIVERGENCE_NORM:.1e} at t={t:.6g}")
            break
        if not h_free >= min_step_rel * max(abs(t), 1.0):    # NaN fails too
            status = "step_underflow"
            message = f"step size underflow (h={h_free:.3e}) at t={t:.6g}"
            break

        target = min(sample_idx * cfg.sample_dt, cfg.t_end)
        landing = t + h_free >= target - eps_t
        h = target - t if landing else h_free

        n_attempts += 1
        y_new = old_rk_stages(accel, y, h, k, sums)
        old_derivative(accel, y_new, k[_N_STAGES])
        if not np.isfinite(k).all():    # a non-finite stage or y_new shows here
            h_free = min(h, h_free) * _MIN_SHRINK
            continue

        abs_new = np.abs(y_new)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(abs_y, abs_new)
        err5 = k_t.dot(_RK_E5) / scale
        err3 = k_t.dot(_RK_E3) / scale
        n5 = float(np.dot(err5, err5))
        n3 = float(np.dot(err3, err3))
        denom = n5 + 0.01 * n3
        err_norm = 0.0 if denom <= 0.0 else abs(h) * n5 / math.sqrt(denom * len(scale))

        if err_norm <= 1.0:
            accepted_h.append(h)
            y, abs_y = y_new, abs_new
            k[0] = k[_N_STAGES]
            if landing:     # on t_end short of the grid the loop ends here
                sample_idx += 1
                times.append(target)
                states.append(y.copy())
                t = target
            else:
                t = t + h
            if err_norm == 0.0:
                factor = _MAX_GROWTH
            else:
                factor = _SAFETY * err_norm ** (-_PI_ALPHA) * err_prev ** _PI_BETA
                factor = min(_MAX_GROWTH, max(_MIN_SHRINK, factor))
            err_prev = max(err_norm, 1e-4)
            h_free = max(h * factor, h_free) if landing else h * factor
        else:
            h_free = min(h, h_free) * min(1.0, max(
                _MIN_SHRINK, _SAFETY * err_norm ** (-_ERROR_EXPONENT)))

    if status != "ok" and times[-1] < t - eps_t:
        times.append(t)
        states.append(y.copy())

    n_steps = len(accepted_h)
    return Trajectory(
        times=np.array(times), states=np.array(states), status=status,
        t_reached=float(t), message=message, n_steps=n_steps,
        n_rejected=n_attempts - n_steps, n_rhs=2 + _N_STAGES * n_attempts,
        **old_step_size_summary(accepted_h),
    )


def old_step_size_summary(steps):
    """h_min, h_median and h_max by a sort and a hand-written median."""
    if not steps:
        return {}
    steps = sorted(steps)
    mid = len(steps) // 2
    median = steps[mid] if len(steps) % 2 else (steps[mid - 1] + steps[mid]) / 2
    return {"h_min": float(steps[0]), "h_median": float(median),
            "h_max": float(steps[-1])}


@pytest.mark.parametrize("steps", [
    [0.3, 0.1, 0.2], [0.4, 0.1, 0.3, 0.2], [0.1, 0.2], [0.7], [],
    [3, 1, 4, 2], [5], [1e-300, 5e-324, 1e308, 1e308]])
def test_step_size_summary_matches_the_sorted_median(steps):
    new, old = _step_size_summary(steps), old_step_size_summary(steps)
    assert {k: repr(v) for k, v in new.items()} == {k: repr(v) for k, v in old.items()}


def same_run(new, old):
    """Every field of two trajectories, the floats and arrays bit for bit."""
    for name in Trajectory.__dataclass_fields__:
        a, b = getattr(new, name), getattr(old, name)
        if isinstance(a, np.ndarray):
            assert same_bits(a, b), name
        else:
            assert type(a) is type(b) and repr(a) == repr(b), name


class _Wall:
    """A free particle whose acceleration is NaN from q = 1 on."""

    dof = 1

    def accel(self, q, out=None):
        if out is None:
            out = np.empty_like(q)
        out[...] = np.where(q < 1.0, 0.0, np.nan)
        return out


@pytest.mark.parametrize("kind", SYSTEMS)
def test_step_matches_the_allocating_loop(kind, rng):
    _assert_step_matches(SYSTEMS[kind](), IntegratorConfig(t_end=20.0, sample_dt=0.5), rng)


@pytest.mark.parametrize("kind", SYSTEMS)
def test_short_run_step_matches_the_allocating_loop(kind, rng):
    # t_end below 1: the landing tolerance 1e-12 * t_end is below 1e-12
    _assert_step_matches(SYSTEMS[kind](), IntegratorConfig(t_end=0.5, sample_dt=0.0125), rng)


def _assert_step_matches(sys, cfg, rng):
    y0 = np.concatenate([rng.uniform(-0.3, 0.3, sys.dof),
                         rng.uniform(-0.05, 0.05, sys.dof)])
    new, old = integrate(sys, y0, cfg), old_integrate(sys, y0, cfg)
    assert new.ok and new.n_steps > 20 and new.times[-1] == cfg.t_end
    same_run(new, old)


def test_rejecting_run_matches_the_allocating_loop():
    # an unbounded reduced p = 3 run: steps are rejected on the way out
    sys, y0 = build_reduced(3, 0.01), np.array([1.00754, 2.0, 0.0, 0.0])
    cfg = IntegratorConfig(t_end=400.0)
    new, old = integrate(sys, y0, cfg), old_integrate(sys, y0, cfg)
    assert new.status == "diverged" and new.n_rejected > 10
    same_run(new, old)


def test_wall_run_matches_the_allocating_loop():
    cfg = IntegratorConfig(t_end=5.0, sample_dt=1.0)
    y0 = np.array([0.0, 1.0])
    new, old = integrate(_Wall(), y0, cfg), old_integrate(_Wall(), y0, cfg)
    assert new.status == "step_underflow" and new.n_rejected > 0
    same_run(new, old)


# --- writers -------------------------------------------------------------------

FLOAT_FMT = "{:.16e}"


def old_write_csv(path, header, columns):
    """Write columns (equal-length 1-d arrays) under a mandatory header."""
    columns = [np.asarray(c) for c in columns]
    n = columns[0].size
    if any(c.size != n for c in columns):
        raise ValueError("CSV columns must have equal length")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in range(n):
            fh.write(",".join(FLOAT_FMT.format(float(c[row])) for c in columns))
            fh.write("\n")


def old_write_svg_lines(path, x, series, labels=None, title="", xlabel="t",
                        ylabel=""):
    """Minimal multi-series line plot; one polyline per series."""
    x = np.asarray(x, dtype=float)
    series = [np.asarray(s, dtype=float) for s in series]
    labels = labels or [f"series {i + 1}" for i in range(len(series))]
    stride = max(1, int(np.ceil(x.size / _MAX_POINTS)))
    keep = np.r_[np.arange(0, x.size - 1, stride), x.size - 1]
    xs = x[keep]
    ys = [s[keep] for s in series]

    xlo, xhi = float(xs.min()), float(xs.max())
    ylo = min(float(s.min()) for s in ys)
    yhi = max(float(s.max()) for s in ys)
    if yhi == ylo:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(v):
        return _ML + (v - xlo) / (xhi - xlo) * pw

    def py(v):
        return _MT + (yhi - v) / (yhi - ylo) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>']
    if title:
        out.append(f'<text x="{_W / 2:.0f}" y="22" text-anchor="middle" '
                   f'font-size="15">{title}</text>')
    # axes
    out.append(f'<line x1="{_ML}" y1="{_MT + ph}" x2="{_ML + pw}" y2="{_MT + ph}" '
               'stroke="black"/>')
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + ph}" '
               'stroke="black"/>')
    for tx in _ticks(xlo, xhi):
        out.append(f'<line x1="{px(tx):.2f}" y1="{_MT + ph}" x2="{px(tx):.2f}" '
                   f'y2="{_MT + ph + 5}" stroke="black"/>')
        out.append(f'<text x="{px(tx):.2f}" y="{_MT + ph + 18}" '
                   f'text-anchor="middle">{_fmt_num(tx)}</text>')
    for ty in _ticks(ylo, yhi):
        out.append(f'<line x1="{_ML - 5}" y1="{py(ty):.2f}" x2="{_ML}" '
                   f'y2="{py(ty):.2f}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{py(ty) + 4:.2f}" '
                   f'text-anchor="end">{_fmt_num(ty)}</text>')
    out.append(f'<text x="{_ML + pw / 2:.0f}" y="{_H - 12}" '
               f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{_MT + ph / 2:.0f}" text-anchor="middle" '
                   f'transform="rotate(-90 16 {_MT + ph / 2:.0f})">{ylabel}</text>')
    for idx, (ser, lab) in enumerate(zip(ys, labels)):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xs, ser))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1"/>')
        out.append(f'<text x="{_ML + pw - 6}" y="{_MT + 14 + 15 * idx}" '
                   f'text-anchor="end" fill="{color}">{lab}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


SPECIAL = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                    math.inf, -math.inf, math.nan, 1.0 / 3.0, -123456.789, 1e-300])


def csv_columns(rng):
    """Test tables: name -> columns."""
    n = 2 * _ROW_CHUNK + 3            # two whole write chunks and part of one
    t = np.arange(n) * 0.125
    wide = rng.standard_normal((n, 4)) * np.logspace(-300, 300, n)[:, None]
    wide[: SPECIAL.size, 0] = SPECIAL
    return {
        "special": [SPECIAL, SPECIAL[::-1], np.arange(SPECIAL.size)],
        "long": [t, *wide.T],
        "integers": [np.arange(5), np.array([-3, 0, 7, 2**53 + 1, -(2**62)])],
        "mixed": [np.arange(3, dtype=np.int32), np.array([0.5, -0.0, 1e308]),
                  np.array([True, False, True])],
        "one_row": [np.array([-0.0]), np.array([5e-324]), np.array([7])],
        "no_rows": [np.zeros(0), np.zeros(0)],
    }


@pytest.mark.parametrize("table", ["special", "long", "integers", "mixed",
                                   "one_row", "no_rows"])
def test_csv_matches_the_per_value_loop(table, tmp_path, rng):
    columns = csv_columns(rng)[table]
    header = [f"c{n}" for n in range(len(columns))]
    write_csv(tmp_path / "new.csv", header, columns)
    old_write_csv(tmp_path / "old.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_csv_refuses_unequal_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])
    assert not (tmp_path / "x.csv").exists()


def svg_series(rng):
    """Test plots: name -> (x, series)."""
    n = 3 * _MAX_POINTS + 7            # thinned to every 4th point
    x = np.linspace(0.0, 40.0, n)
    return {
        "thinned": (x, [np.sin(x), rng.standard_normal(n) * 1e-3, np.cos(3 * x) * 1e5]),
        "special": (np.arange(8), [np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-300,
                                             -1e-300, 2.5, -2.5])]),
        "constant": (np.arange(5.0), [np.full(5, -0.0), np.full(5, 2.0)]),
        "integers": (np.arange(10), [np.arange(10) ** 2]),
        "two_points": (np.array([0.0, 1e-3]), [np.array([1e8, -1e8])]),
        "one_value": (np.arange(3.0), [np.full(3, -123456.789), np.full(3, -123456.789)]),
        "one_large_value": (np.arange(3.0), [np.full(3, 2.0**53)]),
    }


@pytest.mark.parametrize("plot", ["thinned", "special", "constant", "integers",
                                  "two_points", "one_value", "one_large_value"])
def test_svg_matches_the_per_point_loop(plot, tmp_path, rng):
    x, series = svg_series(rng)[plot]
    kwargs = {"labels": [f"s{n}" for n in range(len(series))], "title": plot,
              "xlabel": "t", "ylabel": "y"}
    write_svg_lines(tmp_path / "new.svg", x, series, **kwargs)
    old_write_svg_lines(tmp_path / "old.svg", x, series, **kwargs)
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()


@pytest.mark.parametrize("values, ticks", [
    ([0.0, 5e-324], ["-1", "-0.5", "0", "0.5", "1"]),
    ([-1e308, 1e308], ["-1e+307", "-5e+306", "0", "5e+306", "1e+307"]),
    ([1e20, 1e20], ["-1e+20", "-5e+19", "0", "5e+19", "1e+20"]),
])
def test_svg_widens_a_degenerate_range(values, ticks, tmp_path):
    # spans whose fifth rounds to 0 or that overflow reached np.log10(0) or
    # inf in _ticks: two RuntimeWarnings, then "arange: cannot compute length"
    path = tmp_path / "plot.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_svg_lines(path, np.arange(2.0), [np.array(values)], labels=["s"],
                        title="t", xlabel="t", ylabel="y")
    text = path.read_text()
    assert re.findall(r'text-anchor="end">([^<]*)<', text) == ticks
    points = re.search(r'points="([^"]*)"', text)[1].replace(",", " ").split()
    assert all(math.isfinite(float(v)) for v in points)

