import dataclasses
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import fpualt
from fpualt import (DegenerateSpectrumError, IntegratorConfig,
                    QuasiHarmonicSystem, ReducedState, build_reduced,
                    cartoon_system, eigendecompose, eval_accel_reduced,
                    eval_qh_rhs, extract_subsystem, integrate, load_system,
                    pair_eigenvalues, save_system, to_quasi_harmonic)
from fpualt.linalg import jacobi_eigh
from fpualt.reduction import ReducedSystem
from fpualt.refdata import REFERENCE_TABLES, load_reference
from fpualt.scenarios import analysis_report
from fpualt.spectral import ModeLabel, all_pair_eigenvalues, pair_labels

from conftest import dense_bilinear, selection_rule


class TestJacobi:
    def test_against_lapack(self, rng):
        for n in (1, 2, 5, 20, 46):
            m = rng.standard_normal((n, n))
            a = 0.5 * (m + m.T)
            w, v = jacobi_eigh(a)
            ref = np.sort(np.linalg.eigvalsh(a))
            assert np.abs(np.sort(w) - ref).max() <= 1e-12 * max(1, np.abs(a).max())
            assert np.abs(a @ v - v * w[None, :]).max() <= 1e-12 * np.abs(a).max()
            assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-13

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestPairEigenvalues:
    def test_p3_values(self):
        lo, hi = pair_eigenvalues(0.01, 3, 1)
        assert lo == pytest.approx(0.0149623, abs=5e-8)
        assert hi == pytest.approx(2.0050377, abs=5e-8)

    def test_p5_closed_forms(self):
        # the two pairs match a+1 -/+ sqrt(1 - (1 -/+ sqrt5)/2 a + a^2)
        for a in (0.01, 0.17, 1.3):
            s5 = math.sqrt(5.0)
            lo1, hi1 = pair_eigenvalues(a, 5, 1)
            lo2, hi2 = pair_eigenvalues(a, 5, 2)
            r1 = math.sqrt(1.0 - 0.5 * (1.0 - s5) * a + a * a)
            r2 = math.sqrt(1.0 - 0.5 * (1.0 + s5) * a + a * a)
            assert lo1 == pytest.approx(a + 1 - r1, abs=1e-14)
            assert hi1 == pytest.approx(a + 1 + r1, abs=1e-14)
            assert lo2 == pytest.approx(a + 1 - r2, abs=1e-14)
            assert hi2 == pytest.approx(a + 1 + r2, abs=1e-14)

    def test_p9_published_list(self):
        published = {0.019391, 2.00061, 0.0149623, 2.00504,
                     0.00821511, 2.01178, 0.00231905, 2.01768}
        ours = sorted(all_pair_eigenvalues(0.01, 9))
        for val in published:
            assert min(abs(val - x) for x in ours) <= 5e-6

    def test_pair_sum_identity(self):
        for p in range(3, 49, 2):
            for a in (0.01, 0.001):
                for j in range(1, (p - 1) // 2 + 1):
                    lo, hi = pair_eigenvalues(a, p, j)
                    assert abs(lo + hi - (2 + 2 * a)) <= 1e-12

    def test_range_check(self):
        with pytest.raises(ValueError, match="pair index"):
            pair_eigenvalues(0.01, 5, 3)

    def test_overflowing_a_is_named(self):
        with pytest.raises(ValueError, match=r"a = 1e\+200 is too large"):
            pair_eigenvalues(1e200, 5, 1)


class TestEigendecompose:
    @pytest.mark.parametrize("p", [3, 9, 23, 47])
    def test_invariants(self, p):
        sys = build_reduced(p, 0.01, 1.0)
        basis = eigendecompose(sys)
        d = p - 1
        # conjugation: M^{-1} K T = T Lambda
        minvk = (1.0 / sys.masses)[:, None] * sys.stiffness
        assert np.abs(minvk @ basis.t - basis.t * basis.lambdas[None, :]).max() <= 1e-10
        # matches the closed forms, in pair order
        assert np.abs(basis.lambdas - all_pair_eigenvalues(0.01, p)).max() <= 1e-9
        # pair sums
        sums = basis.lambdas[0::2] + basis.lambdas[1::2]
        assert np.abs(sums - 2.02).max() <= 1e-12
        # acoustic/optical windows and labels
        for i, lab in enumerate(basis.labels):
            lam = basis.lambdas[i]
            if i % 2 == 0:
                assert lab.kind == "acoustic" and 0 < lam < 4 * 0.01
            else:
                assert lab.kind == "optical" and lam > 2
            assert lab.pair == i // 2 + 1
        # M-weighted unit columns, dominant entry positive
        mnorm = np.einsum("ij,i,ij->j", basis.t, sys.masses, basis.t)
        assert np.abs(mnorm - 1).max() <= 1e-12
        mag = np.abs(basis.t)
        dominant = np.argmax(mag >= (1.0 - 1e-12) * mag.max(axis=0), axis=0)
        assert np.all(basis.t[dominant, np.arange(d)] > 0)
        # exact inverse
        assert np.abs(basis.t @ basis.t_inv - np.eye(d)).max() <= 1e-12
        assert np.abs(basis.t_inv @ basis.t - np.eye(d)).max() <= 1e-12

    def test_p3_lambda_values(self):
        basis = eigendecompose(build_reduced(3, 0.01, 1.0))
        assert basis.lambdas[0] == pytest.approx(0.0149623, abs=5e-8)
        assert basis.lambdas[1] == pytest.approx(2.0050377, abs=5e-8)

    @pytest.mark.parametrize("p", [3, 9, 47, 99, 199])
    def test_closed_form_against_lapack(self, p):
        # The closed-form sine-mode basis diagonalises S = M^{-1/2} K M^{-1/2}
        # to round-off (measured <= 7.2e-16 conjugation, 6.2e-15
        # orthonormality at p = 199) and spans the same eigenvectors as
        # LAPACK's, one per distinct eigenvalue.
        sys = build_reduced(p, 0.01, 1.0)
        basis = eigendecompose(sys)
        d = p - 1
        assert np.array_equal(basis.lambdas, all_pair_eigenvalues(0.01, p))
        minvk = (1.0 / sys.masses)[:, None] * sys.stiffness
        assert np.abs(minvk @ basis.t - basis.t * basis.lambdas).max() <= 1e-14
        gram = basis.t.T @ (sys.masses[:, None] * basis.t)
        assert np.abs(gram - np.eye(d)).max() <= 1e-13
        assert np.abs(basis.t_inv @ basis.t - np.eye(d)).max() <= 1e-13
        mag = np.abs(basis.t)
        dominant = np.argmax(mag >= (1.0 - 1e-12) * mag.max(axis=0), axis=0)
        assert np.all(basis.t[dominant, np.arange(d)] > 0)

        dm = 1.0 / np.sqrt(sys.masses)
        w, v = np.linalg.eigh(dm[:, None] * sys.stiffness * dm[None, :])
        order = np.argsort(basis.lambdas)
        assert np.abs(w - basis.lambdas[order]).max() <= 1e-13
        u = basis.t[:, order] / dm[:, None]          # the orthonormal S-basis
        overlap = np.abs(np.einsum("ij,ij->j", u, v))
        assert np.abs(overlap - 1.0).max() <= 1e-8

    def test_sign_rule_breaks_exact_ties(self):
        # At p = 15 the sine modes of pairs 3, 5 and 6 have components
        # equal in magnitude and opposite in sign; the first one (lowest
        # site) is made positive, whatever the last bit of np.sin says.
        basis = eigendecompose(build_reduced(15, 0.01, 1.0))
        mag = np.abs(basis.t)
        near = mag >= (1.0 - 1e-12) * mag.max(axis=0)
        tied = np.flatnonzero(near.sum(axis=0) > 1)
        assert set(tied // 2 + 1) == {3, 5, 6}
        first = np.argmax(near, axis=0)
        assert np.all(basis.t[first, np.arange(14)] > 0)
        assert any(np.any(basis.t[near[:, c], c] < 0) for c in tied)

    def test_unfitting_system_refused(self):
        # Same p and a, but one bond 5 % stiffer, so the stiffness D^T D is
        # one the sine modes do not diagonalise: the eigenvalue gaps are
        # fine, the conjugation residual is not.
        sys = build_reduced(5, 0.01, 1.0)
        bonds = sys.bonds.copy()
        bonds[2] *= 1.05
        bent = ReducedSystem(p=5, a=0.01, alpha=1.0, masses=sys.masses,
                             bonds=bonds)
        with pytest.raises(DegenerateSpectrumError, match="do not diagonalise"):
            eigendecompose(bent)

    def test_degenerate_spectrum_refused(self):
        # a synthetic system without bonds, whose stiffness is 0: the
        # closed-form eigenvalues of p = 5 are distinct, so the residual
        # check refuses it
        d = 4
        sys = ReducedSystem(p=5, a=0.01, alpha=1.0, masses=np.ones(d),
                            bonds=np.zeros((d + 1, d)))
        with pytest.raises(DegenerateSpectrumError, match="do not diagonalise"):
            eigendecompose(sys)


class TestQuasiHarmonic:
    def test_change_of_variables_identity(self, systems, rng):
        for p in (3, 5, 9):
            red, basis, qh = systems[p]
            for _ in range(100 if p == 3 else 30):
                x = rng.uniform(-0.5, 0.5, p - 1)
                q = basis.t @ x
                lhs = basis.t_inv @ eval_accel_reduced(red, ReducedState(q, np.zeros(p - 1)))
                rhs = eval_qh_rhs(qh, x)
                scale = max(1.0, np.abs(lhs).max())
                assert np.abs(lhs - rhs).max() <= 1e-9 * scale

    def test_roundtrip_coordinates(self, systems, rng):
        red, basis, _ = systems[9]
        q = rng.uniform(-1, 1, 8)
        assert np.abs(basis.t @ (basis.t_inv @ q) - q).max() <= 1e-12

    def test_alpha_scales_at_evaluation(self, systems):
        _, _, qh = systems[3]
        x = np.array([0.3, -0.2])
        base, full, twice = (eval_qh_rhs(dataclasses.replace(qh, alpha=alpha), x)
                             for alpha in (0.0, 1.0, 2.0))
        assert np.abs(base + qh.lambdas * x).max() == 0.0
        assert np.abs((twice - base) - 2.0 * (full - base)).max() <= 1e-14

    @pytest.mark.parametrize("lambdas, alpha, message", [
        # alpha = inf was refused only when the system was saved
        ([0.5, 1.5], math.inf, "alpha must be a finite number, got inf"),
        # alpha = nan lost the origin: find_equilibria found 0 points
        ([0.5, 1.5], math.nan, "alpha must be a finite number, got nan"),
        ([math.nan, 1.0], 1.0, "lambda 1 must be a finite number, got nan"),
        ([0.5, -math.inf], math.nan, "alpha must be a finite number, got nan"),
        ([[0.5, 1.5]], 1.0, r"lambdas must be one-dimensional, got shape \(1, 2\)"),
    ])
    def test_non_finite_values_are_refused(self, lambdas, alpha, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            QuasiHarmonicSystem(lambdas=lambdas, labels=pair_labels(3), alpha=alpha,
                                a=0.01, p=3, name="hot",
                                given=([0], [0], [1], [0.25]))

    def test_lambdas_given_as_a_list(self):
        # a list ended in AttributeError: 'list' object has no attribute 'size'
        qh = QuasiHarmonicSystem(lambdas=[1.0, 2.0], labels=pair_labels(3), alpha=1.0,
                                 given=([0], [0], [1], [0.25]))
        assert qh.dof == 2 and qh.lambdas.dtype == float
        assert np.array_equal(qh.accel(np.array([1.0, 1.0])), [-0.75, -2.0])

    def test_p5_square_placement(self, systems):
        # squares of pair 1 modes live only in pair 2 equations and vice versa
        _, _, qh = systems[5]
        thresh = 1e-10 * np.abs(qh.monomials.coeff).max()
        b = dense_bilinear(qh)
        for sq_mode, eqs in ((1, (3, 4)), (2, (3, 4)), (3, (1, 2)), (4, (1, 2))):
            present = {r + 1 for r in range(4)
                       if abs(b[r, sq_mode - 1, sq_mode - 1]) > thresh}
            assert present == set(eqs)

    def test_trajectory_equivalence(self, systems, rng):
        # x-dynamics and q-dynamics agree after transformation
        red, basis, qh = systems[3]
        q0 = rng.uniform(-0.2, 0.2, 2)
        v0 = rng.uniform(-0.02, 0.02, 2)
        cfg = IntegratorConfig(t_end=200.0, sample_dt=1.0)
        tr_q = integrate(red, np.concatenate([q0, v0]), cfg)
        x0 = basis.t_inv @ q0
        u0 = basis.t_inv @ v0
        tr_x = integrate(qh, np.concatenate([x0, u0]), cfg)
        assert tr_q.ok and tr_x.ok
        q_from_x = tr_x.positions() @ basis.t.T
        assert np.abs(q_from_x - tr_q.positions()).max() <= 1e-7


class TestSelectionRule:
    @pytest.mark.parametrize("p", [3, 5, 9, 15, 45, 47, 91, 93, 97, 99, 149, 199])
    def test_unmasked_tensor_obeys_rule(self, p):
        # Before masking, the entries the rule forbids are round-off
        # (measured <= 1.6e-14 of the largest entry) and the allowed ones
        # are genuine couplings (measured >= 3.7e-12, at p = 199).
        sys = build_reduced(p, 0.01, 1.0)
        basis = eigendecompose(sys)
        g = sys.bonds @ basis.t
        f = -(basis.t_inv / sys.masses[None, :]) @ sys.bonds.T
        d = p - 1
        b = (f @ (g[:, :, None] * g[:, None, :]).reshape(p, d * d)).reshape(d, d, d)
        allowed = selection_rule([lab.pair for lab in basis.labels], p)
        scale = np.abs(b).max()
        assert np.abs(b[~allowed]).max(initial=0.0) <= 1e-13 * scale
        assert np.abs(b[allowed]).min() >= 1e-12 * scale

    @pytest.mark.parametrize("p", [3, 9, 21, 47, 99, 199])
    def test_built_tensor_is_exactly_the_rule(self, p):
        qh = to_quasi_harmonic(build_reduced(p, 0.01, 1.0))
        allowed = selection_rule([lab.pair for lab in qh.labels], p)
        assert np.array_equal(dense_bilinear(qh) != 0.0, allowed)


class TestSystemFiles:
    def test_roundtrip(self, systems, tmp_path):
        _, _, qh = systems[5]
        path = tmp_path / "p5.txt"
        save_system(qh, path)
        loaded = load_system(path)
        assert loaded.p == 5 and loaded.a == 0.01 and loaded.alpha == 1.0
        assert np.abs(loaded.lambdas - qh.lambdas).max() == 0.0
        assert np.abs(dense_bilinear(loaded) - dense_bilinear(qh)).max() <= 1e-17
        assert [(l.kind, l.pair) for l in loaded.labels] == \
               [(l.kind, l.pair) for l in qh.labels]

    def test_numpy_scalar_parameters_round_trip(self, tmp_path):
        # np.float64 parameters were written as "np.float64(0.01)", a header
        # load_system refused, and printed so in the report header
        qh = to_quasi_harmonic(build_reduced(3, np.float64(0.01), np.float64(1.0)))
        path = tmp_path / "p3.txt"
        save_system(qh, path)
        assert path.read_text().splitlines()[0] == "3 0.01 1.0"
        loaded = load_system(path)
        assert loaded.a == 0.01 and loaded.alpha == 1.0
        assert all(np.array_equal(got, want)
                   for got, want in zip(loaded.monomials, qh.monomials))
        assert "(p=3, a=0.01, alpha=1.0, modes=2)" in \
            analysis_report(qh).splitlines()[0]

    def test_comments_and_errors(self, tmp_path):
        good = tmp_path / "ok.txt"
        good.write_text("# comment\n3 0.01 1.0\n0.5 acoustic 1\n1.5 optical 1\n"
                        "1 1 2 0.25  # inline comment\n")
        sys = load_system(good)
        assert sys.dof == 2 and list(zip(*sys.monomials)) == [(0, 0, 1, 0.25)]

        bad = tmp_path / "bad.txt"
        bad.write_text("3 0.01 1.0\n0.5 acoustic 1\nnot a line at all here\n")
        with pytest.raises(ValueError, match="unrecognised"):
            load_system(bad)

        out_of_range = tmp_path / "range.txt"
        out_of_range.write_text("3 0.01 1.0\n0.5 acoustic 1\n1.5 optical 1\n"
                                "1 2 3 0.25\n")
        with pytest.raises(ValueError, match="out of range"):
            load_system(out_of_range)

    @pytest.mark.parametrize("make", [
        # p = 199 has index fields up to 198
        *(pytest.param(lambda p=p: to_quasi_harmonic(build_reduced(p, 0.01, 1.0)), id=str(p))
          for p in (9, 47, 99, 199)),
        *(pytest.param(lambda name=name: load_reference(name), id=name)
          for name in sorted(REFERENCE_TABLES)),
        pytest.param(lambda: extract_subsystem(
            to_quasi_harmonic(build_reduced(9, 0.01, 1.0)), (5, 6)), id="p9_sub56"),
        # subnormal, +-1e308, the smallest normal and negative coefficients
        pytest.param(lambda: QuasiHarmonicSystem(
            np.array([0.5, 1.5]), tuple(pair_labels(3)), 1.0, 0.01, 3, name="extreme",
            given=([0, 0, 0, 1, 1, 1], [0, 0, 1, 0, 0, 1], [0, 1, 1, 0, 1, 1],
                   [5e-324, -1e308, 1e308, -2.2250738585072014e-308, -4.9e-310,
                    -0.125])), id="extreme"),
    ])
    def test_save_matches_per_line_writer(self, make, tmp_path):
        qh = make()
        save_system(qh, tmp_path / "bulk.txt")
        _save_per_line(qh, tmp_path / "lines.txt")
        assert (tmp_path / "bulk.txt").read_bytes() == \
               (tmp_path / "lines.txt").read_bytes()

    @pytest.mark.parametrize("table, edit", [
        *(pytest.param(table, None, id=table) for table in sorted(REFERENCE_TABLES)),
        pytest.param("p5_full", lambda text: text.replace("\n", "\r\n"), id="p5_full-crlf"),
        pytest.param("p5_full", lambda text: text.rstrip("\n"), id="p5_full-no_final_newline"),
        pytest.param("p5_full", lambda text: text.replace("\n", "\r\n").rstrip("\r\n"),
                     id="p5_full-crlf_no_final_newline"),
        # a comment and a blank line after every line, so between the blocks too
        pytest.param("p9_full", lambda text: text.replace("\n", "\n# between\n\n"),
                     id="p9_full-comments_between_blocks"),
    ])
    def test_load_matches_per_line_parser_on_tables(self, table, edit, tmp_path):
        path = DATA_DIR / REFERENCE_TABLES[table]
        if edit:
            text, path = edit(path.read_text()), tmp_path / path.name
            path.write_bytes(text.encode())
        _assert_loads_like_per_line_parser(path)

    def test_load_matches_per_line_parser_p99(self, tmp_path):
        path = tmp_path / "p99.txt"
        save_system(to_quasi_harmonic(build_reduced(99, 0.01, 1.0)), path)
        _assert_loads_like_per_line_parser(path)

    @pytest.mark.parametrize("text, message", [
        ("3 0.01\n0.5 acoustic 1\n", "malformed header"),
        ("3 zero 1.0\n0.5 acoustic 1\n", "malformed header"),
        ("3 0.01 1.0\n0.5 acoustic one\n", "malformed mode line"),
        ("3 0.01 1.0\n0.5 acoustic 1\n1.5 optical 1\n1 1 2\n",
         "unrecognised line '1 1 2'"),
        ("3 0.01 1.0\n0.5 acoustic 1\n1.5 optical 1\n1 1 1 0.5\n"
         "1 1 2 0.25 7\n", "unrecognised line '1 1 2 0.25 7'"),
        ("3 0.01 1.0\n0.5 acoustic 1\n1.5 optical 1\n1 1 2 0.25\n"
         "0.7 acoustic 2\n", "unrecognised line '0.7 acoustic 2'"),
        ("3 0.01 1.0\n0.5 acoustic 1\n1.5 optical 1\n1.5 1 2 0.25\n",
         "malformed entry line '1.5 1 2 0.25'"),
        ("3 0.01 1.0\n0.5 acoustic 1\n1.5 optical 1\n1 1 2 x\n",
         "malformed entry line '1 1 2 x'"),
        ("3 0.01 1.0\n0.5 acoustic 1\n1.5 optical 1\n1 1 1 0.5\n0 1 2 0.25\n",
         r"out of range: \(0, 1, 2\)"),
        ("3 0.01 1.0\n0.5 acoustic 1\n1.5 optical 1\n2 2 1 0.25\n",
         r"out of range: \(2, 2, 1\)"),
        ("3 0.01 1.0\n1 1 1 0.5\n", "missing header or mode lines"),
        ("3 0.01 1.0\n0.5 foo 1\n",
         "missing header or mode lines; '0.5 foo 1' is not a mode line$"),
        ("3 0.01 1.0\n0.5 acoustic 0\n", r"mode 1 label \('acoustic', 0\) is not "
         "acoustic or optical with a positive integer pair$"),
        ("3 inf 1.0\n0.5 acoustic 1\n", "malformed header '3 inf 1.0'"),
        ("3 0.01 nan\n0.5 acoustic 1\n", "malformed header '3 0.01 nan'"),
        ("3 0.01 1.0\n-inf acoustic 1\n", "malformed mode line '-inf acoustic 1'"),
        # CRLF line endings, no final newline, comments and blank lines
        # between the blocks: the same messages
        ("3 0.01 1.0\r\n0.5 acoustic 1\r\n1.5 optical 1\r\n1 1 1 0.5\r\n"
         "1.5 1 2 0.25\r\n", "malformed entry line '1.5 1 2 0.25'$"),
        ("3 0.01 1.0\r\n0.5 acoustic 1\r\n1.5 optical 1\r\n1 1 2\r\n",
         "unrecognised line '1 1 2'$"),
        ("3 0.01 1.0\n0.5 acoustic 1\n1.5 optical 1\n1 1 1 0.5\n1 1 2",
         "unrecognised line '1 1 2'$"),
        ("3 0.01 1.0\r\n# no mode lines", "missing header or mode lines$"),
        ("# c\n\n3 0.01 1.0\n# c\n\n0.5 acoustic 1\n1.5 optical 1\n\n# c\n"
         "1 1 1 0.5\n\n# c\n1 1 x 0.5\n", "malformed entry line '1 1 x 0.5'$"),
        ("3 0.01 1.0\n\n# c\n1 1 1 0.5\n",
         "missing header or mode lines; '1 1 1 0.5' is not a mode line$"),
        ("3 0.01 1.0\n0.5 acoustic 1\n1.5 optical 1\n1 1 2 0.25\n"
         "2 1 2 nan\n", r"non-finite entry \(2, 1, 2, nan\)"),
        ("3 0.01 1.0\n0.5 acoustic 1\n1.5 optical 1\n1 1 1 -inf\n",
         r"non-finite entry \(1, 1, 1, -inf\)"),
        # every line parses as an entry, but an index overflows int64:
        # numpy's message, as no line is malformed
        ("3 0.01 1.0\n0.5 acoustic 1\n1.5 optical 1\n1 1 99999999999999999999 0.5\n",
         "could not convert string '99999999999999999999' to int64 at row 0, "
         "column 3"),
    ])
    def test_errors_name_the_file(self, text, message, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as info:
            load_system(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_a_malformed_pipe_names_the_file(self):
        # the refusal seeks back to name the line, which a pipe cannot:
        # this raised io.UnsupportedOperation: underlying stream is not seekable
        read, write = os.pipe()
        with os.fdopen(write, "w") as fh:
            fh.write("3 0.01 1.0\n0.5 acoustic 1\n1.5 optical 1\n1 1 x 0.5\n")
        path = f"/dev/fd/{read}"
        try:
            with pytest.raises(ValueError) as info:
                load_system(path)
        finally:
            os.close(read)
        assert str(info.value) == (f"{path}: could not convert string 'x' to int64 "
                                   "at row 0, column 3.")

    @pytest.mark.parametrize("make, message", [
        # a cartoon has no mode labels and a = nan: the header "0 nan 1.0"
        # and the unlabelled mode lines could not be read back
        (lambda: cartoon_system(2),
         "cannot save system 'cartoon2': it has no mode labels, no finite a"),
        # each of these was written, and then refused by load_system; the
        # constructor now refuses it, naming the label or field
        (lambda: _p3(labels=(ModeLabel("foo", 1), ModeLabel("optical", 1))),
         "mode 1 label ('foo', 1) is not acoustic or optical with a positive "
         "integer pair"),
        (lambda: _p3(labels=(ModeLabel("acoustic", 1), ModeLabel("optical 2", 1))),
         "mode 2 label ('optical 2', 1) is not acoustic or optical with a "
         "positive integer pair"),
        (lambda: _p3(labels=(ModeLabel("acoustic", 1), ModeLabel("optical", 1.5))),
         "mode 2 label ('optical', 1.5) is not acoustic or optical with a "
         "positive integer pair"),
        # a kind with a blank was saved and loaded back as another label,
        # and a pair 0 was saved and loaded back as it was
        (lambda: _p3(labels=(ModeLabel("acoustic ", 1), ModeLabel("optical", 1))),
         "mode 1 label ('acoustic ', 1) is not acoustic or optical with a "
         "positive integer pair"),
        (lambda: _p3(labels=(ModeLabel("acoustic", 0), ModeLabel("optical", 0))),
         "mode 1 label ('acoustic', 0) is not acoustic or optical with a "
         "positive integer pair"),
        (lambda: _p3(p=3.0), "p must be an integer, got 3.0"),
        (lambda: QuasiHarmonicSystem(np.zeros(0), (), 1.0, 0.01, 3, name="empty",
                                     given=[[]] * 4),
         "a quasi-harmonic system needs at least one mode"),
    ])
    def test_save_refuses_what_load_cannot_read(self, make, message, tmp_path):
        path = tmp_path / "unsaved.txt"
        with pytest.raises(ValueError) as err:
            save_system(make(), path)
        assert str(err.value) == message
        assert not path.exists()

    @pytest.mark.parametrize("make", [
        *(lambda name=name: load_reference(name) for name in sorted(REFERENCE_TABLES)),
        *(lambda p=p: to_quasi_harmonic(build_reduced(p, 0.01, 1.0)) for p in (3, 5, 9, 15)),
        lambda: extract_subsystem(to_quasi_harmonic(build_reduced(9, 0.01, 1.0)), (5, 6)),
    ])
    def test_saved_systems_load_back_exactly(self, make, tmp_path):
        sys = make()
        path = tmp_path / "system.txt"
        save_system(sys, path)
        back = load_system(path)
        assert (back.p, back.a, back.alpha) == (sys.p, sys.a, sys.alpha)
        assert back.lambdas.tobytes() == sys.lambdas.tobytes()
        assert back.labels == sys.labels
        for got, want in zip(back.monomials, sys.monomials):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_no_entry_lines_loads_quietly(self, tmp_path):
        path = tmp_path / "linear.txt"
        path.write_text("3 0.01 1.0\n0.5 acoustic 1\n1.5 optical 1\n"
                        "# no couplings\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sys = load_system(path)
        assert sys.dof == 2 and not dense_bilinear(sys).any()


DATA_DIR = Path(fpualt.__file__).parent / "data"


def _p3(**changes):
    """The built p = 3 system with some fields replaced."""
    return dataclasses.replace(to_quasi_harmonic(build_reduced(3, 0.01, 1.0)), **changes)


def _save_per_line(qh, path):
    """One formatted write per line: the reference for the bulk writer."""
    with open(path, "w") as fh:
        fh.write(f"{qh.p} {qh.a!r} {qh.alpha!r}\n")
        for lam, lab in zip(qh.lambdas, qh.labels):
            fh.write(f"{lam:.16e} {lab.kind} {lab.pair}\n")
        for i, j, k, c in zip(*qh.monomials):
            fh.write(f"{i + 1} {j + 1} {k + 1} {c:.16e}\n")


def _load_per_line(path):
    """The per-line parser the bulk loader replaced: lambdas, labels, B."""
    lams, labels, entries = [], [], []
    header = None
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if header is None:
                header = (int(parts[0]), float(parts[1]), float(parts[2]))
            elif len(parts) == 3 and parts[1] in ("acoustic", "optical"):
                lams.append(float(parts[0]))
                labels.append((parts[1], int(parts[2])))
            else:
                entries.append((int(parts[0]), int(parts[1]), int(parts[2]),
                                float(parts[3])))
    d = len(lams)
    b = np.zeros((d, d, d))
    for i, j, k, c in entries:
        val = c if j == k else 0.5 * c
        b[i - 1, j - 1, k - 1] = val
        b[i - 1, k - 1, j - 1] = val
    return header, np.array(lams), labels, b


def _assert_loads_like_per_line_parser(path):
    header, lams, labels, b = _load_per_line(path)
    sys = load_system(path)
    assert (sys.p, sys.a, sys.alpha) == header
    assert sys.lambdas.tobytes() == lams.tobytes()
    assert [(lab.kind, lab.pair) for lab in sys.labels] == labels
    assert dense_bilinear(sys).tobytes() == b.tobytes()
