import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from matmean import linalg, matio
from matmean.errors import InvalidWeightsError, MatrixFormatError, NotPositiveDefiniteError, NumericalFailure
from matmean.linalg import (
    HermitianMatrix,
    PDMatrix,
    assemble,
    derived,
    complex_gaussian,
    gate_eig,
    gate_stack,
    haar_unitaries,
    hermitian_part,
    principal_sqrt,
    random_pd,
)

from conftest import rand_pd, rand_pd_pairs

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


class TestHermitianConstruction:
    def test_symmetrizes_tiny_asymmetry(self):
        M = np.array([[1.0, 2.0 + 1e-15], [2.0, 3.0]])
        H = HermitianMatrix(M)
        np.testing.assert_allclose(H.mat, H.mat.conj().T)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(MatrixFormatError):
            HermitianMatrix(np.array([[1.0, 2.0], [2.1, 3.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(MatrixFormatError):
            HermitianMatrix(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(MatrixFormatError):
            HermitianMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("data", [{"re": [[1.0]]}, {"dim": 1}, [[1.0]]], ids=["no-dim", "no-re", "list"])
    def test_matrix_json_needs_dim_and_re(self, data):
        with pytest.raises(MatrixFormatError, match='^matrix JSON must contain "dim" and "re"$'):
            matio.matrix_from_dict(data)

    def test_entries_stop_below_the_norm_overflow(self):
        # n max|entry| must stay below sqrt(largest float): just below, the
        # gate's norms are finite; at the limit the gate cannot check the
        # matrix, a numerical failure (a loaded one is a format error)
        bound = linalg.ENTRY_LIMIT / 2
        HermitianMatrix(np.diag([np.nextafter(bound, 0.0), 1.0])).eig()
        with pytest.raises(NumericalFailure, match="entries too large"):
            HermitianMatrix(np.diag([bound, 1.0]))
        with pytest.raises(MatrixFormatError, match="entries too large"):
            matio.matrix_from_dict({"dim": 2, "re": [[bound, 0.0], [0.0, 1.0]]})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_computed_non_finite_entry_is_an_overflow(self, bad):
        # the products of finite operands overflow to inf, or to nan where
        # inf meets 0; a loaded non-finite entry is the Hermitian gate's
        mat = np.diag([bad, 1.0]).astype(np.complex128)
        with pytest.raises(NumericalFailure, match=r"^matrix entries too large: max\|entry\| = inf must"):
            linalg.require_entry_limit(mat, NumericalFailure)
        loaded = matio.matrix_from_dict({"dim": 2, "re": [[bad, 0.0], [0.0, 1.0]]})
        with pytest.raises(MatrixFormatError, match="^matrix contains non-finite entries$"):
            HermitianMatrix(loaded)

    def test_zero_matrix_allowed(self):
        H = HermitianMatrix(np.zeros((3, 3)))
        assert H.dim == 3

    def test_immutable(self):
        H = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            H.mat[0, 0] = 5.0


class TestEig:
    def test_identity(self):
        dec = HermitianMatrix(np.eye(3)).eig()
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_diag_1_20_40_sorted_decreasing(self):
        dec = HermitianMatrix(np.diag([1.0, 20.0, 40.0])).eig()
        np.testing.assert_allclose(dec.eigenvalues, [40.0, 20.0, 1.0])

    @given(a=finite, d=finite, re=finite, im=finite)
    def test_2x2_against_quadratic_formula(self, a, d, re, im):
        # closed-form roots of the characteristic polynomial
        H = HermitianMatrix(np.array([[a, re + 1j * im], [re - 1j * im, d]]))
        tr = a + d
        disc = np.sqrt((a - d) ** 2 + 4 * (re * re + im * im))
        expected = np.array([(tr + disc) / 2, (tr - disc) / 2])
        dec = H.eig()
        scale = 1.0 + float(np.abs(expected).max())
        np.testing.assert_allclose(dec.eigenvalues, expected, atol=1e-12 * scale, rtol=0)

    def test_spectrum_invariant_under_conjugation(self, rng):
        for dim in (2, 4, 7):
            H = rand_pd(dim, seed=dim)
            U = haar_unitaries(complex_gaussian(dim, rng))
            H2 = HermitianMatrix(U.conj().T @ H.mat @ U)
            tol = 1e-9 * float(np.linalg.norm(H.mat))
            np.testing.assert_allclose(
                H.eig().eigenvalues, H2.eig().eigenvalues, atol=tol, rtol=0
            )

    def test_lapack_matches_mpmath(self):
        # a 30-digit reference that shares no code with LAPACK, rounded once
        # to float and put in eig()'s decreasing order; H is rebuilt from its
        # entries, since rand_pd's matrix carries its drawn spectrum
        from mpmath import mp
        for dim in range(1, 9):
            H = HermitianMatrix(rand_pd(dim, seed=100 + dim, cond=1e4).mat)
            with mp.workdps(30):
                E, Q = mp.eighe(mp.matrix(H.mat.tolist()))
                vals, vecs = np.array([float(e) for e in E])[::-1], np.array(Q.tolist(), dtype=np.complex128)[:, ::-1]
            # the checks eig() runs on its own result
            linalg._check_decomposition(vals, vecs, H.mat)
            expected = H.eig().eigenvalues
            np.testing.assert_allclose(vals, expected, rtol=0, atol=1e-12 * (1.0 + float(np.abs(expected).max())))

    def test_eigh_returns_the_eigensolver_arrays_untouched(self, monkeypatch):
        mats = np.stack([hermitian_part(complex_gaussian(4, np.random.default_rng(s))) for s in range(3)])
        expected = np.linalg.eigh(mats)
        eigh, returned = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: returned.append(eigh(m)) or returned[-1])
        vals, vecs = linalg._eigh(mats)
        # increasing order, no copy
        assert vals is returned[0][0] and vecs is returned[0][1]
        np.testing.assert_array_equal(vals, expected[0])
        np.testing.assert_array_equal(vecs, expected[1])

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_eig_is_the_stacked_gate_on_one_matrix(self, dim):
        H = HermitianMatrix(hermitian_part(complex_gaussian(dim, np.random.default_rng(40 + dim))))
        dec = H.eig()
        vals, vecs = gate_stack(H.mat, pd=False)
        np.testing.assert_array_equal(dec.eigenvalues, vals)
        np.testing.assert_array_equal(dec.eigenvectors, vecs)
        assert not dec.eigenvalues.flags.writeable and not dec.eigenvectors.flags.writeable


class TestPrincipalSqrt:
    def test_diagonal(self):
        S = principal_sqrt(PDMatrix(np.diag([4.0, 9.0])))
        np.testing.assert_allclose(S.mat, np.diag([2.0, 3.0]), atol=1e-14, rtol=0)

    def test_2x2_closed_form(self):
        # (D + sqrt(det D) I) / sqrt(tr D + 2 sqrt(det D)) for 2x2 PD D
        D = np.array([[2.0, 1.25], [1.25, 17.0 / 16.0]])
        expected = (D + 0.75 * np.eye(2)) / (np.sqrt(73.0) / 4.0)
        S = principal_sqrt(PDMatrix(D))
        np.testing.assert_allclose(S.mat, expected, atol=1e-14, rtol=0)

    def test_square_reproduces_input(self):
        for dim, A, _ in rand_pd_pairs(8, cond=1e4):
            S = principal_sqrt(A)
            err = np.linalg.norm(S.mat @ S.mat - A.mat)
            assert err <= 1e-9 * np.linalg.norm(A.mat)

    def test_commutes_with_input(self):
        for dim, A, _ in rand_pd_pairs(8):
            S = principal_sqrt(A)
            comm = np.linalg.norm(S.mat @ A.mat - A.mat @ S.mat)
            assert comm <= 1e-9 * np.linalg.norm(A.mat) ** 2


class TestRandomPD:
    def test_dim_1_positive_scalar(self):
        A = random_pd(1, 10.0, seed=0)
        assert A.mat.shape == (1, 1)
        assert A.mat[0, 0].real > 0

    def test_deterministic(self):
        A = random_pd(5, 100.0, seed=11)
        B = random_pd(5, 100.0, seed=11)
        np.testing.assert_array_equal(A.mat, B.mat)

    def test_condition_bound(self):
        A = random_pd(5, 100.0, seed=12)
        vals = A.eig().eigenvalues
        assert vals[0] / vals[-1] <= 100.0 * (1 + 1e-9)
        np.testing.assert_allclose(vals[0], 1.0)

    def test_rejects_dim_zero(self):
        with pytest.raises(MatrixFormatError):
            random_pd(0, 10.0, seed=0)

    def test_rejects_cond_below_one(self):
        with pytest.raises(InvalidWeightsError, match="^cond_max must be >= 1, got 0.5$"):
            random_pd(3, 0.5, seed=0)

    def test_eigen_data_of_mismatched_shapes_is_rejected(self):
        with pytest.raises(MatrixFormatError, match="^eigenvector matrix shape does not match eigenvalue count$"):
            gate_eig(np.array([[1.0, 0.5, 0.25]]), np.eye(2, dtype=np.complex128)[None])

    @pytest.mark.parametrize("vals, vecs, error", [
        ([1.0, 0.5], [[1.0, 0.0], [0.0, np.nan]], NumericalFailure),
        ([1.0, 0.5], [[2.0, 0.0], [0.0, 2.0]], NumericalFailure),
        ([1.0, np.nan], np.eye(2), NotPositiveDefiniteError),
        ([1.0, 1e-14], np.eye(2), NotPositiveDefiniteError),
    ], ids=["nan-eigenvectors", "twice-unitary", "nan-eigenvalue", "not-pd-ratio"])
    def test_from_eig_checks_without_a_second_gate(self, vals, vecs, error):
        # U diag(lambda) U* is not gated again, so the decomposition's own
        # checks must reject what the Hermitian gate rejected before; the
        # stacked check of drawn eigen-data raises the same for one bad
        # slice, and names it
        vals, vecs = np.array(vals), np.array(vecs, dtype=np.complex128)
        with pytest.raises(error):
            PDMatrix._from_eig(vals, vecs)
        good_vals, good_vecs = np.array([1.0, 0.25]), haar_unitaries(complex_gaussian(2, np.random.default_rng(1)))
        with pytest.raises(error, match=r"stack index \(1,\)"):
            gate_eig(np.stack([good_vals, vals, good_vals]), np.stack([good_vecs, vecs, good_vecs]))
        A = PDMatrix._from_eig(good_vals, np.eye(2, dtype=np.complex128))
        np.testing.assert_array_equal(A.mat, np.diag(good_vals))
        assert A.eig().eigenvalues.tolist() == good_vals.tolist()

    def test_stacked_draw_check_exempts_semidefinite_slices(self):
        vals = np.array([[1.0, 0.5], [1.0, 0.0]])
        vecs = np.stack([np.eye(2, dtype=np.complex128)] * 2)
        gate_eig(vals, vecs, [True, False])
        with pytest.raises(NotPositiveDefiniteError, match=r"stack index \(1,\)"):
            gate_eig(vals, vecs)

    @pytest.mark.parametrize("bad", [[1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf]], ids=["nan", "inf", "-inf"])
    def test_stacked_draw_check_rejects_non_finite_semidefinite_slices(self, bad):
        # a slice exempt from the positive-definite check still needs
        # finite eigenvalues; NaN passes the order check
        vecs = np.stack([np.eye(2, dtype=np.complex128)] * 2)
        with pytest.raises(MatrixFormatError, match=r"finite \(stack index \(0,\)\)"):
            gate_eig(np.array([bad]), vecs[:1], pd=[False])
        with pytest.raises(MatrixFormatError, match=r"finite \(stack index \(1,\)\)"):
            gate_eig(np.array([[1.0, 0.5], bad]), vecs, [True, False])

    def test_haar_unitaries_match_one_at_a_time_bitwise(self):
        rng = np.random.default_rng(3)
        gaussians = [complex_gaussian(dim, rng) for dim in (1, 4, 4, 4)]
        stacked = haar_unitaries(np.stack(gaussians[1:]))
        for Z, U in zip(gaussians[1:], stacked):
            np.testing.assert_array_equal(haar_unitaries(Z), U)
        rng = np.random.default_rng(3)
        assert all((haar_unitaries(complex_gaussian(Z.shape[0], rng)) == haar_unitaries(Z)).all() for Z in gaussians)


class TestPDMatrix:
    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            PDMatrix(np.diag([1.0, -1.0]))

    def test_rejects_near_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            PDMatrix(np.diag([1.0, 1e-14]))

    def test_witness_is_min_eigenvalue(self):
        A = rand_pd(4, seed=8)
        np.testing.assert_allclose(A.min_eigenvalue_witness, A.eig().eigenvalues[-1])

    def test_constructor_makes_the_hermitian_part_once(self, monkeypatch):
        # eig() starts the gate after its Hermitian check: the constructor
        # already made the Hermitian part it decomposes
        calls = []
        hermitize = linalg.hermitize

        def counted(mats):
            calls.append(mats)
            return hermitize(mats)

        monkeypatch.setattr(linalg, "hermitize", counted)
        M = rand_pd(8, seed=9).mat
        P = PDMatrix(M)
        assert len(calls) == 1
        vals, vecs = gate_stack(M)
        np.testing.assert_array_equal(P.eig().eigenvalues, vals)
        np.testing.assert_array_equal(P.eig().eigenvectors, vecs)


class TestStackedGate:
    """gate_stack raises, for a stack with one bad matrix, what the scalar
    constructors raise for that matrix."""

    @staticmethod
    def _stack_with(bad):
        good = rand_pd(3, seed=21).mat
        return np.stack([good, bad, 2.0 * good])

    @pytest.mark.parametrize("bad, error", [
        (np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), MatrixFormatError),
        (np.diag([1.0, np.nan, 1.0]), MatrixFormatError),
        (np.diag([1.0, -0.5, 1.0]), NotPositiveDefiniteError),
    ], ids=["non-hermitian", "nan", "indefinite"])
    def test_one_bad_matrix_raises_like_the_scalar_gate(self, bad, error):
        with pytest.raises(error):
            PDMatrix(bad)
        with pytest.raises(error, match=r"stack index \(1,\)"):
            gate_stack(self._stack_with(bad))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3), (1, 0, 0)], ids=["vector", "2x3", "stack-2x3", "0x0"])
    def test_rejects_what_is_not_a_stack_of_square_matrices(self, shape):
        with pytest.raises(MatrixFormatError, match=r"^expected a stack of nonempty square matrices, got shape "):
            gate_stack(np.ones(shape))

    def test_checks_over_several_slices_name_the_bad_matrix(self, monkeypatch):
        # at n = 32 the decomposition checks run over slices of 16
        # matrices; a bad matrix in the third slice of a 2 x 20 stack keeps
        # its index
        n = 32
        vals = np.tile(np.linspace(1.0, 0.5, n), (2, 20, 1))
        vecs = np.tile(np.eye(n, dtype=np.complex128), (2, 20, 1, 1))
        bad = vecs.copy()
        bad[1, 13] *= 2.0
        with pytest.raises(NumericalFailure, match=r"not unitary: .* \(stack index \(1, 13\)\)"):
            gate_eig(vals, bad)
        eigh = linalg._eigh

        def off_by_one(mats):
            vals, vecs = eigh(mats)
            vals[1, 13] += 1.0
            return vals, vecs

        monkeypatch.setattr(linalg, "_eigh", off_by_one)
        with pytest.raises(NumericalFailure, match=r"residual .* \(stack index \(1, 13\)\)"):
            gate_stack(assemble(vals, vecs))

    def test_pd_mask_exempts_selected_matrices(self):
        stack = self._stack_with(np.diag([1.0, -0.5, 1.0]))
        vals, _ = gate_stack(stack, pd=[True, False, True])
        np.testing.assert_array_equal(vals[1], [1.0, 1.0, -0.5])

    def test_matches_scalar_decompositions_bitwise(self):
        mats = [rand_pd(5, seed=s, cond=1e6).mat for s in range(6)]
        vals, vecs = gate_stack(np.stack(mats))
        for i, M in enumerate(mats):
            dec = PDMatrix(M).eig()
            np.testing.assert_array_equal(vals[i], dec.eigenvalues)
            np.testing.assert_array_equal(vecs[i], dec.eigenvectors)


class TestDerivedValues:
    def test_derived_eigenvalues_keep_the_pd_check(self):
        # the eigenvectors of P are reused unchecked, but P**2 has
        # condition number 1e14 and must still fail the PD ratio
        P = PDMatrix(np.diag([1.0, 1e-7]))
        with pytest.raises(NotPositiveDefiniteError):
            derived(P.eig(), np.square)

    def test_derived_values_share_the_gated_eigenvectors(self):
        P = rand_pd(4, seed=31)
        assert principal_sqrt(P).eig().eigenvectors is P.eig().eigenvectors


class TestRequireWeights:
    def test_numbers_fail_without_an_index(self):
        linalg.require_weights("w", a=0.0, b=2)
        with pytest.raises(InvalidWeightsError, match=r"^w: weights must be finite and nonnegative, "
                                                      r"got a = 1\.0, b = -0\.5$"):
            linalg.require_weights("w", a=1.0, b=-0.5)
        with pytest.raises(InvalidWeightsError, match=r"^w: weights must be finite and positive, got a = 0\.0$"):
            linalg.require_weights("w", positive=True, a=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_arrays_name_the_first_bad_index(self, bad):
        a, b = np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.0, 1.0, bad, bad])
        with pytest.raises(InvalidWeightsError, match=rf"^w: .*, got a = 3\.0, b = {bad} \(stack index \(2,\)\)$"):
            linalg.require_weights("w", a=a, b=b)


def _require_reference(ok, error, describe):
    """linalg.require as it was written over np.asarray(ok).all()."""
    ok = np.asarray(ok)
    if ok.all():
        return
    if ok.ndim == 0:
        raise error(describe(()))
    i = tuple(int(k) for k in np.argwhere(~ok)[0])
    raise error(f"{describe(i)} (stack index {i})")


def _raised(check, ok):
    """The (type, message) that check(ok, ...) raises, or None."""
    try:
        check(ok, NumericalFailure, lambda i: f"slice {i}")
    except NumericalFailure as exc:
        return type(exc), str(exc)
    return None


@st.composite
def complex_stacks(draw):
    """Complex (..., n, n) stacks, n in 1..8, of batch shape (), (k,) or
    (2, k), with NaN and +-inf among the entries."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 4))
    batch = draw(st.sampled_from([(), (k,), (2, k)]))
    part = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300]))
    x = np.empty(batch + (n, n), dtype=np.complex128)
    x.real, x.imag = (draw(hnp.arrays(np.float64, x.shape, elements=part)) for _ in range(2))
    return x


class TestDirectHelpers:
    """The helpers that call numpy's ufuncs directly compute what the numpy
    wrappers they replaced compute, bit for bit."""

    @given(complex_stacks())
    def test_frobenius_equals_the_axis_norm(self, x):
        with np.errstate(all="ignore"):  # inf and 1e300 entries overflow alike
            expected = np.linalg.norm(x, axis=(-2, -1))
            got = linalg.frobenius(x)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @given(complex_stacks())
    def test_adjoint_equals_conj_swapaxes(self, x):
        expected = np.conj(np.swapaxes(x, -1, -2))
        got = linalg.adjoint(x)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @given(complex_stacks(), st.floats(0.0, 1e4))
    def test_require_names_the_same_slice(self, x, bound):
        # NaN and inf norms fail the comparison, as every check is written
        with np.errstate(all="ignore"):
            ok = linalg.frobenius(x) <= bound
        assert _raised(linalg.require, ok) == _raised(_require_reference, ok)

    @pytest.mark.parametrize("ok", [True, False, np.True_, np.False_, np.array(True), np.array(False),
                                    np.array(np.nan), np.array([np.nan, 1.0])],
                             ids=["true", "false", "np-true", "np-false", "0d-true", "0d-false",
                                  "0d-nan", "nan-stack"])
    def test_require_on_scalars_and_nan(self, ok):
        assert _raised(linalg.require, ok) == _raised(_require_reference, ok)
