import importlib.util
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import matmean.exact as exact
from matmean.errors import MatrixFormatError, NumericalFailure
from matmean.exact import (
    CertificateItem,
    CertificateReport,
    RationalMatrix,
    certify_all,
    certify_direction_one,
    certify_direction_two,
    det_rational,
    direction_one_data,
    float_shadow,
    leading_principal_minors,
    rat_add,
    rat_inverse,
    rat_matmul,
    rat_scale,
    rat_sub,
    sylvester_pd,
)
from matmean.report import CheckReport
from matmean.suite import certified_pairs, check_incomparability_float

small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1 if j % 2 else 1) * rows[0][j] * cofactor_det(minor)
    return total


def square_rationals(n):
    row = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


def naive_matmul(M, N):
    n = len(M)
    return tuple(tuple(sum((M[i][k] * N[k][j] for k in range(n)), Fraction(0)) for j in range(n))
                 for i in range(n))


def cofactor_minors(rows):
    return tuple(cofactor_det([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1))


def fraction_inverse(rows):
    """Gauss-Jordan elimination over Fractions; None for a singular matrix."""
    n = len(rows)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            return None
        work[col], work[pivot_row] = work[pivot_row], work[col]
        work[col] = [x / work[col][col] for x in work[col]]
        for r in range(n):
            if r != col:
                work[r] = [x - work[r][col] * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def square_pairs(square):
    return st.integers(1, 4).flatmap(lambda n: st.tuples(square(n), square(n)))


def small_squares(n):
    """Lattice matrices, singular often enough to reach that branch."""
    return st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n)


H = Fraction(1, 2)
T = Fraction(1, 3)
# matrices on which the swap-free pass meets a zero pivot
ZERO_PIVOT = {
    "zero-corner": [[0, H, 2], [H, 3, T], [2, T, 5]],
    "zero-second-pivot": [[H, H, T], [H, H, 1], [T, 1, 2]],
    "zero-matrix": [[0] * 4 for _ in range(4)],
}


class TestRationalOps:
    def test_identity_product(self):
        M = RationalMatrix.from_rows([[1, 2], [2, 5]])
        np_eq = rat_matmul(RationalMatrix.diagonal([1] * 2), M)
        assert np_eq.entries == M.entries

    def test_diagonal_inverse(self):
        D = RationalMatrix.diagonal([1, 20, 40])
        inv = rat_inverse(D)
        assert inv.entries == RationalMatrix.diagonal(
            [1, Fraction(1, 20), Fraction(1, 40)]
        ).entries

    @given(st.lists(small_fractions, min_size=9, max_size=9))
    def test_inverse_residual_exact(self, flat):
        rows = [flat[0:3], flat[3:6], flat[6:9]]
        M = RationalMatrix.from_rows(rows)
        if det_rational(M) == 0:
            with pytest.raises(NumericalFailure):
                rat_inverse(M)
        else:
            assert rat_matmul(M, rat_inverse(M)).entries == RationalMatrix.diagonal([1] * 3).entries

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(square_rationals(n), square_rationals(n))))
    def test_matmul_equals_naive_fraction_sum(self, pair):
        M, N = (RationalMatrix.from_rows(rows) for rows in pair)
        assert rat_matmul(M, N).entries == naive_matmul(M.entries, N.entries)

    def test_add_sub_scale(self):
        M = RationalMatrix.from_rows([[1, 0], [0, 1]])
        N = rat_scale(Fraction(1, 2), M)
        assert rat_add(N, N).entries == M.entries
        assert rat_sub(M, M).entries == RationalMatrix.diagonal([0, 0]).entries

    @given(square_pairs(square_rationals))
    def test_add_and_sub_equal_fraction_sums(self, pair):
        M, N = (RationalMatrix.from_rows(rows) for rows in pair)
        zipped = [list(zip(*rows)) for rows in zip(*pair)]
        assert rat_add(M, N).entries == tuple(tuple(x + y for x, y in row) for row in zipped)
        assert rat_sub(M, N).entries == tuple(tuple(x - y for x, y in row) for row in zipped)

    @given(st.integers(1, 4).flatmap(square_rationals), st.fractions(min_value=-50, max_value=50, max_denominator=30)
           | st.integers(-50, 50))
    def test_scale_equals_fraction_products(self, rows, s):
        M = RationalMatrix.from_rows(rows)
        assert rat_scale(s, M).entries == tuple(tuple(s * x for x in row) for row in M.entries)

    @given(st.integers(1, 4).flatmap(lambda n: square_rationals(n) | small_squares(n)))
    def test_inverse_equals_gauss_jordan_over_fractions(self, rows):
        M = RationalMatrix.from_rows(rows)
        expected = fraction_inverse(M.entries)
        if expected is None:
            with pytest.raises(NumericalFailure):
                rat_inverse(M)
        else:
            inverse = rat_inverse(M)
            assert inverse.entries == expected
            assert inverse.cleared()[0] > 0  # so the signs of its pivots are its minors' signs

    def test_inverse_of_negative_definite_is_not_positive_definite(self):
        inverse = rat_inverse(RationalMatrix.diagonal([-1, -2, -3]))
        assert inverse == RationalMatrix.diagonal([-1, Fraction(-1, 2), Fraction(-1, 3)])
        assert not sylvester_pd(inverse)

    @given(square_pairs(small_squares))
    def test_chained_kernels_equal_fraction_arithmetic(self, pair):
        # each kernel reads the (d, rows) of another's result, whose d is
        # rarely the least one
        M, N = (RationalMatrix.from_rows(rows) for rows in pair)
        chained = rat_sub(rat_matmul(rat_scale(Fraction(-3, 7), M), rat_add(M, N)), N)
        expected = tuple(tuple(x - y for x, y in zip(*rows)) for rows in zip(
            naive_matmul(tuple(tuple(Fraction(-3, 7) * x for x in row) for row in M.entries),
                         tuple(tuple(x + y for x, y in zip(*rows)) for rows in zip(M.entries, N.entries))),
            N.entries))
        assert chained.entries == expected
        assert chained.to_float() == [[float(x) for x in row] for row in expected]
        assert det_rational(chained) == cofactor_det(expected)

    def test_to_float_is_the_float_of_each_fraction(self):
        # p / d rounds once; float(p) / float(d) rounds this entry wrongly
        x = Fraction(976392221356167603791252507, 589781032928403263559981)
        M = rat_scale(Fraction(1, 3), rat_scale(3, RationalMatrix.from_rows([[x, 1], [1, x]])))
        assert M.cleared()[0] == 3 * x.denominator
        assert M.to_float() == [[float(x), 1.0], [1.0, float(x)]]

    def test_equal_by_value_whatever_the_denominator(self):
        M = RationalMatrix.from_rows([[1, Fraction(1, 2)], [Fraction(1, 2), 2]])
        half = rat_scale(Fraction(1, 2), M)
        doubled = rat_add(half, half)
        assert doubled.cleared()[0] == 2 * M.cleared()[0]
        assert doubled == M and hash(doubled) == hash(M)
        assert doubled != half and doubled != M.entries

    def test_rejects_non_square(self):
        with pytest.raises(MatrixFormatError):
            RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize("kernel", [rat_add, rat_sub, rat_matmul], ids=["rat_add", "rat_sub", "rat_matmul"])
    def test_kernels_reject_two_dimensions(self, kernel):
        M, N = RationalMatrix.from_rows([[1, 0], [0, 1]]), RationalMatrix.diagonal([1, 2, 3])
        with pytest.raises(MatrixFormatError, match="^rational matrix dimension mismatch: 2 vs 3$"):
            kernel(M, N)

    # made from its entries, a non-square "matrix" used to get answers: the
    # 1x2 one had dim 1, determinant 1 and a 1x2 product with itself
    @pytest.mark.parametrize("entries", [((Fraction(1), Fraction(2)),), ((Fraction(1), Fraction(2)), (Fraction(3),))],
                             ids=["1x2", "ragged"])
    @pytest.mark.parametrize("kernel", [det_rational, lambda M: rat_matmul(M, M), lambda M: rat_add(M, M),
                                        leading_principal_minors, sylvester_pd],
                             ids=["det_rational", "rat_matmul", "rat_add", "leading_principal_minors", "sylvester_pd"])
    def test_kernels_reject_non_square_entries(self, kernel, entries):
        M = RationalMatrix(entries)  # construction checks nothing
        with pytest.raises(MatrixFormatError, match="rational matrix must be square and nonempty"):
            kernel(M)


def _benchmark_rational_rows(monkeypatch) -> list:
    """The rational matrices of one exact-certify benchmark job, from the
    benchmark's own generator."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return [M.entries for M in workloads.WORKLOADS["exact-certify"].make_job(42)[0]]


class TestCleared:
    @staticmethod
    def reference(entries):
        """The lcm over every entry's denominator, and d * entries from
        the numerator and denominator read one by one."""
        d = math.lcm(*(x.denominator for row in entries for x in row))
        return d, [[x.numerator * (d // x.denominator) for x in row] for row in entries]

    @pytest.mark.parametrize("rows", [
        [[Fraction(7, 3)]],
        [[Fraction(0)]],
        [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]],
        [[Fraction(-5, 6), Fraction(0)], [Fraction(0), Fraction(-9, 4)]],
        [[Fraction(-1, 2), Fraction(3, 10)], [Fraction(3, 10), Fraction(-7, 15)]],
    ], ids=["1x1", "zero-1x1", "zero-2x2", "negative-diagonal", "negative"])
    def test_matches_the_per_entry_formula(self, rows):
        assert exact._cleared(tuple(map(tuple, rows))) == self.reference(rows)

    def test_matches_the_per_entry_formula_on_benchmark_matrices(self, monkeypatch):
        for entries in _benchmark_rational_rows(monkeypatch):
            assert exact._cleared(entries) == self.reference(entries)

    @given(st.lists(small_fractions, min_size=9, max_size=9))
    def test_matches_the_per_entry_formula_on_random_matrices(self, values):
        rows = [values[i:i + 3] for i in range(0, 9, 3)]
        assert exact._cleared(rows) == self.reference(rows)


class TestLeadingMinors:
    @pytest.mark.parametrize("rows", ZERO_PIVOT.values(), ids=ZERO_PIVOT.keys())
    def test_zero_pivot_fallback(self, rows):
        rows = [[Fraction(x) for x in row] for row in rows]
        minors = leading_principal_minors(RationalMatrix.from_rows(rows))
        assert minors == cofactor_minors(rows)
        assert 0 in minors

    def test_zero_second_pivot_has_nonzero_third_minor(self):
        minors = leading_principal_minors(RationalMatrix.from_rows(ZERO_PIVOT["zero-second-pivot"]))
        assert minors[1] == 0 and minors[2] != 0

    def test_certified_square_root_factor(self):
        R = direction_one_data()["R"]
        assert leading_principal_minors(R) == (
            Fraction(21, 10), Fraction(59, 100), Fraction(3, 2000),
        )

    def test_identity(self):
        assert leading_principal_minors(RationalMatrix.diagonal([1] * 4)) == (1, 1, 1, 1)

    def test_requires_symmetry(self):
        with pytest.raises(MatrixFormatError):
            leading_principal_minors(RationalMatrix.from_rows([[1, 2], [3, 4]]))

    def test_exhaustive_small_lattice_against_cofactor(self):
        # every symmetric 3x3 matrix with entries p/q, p in -2..2, q in {1,2};
        # the reference determinant is the cofactor expansion of the integer
        # matrix 2M, in closed form, over 2^3
        values = sorted({Fraction(p, q) for p in range(-2, 3) for q in (1, 2)})
        doubled = {v: int(2 * v) for v in values}
        count = 0
        for d0, d1, d2, o01, o02, o12 in itertools.product(values, repeat=6):
            rows = [[d0, o01, o02], [o01, d1, o12], [o02, o12, d2]]
            minors = leading_principal_minors(RationalMatrix.from_rows(rows))
            assert minors[0] == d0
            assert minors[1] == d0 * d1 - o01 * o01
            e0, e1, e2, f01, f02, f12 = (doubled[v] for v in (d0, d1, d2, o01, o02, o12))
            det8 = e0 * (e1 * e2 - f12 * f12) - f01 * (f01 * e2 - f12 * f02) + f02 * (f01 * f12 - e1 * f02)
            assert minors[2] == Fraction(det8, 8)
            count += 1
        assert count == len(values) ** 6

    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_each_pivot_is_the_bareiss_determinant_of_its_leading_block(self, entries):
        # the pass updates only the upper triangle of each Schur complement;
        # small entries make zero pivots common, and the pass ends at one
        n = len(entries)
        rows = [[entries[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        pivots = list(exact._leading_pivots(rows))
        assert len(pivots) == n or pivots[-1] == 0
        for k, pivot in enumerate(pivots, start=1):
            assert pivot == exact._bareiss_det_int([row[:k] for row in rows[:k]])

    def test_sylvester_identity_and_indefinite(self):
        assert sylvester_pd(RationalMatrix.diagonal([1] * 3))
        assert not sylvester_pd(RationalMatrix.diagonal([1, -1]))

    def test_sylvester_agrees_with_floating_sign(self):
        # on symmetric rational matrices whose smallest eigenvalue is not
        # borderline, the exact verdict matches the floating PD test
        import numpy as np

        rng = np.random.default_rng(8)
        checked = 0
        while checked < 60:
            dim = int(rng.integers(1, 5))
            nums = rng.integers(-8, 9, size=(dim, dim))
            dens = rng.integers(1, 5, size=(dim, dim))
            rows = [[Fraction(int(nums[i, j]), int(dens[i, j])) for j in range(dim)]
                    for i in range(dim)]
            for i in range(dim):
                for j in range(i + 1, dim):
                    rows[j][i] = rows[i][j]
            M = RationalMatrix.from_rows(rows)
            vals = np.linalg.eigvalsh(np.array(M.to_float()))
            scale = max(abs(vals).max(), 1e-12)
            if abs(vals[0]) < 1e-3 * scale:
                continue
            checked += 1
            assert sylvester_pd(M) == bool(vals[0] > 0)


class TestWork:
    """Sylvester's test makes one swap-free pass and stops at the first
    non-positive pivot; the minors take a determinant with row swaps only
    for the blocks after a zero pivot."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"det": 0, "pivots": 0}
        det, pivots = exact._bareiss_det_int, exact._leading_pivots

        def counting_det(rows):
            calls["det"] += 1
            return det(rows)

        def counting_pivots(rows):
            for pivot in pivots(rows):
                calls["pivots"] += 1
                yield pivot

        monkeypatch.setattr(exact, "_bareiss_det_int", counting_det)
        monkeypatch.setattr(exact, "_leading_pivots", counting_pivots)
        return calls

    @pytest.mark.parametrize("values, verdict, pivots", [
        ([1, 2, 3, 4], True, 4),
        ([1, -1, 2, 3], False, 2),
        ([0, 1, 2, 3], False, 1),
        ([2, 3, 0, -1], False, 3),
    ])
    def test_sylvester_stops_at_first_non_positive_pivot(self, counted, values, verdict, pivots):
        assert sylvester_pd(RationalMatrix.diagonal(values)) is verdict
        assert counted == {"det": 0, "pivots": pivots}

    @pytest.mark.parametrize("rows", ZERO_PIVOT.values(), ids=ZERO_PIVOT.keys())
    def test_sylvester_never_takes_a_determinant(self, counted, rows):
        assert not sylvester_pd(RationalMatrix.from_rows(rows))
        assert counted["det"] == 0

    def test_minors_without_zero_pivot_take_no_determinant(self, counted):
        for M in (direction_one_data()["R"], RationalMatrix.diagonal([1, -2, 3, -4])):
            leading_principal_minors(M)
        assert counted == {"det": 0, "pivots": 7}

    @pytest.mark.parametrize("rows, restarts", [
        (ZERO_PIVOT["zero-corner"], 2),
        (ZERO_PIVOT["zero-second-pivot"], 1),
        (ZERO_PIVOT["zero-matrix"], 3),
    ], ids=ZERO_PIVOT.keys())
    def test_minors_restart_only_after_a_zero_pivot(self, counted, rows, restarts):
        leading_principal_minors(RationalMatrix.from_rows(rows))
        assert counted["det"] == restarts

    @pytest.fixture
    def clearings(self, monkeypatch):
        """The entries that `_cleared` cleared, in call order."""
        seen = []
        cleared = exact._cleared

        def counting(entries):
            seen.append(entries)
            return cleared(entries)

        monkeypatch.setattr(exact, "_cleared", counting)
        return seen

    def test_matrix_from_entries_is_cleared_on_first_kernel_use(self, clearings):
        entries = ((Fraction(2), H), (H, T))
        M = RationalMatrix(entries)
        assert (M.dim, M.entries) == (2, entries)
        assert clearings == []
        assert sylvester_pd(M)
        assert leading_principal_minors(M) == (2, Fraction(5, 12))
        seven_sixths = float(Fraction(7, 6))
        assert rat_matmul(M, M).to_float() == [[4.25, seven_sixths], [seven_sixths, float(Fraction(13, 36))]]
        assert len(clearings) == 1 and clearings[0] is entries

    def test_certificate_clears_each_matrix_at_most_once(self, clearings):
        certify_all()
        assert clearings  # the diagonal operands, and X of direction two
        assert len({id(entries) for entries in clearings}) == len(clearings)

    def test_certify_all_makes_few_fractions(self):
        # 348 when each kernel returned its n^2 reduced Fractions; now only
        # the reported and expected values and the entries of direction
        # two's X and of each B are made
        code = Fraction.__new__.__code__
        made = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                made.append(1)

        sys.setprofile(profile)
        try:
            certify_all()
        finally:
            sys.setprofile(None)
        assert 0 < len(made) <= 100


class TestDirectionOne:
    def test_full_certificate(self):
        report = certify_direction_one()
        assert report.verdict
        assert report.mismatches() == []
        # 3 minors of R, 6 entries of B, 3 minors of K, Sylvester verdict,
        # the shifted determinant, 3 minors of the shifted natural matrix
        assert len(report.items) == 17

    def test_schur_complement_is_pd(self):
        data = direction_one_data()
        K = rat_sub(
            data["B"],
            rat_matmul(rat_matmul(data["G"], rat_inverse(data["A"])), data["G"]),
        )
        assert sylvester_pd(K)

    def test_mutation_is_detected(self, monkeypatch):
        original = direction_one_data

        def corrupted_data():
            data = original()
            G = data["G"]
            rows = [list(row) for row in G.entries]
            rows[0][1] += Fraction(1, 10000)
            rows[1][0] += Fraction(1, 10000)
            data["G"] = RationalMatrix.from_rows(rows)
            return data

        monkeypatch.setattr(exact, "direction_one_data", corrupted_data)
        report = exact.certify_direction_one()
        assert not report.verdict
        labels = " ".join(report.mismatches())
        assert "Schur complement" in labels or "det(41" in labels


class TestDirectionTwo:
    def test_full_certificate(self):
        report = certify_direction_two()
        assert report.verdict
        by_label = {item.label: item for item in report.items}
        assert by_label["q = 4 Tr(A D) + 3 Tr(A)"].computed == Fraction(40)
        assert by_label["Tr D"].computed == Fraction(49, 16)
        assert by_label["det D"].computed == Fraction(9, 16)

    def test_squared_comparison_strict(self):
        assert Fraction(40) ** 2 == 1600
        assert 1600 < 25 * 73 == 1825


class TestReports:
    def test_json_round_trip(self):
        report = certify_direction_one()
        data = json.loads(json.dumps(report.to_dict()))
        assert data["verdict"] is True
        assert data["items"][0]["computed"] == "21/10"
        assert data["items"][1]["computed"] == "59/100"
        assert data["items"][2]["computed"] == "3/2000"
        for item in data["items"]:
            assert set(item) == {"label", "computed", "expected", "match"}
            assert "/" in item["computed"]  # rationals always render as p/q

    def test_combined_certificate(self):
        report = certify_all()
        assert report.verdict
        assert len(report.items) == len(certify_direction_one().items) + len(certify_direction_two().items)

    def test_certificate_equals_the_stored_reference(self):
        # the benchmark's reference, read only: every reported rational bit for bit
        path = Path(__file__).parents[1] / "perfbench" / "reference" / "certificate.json"
        assert certify_all().to_dict() == json.loads(path.read_text())


class TestFloatShadow:
    def test_direction_one_margins(self):
        shadow = float_shadow(certify_direction_one())
        assert shadow.ok
        assert shadow.diagnostics["lambda1_sharp"] > 41.0 + 1e-3
        assert shadow.diagnostics["lambda1_natural"] < 41.0 - 1e-3

    def test_direction_two_traces(self):
        shadow = float_shadow(certify_direction_two())
        assert shadow.ok
        assert shadow.diagnostics["trace_sharp"] == pytest.approx(4.681645887845223, rel=1e-12)
        assert shadow.diagnostics["trace_natural"] == pytest.approx(5.0, rel=1e-9)

    def test_rejects_failed_certificate(self):
        bad = CertificateReport(
            "direction-one",
            (CertificateItem("broken", (Fraction(1),), (Fraction(2),)),),
        )
        with pytest.raises(NumericalFailure):
            float_shadow(bad)

    def test_a_scalar_gap_that_holds_is_a_numerical_failure(self, monkeypatch):
        report = certify_direction_two()
        monkeypatch.setattr(exact, "scalar_heron_gap", lambda a, b, c: Fraction(0))
        with pytest.raises(NumericalFailure, match="^scalar sharpness comparison unexpectedly holds$"):
            float_shadow(report)

    DIR_ONE = ["top eigenvalue above 41", "top eigenvalue below 41", "k=1 Ky Fan failure margin"]
    DIR_TWO = ["Heron trace gap above 0.6"]
    SCALAR = ["dim-1 over-coefficient failure"]

    @pytest.mark.parametrize("certify, items, keys", [
        (certify_direction_one, DIR_ONE + SCALAR, ["lambda1_sharp", "lambda1_natural"]),
        (certify_direction_two, DIR_TWO + SCALAR, ["trace_sharp", "trace_natural"]),
        (certify_all, DIR_ONE + DIR_TWO + SCALAR,
         ["lambda1_sharp", "lambda1_natural", "trace_sharp", "trace_natural"]),
    ], ids=["dir1", "dir2", "all"])
    def test_records_and_diagnostics(self, certify, items, keys, monkeypatch):
        # records keep only their margins, so the contexts are read as recorded
        recorded = []
        record = CheckReport.record

        def spy(report, margin, context=None):
            recorded.append((float(margin), context))
            record(report, margin, context)

        monkeypatch.setattr(CheckReport, "record", spy)
        shadow = float_shadow(certify())
        assert shadow.instances_run == len(items)
        assert [context for _, context in recorded] == [{"seed_offset": None, "item": item} for item in items]
        assert list(shadow.diagnostics) == keys
        if "lambda1_sharp" in keys:
            d = shadow.diagnostics
            assert recorded[2][0] == (d["lambda1_sharp"] - d["lambda1_natural"]) - 1e-2
        assert recorded[-1][0] == 0.1  # exact Fraction(21, 10) - 2, not float(2.1) - 2

    def test_certify_builds_each_instance_once(self, capsys, monkeypatch):
        # the float shadow replays the certificate's own instances: 2
        # operand gates, then per pair one joint middle, X's gate and the
        # gate of the compared matrices (10 while the shadow built both
        # instances again and each mean ran its own pass)
        import numpy as np

        from matmean.cli import main

        built = {"direction_one_data": 0, "direction_two_data": 0}

        def counting(name):
            make = getattr(exact, name)

            def counted():
                built[name] += 1
                return make()

            return counted

        for name in built:
            monkeypatch.setattr(exact, name, counting(name))
        eigh = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda mats: calls.append(np.shape(mats)) or eigh(mats))
        assert main(["certify", "--which", "all"]) == 0
        assert json.loads(capsys.readouterr().out)["float_shadow"]["ok"] is True
        assert built == {"direction_one_data": 1, "direction_two_data": 1}
        assert len(calls) == 8

    def test_sylvester_item_reads_the_minors_of_K(self, monkeypatch):
        def no_pivots(rows):
            raise AssertionError("K eliminated a second time")

        report = certify_direction_one()
        monkeypatch.setattr(exact, "sylvester_pd", no_pivots)
        assert certify_direction_one() == report

    def test_suite_replays_the_same_numbers(self):
        d = float_shadow(certify_all()).diagnostics
        suite = check_incomparability_float(*certified_pairs()).diagnostics
        assert suite["k1_gap"] == d["lambda1_sharp"] - d["lambda1_natural"]
        assert suite["trace_gap"] == 2.0 * (d["trace_natural"] - d["trace_sharp"])
