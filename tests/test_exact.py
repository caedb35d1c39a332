import itertools
import json
from fractions import Fraction

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


class TestRationalOps:
    def test_identity_product(self):
        M = RationalMatrix.from_rows([[1, 2], [2, 5]])
        np_eq = rat_matmul(RationalMatrix.identity(2), M)
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
            assert rat_matmul(M, rat_inverse(M)).entries == RationalMatrix.identity(3).entries

    def test_add_sub_scale(self):
        M = RationalMatrix.from_rows([[1, 0], [0, 1]])
        N = rat_scale(Fraction(1, 2), M)
        assert rat_add(N, N).entries == M.entries
        assert rat_sub(M, M).entries == RationalMatrix.diagonal([0, 0]).entries

    def test_rejects_non_square(self):
        with pytest.raises(MatrixFormatError):
            RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]])


class TestLeadingMinors:
    def test_certified_square_root_factor(self):
        R = direction_one_data()["R"]
        assert leading_principal_minors(R) == (
            Fraction(21, 10), Fraction(59, 100), Fraction(3, 2000),
        )

    def test_identity(self):
        assert leading_principal_minors(RationalMatrix.identity(4)) == (1, 1, 1, 1)

    def test_requires_symmetry(self):
        with pytest.raises(MatrixFormatError):
            leading_principal_minors(RationalMatrix.from_rows([[1, 2], [3, 4]]))

    def test_exhaustive_small_lattice_against_cofactor(self):
        # every symmetric 3x3 matrix with entries p/q, p in -2..2, q in {1,2}
        values = sorted({Fraction(p, q) for p in range(-2, 3) for q in (1, 2)})
        count = 0
        for d0, d1, d2, o01, o02, o12 in itertools.product(values, repeat=6):
            rows = [[d0, o01, o02], [o01, d1, o12], [o02, o12, d2]]
            minors = leading_principal_minors(RationalMatrix.from_rows(rows))
            assert minors[0] == d0
            assert minors[1] == d0 * d1 - o01 * o01
            assert minors[2] == cofactor_det(rows)
            count += 1
        assert count == len(values) ** 6

    def test_sylvester_identity_and_indefinite(self):
        assert sylvester_pd(RationalMatrix.identity(3))
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
        data = json.loads(report.to_json())
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

    def test_suite_replays_the_same_numbers(self):
        d = float_shadow(certify_all()).diagnostics
        suite = check_incomparability_float(*certified_pairs()).diagnostics
        assert suite["k1_gap"] == d["lambda1_sharp"] - d["lambda1_natural"]
        assert suite["trace_gap"] == 2.0 * (d["trace_natural"] - d["trace_sharp"])
