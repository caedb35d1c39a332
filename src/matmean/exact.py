"""Exact big-rational linear algebra and the incomparability certificates.

The two Heron expressions (geometric-mean cross term vs spectral cross
term) admit no universal weak-majorization comparison in either direction.
Both counterexamples are certified here in exact rational arithmetic:

  direction one (3x3): the top eigenvalue of A + B + 2(A#B) exceeds 41
  while the top eigenvalue of A + B + 2(A natural B) stays below 41, so
  the k=1 Ky Fan inequality fails.  The lower bound goes through a
  rational witness G below A#B (certified by a Schur-complement
  positivity check), the upper bound through Sylvester's criterion.

  direction two (2x2): the traces compare strictly the other way round,
  Tr(A#B) = 40/sqrt(73) < 5 = Tr(A natural B); the irrational trace is
  certified by comparing squares of rationals, so no quadratic-field
  arithmetic is needed.

Rationals are stdlib fractions (always reduced, positive denominator);
determinants use fraction-free Bareiss elimination on integer-cleared
matrices.

`float_shadow` checks the certificates against the float replay that the
suite also runs (`suite.certified_replay`); `suite.certified_pairs` is the
one place where the certified instances become floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, sqrt

from .errors import MatrixFormatError, NumericalFailure

Rational = Fraction


# ---------------------------------------------------------------------------
# rational matrices
# ---------------------------------------------------------------------------

def _to_rows(entries) -> tuple[tuple[Fraction, ...], ...]:
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise MatrixFormatError("rational matrix must be square and nonempty")
    return rows


@dataclass(frozen=True)
class RationalMatrix:
    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        return cls(_to_rows(rows))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    @classmethod
    def diagonal(cls, values) -> "RationalMatrix":
        vals = [Fraction(v) for v in values]
        n = len(vals)
        return cls(tuple(tuple(vals[i] if i == j else Fraction(0) for j in range(n)) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def is_symmetric(self) -> bool:
        n = self.dim
        return all(self.entries[i][j] == self.entries[j][i] for i in range(n) for j in range(i + 1, n))

    def to_float(self):
        return [[float(x) for x in row] for row in self.entries]

    def trace(self) -> Fraction:
        return sum((self.entries[i][i] for i in range(self.dim)), Fraction(0))


def rat_add(M: RationalMatrix, N: RationalMatrix) -> RationalMatrix:
    _same_dim(M, N)
    return RationalMatrix(tuple(
        tuple(M.entries[i][j] + N.entries[i][j] for j in range(M.dim)) for i in range(M.dim)
    ))


def rat_sub(M: RationalMatrix, N: RationalMatrix) -> RationalMatrix:
    _same_dim(M, N)
    return RationalMatrix(tuple(
        tuple(M.entries[i][j] - N.entries[i][j] for j in range(M.dim)) for i in range(M.dim)
    ))


def rat_scale(s, M: RationalMatrix) -> RationalMatrix:
    s = Fraction(s)
    return RationalMatrix(tuple(tuple(s * x for x in row) for row in M.entries))


def rat_matmul(M: RationalMatrix, N: RationalMatrix) -> RationalMatrix:
    _same_dim(M, N)
    n = M.dim
    return RationalMatrix(tuple(
        tuple(sum((M.entries[i][k] * N.entries[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    ))


def rat_inverse(M: RationalMatrix) -> RationalMatrix:
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n = M.dim
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M.entries)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise NumericalFailure("matrix is singular over the rationals")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [x / pivot for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return RationalMatrix(tuple(tuple(row[n:]) for row in work))


def _same_dim(M: RationalMatrix, N: RationalMatrix):
    if M.dim != N.dim:
        raise MatrixFormatError(f"rational matrix dimension mismatch: {M.dim} vs {N.dim}")


def _bareiss_det_int(rows: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    n = len(rows)
    M = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def det_rational(M: RationalMatrix) -> Fraction:
    """Exact determinant via Bareiss on the integer-cleared matrix."""
    n = M.dim
    denom = lcm(*(x.denominator for row in M.entries for x in row)) if n else 1
    int_rows = [[int(x * denom) for x in row] for row in M.entries]
    return Fraction(_bareiss_det_int(int_rows), denom ** n)


def leading_principal_minors(M: RationalMatrix) -> tuple[Fraction, ...]:
    """Exact determinants of the k x k leading blocks, k = 1..n."""
    if not M.is_symmetric():
        raise MatrixFormatError("leading principal minors are only taken of symmetric matrices")
    out = []
    for k in range(1, M.dim + 1):
        block = RationalMatrix(tuple(tuple(row[:k]) for row in M.entries[:k]))
        out.append(det_rational(block))
    return tuple(out)


def sylvester_pd(M: RationalMatrix) -> bool:
    """Positive definiteness of a symmetric rational matrix: all leading
    principal minors strictly positive."""
    return all(minor > 0 for minor in leading_principal_minors(M))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def _ratstr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class CertificateItem:
    label: str
    computed: Fraction
    expected: Fraction

    @property
    def match(self) -> bool:
        return self.computed == self.expected

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "computed": _ratstr(self.computed),
            "expected": _ratstr(self.expected),
            "match": self.match,
        }


@dataclass(frozen=True)
class CertificateReport:
    name: str
    items: tuple[CertificateItem, ...]

    @property
    def verdict(self) -> bool:
        return all(item.match for item in self.items)

    def mismatches(self) -> list[str]:
        return [item.label for item in self.items if not item.match]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "items": [item.to_dict() for item in self.items],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _F(num, den=1) -> Fraction:
    return Fraction(num, den)


def direction_one_data() -> dict[str, RationalMatrix]:
    """Exact 3x3 instance for the k=1 Ky Fan failure.

    A is diagonal, R is the positive square-root factor with X = R^2,
    B = X A X, and G is the rational witness lying below A # B.
    """
    A = RationalMatrix.diagonal([1, 20, 40])
    R = rat_scale(_F(1, 20), RationalMatrix.from_rows([
        [42, -4, 2],
        [-4, 6, 2],
        [2, 2, 1],
    ]))
    X = rat_matmul(R, R)
    B = rat_matmul(rat_matmul(X, A), X)
    G = rat_scale(_F(1, 10000), RationalMatrix.from_rows([
        [50041, -6271, 1796],
        [-6271, 19846, 7265],
        [1796, 7265, 3009],
    ]))
    return {"A": A, "R": R, "X": X, "B": B, "G": G}


_EXPECTED_MINORS_R = (_F(21, 10), _F(59, 100), _F(3, 2000))
_EXPECTED_B = (
    (_F(129153, 5000), _F(-4119, 1250), _F(4521, 5000)),
    (_F(-4119, 1250), _F(6219, 10000), _F(-723, 20000)),
    (_F(4521, 5000), _F(-723, 20000), _F(2511, 40000)),
)
_EXPECTED_MINORS_K = (
    _F(1538228131, 2 * 10**9),
    _F(36854830002529581, 8 * 10**18),
    _F(249208941796751, 2 * 10**26),
)
_EXPECTED_DET_41_MG = _F(-2296964316553, 10**12)
_EXPECTED_MINORS_41_MNAT = (
    _F(14747, 5000),
    _F(139973371, 10**7),
    _F(3328064679, 2 * 10**10),
)


def _minor_items(label: str, M: RationalMatrix, expected) -> list[CertificateItem]:
    return [
        CertificateItem(f"leading principal minor {k + 1} of {label}", minor, exp)
        for k, (minor, exp) in enumerate(zip(leading_principal_minors(M), expected))
    ]


def _entry_items(label: str, M: RationalMatrix, expected) -> list[CertificateItem]:
    items = []
    for i in range(M.dim):
        for j in range(i, M.dim):
            items.append(CertificateItem(
                f"entry ({i + 1},{j + 1}) of {label}", M.entries[i][j], expected[i][j],
            ))
    return items


def certify_direction_one() -> CertificateReport:
    """Certify, in exact arithmetic, that the k=1 Ky Fan comparison fails:
    lambda_1(A + B + 2(A#B)) > 41 > lambda_1(A + B + 2(A natural B))."""
    data = direction_one_data()
    A, R, X, B, G = data["A"], data["R"], data["X"], data["B"], data["G"]
    items = []

    items += _minor_items("the square-root factor R", R, _EXPECTED_MINORS_R)
    items += _entry_items("B = X A X", B, _EXPECTED_B)

    K = rat_sub(B, rat_matmul(rat_matmul(G, rat_inverse(A)), G))
    items += _minor_items("the Schur complement K = B - G A^{-1} G", K, _EXPECTED_MINORS_K)
    items.append(CertificateItem(
        "K positive definite by Sylvester's criterion (so G lies below the geometric mean)",
        Fraction(int(sylvester_pd(K))),
        Fraction(1),
    ))

    M_G = rat_add(rat_add(A, B), rat_scale(2, G))
    shifted_G = rat_sub(rat_scale(41, RationalMatrix.identity(3)), M_G)
    items.append(CertificateItem(
        "det(41 I - (A + B + 2G))",
        det_rational(shifted_G),
        _EXPECTED_DET_41_MG,
    ))

    M_nat = rat_add(rat_add(A, B), rat_scale(2, rat_matmul(rat_matmul(R, A), R)))
    shifted_nat = rat_sub(rat_scale(41, RationalMatrix.identity(3)), M_nat)
    items += _minor_items("41 I - (A + B + 2 R A R)", shifted_nat, _EXPECTED_MINORS_41_MNAT)
    return CertificateReport("direction-one", tuple(items))


def direction_two_data() -> dict[str, RationalMatrix]:
    """Exact 2x2 instance for the reverse trace comparison."""
    A = RationalMatrix.diagonal([1, 4])
    X = RationalMatrix.from_rows([[1, _F(1, 2)], [_F(1, 2), 1]])
    B = rat_matmul(rat_matmul(X, A), X)
    return {"A": A, "X": X, "B": B}


def certify_direction_two() -> CertificateReport:
    """Certify Tr(A#B) < Tr(A natural B) on the 2x2 instance.

    With D = A^{-1/2} B A^{-1/2} and q = 4 Tr(A D) + 3 Tr(A), the 2x2
    square-root formula gives Tr(A#B) = q / sqrt(73); the strict
    comparison against Tr(A natural B) = 5 becomes q^2 < 25 * 73.
    """
    data = direction_two_data()
    A, X, B = data["A"], data["X"], data["B"]
    items = []

    expected_B = ((_F(2), _F(5, 2)), (_F(5, 2), _F(17, 4)))
    items += _entry_items("B = X A X", B, expected_B)
    AX = rat_matmul(A, X)
    items.append(CertificateItem(
        "Tr(A X), the trace of the spectral-mean cross term", AX.trace(), _F(5),
    ))

    # D = A^{-1/2} B A^{-1/2} stays rational because A is diag(1, 4).
    A_inv_half = RationalMatrix.diagonal([1, _F(1, 2)])
    D = rat_matmul(rat_matmul(A_inv_half, B), A_inv_half)
    items.append(CertificateItem("Tr D", D.trace(), _F(49, 16)))
    items.append(CertificateItem("det D", det_rational(D), _F(9, 16)))
    items.append(CertificateItem(
        "square of 3/4 reproduces det D, so sqrt(det D) is exactly rational",
        _F(3, 4) * _F(3, 4),
        det_rational(D),
    ))

    AD = rat_matmul(A, D)
    q = 4 * AD.trace() + 3 * A.trace()
    items.append(CertificateItem("q = 4 Tr(A D) + 3 Tr(A)", q, _F(40)))
    items.append(CertificateItem("q^2", q * q, _F(1600)))
    items.append(CertificateItem(
        "strict comparison q^2 < 25 * 73 = 1825 (squared form of the trace gap)",
        Fraction(int(q * q < 25 * 73)),
        Fraction(1),
    ))
    items.append(CertificateItem(
        "squared Heron trace comparison: (2q)^2 < 100 * 73",
        Fraction(int((2 * q) ** 2 < 100 * 73)),
        Fraction(1),
    ))
    return CertificateReport("direction-two", tuple(items))


def certify_all() -> CertificateReport:
    one = certify_direction_one()
    two = certify_direction_two()
    return CertificateReport("incomparability", one.items + two.items)


# ---------------------------------------------------------------------------
# floating shadow of the exact certificates
# ---------------------------------------------------------------------------

def float_shadow(report: CertificateReport) -> "CheckReport":
    """Replay the certified counterexamples in floating point
    (`suite.certified_replay`, the replay the suite runs) and check that
    both stacks agree.

    The margins recorded are the distances by which the floating replay
    clears the certified strict inequalities (top eigenvalues straddling
    41 by more than 1e-3, trace gap above 0.6, and the scalar failure of
    an over-sharp cross coefficient).
    """
    from .report import CheckReport
    from .suite import certified_pairs, certified_replay

    if not report.verdict:
        raise NumericalFailure("float shadow requires a verified certificate")

    out = CheckReport(check_name=f"float_shadow:{report.name}", tol=0.0)
    replay = certified_replay(*certified_pairs())

    if report.name in ("direction-one", "incomparability"):
        top_sharp, top_nat = replay["lambda1_sharp"], replay["lambda1_natural"]
        if not top_sharp > 41.0 > top_nat:
            raise NumericalFailure(
                f"floating replay disagrees with the exact certificate: "
                f"lambda_1 = {top_sharp:.6f}, {top_nat:.6f} do not straddle 41"
            )
        out.record(top_sharp - 41.0 - 1e-3, {"seed_offset": None, "item": "top eigenvalue above 41"})
        out.record(41.0 - top_nat - 1e-3, {"seed_offset": None, "item": "top eigenvalue below 41"})
        out.record((top_sharp - top_nat) - 1e-2, {"seed_offset": None, "item": "k=1 Ky Fan failure margin"})
        out.diagnostics["lambda1_sharp"] = top_sharp
        out.diagnostics["lambda1_natural"] = top_nat

    if report.name in ("direction-two", "incomparability"):
        tr_sharp, tr_nat = replay["trace_sharp"], replay["trace_natural"]
        expected = 40.0 / sqrt(73.0)
        if abs(tr_sharp - expected) > 1e-9 * expected:
            raise NumericalFailure(
                f"floating trace {tr_sharp!r} deviates from the certified 40/sqrt(73)"
            )
        if not tr_sharp < tr_nat:
            raise NumericalFailure("floating traces disagree with the exact certificate")
        gap = 2.0 * (tr_nat - tr_sharp)
        out.record(gap - 0.6, {"seed_offset": None, "item": "Heron trace gap above 0.6"})
        out.diagnostics["trace_sharp"] = tr_sharp
        out.diagnostics["trace_natural"] = tr_nat

    # scalar sharpness: an over-sharp coefficient already fails in dimension 1
    a = b = Fraction(1)
    c_over = Fraction(21, 10)
    scalar_margin = (a * a + b * b + c_over) - (a + b) ** 2
    if not scalar_margin > 0:
        raise NumericalFailure("scalar sharpness comparison unexpectedly holds")
    out.record(float(scalar_margin), {"seed_offset": None, "item": "dim-1 over-coefficient failure"})
    return out
