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

A `RationalMatrix` holds its value as (d, rows), integer rows equal to d
times the entries.  One made from its entries (stdlib fractions) is
checked square and cleared once, on its first kernel use (`_cleared`: d
is the lcm of the denominators, each entry read once as its integer
ratio).  Every kernel reads and returns that form, so integers chain from
input to report and a Fraction is made only for a value a certificate
reports (a minor, a determinant, a trace, an entry) or for `.entries`
when it is read.  Sums are taken over the lcm of the two d's, products
are integer sums over dM * dN, the inverse is fraction-free Gauss-Jordan
elimination and determinants fraction-free Bareiss elimination.  All n leading
principal minors come from one Bareiss pass without row swaps over the upper
triangle, whose k-th pivot is d^k times the k-th minor (Bareiss 1968); only
after a zero pivot are the later minors taken one by one with row swaps.
Sylvester's test stops at the first non-positive pivot.  `scalar_heron_gap` is the exact
dimension-1 failure margin past c = 2ab, shared with the suite.

Each certificate builds its exact instance once and its report carries
it (`CertificateReport.instances`); the Sylvester item on K reads the
minors of K that the certificate already lists.  `certified_pair` is the
one place where a certified instance becomes floats, and
`certified_replay` is their one float replay: `float_shadow` replays the
instances of the report it checks, and the suite replays both
(`certified_pairs`).  The float section imports numpy, `linalg` and
`means` inside its functions, so the exact kernels and the certificates
load no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, sqrt
from operator import mul

from .errors import MatrixFormatError, NumericalFailure


# ---------------------------------------------------------------------------
# rational matrices
# ---------------------------------------------------------------------------

class RationalMatrix:
    """A square rational matrix held as (d, rows): d > 0, and rows, integer
    lists that are never mutated, are d times the entries (see the module
    docstring).  Equal by value."""

    __slots__ = ("_entries", "_form")

    def __init__(self, entries=None, *, form: tuple[int, list[list[int]]] | None = None):
        self._entries, self._form = entries, form

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        return cls(_square(tuple(tuple(Fraction(x) for x in row) for row in rows)))

    @classmethod
    def diagonal(cls, values) -> "RationalMatrix":
        d, (vals,) = _cleared([[Fraction(v) for v in values]])
        return cls(form=(d, [[x if i == j else 0 for j in range(len(vals))] for i, x in enumerate(vals)]))

    def cleared(self) -> tuple[int, list[list[int]]]:
        """(d, rows), cleared from the entries, checked square, on the first call."""
        if self._form is None:
            self._form = _cleared(_square(self._entries))
        return self._form

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._entries is None:
            d, rows = self._form
            self._entries = tuple(tuple(Fraction(p, d) for p in row) for row in rows)
        return self._entries

    @property
    def dim(self) -> int:
        return len(self._entries if self._form is None else self._form[1])

    def to_float(self):
        """p / d, one correctly rounded division: float(Fraction) bit for bit."""
        d, rows = self.cleared()
        return [[p / d for p in row] for row in rows]

    def trace(self) -> Fraction:
        d, rows = self.cleared()
        return Fraction(sum(row[i] for i, row in enumerate(rows)), d)

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"RationalMatrix({self.entries!r})"


def rat_add(M: RationalMatrix, N: RationalMatrix) -> RationalMatrix:
    return _combine(M, N, 1)


def rat_sub(M: RationalMatrix, N: RationalMatrix) -> RationalMatrix:
    return _combine(M, N, -1)


def _combine(M: RationalMatrix, N: RationalMatrix, sign: int) -> RationalMatrix:
    """M + sign N over the lcm of the two d's."""
    (dM, left), (dN, right) = _forms(M, N)
    d = lcm(dM, dN)
    s, t = d // dM, sign * (d // dN)
    return RationalMatrix(form=(d, [[s * x + t * y for x, y in zip(*rows)] for rows in zip(left, right)]))


def rat_scale(s, M: RationalMatrix) -> RationalMatrix:
    p, q = Fraction(s).as_integer_ratio()
    d, rows = M.cleared()
    return RationalMatrix(form=(d * q, [[p * x for x in row] for row in rows]))


def rat_matmul(M: RationalMatrix, N: RationalMatrix) -> RationalMatrix:
    """Exact product: integer sums over the cleared factors, over dM * dN."""
    (dM, left), (dN, right) = _forms(M, N)
    cols = list(zip(*right))
    return RationalMatrix(form=(dM * dN, [[sum(map(mul, row, col)) for col in cols] for row in left]))


def rat_inverse(M: RationalMatrix) -> RationalMatrix:
    """Exact inverse by fraction-free Gauss-Jordan elimination of [dM | I]
    (Bareiss 1968): each step divides exactly by the previous pivot, and
    the left half ends as p I, p the last pivot, so M^{-1} = d R / p for
    the right half R.  Raises on singular input."""
    d, rows = M.cleared()
    n = len(rows)
    work = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        swap = next((r for r in range(k, n) if work[r][k]), None)
        if swap is None:
            raise NumericalFailure("matrix is singular over the rationals")
        work[k], work[swap] = work[swap], work[k]
        top, pivot = work[k], work[k][k]
        work = [row if row is top else [(x * pivot - row[k] * y) // prev for x, y in zip(row, top)]
                for row in work]
        prev = pivot
    sign = -1 if prev < 0 else 1
    return RationalMatrix(form=(sign * prev, [[sign * d * x for x in row[n:]] for row in work]))


def _forms(M: RationalMatrix, N: RationalMatrix):
    """The (d, rows) of two matrices of one dimension."""
    forms = (_, left), (_, right) = M.cleared(), N.cleared()
    if len(left) != len(right):
        raise MatrixFormatError(f"rational matrix dimension mismatch: {len(left)} vs {len(right)}")
    return forms


def _square(entries):
    """The entries; raises unless they are square and nonempty."""
    if set(map(len, entries)) != {len(entries)}:  # O(n): one len per row
        raise MatrixFormatError("rational matrix must be square and nonempty")
    return entries


def _cleared(entries) -> tuple[int, list[list[int]]]:
    """(d, rows): d is the lcm of the denominators and rows = d * entries,
    exact integers made without Fraction products; each entry is read
    once, as its (numerator, denominator), and the lcm is taken over the
    distinct denominators."""
    ratios = [[x.as_integer_ratio() for x in row] for row in entries]
    d = lcm(*{q for row in ratios for _, q in row})
    return d, [[p * (d // q) for p, q in row] for row in ratios]


def _bareiss_det_int(rows: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix, with row
    swaps: the last pivot, signed by the swaps."""
    M, sign, prev = list(rows), 1, 1
    for k in range(len(M)):
        swap = next((i for i in range(k, len(M)) if M[i][k]), None)
        if swap is None:
            return 0
        if swap != k:
            M[k], M[swap], sign = M[swap], M[k], -sign
        top, pivot = M[k], M[k][k]
        M[k + 1:] = [[(x * pivot - row[k] * y) // prev for x, y in zip(row, top)] for row in M[k + 1:]]
        prev = pivot
    return sign * prev


def _leading_pivots(rows: list[list[int]]):
    """Yield the pivots of Bareiss elimination without row swaps on a
    symmetric integer matrix: pivot k is its k-th leading principal minor.
    Each Schur complement stays symmetric, so only its upper triangle is
    updated (row i from column i on; entry (i, k) is entry (k, i)).  Lazy,
    so a caller that stops early saves the rest of the pass; it ends after
    a zero pivot, the point where a swap would be needed."""
    upper = [row[i:] for i, row in enumerate(rows)]
    prev = 1
    for k, top in enumerate(upper):
        pivot = top[0]
        yield pivot
        if pivot == 0:
            return
        for i in range(k + 1, len(upper)):
            factor = top[i - k]
            upper[i] = [(x * pivot - factor * y) // prev for x, y in zip(upper[i], top[i - k:])]
        prev = pivot


def _symmetric_cleared(M: RationalMatrix) -> tuple[int, list[list[int]]]:
    """`_cleared` of a symmetric matrix; the integers are d times the
    entries, so they are symmetric exactly when the entries are."""
    d, rows = M.cleared()
    if any(row[j] != rows[j][i] for i, row in enumerate(rows) for j in range(i)):
        raise MatrixFormatError("leading principal minors are only taken of symmetric matrices")
    return d, rows


def det_rational(M: RationalMatrix) -> Fraction:
    """Exact determinant via Bareiss on the integer-cleared matrix."""
    d, rows = M.cleared()
    return Fraction(_bareiss_det_int(rows), d ** M.dim)


def leading_principal_minors(M: RationalMatrix) -> tuple[Fraction, ...]:
    """Exact determinants of the k x k leading blocks, k = 1..n.

    One Bareiss pass gives them all; after a zero pivot each later block
    gets its own determinant with row swaps."""
    d, rows = _symmetric_cleared(M)
    pivots = list(_leading_pivots(rows))
    pivots += [_bareiss_det_int([row[:k] for row in rows[:k]]) for k in range(len(pivots) + 1, M.dim + 1)]
    return tuple(Fraction(p, d ** k) for k, p in enumerate(pivots, start=1))


def sylvester_pd(M: RationalMatrix) -> bool:
    """Positive definiteness of a symmetric rational matrix: all leading
    principal minors strictly positive.  d^k > 0, so the pivots of the
    cleared matrix carry the minors' signs, and the pass stops at the first
    non-positive one."""
    return all(pivot > 0 for pivot in _leading_pivots(_symmetric_cleared(M)[1]))


def scalar_heron_gap(a, b, c) -> Fraction:
    """a^2 + b^2 + c - (a + b)^2 in exact rational arithmetic: by how much
    the dimension-1 Heron sum exceeds W_{a,b}, which is c - 2ab."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return (a * a + b * b + c) - (a + b) ** 2


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
    """The items of a certificate, and the exact instances it certified
    by direction ("direction-one", "direction-two"), which the float
    shadow replays."""

    name: str
    items: tuple[CertificateItem, ...]
    instances: dict[str, dict[str, RationalMatrix]] = field(default_factory=dict, compare=False, repr=False)

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


def direction_one_data() -> dict[str, RationalMatrix]:
    """Exact 3x3 instance for the k=1 Ky Fan failure.

    A is diagonal, R is the positive square-root factor with X = R^2,
    B = X A X, and G is the rational witness lying below A # B; R and G
    are given as (d, integer rows).
    """
    A = RationalMatrix.diagonal([1, 20, 40])
    R = RationalMatrix(form=(20, [[42, -4, 2], [-4, 6, 2], [2, 2, 1]]))
    X = rat_matmul(R, R)
    B = rat_matmul(rat_matmul(X, A), X)
    G = RationalMatrix(form=(10000, [[50041, -6271, 1796], [-6271, 19846, 7265], [1796, 7265, 3009]]))
    return {"A": A, "R": R, "X": X, "B": B, "G": G}


_EXPECTED_MINORS_R = (Fraction(21, 10), Fraction(59, 100), Fraction(3, 2000))
_EXPECTED_B = (
    (Fraction(129153, 5000), Fraction(-4119, 1250), Fraction(4521, 5000)),
    (Fraction(-4119, 1250), Fraction(6219, 10000), Fraction(-723, 20000)),
    (Fraction(4521, 5000), Fraction(-723, 20000), Fraction(2511, 40000)),
)
_EXPECTED_MINORS_K = (
    Fraction(1538228131, 2 * 10**9),
    Fraction(36854830002529581, 8 * 10**18),
    Fraction(249208941796751, 2 * 10**26),
)
_EXPECTED_DET_41_MG = Fraction(-2296964316553, 10**12)
_EXPECTED_MINORS_41_MNAT = (
    Fraction(14747, 5000),
    Fraction(139973371, 10**7),
    Fraction(3328064679, 2 * 10**10),
)


def _minor_items(label: str, minors, expected) -> list[CertificateItem]:
    return [CertificateItem(f"leading principal minor {k + 1} of {label}", minor, exp)
            for k, (minor, exp) in enumerate(zip(minors, expected))]


def _entry_items(label: str, M: RationalMatrix, expected) -> list[CertificateItem]:
    return [CertificateItem(f"entry ({i + 1},{j + 1}) of {label}", M.entries[i][j], expected[i][j])
            for i in range(M.dim) for j in range(i, M.dim)]


def certify_direction_one() -> CertificateReport:
    """Certify, in exact arithmetic, that the k=1 Ky Fan comparison fails:
    lambda_1(A + B + 2(A#B)) > 41 > lambda_1(A + B + 2(A natural B))."""
    data = direction_one_data()
    A, R, X, B, G = data["A"], data["R"], data["X"], data["B"], data["G"]
    items = []

    items += _minor_items("the square-root factor R", leading_principal_minors(R), _EXPECTED_MINORS_R)
    items += _entry_items("B = X A X", B, _EXPECTED_B)

    K = rat_sub(B, rat_matmul(rat_matmul(G, rat_inverse(A)), G))
    minors_K = leading_principal_minors(K)
    items += _minor_items("the Schur complement K = B - G A^{-1} G", minors_K, _EXPECTED_MINORS_K)
    items.append(CertificateItem(
        "K positive definite by Sylvester's criterion (so G lies below the geometric mean)",
        Fraction(int(all(minor > 0 for minor in minors_K))),
        Fraction(1),
    ))

    M_G = rat_add(rat_add(A, B), rat_scale(2, G))
    shifted_G = rat_sub(RationalMatrix.diagonal([41] * 3), M_G)
    items.append(CertificateItem("det(41 I - (A + B + 2G))", det_rational(shifted_G), _EXPECTED_DET_41_MG))

    M_nat = rat_add(rat_add(A, B), rat_scale(2, rat_matmul(rat_matmul(R, A), R)))
    shifted_nat = rat_sub(RationalMatrix.diagonal([41] * 3), M_nat)
    items += _minor_items("41 I - (A + B + 2 R A R)", leading_principal_minors(shifted_nat), _EXPECTED_MINORS_41_MNAT)
    return CertificateReport("direction-one", tuple(items), {"direction-one": data})


def direction_two_data() -> dict[str, RationalMatrix]:
    """Exact 2x2 instance for the reverse trace comparison."""
    A = RationalMatrix.diagonal([1, 4])
    X = RationalMatrix.from_rows([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
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

    expected_B = ((Fraction(2), Fraction(5, 2)), (Fraction(5, 2), Fraction(17, 4)))
    items += _entry_items("B = X A X", B, expected_B)
    AX = rat_matmul(A, X)
    items.append(CertificateItem("Tr(A X), the trace of the spectral-mean cross term", AX.trace(), Fraction(5)))

    # D = A^{-1/2} B A^{-1/2} stays rational because A is diag(1, 4).
    A_inv_half = RationalMatrix.diagonal([1, Fraction(1, 2)])
    D = rat_matmul(rat_matmul(A_inv_half, B), A_inv_half)
    det_D = det_rational(D)
    items.append(CertificateItem("Tr D", D.trace(), Fraction(49, 16)))
    items.append(CertificateItem("det D", det_D, Fraction(9, 16)))
    items.append(CertificateItem(
        "square of 3/4 reproduces det D, so sqrt(det D) is exactly rational", Fraction(3, 4) * Fraction(3, 4), det_D))

    AD = rat_matmul(A, D)
    q = 4 * AD.trace() + 3 * A.trace()
    items.append(CertificateItem("q = 4 Tr(A D) + 3 Tr(A)", q, Fraction(40)))
    items.append(CertificateItem("q^2", q * q, Fraction(1600)))
    items.append(CertificateItem("strict comparison q^2 < 25 * 73 = 1825 (squared form of the trace gap)",
                                 Fraction(int(q * q < 25 * 73)), Fraction(1)))
    items.append(CertificateItem("squared Heron trace comparison: (2q)^2 < 100 * 73",
                                 Fraction(int((2 * q) ** 2 < 100 * 73)), Fraction(1)))
    return CertificateReport("direction-two", tuple(items), {"direction-two": data})


def certify_all() -> CertificateReport:
    one = certify_direction_one()
    two = certify_direction_two()
    return CertificateReport("incomparability", one.items + two.items, {**one.instances, **two.instances})


# ---------------------------------------------------------------------------
# floating shadow of the exact certificates
# ---------------------------------------------------------------------------

def certified_pair(data: dict[str, RationalMatrix]) -> "Pair":
    """The float Pair (A, B) of one certified instance, as
    `direction_one_data()` or `direction_two_data()` returns it."""
    from .means import Pair

    return Pair.gated(data["A"].to_float(), data["B"].to_float())


def certified_pairs() -> tuple["Pair", "Pair"]:
    """Float Pairs of the two certified incomparability instances, built
    afresh for the suite: the 3x3 pair of direction one and the 2x2 pair
    of direction two."""
    return certified_pair(direction_one_data()), certified_pair(direction_two_data())


def certified_replay(one: "Pair | None", two: "Pair | None") -> dict[str, float]:
    """The float replay of the certified incomparability instances
    (`certified_pair`), of either or both: lambda_1 of the sharp Heron
    sums A + B + 2(A # B) and A + B + 2(A natural B) of the 3x3 pair `one`,
    built in one `Pair.herons` batch, and the traces of A # B and A
    natural B of the 2x2 pair `two`.  Per pair, one `joint_means` pass
    computes both means and one gate call checks them, as positive
    definite, with the Heron sums, as Hermitian.  Each gap comes with its
    clearance past the certified failure, 1e-2 and 0.6."""
    import numpy as np

    from .linalg import gate_stack
    from .means import heron_batch, joint_means

    replay = {}
    if one is not None:
        joint_means(one, one)
        sums = one.herons(heron_batch([0, 0], ["geometric", "spectral"], [1.0] * 2, [1.0] * 2, [2.0] * 2))
        sharp, natural = gate_stack(np.stack([one.geometric(), one.spectral(), *sums]),
                                    [True, True, False, False])[0][2:, 0].tolist()
        replay.update(lambda1_sharp=sharp, lambda1_natural=natural, k1_gap=sharp - natural,
                      k1_clearance=sharp - natural - 1e-2)
    if two is not None:
        joint_means(two, two)
        gate_stack(np.stack([two.geometric(), two.spectral()]))
        sharp, natural = (float(np.trace(M).real) for M in (two.geometric(), two.spectral()))
        gap = 2.0 * (natural - sharp)
        replay.update(trace_sharp=sharp, trace_natural=natural, trace_gap=gap, trace_clearance=gap - 0.6)
    return replay


def float_shadow(report: CertificateReport) -> "CheckReport":
    """Replay in floating point the counterexamples that a verified report
    certified, from the exact instances it carries (`certified_replay`,
    the replay the suite runs), and check that both stacks agree.

    The margins recorded are the distances by which the floating replay
    clears the certified strict inequalities (top eigenvalues straddling
    41 by more than 1e-3, trace gap above 0.6, and the scalar failure of
    an over-sharp cross coefficient).
    """
    from .report import CheckReport

    if not report.verdict:
        raise NumericalFailure("float shadow requires a verified certificate")

    out = CheckReport(check_name=f"float_shadow:{report.name}", tol=0.0)
    pairs = {name: certified_pair(data) for name, data in report.instances.items()}
    replay = certified_replay(pairs.get("direction-one"), pairs.get("direction-two"))

    if "direction-one" in report.instances:
        top_sharp, top_nat = replay["lambda1_sharp"], replay["lambda1_natural"]
        if not top_sharp > 41.0 > top_nat:
            raise NumericalFailure(
                f"floating replay disagrees with the exact certificate: "
                f"lambda_1 = {top_sharp:.6f}, {top_nat:.6f} do not straddle 41"
            )
        out.record(top_sharp - 41.0 - 1e-3, {"seed_offset": None, "item": "top eigenvalue above 41"})
        out.record(41.0 - top_nat - 1e-3, {"seed_offset": None, "item": "top eigenvalue below 41"})
        out.record(replay["k1_clearance"], {"seed_offset": None, "item": "k=1 Ky Fan failure margin"})
        out.diagnostics["lambda1_sharp"] = top_sharp
        out.diagnostics["lambda1_natural"] = top_nat

    if "direction-two" in report.instances:
        tr_sharp, tr_nat = replay["trace_sharp"], replay["trace_natural"]
        expected = 40.0 / sqrt(73.0)
        if abs(tr_sharp - expected) > 1e-9 * expected:
            raise NumericalFailure(
                f"floating trace {tr_sharp!r} deviates from the certified 40/sqrt(73)"
            )
        if not tr_sharp < tr_nat:
            raise NumericalFailure("floating traces disagree with the exact certificate")
        out.record(replay["trace_clearance"], {"seed_offset": None, "item": "Heron trace gap above 0.6"})
        out.diagnostics["trace_sharp"] = tr_sharp
        out.diagnostics["trace_natural"] = tr_nat

    # scalar sharpness: an over-sharp coefficient already fails in dimension 1
    scalar_margin = scalar_heron_gap(1, 1, Fraction(21, 10))
    if not scalar_margin > 0:
        raise NumericalFailure("scalar sharpness comparison unexpectedly holds")
    out.record(float(scalar_margin), {"seed_offset": None, "item": "dim-1 over-coefficient failure"})
    return out
