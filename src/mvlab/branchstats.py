"""Branch trees over repeated measurements and exact frequency statistics.

Over N independent two-outcome measurements the state splits into all 2^N
outcome sequences, the sequence with r aligned outcomes carrying weight
p^r * q^(N-r). The closed-form side of every statistic here is computed in
exact rational arithmetic by applying the operator p*d/dp to the binomial
generating function (p+q)^N symbolically and setting p+q = 1 at the end.
That yields Romanovsky's recurrence mu_{m+1} = pq (N m mu_{m-1} + d mu_m/dp)
for the central moments of r, so moments up to order m cost O(m^2)
polynomial operations whatever N is; floats appear only at the boundary.
The frequency f = r/N then has mean exactly p and central moments falling
at least as fast as 1/N. branch_tree_to_csv streams all 2^N branches,
formatting each distinct weight and count of a block once: an enumerated
tree holds only N + 1 distinct weights.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, DomainError, _shown
from .fields import LazyBlocks, _csv_text, _freeze, write_csv

ENUMERATION_CAP = 20
_EXACT_COMB_LIMIT = 400  # beyond this the binomial coefficient leaves float range
_CSV_CHUNK_ROWS = 2**12  # rows per CSV block: bounds the text held in memory
_DRAW_BLOCK = 2**16  # Philox draws per block of convergence_demo: bounds the draws held in memory


def _checked(N: int, p) -> float:
    """p as a float, once N >= 1 and p in [0, 1] hold; NaN and inf p are refused.

    p is compared as given, so a Fraction p is checked exactly.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if not (0 <= p <= 1):
        raise DomainError(f"p must lie in [0, 1], got {p}")
    return float(p)


def _check_order(m: int) -> None:
    """Refuse a negative moment order m."""
    if m < 0:
        raise DomainError(f"moment order must be nonnegative, got {m}")


@dataclass(frozen=True)
class BranchSequence:
    """One outcome sequence; True marks an aligned (axis-parallel) outcome."""

    outcomes: tuple[bool, ...]

    def __post_init__(self):
        if len(self.outcomes) < 1:
            raise DomainError("a branch sequence needs at least one outcome")
        object.__setattr__(self, "outcomes", tuple(bool(o) for o in self.outcomes))

    @property
    def n(self) -> int:
        return len(self.outcomes)

    @property
    def aligned_count(self) -> int:
        return sum(self.outcomes)

    @property
    def bits(self) -> str:
        """'1'/'0' string, first measurement leftmost."""
        return "".join("1" if o else "0" for o in self.outcomes)


def _weight(p: float, r: int, n: int) -> float:
    """p^r * (1-p)^(n-r): the one definition of a branch weight, in Python floats."""
    return p**r * (1.0 - p) ** (n - r)


def sequence_weight(s: BranchSequence, p: float) -> float:
    """Weight p^r * (1-p)^(N-r) of one outcome sequence."""
    return _weight(_checked(s.n, p), s.aligned_count, s.n)


def _popcounts(n: int) -> np.ndarray:
    """Aligned counts for all bitmasks 0 .. 2^n - 1, by doubling."""
    counts = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        counts = np.concatenate([counts, counts + 1])
    return counts


@dataclass(frozen=True, eq=False)
class BranchTree:
    """All 2^N outcome sequences with their weights.

    weights[k] belongs to the sequence whose i-th outcome is bit i of k
    (so bit 0 is the first measurement). Every sequence occurs exactly once
    and the weights sum to one: the tree is the complete post-measurement
    state, not a sample from it. weights is copied and made read-only.
    """

    N: int
    p: float
    weights: np.ndarray

    def __post_init__(self):
        w = _freeze(self, "weights", np.array(self.weights, dtype=np.float64), (2**self.N,))
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise DomainError(f"branch weights must sum to 1, got {w.sum()}")

    def sequence(self, k: int) -> BranchSequence:
        return BranchSequence(tuple(bool((k >> i) & 1) for i in range(self.N)))

    def entries(self):
        for k in range(2**self.N):
            yield self.sequence(k), float(self.weights[k])

    def aligned_counts(self) -> np.ndarray:
        return _popcounts(self.N)

    def prob_aligned_count(self, r: int) -> float:
        if not (0 <= r <= self.N):
            raise DomainError(f"r must lie in [0, {self.N}], got {r}")
        return float(self.weights[self.aligned_counts() == r].sum())

    def frequency_mean(self) -> float:
        """Brute-force weighted mean of f = r/N over all branches."""
        f = self.aligned_counts() / self.N
        return float(np.sum(self.weights * f))

    def frequency_central_moment(self, m: int) -> float:
        """Brute-force weighted mean of (f - p)^m over all branches."""
        _check_order(m)
        f = self.aligned_counts() / self.N
        return float(np.sum(self.weights * (f - self.p) ** m))


def enumerate_branch_tree(N: int, p: float) -> BranchTree:
    """Materialize all 2^N branches; capped at N = 20."""
    p = _checked(N, p)
    if N > ENUMERATION_CAP:
        raise CapacityError(
            f"N={N} exceeds the enumeration cap {ENUMERATION_CAP}; use the closed-form "
            "operations (prob_r_given_N, expected_frequency, central_moment) instead"
        )
    weights = np.array([_weight(p, r, N) for r in range(N + 1)])[_popcounts(N)]
    return BranchTree(N, p, weights)


def prob_r_given_N(r: int, N: int, p: float) -> float:
    """C(N,r) * p^r * q^(N-r), overflow-safe for large N via log-gamma."""
    p = _checked(N, p)
    if not (0 <= r <= N):
        raise DomainError(f"r must lie in [0, {N}], got {r}")
    if p == 0.0:
        return 1.0 if r == 0 else 0.0
    if p == 1.0:
        return 1.0 if r == N else 0.0
    q = 1.0 - p
    if N <= _EXACT_COMB_LIMIT:
        return float(math.comb(N, r)) * p**r * q ** (N - r)
    log_prob = (
        math.lgamma(N + 1)
        - math.lgamma(r + 1)
        - math.lgamma(N - r + 1)
        + r * math.log(p)
        + (N - r) * math.log(q)
    )
    return math.exp(log_prob)


def _central_moments(m_max: int, N: int, p: Fraction) -> list[Fraction]:
    """Exact <(r/N - p)^m> for m = 0..m_max by Romanovsky's recurrence.

    Applying p*d/dp to (p+q)^N symbolically and setting q = 1 - p only at the
    end gives the central moments of r as integer polynomials in p:
    mu_0 = 1, mu_1 = 0 and mu_{m+1} = pq (N m mu_{m-1} + d mu_m / dp)
    (Romanovsky, Biometrika 15, 410 (1923)). Building them takes O(m_max^2)
    integer operations whatever N is (only the coefficients' bit lengths
    grow, like m log N); each is then evaluated at the exact p by Horner's
    rule and divided by N^m.
    """
    mus = [[1], [0]]
    for m in range(1, m_max):
        inner = [N * m * c for c in mus[m - 1]] + [0] * (m - len(mus[m - 1]))
        for k in range(1, len(mus[m])):
            inner[k - 1] += k * mus[m][k]
        nxt = [0] * (m + 2)
        for k, c in enumerate(inner):  # times pq = p - p^2
            nxt[k + 1] += c
            nxt[k + 2] -= c
        mus.append(nxt)
    values = []
    for m, coeffs in enumerate(mus[: m_max + 1]):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * p + c
        values.append(acc / N**m)
    return values


def central_moment_exact(m: int, N: int, p) -> Fraction:
    """<(r/N - p)^m> as an exact rational number.

    Uses Romanovsky's recurrence mu_{m+1} = pq (N m mu_{m-1} + d mu_m / dp)
    for the central moments of r, so the cost is O(m^2) polynomial operations
    and does not depend on N. The float boundary is the caller's problem.
    Floats passed for p are used at their exact binary value.
    """
    _check_order(m)
    _checked(N, p)
    return _central_moments(m, N, Fraction(p))[m]


def central_moment(m: int, N: int, p: float) -> float:
    """<(r/N - p)^m>, exact rational arithmetic converted to float at the end.

    m = 1 is exactly zero and m = 2 is exactly p*q/N.
    """
    return float(central_moment_exact(m, N, p))


def expected_frequency(N: int, p: float) -> float:
    """<f> = <r>/N, which the generating-function identity collapses to p."""
    return _checked(N, p)


@dataclass(frozen=True)
class MomentScalingEntry:
    order: int
    N: int
    value: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class MomentScalingReport:
    """Verdict on |<(f-p)^m>| <= C_m / N with C_m fitted at the smallest N.

    The 1/N envelope is an upper bound, not an asymptotic equality: exact
    odd moments decay faster (the third goes as 1/N^2). The comparisons are
    done in exact rational arithmetic, so 'ok' carries no rounding slack.
    """

    entries: tuple

    @property
    def satisfied(self) -> bool:
        return all(e.ok for e in self.entries)


def moment_scaling_report(m_max: int, N_values, p: float) -> MomentScalingReport:
    """Check the 1/N decay bound for every moment order 2..m_max."""
    if m_max < 2:
        raise DomainError(f"m_max must be >= 2, got {m_max}")
    ns = [int(n) for n in N_values]
    if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("N_values must be an increasing sequence of length >= 2")
    p = _checked(ns[0], p)
    moments = {n: _central_moments(m_max, n, Fraction(p)) for n in ns}
    entries = []
    for m in range(2, m_max + 1):
        c_m = abs(moments[ns[0]][m]) * ns[0]
        for n in ns:
            value = moments[n][m]
            bound = c_m / n
            entries.append(
                MomentScalingEntry(m, n, float(value), float(bound), abs(value) <= bound)
            )
    return MomentScalingReport(tuple(entries))


def sample_observer_branch(N: int, p: float, seed: int):
    """One observer's branch: N independent draws from a counter-based generator.

    Uses numpy's Philox bit generator keyed by the seed, so identical seeds
    give identical sequences. Returns (BranchSequence, empirical frequency).
    """
    p = _checked(N, p)
    seq = BranchSequence(tuple((_observer_stream(seed).random(N) < p).tolist()))
    return seq, seq.aligned_count / N


def _is_int(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _observer_stream(seed: int) -> np.random.Generator:
    """The observer's Philox stream keyed by seed: its k-th uniform draw is aligned where < p."""
    if not _is_int(seed) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {_shown(seed)}")
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    f: float
    abs_err: float
    envelope: float
    variance: float


def convergence_demo(N_values, p: float, seed: int) -> list[ConvergenceRow]:
    """Sampled |f - p| against the exact 3*sqrt(pq/N) envelope, per N.

    One Philox stream serves every N. It is drawn in blocks of at most
    _DRAW_BLOCK uniforms into one reused buffer, each block ending at the
    next N at the latest, and the aligned draws are counted as the stream
    passes; so the memory held is one block whatever max(N) is. Consecutive
    random() calls on one generator continue one stream, so the first n
    draws are bitwise sample_observer_branch(n, p, seed)'s.
    """
    ns = list(N_values)
    if (len(ns) < 1 or not all(map(_is_int, ns)) or ns[0] < 1
            or any(b <= a for a, b in zip(ns, ns[1:]))):
        raise DomainError("N_values must be an increasing sequence of integers >= 1")
    p = _checked(ns[0], p)  # the Ns increase, so the first is the least
    q = 1.0 - p
    stream = _observer_stream(seed)
    draws = np.empty(min(ns[-1], _DRAW_BLOCK))
    drawn = aligned = 0
    rows = []
    for n in ns:
        n = int(n)
        while drawn < n:
            size = min(n - drawn, draws.size)
            stream.random(out=draws[:size])
            aligned += np.count_nonzero(draws[:size] < p)
            drawn += size
        f = aligned / n
        variance = p * q / n
        rows.append(ConvergenceRow(n, f, abs(f - p), 3.0 * math.sqrt(variance), variance))
    return rows


def _bit_strings(n: int) -> list[str]:
    """'1'/'0' strings of the bitmasks 0 .. 2^n - 1, bit 0 leftmost, by doubling."""
    strings = [""]
    for _ in range(n):
        strings = [s + "0" for s in strings] + [s + "1" for s in strings]
    return strings


def branch_tree_to_csv(tree: BranchTree, path) -> None:
    """Write columns sequence_bits,r,weight with LF line endings.

    Blocks hold 2^low rows, the largest power of two within _CSV_CHUNK_ROWS,
    so each block's bit strings are one shared low-bit table plus a suffix,
    and each row's r is its low bits' count plus the suffix's. So the r
    column of a block is one of N - low + 1 lists, built once from the 2^low
    count table and looked up by the suffix's popcount: the 2^N counts are
    never held. A block formats each distinct weight once, through
    fields._csv_text, keyed on its float64 bit pattern (an enumerated tree
    has N + 1). Keying on the bits keeps -0.0 apart from 0.0, so the bytes
    are those of one repr per row for any tree.
    """
    low = min(tree.N, _CSV_CHUNK_ROWS.bit_length() - 1)
    low_bits, suffixes, size = _bit_strings(low), _bit_strings(tree.N - low), 2**low
    low_counts, r_texts = _popcounts(low).tolist(), _csv_text(np.arange(tree.N + 1))
    r_columns = [list(map(r_texts[c:].__getitem__, low_counts)) for c in range(tree.N - low + 1)]
    weight_bits = tree.weights.view(np.int64)

    def block(b):
        rows = slice(b * size, (b + 1) * size)
        keys, which = np.unique(weight_bits[rows], return_inverse=True)
        w_texts = _csv_text(keys.view(np.float64))
        r_column = r_columns[b.bit_count()]  # the suffix's popcount
        return [s + suffixes[b] for s in low_bits], r_column, list(map(w_texts.__getitem__, which.tolist()))

    write_csv(path, "sequence_bits,r,weight", LazyBlocks(len(suffixes), block))


def convergence_to_csv(rows: list[ConvergenceRow], path) -> None:
    """Write columns N,f,abs_err,envelope,variance with LF line endings."""
    columns = tuple(
        np.array([getattr(row, name) for row in rows])
        for name in ("N", "f", "abs_err", "envelope", "variance")
    )
    write_csv(path, "N,f,abs_err,envelope,variance", [columns])
