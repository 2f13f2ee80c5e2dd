import math
import os
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import binomial_central_moment, per_n_convergence, tree_csv_bytes

from mvlab import branchstats, fields
from mvlab.branchstats import (
    BranchSequence,
    BranchTree,
    branch_tree_to_csv,
    central_moment,
    central_moment_exact,
    convergence_demo,
    convergence_to_csv,
    enumerate_branch_tree,
    expected_frequency,
    moment_scaling_report,
    prob_r_given_N,
    sample_observer_branch,
    sequence_weight,
)
from mvlab.errors import CapacityError, DomainError

COMMITTED_SEED = 20240811


class TestSequenceWeight:
    def test_uniform_two_measurements(self):
        assert sequence_weight(BranchSequence((True, False)), 0.5) == 0.25

    def test_three_quarters(self):
        s = BranchSequence((True, True, False))
        assert abs(sequence_weight(s, 0.75) - 9.0 / 64.0) < 1e-16

    def test_impossible_branch_has_zero_weight(self):
        assert sequence_weight(BranchSequence((True, False, True)), 1.0) == 0.0

    def test_p_range_checked(self):
        with pytest.raises(DomainError):
            sequence_weight(BranchSequence((True,)), 1.5)

    def test_sequence_needs_an_outcome(self):
        with pytest.raises(DomainError):
            BranchSequence(())


class TestBranchTree:
    def test_single_measurement(self):
        tree = enumerate_branch_tree(1, 0.3)
        entries = {seq.bits: w for seq, w in tree.entries()}
        assert entries == {"0": 0.7, "1": 0.3}

    def test_completeness_and_weight_sum(self):
        tree = enumerate_branch_tree(10, 0.37)
        assert len(tree.weights) == 1024
        bits = {seq.bits for seq, _ in tree.entries()}
        assert len(bits) == 1024  # every sequence occurs exactly once
        assert abs(float(tree.weights.sum()) - 1.0) < 1e-12

    def test_weights_match_sequence_weight(self):
        tree = enumerate_branch_tree(6, 0.25)
        for seq, w in tree.entries():
            assert abs(w - sequence_weight(seq, 0.25)) < 1e-16

    # one definition of a weight: the tree's float is sequence_weight's, bit for bit, for any p
    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 12), p=st.floats(0.0, 1.0), data=st.data())
    def test_weights_equal_sequence_weight_exactly(self, N, p, data):
        tree = enumerate_branch_tree(N, p)
        for k in data.draw(st.lists(st.integers(0, 2**N - 1), min_size=1, max_size=64)):
            assert tree.weights[k] == sequence_weight(tree.sequence(k), p)

    def test_aggregation_reproduces_closed_form(self):
        tree = enumerate_branch_tree(12, 0.25)
        for r in range(13):
            assert abs(tree.prob_aligned_count(r) - prob_r_given_N(r, 12, 0.25)) < 1e-12

    def test_capacity_error_names_the_alternatives(self):
        with pytest.raises(CapacityError, match="closed-form"):
            enumerate_branch_tree(21, 0.5)


# each refusal of an argument out of its range, with its own message
@pytest.mark.parametrize("call, message", [
    (lambda: BranchTree(2, 0.5, [0.25, 0.25, 0.25, 0.5]), "weights must sum to 1"),
    (lambda: enumerate_branch_tree(3, 0.5).prob_aligned_count(4), r"r must lie in \[0, 3\]"),
    (lambda: enumerate_branch_tree(3, 0.5).prob_aligned_count(-1), r"r must lie in \[0, 3\]"),
    (lambda: enumerate_branch_tree(3, 0.5).frequency_central_moment(-1), "moment order must be nonnegative"),
    (lambda: central_moment_exact(-1, 10, 0.5), "moment order must be nonnegative"),
    (lambda: moment_scaling_report(1, [10, 20], 0.5), "m_max must be >= 2"),
], ids=["weight-sum", "r-above-N", "r-negative", "tree-moment-order", "exact-moment-order", "m-max"])
def test_out_of_range_argument_refused(call, message):
    with pytest.raises(DomainError, match=message):
        call()


class TestProbRGivenN:
    def test_simple_half(self):
        assert abs(prob_r_given_N(1, 2, 0.5) - 0.5) < 1e-16

    def test_frozen_exact_rational_value(self):
        # C(10,3) * (1/4)^3 * (3/4)^7 = 262440 / 2^20, exactly representable
        assert prob_r_given_N(3, 10, 0.25) == 0.25028228759765625

    def test_certainty(self):
        assert prob_r_given_N(10, 10, 1.0) == 1.0
        assert prob_r_given_N(0, 10, 0.0) == 1.0

    @pytest.mark.parametrize("N,p", [(5, 0.3), (17, 0.5), (600, 0.25)])
    def test_sums_to_one(self, N, p):
        total = sum(prob_r_given_N(r, N, p) for r in range(N + 1))
        assert abs(total - 1.0) < 1e-12

    def test_large_n_uses_log_gamma(self):
        # would overflow float through the binomial coefficient
        value = prob_r_given_N(500, 1000, 0.5)
        assert 0.02 < value < 0.03

    def test_r_out_of_range(self):
        with pytest.raises(DomainError):
            prob_r_given_N(11, 10, 0.5)
        with pytest.raises(DomainError):
            prob_r_given_N(-1, 10, 0.5)


class TestExpectedFrequency:
    def test_collapses_to_p(self):
        assert abs(expected_frequency(7, 0.6) - 0.6) < 1e-12

    def test_matches_brute_force(self):
        tree = enumerate_branch_tree(12, 0.25)
        assert abs(expected_frequency(12, 0.25) - tree.frequency_mean()) < 1e-12

    def test_zero_probability(self):
        assert expected_frequency(5, 0.0) == 0.0

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("N", [1, 1000, 10**6])
    def test_exactly_p_for_large_n(self, N, p):
        assert expected_frequency(N, p) == p


class TestCentralMoments:
    def test_centering_exact(self):
        assert central_moment(1, 10, 0.37) == 0.0
        assert central_moment(0, 10, 0.37) == 1.0

    def test_variance_is_pq_over_n(self):
        assert central_moment(2, 10, 0.25) == 0.01875

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("N", range(1, 13))
    def test_matches_brute_force(self, N, p):
        tree = enumerate_branch_tree(N, p)
        assert abs(expected_frequency(N, p) - tree.frequency_mean()) < 1e-12
        for m in range(5):
            assert abs(central_moment(m, N, p) - tree.frequency_central_moment(m)) < 1e-12

    def test_apparatus_angle_feeds_the_variance(self):
        # the aligned-outcome weight of the spin engine is the p whose
        # branch-tree variance the moment engine predicts
        from mvlab.spins import aligned_probability

        theta = 0.7
        p = aligned_probability(theta)
        tree = enumerate_branch_tree(10, p)
        assert abs(tree.frequency_central_moment(2) - central_moment(2, 10, p)) < 1e-12
        assert abs(central_moment(2, 10, p) - p * (1.0 - p) / 10.0) < 1e-16

    @pytest.mark.parametrize("N", [10, 20, 40, 80])
    def test_exact_closed_forms(self, N):
        p = Fraction(1, 4)
        q = 1 - p
        assert central_moment_exact(2, N, p) == p * q / N
        assert central_moment_exact(3, N, p) == p * q * (q - p) / N**2
        mu4 = N * p * q * (1 + 3 * (N - 2) * p * q)
        assert central_moment_exact(4, N, p) == mu4 / Fraction(N) ** 4

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_against_direct_pmf_summation(self, m):
        # independent oracle: sum the pmf directly instead of differentiating
        assert central_moment_exact(m, 15, Fraction(3, 10)) == binomial_central_moment(
            m, 15, Fraction(3, 10)
        )

    @pytest.mark.parametrize("p", [Fraction(3, 10), 0.3])
    def test_exact_closed_forms_at_a_million_trials(self, p):
        # the recurrence's cost does not grow with N, so N = 10^6 is as cheap as N = 10
        N = 10**6
        p = Fraction(p)
        q = 1 - p
        assert central_moment_exact(2, N, p) == p * q / N
        assert central_moment_exact(3, N, p) == p * q * (q - p) / N**2
        mu4 = N * p * q * (1 + 3 * (N - 2) * p * q)
        assert central_moment_exact(4, N, p) == mu4 / Fraction(N) ** 4

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(0, 6),
        N=st.integers(1, 50),
        p=st.one_of(
            st.fractions(0, 1, max_denominator=12),
            st.floats(0.0, 1.0),
            st.sampled_from([0.0, 0.5, 1.0]),
        ),
    )
    def test_matches_pmf_summation_property(self, m, N, p):
        assert central_moment_exact(m, N, p) == binomial_central_moment(m, N, p)

    def test_float_p_used_at_exact_binary_value(self):
        exact = central_moment_exact(2, 10, Fraction(0.1))
        assert central_moment(2, 10, 0.1) == float(exact)

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("moment", [
        lambda p: central_moment_exact(2, 10, p),
        lambda p: central_moment(2, 10, p),
    ], ids=["central_moment_exact", "central_moment"])
    def test_non_finite_p_refused(self, moment, p):
        with pytest.raises(DomainError, match=r"p must lie in \[0, 1\]"):
            moment(p)


class TestMomentScaling:
    def test_variance_halves_when_n_doubles(self):
        a = central_moment(2, 10, 0.25)
        b = central_moment(2, 20, 0.25)
        assert b == a / 2.0

    def test_report_satisfied_for_generic_p(self):
        report = moment_scaling_report(4, [10, 20, 40, 80], 0.25)
        assert report.satisfied
        m3 = {e.N: abs(e.value) for e in report.entries if e.order == 3}
        # odd moments decay faster than 1/N: as 1/N^2
        assert m3[20] < m3[10] / 2.0

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_report_satisfied_at_degenerate_p(self, p):
        assert moment_scaling_report(4, [10, 20, 40, 80], p).satisfied

    def test_third_moment_closed_form(self):
        p = Fraction(1, 4)
        q = 1 - p
        for N in (10, 20, 40, 80):
            assert central_moment_exact(3, N, p) == p * q * (q - p) / N**2

    def test_requires_increasing_ns(self):
        with pytest.raises(DomainError):
            moment_scaling_report(4, [10, 10], 0.25)


class TestSampling:
    def test_same_seed_same_branch(self):
        a, fa = sample_observer_branch(200, 0.3, 99)
        b, fb = sample_observer_branch(200, 0.3, 99)
        assert a == b and fa == fb

    def test_certain_outcomes(self):
        seq, f = sample_observer_branch(50, 1.0, 1)
        assert all(seq.outcomes) and f == 1.0
        seq0, f0 = sample_observer_branch(50, 0.0, 1)
        assert not any(seq0.outcomes) and f0 == 0.0

    def test_committed_seed_within_variance_bound(self):
        _, f = sample_observer_branch(10000, 0.5, COMMITTED_SEED)
        assert abs(f - 0.5) < 3.0 * math.sqrt(0.25 / 10000)


class TestConvergenceDemo:
    def test_envelope_equals_three_sigma_exactly(self):
        rows = convergence_demo([100, 1000], 0.5, COMMITTED_SEED)
        for row in rows:
            assert row.envelope == 3.0 * math.sqrt(0.5 * 0.5 / row.N)
            assert row.variance == 0.5 * 0.5 / row.N

    def test_committed_seed_rows_inside_envelope(self):
        p = math.cos(math.pi / 8.0) ** 2
        for rows in (
            convergence_demo([100, 1000, 10000], p, COMMITTED_SEED),
            convergence_demo([100, 1000, 10000], 0.5, COMMITTED_SEED),
        ):
            for row in rows:
                assert row.abs_err < row.envelope

    def test_zero_probability_rows(self):
        rows = convergence_demo([10, 100], 0.0, COMMITTED_SEED)
        assert all(row.f == 0.0 and row.abs_err == 0.0 for row in rows)

    def test_frequencies_match_the_sampled_branches(self):
        ns = [1, 10, 1000, 10000]
        for p in (0.3, 0.5):
            rows = convergence_demo(ns, p, COMMITTED_SEED)
            assert [row.f for row in rows] == [
                sample_observer_branch(n, p, COMMITTED_SEED)[1] for n in ns
            ]

    # one stream drawn block by block serves every N: each row is bitwise the per-N draw's
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), p=st.floats(0.0, 1.0),
           ns=st.lists(st.integers(1, 5000), min_size=1, max_size=6, unique=True).map(sorted))
    def test_equals_a_fresh_stream_per_n(self, seed, p, ns):
        rows = convergence_demo(ns, p, seed)
        assert [(r.N, r.f, r.abs_err, r.envelope, r.variance) for r in rows] == per_n_convergence(ns, p, seed)

    # blocks of 7 draws, so the Ns fall inside, on and across block edges
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), p=st.floats(0.0, 1.0),
           ns=st.lists(st.integers(1, 300), min_size=1, max_size=8, unique=True).map(sorted))
    def test_small_blocks_equal_a_fresh_stream_per_n(self, seed, p, ns):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(branchstats, "_DRAW_BLOCK", 7)
            rows = convergence_demo(ns, p, seed)
        assert [(r.N, r.f, r.abs_err, r.envelope, r.variance) for r in rows] == per_n_convergence(ns, p, seed)

    # one block of draws is held, not max(N): 10**6 draws held at once would be about 9 MiB
    def test_memory_is_one_block(self):
        convergence_demo([1], 0.5, COMMITTED_SEED)  # a first call imports numpy.random
        tracemalloc.start()
        try:
            convergence_demo([10**6], 0.5, COMMITTED_SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, peak

    def test_rejects_empty_branch(self):
        with pytest.raises(DomainError):
            convergence_demo([0, 10], 0.5, COMMITTED_SEED)

    # before, 10.9 ran as 10, "100" as 100 and True as 1
    @pytest.mark.parametrize("ns", [[10.9, 20], [10.0], ["100"], [True, 5], [1, 2.5], [None]])
    def test_rejects_non_integer_ns(self, ns):
        with pytest.raises(DomainError, match="N_values must be an increasing sequence of integers >= 1"):
            convergence_demo(ns, 0.5, COMMITTED_SEED)

    def test_accepts_numpy_integer_ns(self):
        rows = convergence_demo(np.array([10, 100]), 0.5, COMMITTED_SEED)
        assert [(r.N, r.f) for r in rows] == [(n, f) for n, f, *_ in per_n_convergence([10, 100], 0.5, COMMITTED_SEED)]
        assert all(type(r.N) is int for r in rows)

    def test_rejects_negative_seed(self):
        with pytest.raises(DomainError):
            convergence_demo([10], 0.5, -1)
        with pytest.raises(DomainError):
            sample_observer_branch(10, 0.5, -1)

    # before, 1.5 raised numpy's bare TypeError and True ran as seed 1
    @pytest.mark.parametrize("seed", [1.5, 2.0, "7", True, None])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            convergence_demo([10], 0.5, seed)
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            sample_observer_branch(10, 0.5, seed)


@st.composite
def any_trees(draw):
    """A BranchTree of N = 1..14 with arbitrary weights summing to one: a few masses, each
    repeated, over a background drawn from a palette of tiny values that holds 0.0 and -0.0."""
    N = draw(st.integers(1, 14))
    size = 2**N
    tiny = st.one_of(st.sampled_from([5e-324, -5e-324, 2.5e-310, 1e-300]), st.floats(-1e-17, 1e-17))
    palette = [0.0, -0.0] + draw(st.lists(tiny, max_size=4))
    masses = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=min(4, size))))
    copies = draw(st.integers(1, min(4, size // len(masses))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.array(palette)[rng.integers(0, len(palette), size)]
    spots = rng.choice(size, copies * len(masses), replace=False)
    weights[spots] = np.tile(masses / (masses.sum() * copies), copies)
    return BranchTree(N, 0.5, weights)


def never_fork():
    raise AssertionError("the branch-tree writer forked a CSV worker")


class TestCsvExports:
    def test_branch_tree_csv(self, tmp_path):
        tree = enumerate_branch_tree(3, 0.25)
        path = tmp_path / "tree.csv"
        branch_tree_to_csv(tree, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "sequence_bits,r,weight"
        assert len(lines) == 9
        bits, r, w = lines[1].split(",")
        assert bits == "000" and r == "0"
        assert float(w) == 0.75**3

    def test_branch_tree_csv_matches_sequences_across_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(branchstats, "_CSV_CHUNK_ROWS", 3)
        tree = enumerate_branch_tree(5, 0.3)
        path = tmp_path / "tree.csv"
        branch_tree_to_csv(tree, path)
        expected = "sequence_bits,r,weight\n" + "".join(
            f"{seq.bits},{seq.aligned_count},{w!r}\n" for seq, w in tree.entries()
        )
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("N", [1, 5, 12, 13, 16, 17])
    def test_branch_tree_csv_matches_format_reference(self, tmp_path, N):
        # N = 12 is one full block at the default 2^12 rows and N >= 13 spans several; the
        # tree's columns are all text, so write_csv formats every N in this process
        for p in (0.3, 0.5, 1.0):  # p = 1 gives exact zeros beside the one weight 1.0
            tree = enumerate_branch_tree(N, p)
            path = tmp_path / "tree.csv"
            branch_tree_to_csv(tree, path)
            assert path.read_bytes() == tree_csv_bytes(tree)

    # any tree, not only an enumerated one: repeated weights, 0.0 beside -0.0, subnormals and
    # negatives; each weight is keyed on its bits, so -0.0 and 0.0 keep their own text
    @pytest.mark.parametrize("split_ready", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(tree=any_trees())
    def test_any_tree_csv_matches_format_reference(self, split_ready, tree):
        with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as mp:
            if split_ready:  # 8-row blocks, 1-field ranges and three cores: the tree's columns
                # are all text, with no field to repr, so write_csv still forks no worker
                mp.setattr(branchstats, "_CSV_CHUNK_ROWS", 8)
                mp.setattr(fields, "MIN_FIELDS_PER_RANGE", 1)
                mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
                mp.setattr(os, "fork", never_fork)
            path = Path(out, "tree.csv")
            branch_tree_to_csv(tree, path)
            assert path.read_bytes() == tree_csv_bytes(tree)

    def test_convergence_csv(self, tmp_path):
        rows = convergence_demo([100], 0.5, COMMITTED_SEED)
        path = tmp_path / "conv.csv"
        convergence_to_csv(rows, path)
        text = path.read_text()
        assert text.startswith("N,f,abs_err,envelope,variance\n")
        assert "\r" not in text
