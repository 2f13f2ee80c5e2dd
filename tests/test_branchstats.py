import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import binomial_central_moment

from mvlab import branchstats
from mvlab.branchstats import (
    BranchSequence,
    branch_tree_to_csv,
    central_moment,
    central_moment_exact,
    convergence_demo,
    convergence_to_csv,
    enumerate_branch_tree,
    expected_frequency,
    frequency_moments,
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

    def test_aggregation_reproduces_closed_form(self):
        tree = enumerate_branch_tree(12, 0.25)
        for r in range(13):
            assert abs(tree.prob_aligned_count(r) - prob_r_given_N(r, 12, 0.25)) < 1e-12

    def test_capacity_error_names_the_alternatives(self):
        with pytest.raises(CapacityError, match="closed-form"):
            enumerate_branch_tree(21, 0.5)


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

    def test_frequency_moments_bundle(self):
        fm = frequency_moments(10, 0.25, 4)
        assert fm.moments[0] == 1.0
        assert fm.moments[1] == 0.0
        assert fm.moments[2] == 0.01875

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("moment", [
        lambda p: central_moment_exact(2, 10, p),
        lambda p: central_moment(2, 10, p),
        lambda p: frequency_moments(10, p, 4),
    ], ids=["central_moment_exact", "central_moment", "frequency_moments"])
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

    def test_rejects_empty_branch(self):
        with pytest.raises(DomainError):
            convergence_demo([0, 10], 0.5, COMMITTED_SEED)

    def test_rejects_negative_seed(self):
        with pytest.raises(DomainError):
            convergence_demo([10], 0.5, -1)
        with pytest.raises(DomainError):
            sample_observer_branch(10, 0.5, -1)


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

    @pytest.mark.parametrize("N", [1, 5, 13, 17])
    def test_branch_tree_csv_matches_format_reference(self, tmp_path, N):
        # N = 13 and N = 17 span several blocks at the default 2^12 rows
        tree = enumerate_branch_tree(N, 0.3)
        path = tmp_path / "tree.csv"
        branch_tree_to_csv(tree, path)
        rows = zip(tree.aligned_counts().tolist(), tree.weights.tolist())
        expected = "sequence_bits,r,weight\n" + "".join(
            f"{format(k, f'0{N}b')[::-1]},{r},{w!r}\n" for k, (r, w) in enumerate(rows)
        )
        assert path.read_bytes() == expected.encode()

    def test_convergence_csv(self, tmp_path):
        rows = convergence_demo([100], 0.5, COMMITTED_SEED)
        path = tmp_path / "conv.csv"
        convergence_to_csv(rows, path)
        text = path.read_text()
        assert text.startswith("N,f,abs_err,envelope,variance\n")
        assert "\r" not in text
