import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import branch_correlation

from mvlab.errors import DomainError, ProtocolError
from mvlab.spins import (
    BASIS_ORDER,
    Branch,
    Direction,
    PointerLabel,
    TwoSpinState,
    aligned_probability,
    apply_measurement,
    branches_to_json,
    chsh,
    classical_chsh_bound,
    correlation,
    deterministic_chsh_values,
    four_world_split,
    rotate_second_basis,
    singlet,
    singlet_branches,
    unset_pointers,
)

INV_SQRT2 = math.sqrt(0.5)


def random_states(count, seed=0):
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        z = z / np.linalg.norm(z)
        states.append(TwoSpinState(Direction(0.0), Direction(0.0), tuple(z)))
    return states


class TestStatesAndLabels:
    def test_singlet_components(self):
        st = singlet(Direction(0.0))
        assert st.amplitudes == (0.0, INV_SQRT2, -INV_SQRT2, 0.0)

    def test_singlet_same_pattern_in_horizontal_basis(self):
        assert singlet(Direction(math.pi / 2)).amplitudes == singlet(Direction(0.0)).amplitudes

    def test_singlet_normalized(self):
        st = singlet(Direction(0.0))
        assert abs(sum(abs(a) ** 2 for a in st.amplitudes) - 1.0) < 1e-15

    def test_direction_range(self):
        with pytest.raises(DomainError):
            Direction(-0.1)
        with pytest.raises(DomainError):
            Direction(math.pi + 0.1)

    def test_state_must_be_normalized(self):
        with pytest.raises(DomainError):
            TwoSpinState(Direction(0.0), Direction(0.0), (1.0, 1.0, 0.0, 0.0))

    @pytest.mark.parametrize("amplitudes", [(1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0), ()])
    def test_state_needs_four_amplitudes(self, amplitudes):
        with pytest.raises(DomainError, match="exactly 4 amplitudes"):
            TwoSpinState(Direction(0.0), Direction(0.0), amplitudes)

    def test_pointer_validation(self):
        with pytest.raises(DomainError):
            PointerLabel(3)
        with pytest.raises(DomainError):
            PointerLabel(1, "sideways")


class TestRotation:
    def test_identity_at_zero_angle(self):
        st = singlet(Direction(0.0))
        assert rotate_second_basis(st, Direction(0.0)).amplitudes == st.amplitudes

    def test_rotated_singlet_matches_four_term_expansion(self):
        theta = 0.7
        st = rotate_second_basis(singlet(Direction(0.0)), Direction(theta))
        s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
        expected = (-s * INV_SQRT2, c * INV_SQRT2, -c * INV_SQRT2, -s * INV_SQRT2)
        assert max(abs(a - b) for a, b in zip(st.amplitudes, expected)) < 1e-15

    def test_norm_preserved(self):
        for st in random_states(20, seed=3):
            rotated = rotate_second_basis(st, Direction(2.0))
            assert abs(sum(abs(a) ** 2 for a in rotated.amplitudes) - 1.0) < 1e-12

    def test_there_and_back_is_identity(self):
        st = rotate_second_basis(singlet(Direction(0.0)), Direction(math.pi))
        back = rotate_second_basis(st, Direction(0.0))
        assert max(abs(a - b) for a, b in zip(back.amplitudes, singlet(Direction(0.0)).amplitudes)) < 1e-12

    def test_half_turn_applied_twice_is_minus_identity(self):
        # the transformation matrix at theta = pi, squared, is -1 on each particle-2 block
        def rot_pi(amps):
            c, s = math.cos(math.pi / 2.0), math.sin(math.pi / 2.0)
            uu, ud, du, dd = amps
            return (c * uu - s * ud, s * uu + c * ud, c * du - s * dd, s * du + c * dd)

        start = singlet(Direction(0.0)).amplitudes
        twice = rot_pi(rot_pi(start))
        assert max(abs(a + b) for a, b in zip(twice, start)) < 1e-12


class TestFourWorldSplit:
    def test_right_angle_gives_exact_quarters(self):
        assert four_world_split(math.pi / 2) == (0.25, 0.25, 0.25, 0.25)

    def test_zero_angle_reduces_to_two_worlds(self):
        assert four_world_split(0.0) == (0.0, 0.5, 0.5, 0.0)

    def test_pi_gives_exact_halves_on_same_labels(self):
        assert four_world_split(math.pi) == (0.5, 0.0, 0.0, 0.5)

    @pytest.mark.parametrize("i", range(32))
    def test_weights_match_half_angle_formula(self, i):
        theta = (i + 0.5) * math.pi / 32.0
        w = four_world_split(theta)
        s2 = math.sin(theta / 2.0) ** 2
        c2 = math.cos(theta / 2.0) ** 2
        expected = (s2 / 2.0, c2 / 2.0, c2 / 2.0, s2 / 2.0)
        assert max(abs(a - b) for a, b in zip(w, expected)) < 1e-12
        assert abs(sum(w) - 1.0) < 1e-15

    def test_relabeling_symmetry(self):
        # right angle: all four weights interchangeable; zero angle: the two
        # surviving weights interchangeable
        w = four_world_split(math.pi / 2)
        assert len(set(w)) == 1
        w0 = four_world_split(0.0)
        assert w0[1] == w0[2] and w0[0] == w0[3]


class TestMeasurement:
    def test_product_state_single_branch(self):
        st = TwoSpinState(Direction(0.0), Direction(0.0), (0.0, 1.0, 0.0, 0.0))
        branches = apply_measurement(st, unset_pointers())
        assert len(branches) == 1
        branch = branches[0]
        assert branch.amplitude == 1.0
        assert branch.spin_labels == ("up", "down")
        assert branch.pointer_labels == (PointerLabel(1, "up"), PointerLabel(2, "down"))

    def test_singlet_two_branches(self):
        branches = apply_measurement(singlet(Direction(0.0)), unset_pointers())
        assert len(branches) == 2
        assert [b.weight for b in branches] == pytest.approx([0.5, 0.5], abs=1e-15)
        assert branches[0].spin_labels == ("up", "down")
        assert branches[1].spin_labels == ("down", "up")

    def test_rotated_singlet_four_branches_with_split_weights(self):
        theta = 1.1
        st = rotate_second_basis(singlet(Direction(0.0)), Direction(theta))
        branches = apply_measurement(st, unset_pointers())
        assert len(branches) == 4
        weights = [b.weight for b in branches]
        assert weights == pytest.approx(list(four_world_split(theta)), abs=1e-12)

    def test_pointer_reuse_rejected(self):
        st = singlet(Direction(0.0))
        with pytest.raises(ProtocolError):
            apply_measurement(st, (PointerLabel(1, "up"), PointerLabel(2)))

    def test_pointer_order_enforced(self):
        st = singlet(Direction(0.0))
        with pytest.raises(DomainError):
            apply_measurement(st, (PointerLabel(2), PointerLabel(1)))

    def test_pointer_readings_copy_spin_labels(self):
        for st in random_states(10, seed=5):
            for b in apply_measurement(st, unset_pointers()):
                assert b.pointer_labels[0].reading == b.spin_labels[0]
                assert b.pointer_labels[1].reading == b.spin_labels[1]

    def test_total_weight_is_one(self):
        for st in random_states(50, seed=1):
            total = sum(b.weight for b in apply_measurement(st, unset_pointers()))
            assert abs(total - 1.0) < 1e-12

    def _expand_then_measure(self, state):
        branches = []
        for idx, amp in enumerate(state.amplitudes):
            if amp == 0:
                continue
            unit = tuple(1.0 if i == idx else 0.0 for i in range(4))
            basis_state = TwoSpinState(state.basis_1, state.basis_2, unit)
            term = apply_measurement(basis_state, unset_pointers())[0]
            branches.append(
                Branch(amp * term.amplitude, term.spin_labels, term.pointer_labels)
            )
        return branches

    def test_distributivity_on_singlet(self):
        st = singlet(Direction(0.0))
        assert apply_measurement(st, unset_pointers()) == self._expand_then_measure(st)

    def test_distributivity_on_random_states(self):
        # measuring the sum equals summing the measured terms, branch for branch
        for st in random_states(100, seed=2):
            assert apply_measurement(st, unset_pointers()) == self._expand_then_measure(st)


class TestProbabilitiesAndCorrelations:
    def test_aligned_probability_values(self):
        assert aligned_probability(0.0) == 1.0
        assert aligned_probability(math.pi / 2) == 0.5
        assert abs(aligned_probability(math.pi / 3) - 0.75) < 1e-12

    def test_aligned_probability_complement(self):
        for theta in np.linspace(0.0, math.pi, 17):
            p = aligned_probability(float(theta))
            q = 1.0 - p
            assert 0.0 <= p <= 1.0
            assert abs(p + q - 1.0) < 1e-15

    def test_aligned_probability_consistent_with_rotation(self):
        # weight of the aligned branch of |up,up> through a rotated apparatus
        theta = 0.9
        st = TwoSpinState(Direction(0.0), Direction(0.0), (1.0, 0.0, 0.0, 0.0))
        rotated = rotate_second_basis(st, Direction(theta))
        aligned_weight = abs(rotated.amplitudes[0]) ** 2
        assert abs(aligned_weight - aligned_probability(theta)) < 1e-12

    def test_correlation_values(self):
        assert correlation(0.0) == -1.0
        assert correlation(math.pi / 2) == 0.0
        assert abs(correlation(math.pi / 4) + math.sqrt(2.0) / 2.0) < 1e-15
        assert correlation(math.pi) == 1.0

    @given(st.floats(0.0, math.pi))
    @example(0.0)
    @example(0.5 * math.pi)
    @example(math.pi)
    def test_closed_forms_keep_their_bits(self, theta):
        # the reference: each function's closed form, each with its own exact case at pi/2
        c = math.cos(theta)
        exact = theta == 0.5 * math.pi
        split = (0.25,) * 4 if exact else ((1.0 - c) / 4.0, (1.0 + c) / 4.0, (1.0 + c) / 4.0, (1.0 - c) / 4.0)
        assert four_world_split(theta) == split
        assert aligned_probability(theta) == (0.5 if exact else (1.0 + c) / 2.0)
        e = correlation(theta)
        assert e == (0.0 if exact else -c)
        assert math.copysign(1.0, e) == math.copysign(1.0, 0.0 if exact else -c)

    @pytest.mark.parametrize("i", range(32))
    def test_correlation_two_code_paths(self, i):
        theta = (i + 0.5) * math.pi / 32.0
        assert abs(correlation(theta) - branch_correlation(theta)) < 1e-12

    def test_chsh_tsirelson_point(self):
        s = chsh(0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0)
        assert abs(abs(s) - 2.0 * math.sqrt(2.0)) < 1e-12

    def test_chsh_equal_angles(self):
        s = chsh(0.3, 0.3, 0.3, 0.3)
        assert abs(abs(s) - 2.0) < 1e-12

    def test_deterministic_model_bounded_by_two(self):
        values = deterministic_chsh_values()
        assert len(values) == 16
        assert max(abs(v) for v in values) == 2.0
        assert classical_chsh_bound() == 2.0


class TestJsonExport:
    def test_schema_and_round_trip(self, tmp_path):
        theta = math.pi / 2.0
        st = rotate_second_basis(singlet(Direction(0.0)), Direction(theta))
        branches = apply_measurement(st, unset_pointers())
        path = tmp_path / "branches.json"
        branches_to_json(branches, path)
        assert path.read_bytes().endswith(b"\n]\n")
        payload = json.loads(path.read_text())
        assert isinstance(payload, list) and len(payload) == 4
        for entry, branch in zip(payload, branches):
            assert set(entry) == {
                "amplitude_re", "amplitude_im", "weight", "spin1", "spin2",
                "pointer1", "pointer2",
            }
            assert entry["weight"] == branch.weight
            assert entry["pointer1"] == branch.spin_labels[0]
            assert entry["pointer2"] == branch.spin_labels[1]

    @pytest.mark.parametrize("theta", [0.0, -0.0])
    def test_zero_angle_rotation_writes_the_unrotated_bytes(self, tmp_path, theta):
        # a rotation by +-0 leaves every amplitude, signed zeros included, as it was
        unrotated, rotated = tmp_path / "unrotated.json", tmp_path / "rotated.json"
        branches_to_json(apply_measurement(singlet(Direction(0.0)), unset_pointers()), unrotated)
        branches_to_json(singlet_branches(theta), rotated)
        assert rotated.read_bytes() == unrotated.read_bytes()

    def test_basis_order_constant(self):
        assert BASIS_ORDER == (("up", "up"), ("up", "down"), ("down", "up"), ("down", "down"))
