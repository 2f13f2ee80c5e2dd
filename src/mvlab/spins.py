"""Two-spin states, spinor basis rotations, pointer branching, correlations.

Everything here is exact four-dimensional linear algebra: pointer readings
are carried as labels on branches because the measurement unitary is fully
determined by its action on basis states (it copies the spin into the
apparatus record). Weights at the special angles 0, pi/2 and pi are exact
floats; general angles are accurate to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ProtocolError
from .fields import write_json

BASIS_ORDER = (("up", "up"), ("up", "down"), ("down", "up"), ("down", "down"))
READINGS = ("unset", "up", "down")

_INV_SQRT2 = math.sqrt(0.5)
NORMALIZATION_TOLERANCE = 1e-12


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not (0.0 <= theta <= math.pi):
        raise DomainError(f"theta must lie in [0, pi], got {theta}")
    return theta


def _cos(theta: float) -> float:
    """cos(theta) for theta in [0, pi]: exactly 0.0 at pi/2, where math.cos gives 6.1e-17."""
    theta = _check_theta(theta)
    return 0.0 if theta == 0.5 * math.pi else math.cos(theta)  # exact +-1.0 at 0 and pi


@dataclass(frozen=True)
class Direction:
    """Measurement axis at polar angle theta; the azimuth is fixed to zero."""

    theta: float

    def __post_init__(self):
        _check_theta(self.theta)


@dataclass(frozen=True)
class TwoSpinState:
    """Four amplitudes ordered (uu, ud, du, dd) in per-particle bases.

    The first arrow is particle 1's component along basis_1, the second is
    particle 2's along basis_2. Only normalized states are representable.
    """

    basis_1: Direction
    basis_2: Direction
    amplitudes: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) != 4:
            raise DomainError("a two-spin state needs exactly 4 amplitudes")
        total = sum(abs(a) ** 2 for a in amps)
        if abs(total - 1.0) > NORMALIZATION_TOLERANCE:
            raise DomainError(f"state not normalized: sum |a|^2 = {total}")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class PointerLabel:
    """Recorded reading of one apparatus; readings only move off 'unset'."""

    apparatus_id: int
    reading: str = "unset"

    def __post_init__(self):
        if self.apparatus_id not in (1, 2):
            raise DomainError(f"apparatus_id must be 1 or 2, got {self.apparatus_id}")
        if self.reading not in READINGS:
            raise DomainError(f"reading must be one of {READINGS}, got {self.reading!r}")


def unset_pointers() -> tuple[PointerLabel, PointerLabel]:
    return (PointerLabel(1), PointerLabel(2))


@dataclass(frozen=True)
class Branch:
    """One term of the post-measurement superposition."""

    amplitude: complex
    spin_labels: tuple[str, str]
    pointer_labels: tuple[PointerLabel, PointerLabel]

    @property
    def weight(self) -> float:
        return abs(self.amplitude) ** 2


def singlet(basis: Direction) -> TwoSpinState:
    """The rotationally invariant zero-total-spin state, (0, 1, -1, 0)/sqrt(2).

    The component pattern is the same in every common basis, which is why
    the basis argument only labels the expansion.
    """
    return TwoSpinState(basis, basis, (0.0, _INV_SQRT2, -_INV_SQRT2, 0.0))


def rotate_second_basis(state: TwoSpinState, new_basis_2: Direction) -> TwoSpinState:
    """Re-express particle 2's components along a new axis.

    With delta the signed angle from the current to the new axis (both have
    zero azimuth, so they are coplanar), the old kets expand as

        |old,up>   = cos(delta/2)|new,up> + sin(delta/2)|new,down>
        |old,down> = -sin(delta/2)|new,up> + cos(delta/2)|new,down>

    which preserves the norm exactly and composes: rotating there and back
    is the identity.
    """
    delta = new_basis_2.theta - state.basis_2.theta
    c = math.cos(0.5 * delta)
    s = math.sin(0.5 * delta)
    uu, ud, du, dd = state.amplitudes
    new_amps = (
        c * uu - s * ud,
        s * uu + c * ud,
        c * du - s * dd,
        s * du + c * dd,
    )
    return TwoSpinState(state.basis_1, new_basis_2, new_amps)


def four_world_split(theta: float) -> tuple[float, float, float, float]:
    """Branch weights (uu, ud, du, dd) for a singlet measured at relative angle theta.

    Returns (sin^2(theta/2)/2, cos^2(theta/2)/2, cos^2(theta/2)/2,
    sin^2(theta/2)/2). The quarter-weights at theta = pi/2 and the
    half-weights at theta = 0 and pi are exact; relabeling symmetry demands
    nothing less at those angles.
    """
    c = _cos(theta)
    same = (1.0 - c) / 4.0
    opposite = (1.0 + c) / 4.0
    return (same, opposite, opposite, same)


def apply_measurement(
    state: TwoSpinState, pointers: tuple[PointerLabel, PointerLabel]
) -> list[Branch]:
    """Copy each spin component into its apparatus pointer, one branch per term.

    The interaction is linear and defined on basis states, so amplitudes are
    carried unchanged and every nonzero component becomes a branch whose
    pointer readings repeat its spin labels. Pointers must be unset: the
    record is one-way and there is no re-measurement model.
    """
    p1, p2 = pointers
    if (p1.apparatus_id, p2.apparatus_id) != (1, 2):
        raise DomainError("pointers must be (apparatus 1, apparatus 2) in order")
    if p1.reading != "unset" or p2.reading != "unset":
        raise ProtocolError("pointer already set: re-measurement is not modeled")
    branches = []
    for labels, amp in zip(BASIS_ORDER, state.amplitudes):
        if amp != 0:
            branches.append(
                Branch(
                    amplitude=amp,
                    spin_labels=labels,
                    pointer_labels=(PointerLabel(1, labels[0]), PointerLabel(2, labels[1])),
                )
            )
    return branches


def singlet_branches(theta: float) -> list[Branch]:
    """The singlet, particle 2's basis rotated to theta, measured with unset pointers."""
    state = rotate_second_basis(singlet(Direction(0.0)), Direction(theta))
    return apply_measurement(state, unset_pointers())


def branch_correlation(theta: float) -> float:
    """E(theta) by the branch route: sum of weight * (+-1 product) over singlet_branches(theta)."""
    sign = {"up": 1.0, "down": -1.0}
    return sum(
        b.weight * sign[b.spin_labels[0]] * sign[b.spin_labels[1]] for b in singlet_branches(theta)
    )


def aligned_probability(theta: float) -> float:
    """Weight of the aligned outcome when a pure 'up' spin meets an apparatus at theta.

    p = cos^2(theta/2), with q = sin^2(theta/2) its exact complement.
    """
    return (1.0 + _cos(theta)) / 2.0


def correlation(theta: float) -> float:
    """Expected product of the two +-1 outcomes at relative angle theta.

    The four-world weights give sin^2(theta/2) - cos^2(theta/2) = -cos(theta).
    """
    return 0.0 - _cos(theta)  # -cos bit for bit, but +0.0 at pi/2


def _fold_angle(delta: float) -> float:
    d = math.fmod(abs(delta), 2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def chsh(a: float, a_prime: float, b: float, b_prime: float) -> float:
    """S = E(a-b) - E(a-b') + E(a'-b) + E(a'-b') from the closed-form correlation.

    Each difference must be finite: two finite angles near +-1.8e308 can
    differ by more than float range.
    """
    deltas = (a - b, a - b_prime, a_prime - b, a_prime - b_prime)
    if not all(map(math.isfinite, deltas)):
        raise DomainError(f"angles {[a, a_prime, b, b_prime]} must differ by finite amounts")
    e = [correlation(_fold_angle(delta)) for delta in deltas]
    return e[0] - e[1] + e[2] + e[3]


def deterministic_chsh_values() -> list[float]:
    """All 16 values of S for fixed +-1 outcome tables.

    A deterministic local model assigns one outcome per analyzer setting, so
    its correlations are plain products and the angles drop out; exhaustive
    enumeration bounds |S| by 2.
    """
    values = []
    for a in (1, -1):
        for ap in (1, -1):
            for b in (1, -1):
                for bp in (1, -1):
                    values.append(float(a * b - a * bp + ap * b + ap * bp))
    return values


def classical_chsh_bound() -> float:
    """max |S| over the 16 deterministic assignments (= 2)."""
    return max(abs(v) for v in deterministic_chsh_values())


def branches_to_json(branches: list[Branch], path) -> None:
    """Write a branch list to path as a JSON array, one object per branch."""
    write_json(path, [
        {
            "amplitude_re": branch.amplitude.real,
            "amplitude_im": branch.amplitude.imag,
            "weight": branch.weight,
            "spin1": branch.spin_labels[0],
            "spin2": branch.spin_labels[1],
            "pointer1": branch.pointer_labels[0].reading,
            "pointer2": branch.pointer_labels[1].reading,
        }
        for branch in branches
    ])
