"""Seeded inputs for the three workloads.

Every value is drawn from ``random.Random`` seeded by the workload name and
the ``--seed`` argument, so one seed always yields the same input list.
Potential coefficients are multiples of 1/256: they are exact in binary, so
the program and the reference quadratures see the same potential at any
precision.  Potentials are even functions (only x^2, x^4, x^6 terms); the
ranges below keep every drawn potential on the same grid levels, so the
cost of an operation varies little from one seed to the next.
"""
from __future__ import annotations

import dataclasses
import random

# Coefficient ranges, by degree: one (lo, hi) per even power x^2, x^4, ...
POTENTIAL_RANGES = {
    2: ((0.34, 0.66),),
    4: ((0.40, 0.60), (0.80, 1.20)),
    6: ((0.40, 0.60), (0.20, 0.50), (0.20, 0.40)),
}
COEFF_DENOM = 256
SETUP_POTENTIAL = "0,0,0.5"               # the x^2/2 table built during set-up
ROUNDS = 16               # a run stops after this many rounds at the latest

RH_DEGREES = (2, 4)
# A jump residual costs more the farther its point sits from 0 (more outer
# nodes survive pruning): at degree 2, 5.8 s at |x| = 0.6 against 7.2-7.9 s
# near |x| = 1.8.  Points are drawn from one narrow band of |x| so that the
# cost of a point does not depend on the seed.
JUMP_ABS_X = (0.25, 0.75)
FAMILY_DEGREES = (4, 6)
FAMILY_KMAX = 6


@dataclasses.dataclass(frozen=True)
class RHItem:
    """One potential of the rh-verify workload and everything drawn for it."""

    coeffs: str
    k: int
    gauge: tuple          # (a_k, b_0 .. b_{d-1}) for build_odd
    det_points: tuple     # five off-axis points, |Im z| >= 1 (far field)
    rays: tuple           # two angles in [pi/4, 3pi/4], as fractions of pi
    jump_x: float         # |x| in JUMP_ABS_X, a point no earlier item used


@dataclasses.dataclass(frozen=True)
class FamilyItem:
    """One potential of the families workload."""

    coeffs: str
    skew_entry: tuple     # (i, j), i < j, i + j odd: checked by nested quadrature
    det_points: tuple     # two off-axis points, |Im z| >= 1, for det_residual


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"skewrh-bench:{workload}:{seed}")


def _potential(rng: random.Random, degree: int, used: set) -> str:
    while True:
        coeffs = ["0", "0"]
        for lo, hi in POTENTIAL_RANGES[degree]:
            coeffs.append(repr(_dyadic(rng, lo, hi, COEFF_DENOM)))
            coeffs.append("0")
        text = ",".join(coeffs[:-1])
        if text not in used and text != SETUP_POTENTIAL:
            used.add(text)
            return text


def _dyadic(rng: random.Random, lo: float, hi: float, denom: int) -> float:
    return rng.randint(round(lo * denom), round(hi * denom)) / denom


def _off_axis_points(rng: random.Random, count: int) -> tuple:
    return tuple(complex(_dyadic(rng, -2.5, 2.5, 16),
                         rng.choice((-1, 1)) * _dyadic(rng, 1, 2, 16))
                 for _ in range(count))


def rh_rounds(seed: int):
    """ROUNDS rounds, each one item per degree in RH_DEGREES."""
    rng = _rng("rh-verify", seed)
    used, xs = set(), set()
    rounds = []
    for _ in range(ROUNDS):
        items = []
        for d in RH_DEGREES:
            coeffs = _potential(rng, d, used)
            gauge = tuple(complex(_dyadic(rng, -1, 1, 8), _dyadic(rng, -1, 1, 8))
                          for _ in range(d + 1))
            dets = _off_axis_points(rng, 5)
            rays = tuple(_dyadic(rng, 0.25, 0.75, 64) for _ in range(2))
            while True:
                x = rng.choice((-1, 1)) * _dyadic(rng, *JUMP_ABS_X, 64)
                if x not in xs:
                    xs.add(x)
                    break
            items.append(RHItem(coeffs=coeffs, k=d // 2, gauge=gauge,
                                det_points=dets, rays=rays, jump_x=x))
        rounds.append(tuple(items))
    return rounds


def family_rounds(seed: int):
    """ROUNDS rounds, each one item per degree in FAMILY_DEGREES."""
    rng = _rng("families", seed)
    used = set()
    n = 2 * FAMILY_KMAX + 2
    rounds = []
    for _ in range(ROUNDS):
        items = []
        for d in FAMILY_DEGREES:
            coeffs = _potential(rng, d, used)
            while True:
                i, j = sorted(rng.sample(range(n), 2))
                if (i + j) % 2 == 1:
                    break
            items.append(FamilyItem(coeffs=coeffs, skew_entry=(i, j),
                                    det_points=_off_axis_points(rng, 2)))
        rounds.append(tuple(items))
    return rounds


# The README examples that fit one run.  rh-verify runs at one jump point
# instead of the default three; the odd rh-verify and the pfaff-check examples
# are left out.  The full README list takes 113 s a pass and these six 24 s
# (see bench/README.md).
CLI_EXAMPLES = (
    ("moments", ["moments", "--potential", "0,0,0.5", "--n", "6"]),
    ("polys", ["polys", "--potential", "0,0,0.5,0,1", "--kmax", "8",
               "--format", "json"]),
    ("gram", ["gram", "--potential", "0,0,0.5,0,1", "--kmax", "8"]),
    ("zeros", ["zeros", "--potential", "0,0,0.5,0,1", "--kmax", "4",
               "--out", "{out}/zeros.csv"]),
    ("rh-verify", ["rh-verify", "--potential", "0,0,0.5", "--k", "2",
                   "--parity", "even", "--jump-xs", "0.35"]),
    ("pfaffian", ["pfaffian", "--potential", "0,0,0.5", "--n", "8"]),
)


def cli_order(seed: int):
    """The README examples in a seeded order."""
    order = list(CLI_EXAMPLES)
    _rng("cli-readme", seed).shuffle(order)
    return tuple(order)
