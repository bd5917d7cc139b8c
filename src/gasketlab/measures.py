"""Hausdorff measure, Kusuoka measure, energy measures, singularity diagnostics.

All cell masses are exact Fractions, each built once from integer numerators
over one denominator (see `exact`). The Kusuoka mass of a cell is

    nu(w) = (1/2)(5/3)^m tr(Y_[w]^T Y_[w]),   Y_[w] = Y_{wm} ... Y_{w1},

with the empty-word product taken to be P (trace restricted to range P), so
nu(gasket) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product

import numpy as np

from .errors import UsageError
from .exact import (
    A_INT,
    BASIS,
    P_INT,
    Y_INT,
    cell_leaves,
    fractions_over,
    pairwise_sq,
    restrict_states,
    times_numerators,
    to_numerators,
    validate_word,
)
from .harmonic import _as_triple

MAX_TABLE_LEVEL = 10


@cache
def _unit_leaves(m: int) -> tuple[tuple[str, ...], np.ndarray]:
    """cell_leaves(m, BASIS, A_INT), filled on first use and kept per level,
    its array read-only. All levels up to MAX_TABLE_LEVEL take about 12 MB,
    6.4 MB of leaves and the rest words."""
    words, leaves = cell_leaves(m, BASIS, A_INT)
    leaves.flags.writeable = False
    return tuple(words), leaves


def _kusuoka(columns, m: int) -> Fraction:
    """nu(w) = (1/2)(5/3)^m |Y_[w]|^2 from the columns of Y_[w], numerators over 3 * 5^m."""
    return Fraction(sum(x * x for col in columns for x in col), 18 * 15**m)


@dataclass(frozen=True)
class CellMeasure:
    kind: str  # 'hausdorff' | 'kusuoka' | 'energy-of(u)'
    level: int
    masses: dict[str, Fraction]

    def total(self) -> Fraction:
        return sum(self.masses.values(), Fraction(0))

    def mass(self, word: str) -> Fraction:
        if word not in self.masses:
            raise UsageError(f"word {word!r} not at level {self.level}")
        return self.masses[word]


def hausdorff_mass(word: str) -> Fraction:
    validate_word(word)
    return Fraction(1, 3) ** len(word)


def kusuoka_mass(word: str) -> Fraction:
    validate_word(word)
    # Y-route states are the columns of Y_[w], starting from P's (P_INT is symmetric)
    return _kusuoka(restrict_states(word, P_INT, Y_INT), len(word))


def hausdorff_measure(m: int) -> CellMeasure:
    if m < 0:
        raise UsageError(f"level {m} is negative")
    mass = Fraction(1, 3) ** m
    return CellMeasure("hausdorff", m, {"".join(w): mass for w in product("123", repeat=m)})


def kusuoka_measure(m: int) -> CellMeasure:
    if m > MAX_TABLE_LEVEL:
        raise UsageError(f"table level above guard {MAX_TABLE_LEVEL}")
    words, cols = cell_leaves(m, P_INT, Y_INT)
    den = 18 * 15**m  # as in _kusuoka
    masses = fractions_over((cols * cols).sum(axis=(1, 2))[::-1], den)
    # keys in depth-first (reverse lexicographic) order, part of the table's output
    return CellMeasure("kusuoka", m, dict(zip(reversed(words), masses)))


def energy_measure_table(u, m: int) -> CellMeasure:
    """Cell masses of nu_<Hu> at level m; total equals harmonic_energy(u)."""
    if m > MAX_TABLE_LEVEL:
        raise UsageError(f"table level above guard {MAX_TABLE_LEVEL}")
    base = _as_triple(u)
    nums, d = to_numerators(base)
    # (3/2)(5/3)^m v^T P v with v = leaf numerators / (5^m d)
    words, leaves = _unit_leaves(m)
    sq = pairwise_sq(times_numerators(leaves, nums).T)
    masses = dict(zip(reversed(words), fractions_over(sq[::-1], 2 * 15**m * d * d)))
    return CellMeasure(f"energy-of({tuple(str(x) for x in base)})", m, masses)


def kusuoka_identity_check(m: int) -> Fraction:
    """Max cell defect of nu = (1/3)(nu_<h1> + nu_<h2> + nu_<h3>), exact.

    The two sides go through independent product routes, two traversals in
    the same lexicographic cell order: Y-products for nu, A-products of the
    basis triples for the energy measures. With nu(w) = S / (18 * 15^m) and
    nu_<hj>(w) = Q_j / (2 * 15^m), the defect of a cell is
    |S - 3 sum_j Q_j| / (18 * 15^m).
    """
    if m > 8:
        raise UsageError("identity check guarded to m <= 8")
    _, ys = cell_leaves(m, P_INT, Y_INT)
    _, hs = _unit_leaves(m)  # (cell, corner, j)
    nu = (ys * ys).sum(axis=(1, 2))
    q = pairwise_sq(hs.transpose(1, 0, 2)).sum(axis=1)
    return Fraction(int(np.abs(nu - 3 * q).max()), 18 * 15**m)


def singularity_diagnostic(m: int) -> dict:
    """Density ratios nu(w) * 3^m over level-m words.

    The ratio along the word 1^m equals (1/2)[(9/5)^m + (1/5)^m] exactly; its
    growth is the finite-level face of the mutual singularity of nu and mu.
    """
    table = kusuoka_measure(m)
    three_m = Fraction(3) ** m
    ratios = {w: mass * three_m for w, mass in table.masses.items()}
    word1 = "1" * m
    expected1 = Fraction(1, 2) * (Fraction(9, 5) ** m + Fraction(1, 5) ** m)
    assert ratios[word1] == expected1
    max_word = max(ratios, key=lambda w: (ratios[w], w))
    min_word = min(ratios, key=lambda w: (ratios[w], w))
    return {
        "level": m,
        "max_ratio": ratios[max_word],
        "min_ratio": ratios[min_word],
        "max_word": max_word,
        "min_word": min_word,
        "ratio_at_word_1m": ratios[word1],
    }
