"""Hausdorff measure, Kusuoka measure, energy measures, singularity diagnostics.

All cell masses are exact Fractions, each built once from integer numerators
over one denominator, the tables' from exact.route_table and exact.cell_words
(kept per level: 13 MB up to MAX_TABLE_LEVEL, 5.9 MB of it words). The
Kusuoka mass of a cell is

    nu(w) = (1/2)(5/3)^m tr(Y_[w]^T Y_[w]),   Y_[w] = Y_{wm} ... Y_{w1},

with the empty-word product taken to be P (trace restricted to range P), so
nu(gasket) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import UsageError
from .exact import (
    P_INT,
    Y_INT,
    cell_words,
    fractions_over,
    pairwise_sq,
    restrict_states,
    route_table,
    times_numerators,
    to_numerators,
    validate_word,
)
from .harmonic import _as_triple

MAX_TABLE_LEVEL = 10


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
    # Y-route states: the columns of Y_[w] over 3 * 5^m from P's (P_INT is symmetric)
    cols = restrict_states(word, P_INT, Y_INT)
    return Fraction(sum(x * x for col in cols for x in col), 18 * 15 ** len(word))


def hausdorff_measure(m: int) -> CellMeasure:
    if m < 0:
        raise UsageError(f"level {m} is negative")
    mass = Fraction(1, 3) ** m
    return CellMeasure("hausdorff", m, dict.fromkeys(cell_words(m), mass))


def kusuoka_measure(m: int) -> CellMeasure:
    if m > MAX_TABLE_LEVEL:
        raise UsageError(f"table level above guard {MAX_TABLE_LEVEL}")
    masses = fractions_over(route_table("Y", m)[::-1], 18 * 15**m)  # as in kusuoka_mass
    # keys in depth-first (reverse lexicographic) order, part of the table's output
    return CellMeasure("kusuoka", m, dict(zip(reversed(cell_words(m)), masses)))


def energy_measure_table(u, m: int) -> CellMeasure:
    """Cell masses of nu_<Hu> at level m; total equals harmonic_energy(u)."""
    if m > MAX_TABLE_LEVEL:
        raise UsageError(f"table level above guard {MAX_TABLE_LEVEL}")
    base = _as_triple(u)
    nums, d = to_numerators(base)
    # (3/2)(5/3)^m v^T P v with v = leaf numerators / (5^m d)
    sq = pairwise_sq(times_numerators(route_table("A", m), nums).T)
    masses = dict(zip(reversed(cell_words(m)), fractions_over(sq[::-1], 2 * 15**m * d * d)))
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
    q = pairwise_sq(route_table("A", m).transpose(1, 0, 2)).sum(axis=1)  # (cell, corner, j)
    return Fraction(int(np.abs(route_table("Y", m) - 3 * q).max()), 18 * 15**m)


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
