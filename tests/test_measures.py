"""Hausdorff/Kusuoka/energy cell measures and singularity diagnostics."""

from fractions import Fraction

import fraction_oracle as oracle
import pytest

from gasketlab import (
    UsageError,
    energy_measure_table,
    harmonic_energy,
    hausdorff_mass,
    hausdorff_measure,
    kusuoka_identity_check,
    kusuoka_mass,
    kusuoka_measure,
    singularity_diagnostic,
)

E1 = (Fraction(1), Fraction(0), Fraction(0))


# Independent oracle: explicit rational matrix arithmetic done locally, not
# through the package's product helpers.

def _oracle_mats():
    def m(rows, den):
        return [[Fraction(x, den) for x in r] for r in rows]

    P = m([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], 3)
    A1 = m([[5, 0, 0], [2, 2, 1], [2, 1, 2]], 5)
    A2 = m([[2, 2, 1], [0, 5, 0], [1, 2, 2]], 5)

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]

    Y1 = mul(mul(P, A1), P)
    Y2 = mul(mul(P, A2), P)
    return mul, Y1, Y2


def _frob(m):
    return sum(x * x for row in m for x in row)


def test_hausdorff_masses():
    assert hausdorff_mass("") == 1
    assert hausdorff_mass("3") == Fraction(1, 3)
    assert hausdorff_mass("12") == Fraction(1, 9)


def test_kusuoka_level1_by_symmetry():
    assert kusuoka_mass("1") == Fraction(1, 3)
    assert kusuoka_mass("2") == Fraction(1, 3)
    assert kusuoka_mass("3") == Fraction(1, 3)
    assert kusuoka_mass("") == 1


def test_kusuoka_level2_oracle_values():
    mul, Y1, Y2 = _oracle_mats()
    # nu("11") = (1/2)(5/3)^2 tr((Y1^2)^T Y1^2); tr(Y1^4) = 82/625
    Y11 = mul(Y1, Y1)
    assert _frob(Y11) == Fraction(82, 625)
    assert Fraction(1, 2) * Fraction(25, 9) * _frob(Y11) == Fraction(41, 225)
    assert kusuoka_mass("11") == Fraction(41, 225)

    # nu("12"): product Y2 Y1 (reversed order), plus the reflection-symmetry
    # additivity check 41/225 + 2 * 17/225 = 1/3
    Y21 = mul(Y2, Y1)
    assert Fraction(1, 2) * Fraction(25, 9) * _frob(Y21) == Fraction(17, 225)
    assert kusuoka_mass("12") == Fraction(17, 225)
    assert Fraction(41, 225) + 2 * Fraction(17, 225) == Fraction(1, 3)


@pytest.mark.parametrize("m", range(0, 9))
def test_measure_totals_and_additivity(m):
    nu = kusuoka_measure(m)
    assert nu.total() == 1
    mu = hausdorff_measure(m)
    assert mu.total() == 1
    if m >= 1:
        parent = kusuoka_measure(m - 1)
        for w, mass in parent.masses.items():
            children = sum(nu.masses[w + s] for s in "123")
            assert children == mass


def test_energy_measure_table():
    t0 = energy_measure_table(E1, 0)
    assert t0.total() == 1
    t2 = energy_measure_table(E1, 2)
    assert len(t2.masses) == 9
    assert t2.total() == 1
    const = energy_measure_table((2, 2, 2), 2)
    assert all(v == 0 for v in const.masses.values())
    u = (Fraction(1), Fraction(2), Fraction(-1))
    assert energy_measure_table(u, 3).total() == harmonic_energy(u)


@pytest.mark.parametrize("m", range(9))  # up to the check's guard
def test_kusuoka_identity_exact(m):
    assert kusuoka_identity_check(m) == 0


@pytest.mark.parametrize("m", range(7))
def test_tables_equal_fraction_oracle(m):
    # item lists, not dicts: the key order (depth first) is part of the table
    assert list(kusuoka_measure(m).masses.items()) == list(oracle.kusuoka_table(m).items())
    for u in oracle.seeded_triples(31):
        table = energy_measure_table(u, m).masses
        assert list(table.items()) == list(oracle.energy_table(u, m).items())


def test_singularity_diagnostic_values():
    d1 = singularity_diagnostic(1)
    assert d1["max_ratio"] == 1 and d1["min_ratio"] == 1

    d2 = singularity_diagnostic(2)
    assert d2["ratio_at_word_1m"] == Fraction(41, 225) * 9
    assert Fraction(41, 225) * 9 == Fraction(41, 25)

    for m in (3, 6):
        d = singularity_diagnostic(m)
        expect = Fraction(1, 2) * (Fraction(9, 5) ** m + Fraction(1, 5) ** m)
        assert d["ratio_at_word_1m"] == expect


def test_max_ratio_strictly_increasing():
    prev = Fraction(0)
    for m in range(1, 9):
        d = singularity_diagnostic(m)
        assert d["max_ratio"] > prev
        prev = d["max_ratio"]


def test_mass_lookup_errors():
    nu = kusuoka_measure(2)
    with pytest.raises(UsageError):
        nu.mass("1")
    with pytest.raises(UsageError):
        kusuoka_mass("14")


@pytest.mark.parametrize("table", (
    hausdorff_measure,
    kusuoka_measure,
    lambda m: energy_measure_table(E1, m),
    kusuoka_identity_check,
), ids=("hausdorff", "kusuoka", "energy", "identity"))
def test_negative_level_rejected(table):
    # a negative level has no leaves: the traversal must stop, not grow
    with pytest.raises(UsageError, match="level -1 is negative"):
        table(-1)
