import math
from fractions import Fraction

import pytest

from oracles import count_order4
from soficlab.heuristics import CSV_HEADER, heuristic_csv, p_sequence


class TestPSequence:
    def test_base_values(self):
        seq = p_sequence(6)
        assert [seq[n] for n in range(1, 7)] == [
            Fraction(1), Fraction(1), Fraction(2, 3), Fraction(2, 3),
            Fraction(7, 15), Fraction(16, 45)]

    def test_recurrence_holds(self):
        seq = p_sequence(30)
        for n in range(5, 31):
            assert seq[n] == (seq[n - 1] + seq[n - 2] + seq[n - 4]) / n

    def test_non_increasing(self):
        seq = p_sequence(200)
        for n in range(2, 201):
            assert seq[n] <= seq[n - 1]

    def test_factorial_bound(self):
        seq = p_sequence(200)
        for n in range(3, 201):
            assert seq[n] < Fraction(1, math.factorial(n // 4))

    def test_integer_census(self):
        seq = p_sequence(500)
        for n in range(1, 501):
            count = seq[n] * math.factorial(n)
            assert count.denominator == 1 and count >= 0

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_exhaustive_census(self, n):
        seq = p_sequence(n)
        assert seq[n] * math.factorial(n) == count_order4(n)

    def test_three_term_domination(self):
        # P_n <= 3 P_{n-4} / n since the sequence is non-increasing
        seq = p_sequence(60)
        for n in range(5, 61):
            assert seq[n] <= 3 * seq[n - 4] / n

    def test_bad_N(self):
        with pytest.raises(ValueError):
            p_sequence(0)


def csv_rows(text):
    """The data rows of a heuristic CSV as lists of fields."""
    return [line.split(",") for line in text.splitlines()[1:]]


class TestSBoundTail:
    """The log S_n bound and log product columns of the heuristic CSV."""

    def test_eps_zero_limit(self):
        for row in csv_rows(heuristic_csv(20, 1e-12)):
            assert float(row[4]) == 0.0
            assert row[5] == row[3]

    def test_large_window_values_finite(self):
        rows = csv_rows(heuristic_csv(1100, 0.2))[899:]
        assert all(math.isfinite(float(v)) for row in rows for v in row[3:])

    def test_log_p_matches_exact(self):
        seq = p_sequence(50)
        for row in csv_rows(heuristic_csv(50, 0.1)):
            p = seq[int(row[0])]
            assert (int(row[1]), int(row[2])) == (p.numerator, p.denominator)
            expected = math.log(p.numerator) - math.log(p.denominator)
            assert row[3] == "%.10f" % expected


class TestCsv:
    def test_header_and_p3(self):
        text = heuristic_csv(5, 0.2)
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[3].startswith("3,2,3,")

    def test_deterministic(self):
        assert heuristic_csv(20, 0.2) == heuristic_csv(20, 0.2)

    def test_lf_endings(self):
        text = heuristic_csv(10, 0.1)
        assert "\r" not in text and text.endswith("\n")
