import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soficlab import expcycles
from soficlab.cli import main
from soficlab.expcycles import (CSV_HEADER, CycleCensus, count_k_periodic,
                                count_k_periodic_by_tables, cycle_census,
                                exp_map, exp_table_by_product,
                                multiplicative_order, prime_powers, run_sweep,
                                segmented_sieve, sweep_csv)

coprime_pairs = st.tuples(st.sampled_from([2, 3, 5, 7]),
                          st.integers(3, 2000)).filter(
    lambda t: math.gcd(t[0], t[1]) == 1)


class TestExpMap:
    def test_f25(self):
        assert exp_map(2, 5).image.tolist() == [1, 2, 4, 3, 1]

    def test_f23(self):
        assert exp_map(2, 3).image.tolist() == [1, 2, 1]

    def test_zero_maps_to_one(self):
        for m, n in ((2, 9), (3, 10), (5, 7)):
            assert exp_map(m, n)(0) == 1

    def test_non_coprime(self):
        with pytest.raises(ValueError):
            exp_map(2, 10)

    @given(coprime_pairs)
    @settings(max_examples=40, deadline=None)
    def test_matches_running_product(self, mn):
        m, n = mn
        assert np.array_equal(exp_map(m, n).image, exp_table_by_product(m, n))

    def test_full_agreement_to_1e4(self):
        for m, n in ((2, 9999), (3, 10_000)):
            table = exp_map(m, n).image
            assert np.array_equal(table, exp_table_by_product(m, n))

    @pytest.mark.parametrize("n", sorted({2 ** j + d for j in range(1, 17)
                                          for d in (-1, 0, 1)} - {1}))
    def test_doubling_fill_at_powers_of_two(self, n):
        # m = n + 1 is 1 mod n; m = 2n + 3 and n + 1 are at least n
        for m in (2, 3, n - 1, n + 1, 2 * n + 3):
            if m < 1 or math.gcd(m, n) != 1:
                continue
            table = exp_map(m, n).image
            assert np.array_equal(table, exp_table_by_product(m, n))
            assert table.tolist() == [pow(m, x, n) for x in range(n)]

    def test_int64_overflowing_modulus_refused(self):
        with pytest.raises(ValueError, match="int64"):
            exp_map(2, 3_037_000_501)

    def test_multiplicative_order(self):
        f = exp_map(2, 5)
        assert multiplicative_order(f) == 4
        assert multiplicative_order(exp_map(2, 7)) == 3


class TestPeriodicCounts:
    def test_f25_k1(self):
        assert count_k_periodic(exp_map(2, 5))[0] == 1    # x = 3: 2^3 = 8 = 3

    def test_f23_k3(self):
        assert count_k_periodic(exp_map(2, 3))[2] == 0

    def test_bound(self):
        f = exp_map(3, 100)
        for k in (1, 2, 3, 4):
            assert count_k_periodic(f)[k - 1] <= f.n

    @given(coprime_pairs, st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_two_routes_agree(self, mn, k):
        f = exp_map(*mn)
        assert count_k_periodic(f)[k - 1] == count_k_periodic_by_tables(f)[k - 1]

    def test_census_consistency(self):
        # f(x) = x implies f^k(x) = x, and f^2(x) = x implies f^4(x) = x
        for m, n in ((2, 101), (3, 100), (2, 3**5), (5, 1009), (7, 2**10)):
            fix1, fix2, fix3, fix4 = cycle_census(m, n).fixed
            assert fix1 <= fix2 <= fix4 and fix1 <= fix3
        c = cycle_census(2, 101)
        assert c.frac3 == Fraction(c.fixed[2], 101)
        assert c.order == multiplicative_order(exp_map(2, 101))


class TestCensusCheck:
    @pytest.fixture
    def skewed_tables(self, monkeypatch):
        real = expcycles.count_k_periodic_by_tables

        def skewed(*args):
            c1, c2, c3, c4 = real(*args)
            return c1, c2, c3 + 1, c4
        monkeypatch.setattr(expcycles, "count_k_periodic_by_tables", skewed)

    def test_route_disagreement_raises(self, skewed_tables):
        with pytest.raises(AssertionError, match="k=3"):
            cycle_census(2, 101)

    def test_route_disagreement_exits_2(self, skewed_tables, tmp_path):
        assert main(["cycles", "--n", "101", "--m", "2", "--out", str(tmp_path)]) == 2


class TestSweep:
    def test_sieve_small(self):
        assert segmented_sieve(2, 30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_sieve_window(self):
        assert segmented_sieve(90, 102) == [97, 101]

    def test_prime_powers(self):
        assert prime_powers(3, 1, 3) == [3, 9, 27]

    def test_sweep_deterministic_order(self):
        rows = run_sweep(2, [97, 11, 13, 11])
        assert [r.n for r in rows] == [11, 13, 97]

    def test_sweep_skips_non_coprime(self):
        rows = run_sweep(2, [8, 11])
        assert [r.n for r in rows] == [11]

    def test_workers_agree_with_serial(self):
        primes = segmented_sieve(100, 300)
        serial = run_sweep(3, primes, workers=1)
        parallel = run_sweep(3, primes, workers=4)
        assert serial == parallel

    def test_csv_format(self):
        text = sweep_csv(run_sweep(2, [5]))
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("5,2,4,1,1,4,1,")
        assert text.endswith("\n") and "\r" not in text
        # fixed 10-digit decimals
        assert lines[1].split(",")[7] == "0.8000000000"
