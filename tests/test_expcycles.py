import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import exp_table_by_product
from soficlab import expcycles
from soficlab.cli import main
from soficlab.expcycles import (CSV_HEADER, CycleCensus, Workspace,
                                count_k_periodic, count_k_periodic_by_tables,
                                cycle_census, exp_map, multiplicative_order,
                                prime_powers, run_sweep, segmented_sieve,
                                sweep_csv)

coprime_pairs = st.tuples(st.sampled_from([2, 3, 5, 7]),
                          st.integers(2, 3000)).filter(
    lambda t: math.gcd(t[0], t[1]) == 1)


def on_own_workspace(m, n):
    """f = exp_map(m, n) on a workspace of its own, with ord(m) and that
    workspace: (f, order, workspace) are the count routes' arguments."""
    workspace = Workspace(n)
    f = exp_map(m, n, workspace)
    return f, multiplicative_order(f, workspace), workspace


def fresh_map(m, n):
    return exp_map(m, n, Workspace(n))


def full_domain_counts(f):
    """Oracle: |{x in Z/n : f^k(x) = x}| for k = 1..4, iterating over all n
    points rather than over the image <m>."""
    identity = np.arange(f.n, dtype=np.int64)
    y = f.image
    counts = [int(np.count_nonzero(y == identity))]
    for _ in range(3):
        y = f.image[y]
        counts.append(int(np.count_nonzero(y == identity)))
    return tuple(counts)


class TestExpMap:
    def test_f25(self):
        assert fresh_map(2, 5).image.tolist() == [1, 2, 4, 3, 1]

    def test_f23(self):
        assert fresh_map(2, 3).image.tolist() == [1, 2, 1]

    def test_zero_maps_to_one(self):
        for m, n in ((2, 9), (3, 10), (5, 7)):
            assert fresh_map(m, n).image[0] == 1

    def test_non_coprime(self):
        with pytest.raises(ValueError):
            fresh_map(2, 10)

    @given(coprime_pairs)
    @settings(max_examples=40, deadline=None)
    def test_matches_running_product(self, mn):
        m, n = mn
        assert np.array_equal(fresh_map(m, n).image, exp_table_by_product(m, n))

    def test_full_agreement_to_1e4(self):
        for m, n in ((2, 9999), (3, 10_000)):
            table = fresh_map(m, n).image
            assert np.array_equal(table, exp_table_by_product(m, n))

    @pytest.mark.parametrize("n", sorted({2 ** j + d for j in range(1, 17)
                                          for d in (-1, 0, 1)} - {1}))
    def test_doubling_fill_at_powers_of_two(self, n):
        # m = n + 1 is 1 mod n; m = 2n + 3 and n + 1 are at least n
        for m in (2, 3, n - 1, n + 1, 2 * n + 3):
            if m < 1 or math.gcd(m, n) != 1:
                continue
            table = fresh_map(m, n).image
            assert np.array_equal(table, exp_table_by_product(m, n))
            assert table.tolist() == [pow(m, x, n) for x in range(n)]

    def test_int64_overflowing_modulus_refused(self):
        # a small workspace, so that exp_map's own check is the one that refuses
        with pytest.raises(ValueError, match="int64"):
            exp_map(2, 3_037_000_501, Workspace(10))

    def test_table_on_its_own_is_fresh_and_read_only(self):
        first, second = fresh_map(3, 1000).image, fresh_map(3, 1000).image
        assert not np.shares_memory(first, second)
        assert not first.flags.writeable and not second.flags.writeable

    def test_multiplicative_order(self):
        assert on_own_workspace(2, 5)[1] == 4
        assert on_own_workspace(2, 7)[1] == 3


class TestPeriodicCounts:
    def test_f25_k1(self):
        assert count_k_periodic(*on_own_workspace(2, 5))[0] == 1    # x = 3: 2^3 = 8 = 3

    def test_f23_k3(self):
        assert count_k_periodic(*on_own_workspace(2, 3))[2] == 0

    def test_bound(self):
        args = on_own_workspace(3, 100)
        for k in (1, 2, 3, 4):
            assert count_k_periodic(*args)[k - 1] <= 100

    @given(coprime_pairs, st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_two_routes_agree(self, mn, k):
        args = on_own_workspace(*mn)
        assert count_k_periodic(*args)[k - 1] == count_k_periodic_by_tables(*args)[k - 1]

    @given(coprime_pairs)
    @settings(max_examples=150, deadline=None)
    def test_routes_on_image_match_full_domain(self, mn):
        args = on_own_workspace(*mn)
        expected = full_domain_counts(args[0])
        assert count_k_periodic(*args) == expected
        assert count_k_periodic_by_tables(*args) == expected

    @pytest.mark.parametrize("m, n", [(2, 3 ** 9), (3, 5 ** 6), (2, 7 ** 5), (3, 2 ** 16),
                                      (5, 2 ** 16), (2, 1_000_003)])
    def test_routes_on_image_match_full_domain_fixed_moduli(self, m, n):
        args = on_own_workspace(m, n)
        expected = full_domain_counts(args[0])
        assert count_k_periodic(*args) == expected
        assert count_k_periodic_by_tables(*args) == expected

    def test_census_consistency(self):
        # f(x) = x implies f^k(x) = x, and f^2(x) = x implies f^4(x) = x
        for m, n in ((2, 101), (3, 100), (2, 3**5), (5, 1009), (7, 2**10)):
            fix1, fix2, fix3, fix4 = cycle_census(m, n, Workspace(n)).fixed
            assert fix1 <= fix2 <= fix4 and fix1 <= fix3
        c = cycle_census(2, 101, Workspace(101))
        # the CSV's int division gives the bytes float(Fraction(...)) gives
        frac3, frac4 = sweep_csv([c]).splitlines()[1].split(",")[-2:]
        assert frac3 == "%.10f" % float(Fraction(c.fixed[2], 101))
        assert frac4 == "%.10f" % float(Fraction(c.fixed[3], 101))
        assert c.order == on_own_workspace(2, 101)[1]


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
            cycle_census(2, 101, Workspace(101))

    def test_route_disagreement_exits_2(self, skewed_tables, tmp_path):
        assert main(["cycles", "--n", "101", "--m", "2", "--out", str(tmp_path)]) == 2

    # ord_103(2) = 51, so <2> mod 103 has points above the order
    M, N = 2, 103

    @pytest.fixture
    def corrupted_tail(self, monkeypatch):
        """Make f fix one point x of <m> with x > ord(m).  The log route never
        reads table[x], the spot check does not sample x, and the order scan
        still finds ord(m), so only the iteration route sees the change."""
        real = expcycles._exp_table
        workspace = Workspace(self.N)
        table = real(self.M, self.N, workspace)
        order = multiplicative_order(expcycles.ExpMap(self.M, self.N, table), workspace)
        sampled = set(np.random.default_rng((self.M, self.N)).integers(0, self.N, size=16).tolist())
        x = next(int(x) for x in table[:order]
                 if x > order and table[x] != x and x not in sampled)

        def corrupted(m, n, *args):
            out = real(m, n, *args)
            out[x] = x
            return out
        monkeypatch.setattr(expcycles, "_exp_table", corrupted)

    def test_tail_corruption_raises(self, corrupted_tail):
        with pytest.raises(AssertionError, match=r"routes disagree .*k=1"):
            cycle_census(self.M, self.N, Workspace(self.N))

    def test_tail_corruption_exits_2(self, corrupted_tail, tmp_path):
        out = tmp_path / "out"
        assert main(["cycles", "--n", str(self.N), "--m", str(self.M), "--out", str(out)]) == 2
        assert (out / "manifest.json").is_file()
        assert not (out / "cycles.csv").exists()

    # ord_101(2) = 100: <2> mod 101 is every unit, so no point lies above
    # the order, and the largest unsampled point of <m> is corrupted instead
    M2, N2 = 2, 101

    @pytest.fixture(params=[-3, N2], ids=["negative", "equal-to-n"])
    def corrupted_entry(self, request, monkeypatch):
        """Give one point x of <m> that the spot check does not sample an
        entry outside 0..n-1.  Unchecked, numpy reads a negative entry as an
        index from the end and the census exits 0, and an entry n raises
        IndexError, which leaves no manifest."""
        real = expcycles._exp_table
        workspace = Workspace(self.N2)
        table = real(self.M2, self.N2, workspace)
        order = multiplicative_order(expcycles.ExpMap(self.M2, self.N2, table), workspace)
        sampled = set(np.random.default_rng((self.M2, self.N2)).integers(0, self.N2, size=16).tolist())
        x = max(int(x) for x in table[:order] if x not in sampled)

        def corrupted(m, n, *args):
            out = real(m, n, *args)
            out[x] = request.param
            return out
        monkeypatch.setattr(expcycles, "_exp_table", corrupted)

    def test_entry_out_of_range_raises(self, corrupted_entry):
        with pytest.raises(AssertionError, match=r"entry outside 0\.\.100"):
            cycle_census(self.M2, self.N2, Workspace(self.N2))

    @pytest.mark.parametrize("entry", [-3, N2])
    def test_directly_built_map_out_of_range_refused(self, entry):
        """The routes index without a bounds check, so an ExpMap built
        without exp_map must not reach them with an entry outside 0..n-1."""
        workspace = Workspace(self.N2)
        table = expcycles._exp_table(self.M2, self.N2, workspace)
        table[50] = entry
        with pytest.raises(AssertionError, match=r"entry outside 0\.\.100"):
            count_k_periodic(expcycles.ExpMap(self.M2, self.N2, table), 100, workspace)

    def test_exp_map_image_must_be_int64_of_length_n(self):
        table = expcycles._exp_table(self.M2, self.N2, Workspace(self.N2))
        for image in (table[:-1], table.astype(np.int32)):
            with pytest.raises(ValueError, match="101 int64 entries"):
                expcycles.ExpMap(self.M2, self.N2, image)

    def test_entry_out_of_range_exits_2(self, corrupted_entry, tmp_path):
        out = tmp_path / "out"
        assert main(["cycles", "--n", str(self.N2), "--m", str(self.M2), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 2 and "entry outside" in manifest["error"]
        assert not (out / "cycles.csv").exists()

    def test_sampled_entry_corruption_raises(self, monkeypatch):
        """An in-range wrong entry at a point the spot check samples (the
        last one it draws) is named by the check."""
        real = expcycles._exp_table
        x = np.random.default_rng((self.M2, self.N2)).integers(0, self.N2, size=16).tolist()[-1]

        def corrupted(m, n, *args):
            out = real(m, n, *args)
            out[x] = (out[x] + 1) % n
            return out
        monkeypatch.setattr(expcycles, "_exp_table", corrupted)
        with pytest.raises(AssertionError, match=rf"tabulation mismatch at x={x}$"):
            exp_map(self.M2, self.N2, Workspace(self.N2))


def _scratch_filled(real, sentinel):
    """count_k_periodic that, once done, overwrites all of the workspace's
    scratch memory with a sentinel, so the log route that runs next sees
    nothing the first route left."""
    def route(f, order, workspace):
        counts = real(f, order, workspace)
        flags, *ints = workspace.scratch(f.n - 1)
        flags.fill(True)
        for a in ints:
            a.fill(sentinel)
        return counts
    return route


# primes, prime powers and composites, for m in {2, 3, 5, 7}; the census
# skips none of them, so each list is drawn coprime to its m
PRIMES = segmented_sieve(2, 3000)
PRIME_POWERS = sorted({p ** r for p in (2, 3, 5, 7, 11, 13) for r in range(2, 8) if p ** r <= 5000})
COMPOSITES = sorted(set(range(6, 3000)) - set(PRIMES) - set(PRIME_POWERS))


@st.composite
def mixed_moduli(draw):
    m = draw(st.sampled_from([2, 3, 5, 7]))
    pool = st.one_of(st.sampled_from(PRIMES), st.sampled_from(PRIME_POWERS),
                     st.sampled_from(COMPOSITES)).filter(lambda n: math.gcd(m, n) == 1)
    return m, draw(st.lists(pool, min_size=1, max_size=12))


class TestWorkspace:
    """One workspace serves many censuses; nothing of one modulus may reach
    the next, and the log route may read nothing the first route wrote."""

    @given(mixed_moduli())
    @example((2, [2187, 101, 4096 - 1, 9, 3]))      # smaller moduli after larger ones
    @settings(max_examples=60, deadline=None)
    def test_reuse_leaks_nothing(self, m_moduli):
        m, moduli = m_moduli
        fresh = [cycle_census(m, n, Workspace(n)) for n in moduli]
        workspace = Workspace(max(moduli))
        assert [cycle_census(m, n, workspace) for n in moduli] == fresh
        assert run_sweep(m, moduli, workers=1) == sorted(set(fresh), key=lambda r: r.n)

    @given(mixed_moduli())
    @settings(max_examples=8, deadline=None)
    def test_two_workers_equal_serial(self, m_moduli):
        m, moduli = m_moduli
        assert run_sweep(m, moduli, workers=2) == run_sweep(m, moduli, workers=1)

    @pytest.mark.parametrize("sentinel", [0, -1, 2 ** 40])
    def test_log_route_reads_only_what_it_wrote(self, monkeypatch, sentinel):
        moduli = [3 ** 7, 101, 1000, 4099, 2 ** 12 + 1]
        fresh = [cycle_census(7, n, Workspace(n)) for n in moduli]
        monkeypatch.setattr(expcycles, "count_k_periodic",
                            _scratch_filled(expcycles.count_k_periodic, sentinel))
        workspace = Workspace(max(moduli))
        assert [cycle_census(7, n, workspace) for n in moduli] == fresh

    def test_scratch_and_arange_stay_clear_of_the_table(self):
        workspace = Workspace(1000)
        table = workspace.table(1000)
        table[:] = -7
        for a in workspace.scratch(999):
            a.fill(1)
        assert np.array_equal(workspace.arange(999), np.arange(999))
        assert (table == -7).all()
        assert not workspace.arange(999).flags.writeable

    def test_arange_built_on_first_use(self):
        """The workspace builds its arange once, with its other arrays, and
        every arange() views that one read-only buffer."""
        workspace = Workspace(1000)
        first, second = workspace.arange(99), workspace.arange(10)
        assert np.array_equal(first, np.arange(99)) and np.array_equal(second, np.arange(10))
        assert first.base is second.base is workspace._arange
        assert not (first.flags.writeable or second.flags.writeable)

    @pytest.mark.parametrize("size", [10, 11])
    def test_scratch_beyond_the_census_modulus_refused(self, size):
        workspace = Workspace(100)
        workspace.table(10)
        with pytest.raises(ValueError, match="modulus 10"):
            workspace.scratch(size)

    def test_modulus_beyond_the_workspace_refused(self):
        with pytest.raises(ValueError, match="workspace of 100"):
            Workspace(100).table(101)

    def test_int64_overflowing_workspace_refused(self):
        # refused before any array is allocated
        with pytest.raises(ValueError, match="int64"):
            Workspace(3_037_000_501)


class TestSweep:
    def test_sieve_small(self):
        assert segmented_sieve(2, 30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_sieve_window(self):
        assert segmented_sieve(90, 102) == [97, 101]

    def test_prime_powers(self):
        assert prime_powers(3, 1, 3) == [3, 9, 27]

    def test_sweep_deterministic_order(self):
        rows = run_sweep(2, [97, 11, 13, 11], workers=1)
        assert [r.n for r in rows] == [11, 13, 97]

    def test_sweep_skips_non_coprime(self):
        rows = run_sweep(2, [8, 11], workers=1)
        assert [r.n for r in rows] == [11]

    def test_workers_agree_with_serial(self):
        primes = segmented_sieve(100, 300)
        serial = run_sweep(3, primes, workers=1)
        parallel = run_sweep(3, primes, workers=4)
        assert serial == parallel

    @pytest.mark.parametrize("workers, cpus, size", [
        (5000, 4, 4), (3, 64, 3), (5000, 64, 10), (5000, None, None)])
    def test_pool_size_is_bounded(self, monkeypatch, workers, cpus, size):
        # the fake pool records the size asked for and starts no process;
        # the 10 primes in 100..150 bound it too
        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, args, chunksize):
                return [fn(*a) for a in args]

        monkeypatch.setattr(expcycles, "Pool", FakePool)
        monkeypatch.setattr(expcycles.os, "cpu_count", lambda: cpus)
        primes = segmented_sieve(100, 150)
        assert run_sweep(3, primes, workers=workers) == run_sweep(3, primes, workers=1)
        assert sizes == ([] if size is None else [size])

    def test_csv_format(self):
        text = sweep_csv(run_sweep(2, [5], workers=1))
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("5,2,4,1,1,4,1,")
        assert text.endswith("\n") and "\r" not in text
        # fixed 10-digit decimals
        assert lines[1].split(",")[7] == "0.8000000000"
