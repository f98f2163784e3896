import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (count_order4, enumerate_order4, exp_table_by_product, from_cycles,
                     is_four_periodic, min_mezo_fraction_by_arrays, min_mezo_fraction_by_lists,
                     random_order4, word_value)
from soficlab import localexp
from soficlab.cli import main
from soficlab.localexp import (PadicContext, defect_report,
                               h3_witness, min_mezo_fraction,
                               padic_fixed_point, search_local_exp)
from soficlab.localexp import (SearchResult, _enumerate_order4, _law_failures,
                               _law_flags, _random_order4)
from soficlab.perm import Permutation, hamming


def random_bijection(n, seed):
    return Permutation(np.random.default_rng(seed).permutation(n))


def flagged(img, m, n):
    """The law failures by the list scan that defect_report checks against."""
    return [x for x, bad in enumerate(_law_flags(img.tolist(), m, n)) if bad]


bijections = st.tuples(st.integers(5, 40), st.integers(0, 2**32 - 1)).map(
    lambda t: random_bijection(*t))


class TestDefectReport:
    # x -> 2^x mod 5 is not a bijection, so its law failures are read from
    # both scans that defect_report compares
    def test_running_product_wraparound_only(self):
        img = exp_table_by_product(2, 5)
        assert _law_failures(img, 2, 5).tolist() == flagged(img, 2, 5) == [4]

    def test_identity_defect(self):
        rep = defect_report(Permutation.identity(5), 2)
        assert len(rep.defect_set) == 4      # only x = 1 satisfies x+1 = 2x

    def test_four_cycle_product_no_failures(self):
        p = from_cycles(8, [(0, 1, 2, 3), (4, 5, 6, 7)])
        rep = defect_report(p, 3)
        assert rep.four_periodic_failures == ()

    def test_fractions_exact(self):
        img = exp_table_by_product(2, 5)
        fast, slow = _law_failures(img, 2, 5), flagged(img, 2, 5)
        assert Fraction(fast.size, 5) == Fraction(len(slow), 5) == Fraction(1, 5)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            defect_report(Permutation.identity(6), 2)

    @given(bijections)
    @settings(max_examples=40, deadline=None)
    def test_dual_scans_consistent(self, f):
        m = 2 if f.n % 2 else 3
        if math.gcd(m, f.n) != 1:
            return
        rep = defect_report(f, m)    # raises internally if the scans disagree
        assert 0 <= len(rep.defect_set) <= f.n


class TestH3Witness:
    def test_g1_displacement_always_one(self):
        for seed in range(5):
            f = random_bijection(13, seed)
            rep = h3_witness(f, 3)
            assert rep.g1_displacement.value == 1

    @given(bijections)
    @settings(max_examples=30, deadline=None)
    def test_conjugation_identities_exact(self, p):
        n = p.n
        g1 = Permutation((np.arange(n) - 1) % n, _trusted=True)
        g3 = p.compose(g1).compose(p.inverse())
        g2 = p.compose(g3).compose(p.inverse())
        assert g3 == p.compose(g1).compose(p.inverse())
        assert g2 == (p.compose(p)).compose(g1).compose((p.compose(p)).inverse())

    @given(bijections)
    @settings(max_examples=30, deadline=None)
    def test_w3_defect_at_most_twice_law_defect(self, f):
        m = 2 if f.n % 2 else 3
        if math.gcd(m, f.n) != 1:
            return
        rep = defect_report(f, m)
        wit = h3_witness(f, m)
        assert wit.w_defects[2].value <= 2 * rep.defect_fraction

    @given(bijections, st.sampled_from([2, 3, 7]))
    @settings(max_examples=30, deadline=None)
    def test_relators_match_word_evaluation(self, p, m):
        # w_i = a_i^-1 a_{i+1} a_i a_{i+1}^-m, evaluated letter by letter
        if math.gcd(m, p.n) != 1:
            return
        n = p.n
        g1 = Permutation((np.arange(n) - 1) % n, _trusted=True)
        g3 = p.compose(g1).compose(p.inverse())
        g2 = p.compose(g3).compose(p.inverse())
        gens, ident = {1: g1, 2: g2, 3: g3}, Permutation.identity(n)
        words = [word_value([(i, -1), (j, 1), (i, 1), (j, -m)], gens, ident)
                 for i, j in ((1, 2), (2, 3), (3, 1))]
        assert h3_witness(p, m).w_defects == tuple(hamming(w, ident) for w in words)


class TestMezoExhaustion:
    # frozen exhaustive minima over all bijections (smallest coprime base)
    FROZEN = {(4, 3): Fraction(3, 4), (5, 2): Fraction(2, 5),
              (6, 5): Fraction(2, 3), (7, 2): Fraction(3, 7)}

    @pytest.mark.parametrize("nm", sorted(FROZEN))
    def test_minimum_fraction(self, nm):
        assert min_mezo_fraction(*nm) == self.FROZEN[nm]

    def test_strictly_positive(self):
        for n in range(2, localexp.SYM_EXHAUSTIVE_MAX + 1):
            for m in range(-9, 12):
                if math.gcd(m, n) == 1:
                    assert min_mezo_fraction(n, m) > 0, (n, m)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_array_exhaustion(self, n):
        for m in range(-9, 10):
            if math.gcd(m, n) == 1:
                assert min_mezo_fraction(n, m) == min_mezo_fraction_by_arrays(n, m), m

    @pytest.mark.parametrize("n", range(2, 6))
    def test_scores_each_map_as_array_exhaustion(self, n, monkeypatch):
        # over all of Sym(n), for every n <= 8, the fewest points failing
        # either law are the fewest failing f(x+1) = m f(x) alone, so the f^3
        # check of the list exhaustion shows only when both exhaustions are
        # offered one map at a time
        for img in list(itertools.permutations(range(n))):
            monkeypatch.setattr(itertools, "permutations", lambda points: [img])
            for m in range(1, 10):
                if math.gcd(m, n) == 1:
                    assert (min_mezo_fraction_by_lists(n, m)
                            == min_mezo_fraction_by_arrays(n, m)), (img, m)

    def test_enumerates_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("min_mezo_fraction enumerated maps")
        monkeypatch.setattr(itertools, "permutations", refuse)
        assert min_mezo_fraction(localexp.SYM_EXHAUSTIVE_MAX, 3) == Fraction(5, 8)

    UNIT_PAIRS = [(n, m) for n in range(2, localexp.SYM_EXHAUSTIVE_MAX + 1)
                  for m in range(1, n) if math.gcd(m, n) == 1]

    @staticmethod
    def times_m_orbits(n, m):
        """The number of orbits of x -> m x on Z/n, by walking each."""
        seen, orbits = set(), 0
        for x in range(n):
            if x not in seen:
                orbits += 1
                while x not in seen:
                    seen.add(x)
                    x = x * m % n
        return orbits

    @pytest.mark.parametrize("n, m", UNIT_PAIRS)
    def test_equals_orbit_count_of_times_m(self, n, m):
        """The f^3 term never changes the minimum over Sym(n): exhaustion
        gives the fewest points failing f(x+1) = m f(x), one per orbit of
        x -> m x.  The array comparison stops at n = 7, so the list oracle
        certifies the package at n = 8."""
        frac = Fraction(self.times_m_orbits(n, m), n)
        assert min_mezo_fraction(n, m) == frac == min_mezo_fraction_by_lists(n, m)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="gcd"):
            min_mezo_fraction(6, 3)

    def test_limit_above_sym_exhaustion_rejected(self):
        with pytest.raises(ValueError, match="n <= 8"):
            min_mezo_fraction(localexp.SYM_EXHAUSTIVE_MAX + 1, 1)


class TestPadic:
    def test_degenerate_s_one(self):
        ctx = PadicContext(3, 1, 4)     # s = 1 mod 3
        rep = padic_fixed_point(ctx, (1, 1, 1, 1))
        assert rep.candidate == (1, 1, 1, 1) and rep.is_fixed
        assert rep.brute_points == ((1, 1, 1, 1),)

    def test_p3_r3_random_tuples(self):
        ctx = PadicContext(3, 3, 2)
        assert ctx.s == 4
        rng = np.random.default_rng(0)
        units = [v for v in range(1, 27) if v % 3]
        for _ in range(20):
            c = tuple(int(rng.choice(units)) for _ in range(4))
            rep = padic_fixed_point(ctx, c)       # internal cross-check
            assert len(rep.brute_points) <= 1

    def test_p5_r2(self):
        ctx = PadicContext(5, 2, 3)
        rep = padic_fixed_point(ctx, (2, 7, 11, 13))
        assert len(rep.brute_points) <= 1
        if rep.brute_points:
            assert rep.brute_points[0] == rep.candidate

    def test_non_unit_rejected(self):
        ctx = PadicContext(3, 2, 2)
        with pytest.raises(ValueError):
            padic_fixed_point(ctx, (3, 1, 1, 1))

    def test_s_not_settable(self):
        with pytest.raises(TypeError):
            PadicContext(3, 2, 2, 99)
        with pytest.raises(TypeError):
            PadicContext(3, 2, 2, s=99)

    def test_s_period(self):
        ctx = PadicContext(3, 3, 2)
        period = 3 ** 2
        for x in range(0, 27, 5):
            assert ctx.s_pow(x) == ctx.s_pow(x + period)


def law_bound(p, r):
    return p ** (r / 4 - 1) / 2 ** 0.25


def exp_like_bijection(n):
    """A bijection agreeing with x -> 2^x as far as possible (n = 9)."""
    img = np.empty(n, dtype=np.int64)
    used = set()
    acc = 1
    for x in range(n):
        if acc in used:
            acc = min(set(range(n)) - used)
        img[x] = acc
        used.add(acc)
        acc = acc * 2 % n
    return img


class TestNorviAudit:
    """The prime-power dichotomy: over n = p^r every bijection fails the
    local law at least p^(r/4 - 1) / 2^(1/4) times or has at least n/2
    points that are not 4-periodic."""

    def test_running_product_style_map(self):
        # the exp-like map fails the law only where 2^x revisits a value
        f = Permutation(exp_like_bijection(9))
        rep = defect_report(f, 2)
        manual = [x for x in range(9)
                  if int(f.image[(x + 1) % 9]) != 2 * int(f.image[x]) % 9]
        assert list(rep.defect_set) == manual == [5, 6, 8]
        assert (len(rep.defect_set) >= law_bound(3, 2)
                or len(rep.four_periodic_failures) >= Fraction(9, 2))

    def test_internal_consistency(self):
        f = random_bijection(27, 3)
        rep = defect_report(f, 2)
        law = np.count_nonzero(np.roll(f.image, -1) != 2 * f.image % 27)
        y = np.arange(27)
        for _ in range(4):
            y = f.image[y]
        nonper = np.count_nonzero(y != np.arange(27))
        assert (len(rep.defect_set), len(rep.four_periodic_failures)) == (law, nonper)
        assert law >= law_bound(3, 3) or nonper >= Fraction(27, 2)

    def test_exhaustive_n9(self):
        # vectorized dichotomy over all 9! bijections
        p, r, m = 3, 2, 2
        perms = np.array(list(itertools.permutations(range(9))), dtype=np.int8)
        law_bad = (np.roll(perms, -1, axis=1) != (m * perms) % 9).sum(axis=1)
        y = perms.astype(np.int64)
        rows = np.arange(perms.shape[0])[:, None]
        for _ in range(4):
            y = perms[rows, y]
        nonper = (y != np.arange(9)).sum(axis=1)
        holds = (law_bad >= law_bound(p, r)) | (nonper >= 9 / 2)
        assert bool(holds.all())

    def test_random_sample_n243(self):
        # sampled stand-in for the large random-bijection sweep
        p, r, m = 3, 5, 2
        n = p ** r
        rng = np.random.default_rng(0)
        bound = law_bound(p, r)
        for _ in range(20):
            block = rng.random((5000, n)).argsort(axis=1)
            law_bad = (np.roll(block, -1, axis=1) != (m * block) % n).sum(axis=1)
            y = block
            rows = np.arange(block.shape[0])[:, None]
            for _ in range(4):
                y = block[rows, y]
            nonper = (y != np.arange(n)).sum(axis=1)
            assert bool(((law_bad >= bound) | (nonper >= n / 2)).all())

    def test_recount_survives_optimize(self):
        # the dichotomy reads its law count from defect_report, whose second
        # scan is an explicit check: a skewed _law_flags must still
        # fail the report under -O
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from soficlab import localexp as le
            from soficlab.perm import Permutation
            if not sys.flags.optimize:
                sys.exit(3)
            real = le._law_flags
            le._law_flags = lambda img, m, n: [b != (x == n - 1)
                                               for x, b in enumerate(real(img, m, n))]
            f = Permutation(np.random.default_rng(3).permutation(27))
            try:
                le.defect_report(f, 2)
            except AssertionError as exc:
                print(exc)
                sys.exit(0)
            sys.exit(1)
        """)
        src = os.path.dirname(os.path.dirname(localexp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "defect-set scans disagree" in proc.stdout


class TestSearcher:
    def test_exhaustive_seed_independent(self):
        for n, m in ((4, 3), (5, 2), (6, 5)):
            r1 = search_local_exp(n, m, budget=200_000, seed=0)
            r2 = search_local_exp(n, m, budget=200_000, seed=123)
            assert r1.exhaustive and r2.exhaustive
            assert np.array_equal(r1.f.image, r2.f.image)
            assert r1.defect_count == r2.defect_count

    def test_output_always_four_periodic(self):
        for n, m, seed in ((8, 3, 0), (16, 3, 1), (30, 7, 2)):
            r = search_local_exp(n, m, budget=2000, seed=seed)
            assert is_four_periodic(r.f.image)

    def test_defect_recomputes(self):
        r = search_local_exp(16, 3, budget=2000, seed=0)
        assert r.defect_count == len(defect_report(r.f, 3).defect_set)

    def test_cycle_histogram_types(self):
        r = search_local_exp(12, 5, budget=2000, seed=0)
        assert set(r.cycle_histogram) <= {1, 2, 4}

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            search_local_exp(9, 3, budget=200_000, seed=0)

    def test_budget_flag(self):
        r = search_local_exp(8, 3, budget=10, seed=0)
        assert r.budget_exhausted and not r.exhaustive
        assert is_four_periodic(r.f.image)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_budget_of_every_map_is_exhaustive(self, n):
        """A budget equal to the number of maps with f^4 = id scores them
        all; one less leaves a map unscored."""
        maps, m = count_order4(n), n + 1
        full = search_local_exp(n, m, budget=maps, seed=0)
        assert full.exhaustive and not full.budget_exhausted
        assert np.array_equal(full.f.image, search_local_exp(n, m, budget=200_000, seed=0).f.image)
        short = search_local_exp(n, m, budget=maps - 1, seed=0)
        assert short.budget_exhausted and not short.exhaustive

    @pytest.mark.parametrize("n", range(9))
    def test_enumeration_matches_dict_enumerator(self, n):
        """The in-place enumerator yields the images of the dict
        enumerator, in its order: fixed point, 2-cycles, then 4-cycles."""
        ours = [img.copy() for img in _enumerate_order4(list(range(n)), list(range(n)))]
        ref = [[a[x] for x in range(n)] for a in enumerate_order4(list(range(n)))]
        assert ours == ref
        assert len(ours) == count_order4(n)

    def test_non_four_periodic_winner_rejected(self, monkeypatch):
        # a resampler that closes all its points into one cycle breaks f^4 = id
        monkeypatch.setattr(localexp, "_random_order4",
                            lambda points, rng: dict(zip(points, points[1:] + points[:1])))
        with pytest.raises(AssertionError, match="search produced a non-4-periodic map"):
            search_local_exp(30, 7, budget=200, seed=0)


# The searcher as it was before annealing steps updated the defect in place:
# every step copies the map and recounts all n points.  Kept verbatim as the
# oracle that the incremental searcher must match byte for byte, apart from
# its sampler, the shuffle/choice/randrange copy in oracles.py, and its
# enumerator, the dict-building copy there, so that the searcher's
# getrandbits draws and in-place enumeration are checked against
# independent routes.
def oracle_search(n: int, m: int, budget: int, seed: int) -> SearchResult:
    """Minimize the defect-set size over bijections with f^4 = id.
    Exhaustive for n <= 10 (within budget), simulated annealing above; the
    winner's defect count is recomputed independently before returning."""
    if math.gcd(m, n) != 1:
        raise ValueError(f"gcd({m}, {n}) != 1")
    exhaustive = n <= 10
    budget_exhausted = False
    best_img: Optional[np.ndarray] = None
    best = n + 1

    if exhaustive:
        evals = 0
        for assignment in enumerate_order4(list(range(n))):
            if evals >= max(budget, 1):     # a map beyond the budget is left
                budget_exhausted = True
                exhaustive = False
                break
            img = np.array([assignment[x] for x in range(n)], dtype=np.int64)
            d = _law_failures(img, m, n).size
            if d < best or (d == best and best_img is not None
                            and img.tolist() < best_img.tolist()):
                best, best_img = d, img
            evals += 1
    else:
        rng = random.Random(seed)
        cur = np.arange(n, dtype=np.int64)
        for k, v in random_order4(list(range(n)), rng).items():
            cur[k] = v
        cur_d = _law_failures(cur, m, n).size
        best, best_img = cur_d, cur.copy()
        temp = max(1.0, n / 8)
        cooling = (0.01 / temp) ** (1 / max(1, budget))
        for _ in range(budget):
            # resample the cycles through two random points with a fresh
            # order-dividing-4 pattern
            a, b = rng.randrange(n), rng.randrange(n)
            touched = set()
            for start in (a, b):
                x = start
                while x not in touched:
                    touched.add(x)
                    x = int(cur[x])
            cand = cur.copy()
            for k, v in random_order4(sorted(touched), rng).items():
                cand[k] = v
            d = _law_failures(cand, m, n).size
            if d <= cur_d or rng.random() < math.exp((cur_d - d) / temp):
                cur, cur_d = cand, d
                if d < best:
                    best, best_img = d, cand.copy()
            temp *= cooling
        budget_exhausted = True

    if best_img is None:
        raise AssertionError("search kept no candidate map")
    if not is_four_periodic(best_img):
        raise AssertionError("search produced a non-4-periodic map")
    f = Permutation(best_img)
    recheck = len(defect_report(f, m).defect_set)
    if recheck != best:
        raise AssertionError("reported defect does not recompute")
    hist = {}
    for length in f.cycle_lengths():
        hist[length] = hist.get(length, 0) + 1
    return SearchResult(f, n, m, seed, budget, best, hist, exhaustive, budget_exhausted)


class TestSearcherOracle:
    @given(st.integers(2, 300), st.sampled_from([2, 3, 5, 7]),
           st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 7, 500]))
    @settings(max_examples=200, deadline=None)
    def test_matches_full_recount_oracle(self, n, m, seed, budget):
        assume(math.gcd(m, n) == 1)
        assert (search_local_exp(n, m, budget=budget, seed=seed).to_json()
                == oracle_search(n, m, budget=budget, seed=seed).to_json())


class TestDrawEquivalence:
    """The searcher draws from rng.getrandbits exactly as CPython's shuffle,
    choice and randrange would: the same values, and the generator left in
    the same state."""

    @given(st.integers(0, 2**32 - 1),
           st.lists(st.integers(0, 10**6), max_size=13, unique=True))
    @example(seed=0, points=[5])    # choice([1]) still draws a bit, until it is 0
    @settings(max_examples=300, deadline=None)
    def test_sampler_matches_shuffle_choice_randrange(self, seed, points):
        ours, ref = random.Random(seed), random.Random(seed)
        given_points = list(points)
        assert _random_order4(points, ours) == random_order4(points, ref)
        assert ours.getstate() == ref.getstate()
        assert points == given_points

    @given(st.integers(11, 300), st.integers(0, 2**32 - 1))
    @example(n=64, seed=0)      # at a power of two, randrange(n) draws n.bit_length() bits
    @settings(max_examples=40, deadline=None)
    def test_step_points_are_randrange_draws(self, n, seed):
        # a sampler that fixes every point keeps the identity map, so a step
        # touches exactly {a, b}, changes no flag and draws no acceptance
        # float: between two sampler calls the searcher draws a and b alone
        assume(math.gcd(7, n) == 1)
        ref, steps = [], []

        def fix_all(points, rng):
            if ref:
                a, b = ref[0].randrange(n), ref[0].randrange(n)
                assert points == sorted({a, b})
                assert rng.getstate() == ref[0].getstate()
                steps.append(points)
            else:                       # the initial map: the mirror starts here
                ref.append(random.Random())
                ref[0].setstate(rng.getstate())
            return {x: x for x in points}

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(localexp, "_random_order4", fix_all)
            search_local_exp(n, 7, budget=50, seed=seed)
        assert len(steps) == 50


class TestRunningDefectCheck:
    """A wrong step delta must not reach search.json: the running count is
    recounted against the final map after the loop."""

    @pytest.fixture
    def delta_off_by_one(self, monkeypatch):
        true_delta = localexp._resample_delta

        def off_by_one(*args):
            delta, flags = true_delta(*args)
            return delta + 1, flags

        monkeypatch.setattr(localexp, "_resample_delta", off_by_one)

    def test_function_raises(self, delta_off_by_one):
        with pytest.raises(AssertionError, match="running defect count"):
            search_local_exp(101, 7, budget=500, seed=0)

    def test_cli_exits_2(self, delta_off_by_one, tmp_path, capsys):
        code = main(["search-f", "--n", "101", "--m", "7", "--budget", "500",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "running defect count" in capsys.readouterr().err
