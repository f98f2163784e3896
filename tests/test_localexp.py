import itertools
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soficlab import localexp
from soficlab.localexp import (DegreeMAudit, PadicContext, ZnFunction,
                               defect_report, degree_m_audit, h3_witness,
                               induce_g, is_four_periodic, mezo_failures,
                               min_mezo_fraction, norvi_audit,
                               padic_fixed_point, praktisch_count,
                               running_product_map, search_local_exp)
from soficlab.perm import Permutation


def random_bijection(n, seed):
    return ZnFunction(n, np.random.default_rng(seed).permutation(n))


bijections = st.tuples(st.integers(5, 40), st.integers(0, 2**32 - 1)).map(
    lambda t: random_bijection(*t))


class TestZnFunction:
    def test_bijective_flag_verified(self):
        f = ZnFunction(3, np.array([0, 0, 1]))
        assert not f.bijective
        with pytest.raises(ValueError):
            ZnFunction(3, np.array([0, 0, 1]), bijective=True)

    def test_json_roundtrip(self):
        f = random_bijection(11, 0)
        g = ZnFunction.from_json(f.to_json())
        assert g.n == f.n and np.array_equal(g.image, f.image)


class TestDefectReport:
    def test_running_product_wraparound_only(self):
        rep = defect_report(running_product_map(2, 5), 2)
        assert rep.defect_set == (4,)

    def test_identity_defect(self):
        rep = defect_report(ZnFunction.identity(5), 2)
        assert len(rep.defect_set) == 4      # only x = 1 satisfies x+1 = 2x

    def test_four_cycle_product_no_failures(self):
        p = Permutation.from_cycles(8, [(0, 1, 2, 3), (4, 5, 6, 7)])
        rep = defect_report(ZnFunction.from_permutation(p), 3)
        assert rep.four_periodic_failures == ()

    def test_fractions_exact(self):
        rep = defect_report(running_product_map(2, 5), 2)
        assert rep.defect_fraction == Fraction(1, 5)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            defect_report(ZnFunction.identity(6), 2)

    @given(bijections)
    @settings(max_examples=40, deadline=None)
    def test_dual_scans_consistent(self, f):
        m = 2 if f.n % 2 else 3
        if math.gcd(m, f.n) != 1:
            return
        rep = defect_report(f, m)    # raises internally if the scans disagree
        assert 0 <= len(rep.defect_set) <= f.n


class TestInducedMap:
    def test_identity_induces_shift(self):
        g = induce_g(ZnFunction.identity(7))
        assert g.image.tolist() == [1, 2, 3, 4, 5, 6, 0]

    @given(bijections)
    @settings(max_examples=30, deadline=None)
    def test_induced_is_bijection(self, f):
        assert induce_g(f).bijective

    def test_requires_bijection(self):
        with pytest.raises(ValueError):
            induce_g(ZnFunction(3, np.array([0, 0, 1])))

    def test_praktisch_count_range(self):
        g = induce_g(random_bijection(11, 1))
        assert 0 <= praktisch_count(g, 2) <= 11


class TestH3Witness:
    def test_g1_displacement_always_one(self):
        for seed in range(5):
            f = random_bijection(13, seed)
            rep = h3_witness(f, 3)
            assert rep.g1_displacement.value == 1

    @given(bijections)
    @settings(max_examples=30, deadline=None)
    def test_conjugation_identities_exact(self, f):
        n = f.n
        p = f.as_permutation()
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


class TestMezoExhaustion:
    # frozen exhaustive minima over all bijections (smallest coprime base)
    FROZEN = {(4, 3): Fraction(3, 4), (5, 2): Fraction(2, 5),
              (6, 5): Fraction(2, 3), (7, 2): Fraction(3, 7)}

    @pytest.mark.parametrize("nm", sorted(FROZEN))
    def test_minimum_fraction(self, nm):
        assert min_mezo_fraction(*nm) == self.FROZEN[nm]

    def test_strictly_positive(self):
        for nm, frac in self.FROZEN.items():
            assert frac > 0

    def test_failure_set_matches_bruteforce(self):
        f = random_bijection(9, 2)
        bad = mezo_failures(f, 2)
        manual = set()
        for x in range(9):
            if int(f.image[(x + 1) % 9]) != 2 * int(f.image[x]) % 9:
                manual.add(x)
            y = f.image[f.image[f.image[x]]]
            if int(y) != x:
                manual.add(x)
        assert set(bad) == manual


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

    def test_s_period(self):
        ctx = PadicContext(3, 3, 2)
        period = 3 ** 2
        for x in range(0, 27, 5):
            assert ctx.s_pow(x) == ctx.s_pow(x + period)


class TestNorviAudit:
    def test_running_product_style_map(self):
        # the exp-like map has law defect at the wraparound only
        ctx = PadicContext(3, 2, 2)
        img = exp_like_bijection(9)
        f = ZnFunction(9, img)
        rep = norvi_audit(f, ctx)
        assert rep.law_defect_count == len(defect_report(f, 2).defect_set)
        assert rep.small_regime

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
        law_bound = p ** (r / 4 - 1) / 2 ** 0.25
        holds = (law_bad >= law_bound) | (nonper >= 9 / 2)
        assert bool(holds.all())

    def test_random_sample_n243(self):
        # sampled stand-in for the large random-bijection sweep
        p, r, m = 3, 5, 2
        n = p ** r
        rng = np.random.default_rng(0)
        law_bound = p ** (r / 4 - 1) / 2 ** 0.25
        for _ in range(20):
            block = rng.random((5000, n)).argsort(axis=1)
            law_bad = (np.roll(block, -1, axis=1) != (m * block) % n).sum(axis=1)
            y = block
            rows = np.arange(block.shape[0])[:, None]
            for _ in range(4):
                y = block[rows, y]
            nonper = (y != np.arange(n)).sum(axis=1)
            assert bool(((law_bad >= law_bound) | (nonper >= n / 2)).all())

    def test_internal_consistency(self):
        ctx = PadicContext(3, 3, 2)
        f = random_bijection(27, 3)
        rep = norvi_audit(f, ctx)
        assert rep.dichotomy_holds
        assert rep.periodic_bound == Fraction(27, 2)

    def test_wrong_degree(self):
        with pytest.raises(ValueError):
            norvi_audit(random_bijection(10, 0), PadicContext(3, 2, 2))

    def test_recount_survives_optimize(self):
        # defect_report scans once with _law_failures_slow; the second call
        # is norvi_audit's own recount, which must still run under -O
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from soficlab import localexp as le
            if not sys.flags.optimize:
                sys.exit(3)
            real, calls = le._law_failures_slow, []
            def skewed(image, m, n):
                calls.append(n)
                out = real(image, m, n)
                return out if len(calls) == 1 else out + [n]
            le._law_failures_slow = skewed
            f = le.ZnFunction(27, np.random.default_rng(3).permutation(27))
            try:
                le.norvi_audit(f, le.PadicContext(3, 3, 2))
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
        assert "law-failure recounts disagree" in proc.stdout


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


class TestDegreeMAudit:
    def test_pure_power_map(self):
        p, m = 101, 2
        g = ZnFunction(p, np.array([pow(x, m, p) for x in range(p)]))
        audit = degree_m_audit(g, m, p)
        assert audit.multipliers == (1,)
        assert audit.max_per_triple <= audit.per_triple_cap

    def test_k4_random_multipliers(self):
        p, m = 101, 2
        rng = np.random.default_rng(4)
        cs = [1, 3, 7, 9]
        img = np.array([(cs[rng.integers(4)] * pow(x, m, p)) % p for x in range(p)])
        img[0] = 55
        audit = degree_m_audit(ZnFunction(p, img), m, p)
        assert len(audit.multipliers) <= 4
        assert audit.max_per_triple <= m ** 3
        assert audit.zero_image == 55

    def test_relator_count_manual(self):
        p, m = 13, 2
        g = random_bijection(p, 5)
        audit = degree_m_audit(g, m, p)
        manual = sum(1 for x in range(p)
                     if (g((g((g(x) + 1) % p) + 1) % p) + 1) % p == x)
        assert audit.relator_solutions == manual

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            degree_m_audit(ZnFunction.identity(10), 3, 10)


class TestSearcher:
    def test_exhaustive_seed_independent(self):
        for n, m in ((4, 3), (5, 2), (6, 5)):
            r1 = search_local_exp(n, m, seed=0)
            r2 = search_local_exp(n, m, seed=123)
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
            search_local_exp(9, 3, seed=0)

    def test_budget_flag(self):
        r = search_local_exp(8, 3, budget=10, seed=0)
        assert r.budget_exhausted and not r.exhaustive
        assert is_four_periodic(r.f.image)
