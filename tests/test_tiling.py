import contextlib
import functools
import hashlib
import random
import re
import tempfile
from fractions import Fraction
from math import ceil, gcd
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (affine_approx, evaluate_word, fraction_loop_plan, full_scan_quasi_tile,
                     level_union_sizes, plain_copy, row_by_row_extract, tiling_json)

from soficlab import tiling
from soficlab.bsgroup import BsElement, a2_interval, bs_a2, bs_rectangle
from soficlab.cli import conjugate_domain, main
from soficlab.conjugacy import DELTA_PRIME, INNER_EPS
from soficlab.perm import Permutation, orbit_order
from soficlab.soficcheck import ArithmeticModel, SoficApprox, amplify, check_sofic
from soficlab.tiling import (CoarseApproximationError, LevelMeasure,
                             MissingDomainError, SetFamily, TileLevel, Tiling, TilingReport,
                             b_mask, extract_eps_disjoint, inverse_products, level_points,
                             plan_parameters, quasi_tile, tile_cores, verify_tiling)

WIDTHS = [2, 4, 6, 8, 12, 16, 24, 32]


def interval_model(n, m, max_l):
    model = ArithmeticModel(n, m)
    return model.approx_on([BsElement(m, 0, ell, 0) for ell in range(-max_l, max_l + 1)])


def tile(phi, shapes, eps, kappa, **kwargs):
    """quasi_tile on the product grid of the top shape and its B, as every
    caller builds them."""
    grid = inverse_products(shapes[-1])
    return quasi_tile(phi, shapes, grid, eps, kappa, b=b_mask(phi, grid), **kwargs)


def z_model_tiling(n=1000, eps=Fraction(1, 4)):
    phi = interval_model(n, 3, 40)
    shapes = [a2_interval(w, 3) for w in WIDTHS]
    return tile(phi, shapes, eps, eps)


class TestPlanParameters:
    def test_eps_quarter_k8(self):
        plan = plan_parameters(Fraction(1, 4), Fraction(1, 4))
        assert plan.k == 8
        assert (Fraction(3, 4)) ** 8 <= Fraction(1, 8) < (Fraction(3, 4)) ** 7

    def test_lambda_k_is_eps(self):
        for eps in (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
            plan = plan_parameters(eps, eps)
            assert plan.lambdas[-1] == eps

    def test_sigma_closed_form(self):
        eps = Fraction(1, 8)
        plan = plan_parameters(eps, eps)
        for j in range(1, plan.k + 1):
            sigma_j = sum(plan.lambdas[j - 1:], Fraction(0))
            assert sigma_j == 1 - (1 - eps) ** (plan.k - j + 1)

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            plan_parameters(Fraction(3, 10), Fraction(1, 8))

    def test_matches_fraction_loop(self):
        """k and the lambdas from integer powers equal the Fraction loop's,
        at eps = 1/q and at numerators above 1."""
        eps_values = [Fraction(1, q) for q in range(4, 65)]
        eps_values += [Fraction(p, q) for p, q in ((2, 9), (3, 13), (5, 21), (7, 29), (3, 40))]
        for eps in eps_values:
            for kappa in (eps, Fraction(3, 2)):
                assert plan_parameters(eps, kappa) == fraction_loop_plan(eps, kappa), eps


def family(n, sets):
    """SetFamily from frozensets, all of one size, offered in the order given."""
    return SetFamily(n, [sorted(subset) for subset in sets])


# The restart-loop extraction as it stood before the array rewrite, kept as
# the reference the array version must reproduce exactly.

class OracleFamily(NamedTuple):
    n: int
    sets: Tuple[Tuple[int, frozenset], ...]


def oracle_extract(fam: OracleFamily, eps, target: Optional[int] = None) -> Tuple[int, ...]:
    if not fam.sets:
        raise ValueError("empty family")
    eps = Fraction(eps)

    order = sorted(fam.sets, key=lambda pair: (-len(pair[1]), pair[0]))
    selected: List[Tuple[int, frozenset]] = []
    union: set = set()
    for idx, subset in order:
        core = subset - union
        if len(core) >= (1 - eps) * len(subset):
            selected.append((idx, subset))
            union |= subset

    if target is not None:
        changed = True
        while changed:
            changed = False
            for pos in range(len(selected) - 1, -1, -1):
                rest: set = set()
                for q, (_, subset) in enumerate(selected):
                    if q != pos:
                        rest |= subset
                if len(rest) >= target:
                    del selected[pos]
                    union = rest
                    changed = True
                    break
    return tuple(idx for idx, _ in selected)


def extract_by_keys(n, keys, rows, eps, target):
    """Extraction on the rows offered stably sorted by their keys, ties
    included, as the oracle takes them; the selected positions are mapped
    back to keys."""
    order = sorted(range(len(rows)), key=keys.__getitem__)
    got = extract_eps_disjoint(SetFamily(n, [rows[i] for i in order]), eps, target)
    return tuple(keys[order[q]] for q in got.indices)


@st.composite
def one_size_families(draw):
    """Up to 25 rows of w distinct points each, w in 1..8, with indices
    that may tie."""
    n = draw(st.integers(1, 40))
    w = draw(st.integers(1, min(8, n)))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=w, max_size=w, unique=True),
                         min_size=1, max_size=25))
    indices = draw(st.lists(st.integers(0, 30), min_size=len(rows), max_size=len(rows)))
    return n, indices, rows


class TestExtraction:
    def test_disjoint_family_kept_whole(self):
        fam = family(10, (frozenset({0, 1, 2}), frozenset({5, 6, 7})))
        res = extract_eps_disjoint(fam, Fraction(1, 4))
        assert res.indices == (0, 1)

    def test_duplicates_collapse(self):
        fam = family(10, (frozenset({0, 1}), frozenset({0, 1})))
        res = extract_eps_disjoint(fam, Fraction(1, 2))
        assert len(res.indices) == 1

    def test_empty_family(self):
        with pytest.raises(ValueError):
            extract_eps_disjoint(family(5, ()), Fraction(1, 4))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_intervals_coverage(self, seed):
        rng = np.random.default_rng(seed)
        n, eps = 1000, Fraction(1, 4)
        w = int(rng.integers(5, 30))
        starts = rng.integers(0, n - w, size=60)
        rows = starts[:, None] + np.arange(w)
        res = extract_eps_disjoint(SetFamily(n, rows), eps)
        keep_at = ceil((1 - eps) * w)
        kept = rows[list(res.indices)]
        assert (tile_cores([kept])[0].sum(axis=1) >= keep_at).all()
        # a rejected set has too few points free of the kept sets before it
        for i in sorted(set(range(60)) - set(res.indices)):
            earlier = rows[[q for q in res.indices if q < i]]
            free = tile_cores([earlier, rows[i:i + 1]])[1].sum()
            assert free < keep_at

    def test_prune_to_target_minimal(self):
        sets = tuple(frozenset(range(10 * i, 10 * i + 10)) for i in range(10))
        fam = family(100, sets)
        res = extract_eps_disjoint(fam, Fraction(1, 4), target=30)
        assert len(set().union(*(sets[idx] for idx in res.indices))) >= 30
        # minimality: dropping any selected set breaks the target
        for drop in range(len(res.indices)):
            rest = set()
            for q, idx in enumerate(res.indices):
                if q != drop:
                    rest |= sets[idx]
            assert len(rest) < 30

    @given(one_size_families(),
           st.fractions(0, 1, max_denominator=12),
           st.one_of(st.none(), st.integers(0, 45)))
    @settings(max_examples=300, deadline=None)
    def test_matches_restart_loop_oracle(self, case, eps, target):
        n, indices, rows = case
        expected = oracle_extract(
            OracleFamily(n, tuple((idx, frozenset(row)) for idx, row in zip(indices, rows))),
            eps, target)
        assert extract_by_keys(n, indices, rows, eps, target) == expected

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_tile_regime_matches_restart_loop_oracle(self, data):
        """Interval rows under distinct ranks and a coverage target, as
        quasi_tile offers them, where the greedy stops short of the end."""
        n = data.draw(st.integers(2, 300))
        w = data.draw(st.integers(2, min(27, n)))
        starts = data.draw(st.lists(st.integers(0, n - w), min_size=40, max_size=120))
        ranks = data.draw(st.permutations(range(len(starts))))
        eps = data.draw(st.sampled_from([Fraction(1, 4), Fraction(1, 8)]))
        target = data.draw(st.one_of(st.integers(0, n + 5),
                                     st.just(ceil(eps * len(starts)))))
        rows = [list(range(s, s + w)) for s in starts]
        expected = oracle_extract(
            OracleFamily(n, tuple((idx, frozenset(row)) for idx, row in zip(ranks, rows))),
            eps, target)
        assert extract_by_keys(n, ranks, rows, eps, target) == expected

    # ten width-10 intervals tiling 0..99 at even indices; between each two a
    # half-overlapping one at an odd index, which the greedy rejects
    INTERVALS = SetFamily(100, [range(s, s + 10) for s in range(0, 91, 5)])

    def test_target_zero_keeps_nothing(self):
        assert extract_eps_disjoint(self.INTERVALS, Fraction(1, 4), target=0).indices == ()

    def test_target_above_greedy_union_keeps_greedy_selection(self):
        greedy = extract_eps_disjoint(self.INTERVALS, Fraction(1, 4))
        assert greedy.indices == tuple(range(0, 19, 2))
        assert extract_eps_disjoint(self.INTERVALS, Fraction(1, 4), target=101) == greedy

    @pytest.mark.parametrize("target", [1, 10])
    def test_target_met_by_first_kept_set(self, target):
        assert extract_eps_disjoint(self.INTERVALS, Fraction(1, 4), target=target).indices == (0,)

    def test_sets_offered(self):
        fam = SetFamily(10, ((0, 1), (2, 5), (9, 3)))
        assert len(fam.sets) == 3

    @pytest.mark.parametrize("rows", [((0, 10),), ((-1, 2),)])
    def test_element_outside_ground_set(self, rows):
        with pytest.raises(ValueError, match="outside the ground set"):
            SetFamily(10, rows)


# ---------------------------------------------------------------------------
# extract_eps_disjoint tests the rows ahead of a run of rejections, and the
# sets the prune reaches, in stretches; the loop that tests them one at a
# time is kept in oracles.row_by_row_extract

@functools.lru_cache(maxsize=None)
def orbit_rectangle_rows(n):
    """The top rectangle's points at every point, taken in the orbit order
    of a2, as a conjugate run offers them at its top level: runs of rows
    that overlap a kept one."""
    phi, shapes = conjugate_mode_approx(n)
    order = orbit_order(phi.table[bs_a2(n - 1)])
    return np.stack([phi.table[g].image[order] for g in sorted_keys(shapes[-1])]).T


@st.composite
def run_families(draw):
    """Rows of w distinct points, each new row followed by a run of up to 60
    rows that repeat earlier ones, which the greedy rejects when eps < 1."""
    n = draw(st.integers(2, 120))
    w = draw(st.integers(1, min(8, n)))
    rows: List[List[int]] = []
    for _ in range(draw(st.integers(1, 8))):
        rows.append(draw(st.lists(st.integers(0, n - 1), min_size=w, max_size=w, unique=True)))
        rows += [rows[draw(st.integers(0, len(rows) - 1))]
                 for _ in range(draw(st.integers(0, 60)))]
    return SetFamily(n, rows)


class TestStretchScan:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_row_by_row(self, data):
        """Both modes, on families with long runs of rejected rows and on
        the rectangle rows of a conjugate run from any start, under the
        default run and stretch lengths and under short ones, which make a
        stretch out of almost every gap and reach many targets inside
        one."""
        if data.draw(st.booleans()):
            fam = data.draw(run_families())
        else:
            n = data.draw(st.sampled_from([200, 331, 500]))
            rows = orbit_rectangle_rows(n)
            fam = SetFamily(n, rows[data.draw(st.integers(0, len(rows) - 1)):])
        eps = data.draw(st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), 1]))
        target = data.draw(st.one_of(st.none(), st.integers(0, fam.n)))
        run = data.draw(st.sampled_from([1, 2, 5, tiling._RUN]))
        stretch = data.draw(st.sampled_from([1, 3, tiling._STRETCH]))
        with mock.patch.object(tiling, "_RUN", run), mock.patch.object(tiling, "_STRETCH", stretch):
            got = extract_eps_disjoint(fam, eps, target).indices
        assert got == row_by_row_extract(fam, eps, target)

    def test_target_reached_past_a_skipped_run(self, monkeypatch):
        """Three disjoint rows, each of the last two after 40 copies of the
        first: the scan jumps over each run to the next new row, and the
        target is met at the second, which ends the greedy there."""
        w = 4
        rows = ([list(range(w))] * 41 + [list(range(w, 2 * w))] + [list(range(w))] * 40
                + [list(range(2 * w, 3 * w))])
        fam = SetFamily(3 * w, rows)
        jumps, real = [], tiling._first_passing

        def recording(passes, start, stop):
            jumps.append(real(passes, start, stop))
            return jumps[-1]
        monkeypatch.setattr(tiling, "_first_passing", recording)
        assert extract_eps_disjoint(fam, Fraction(1, 4)).indices == (0, 41, 82)
        assert extract_eps_disjoint(fam, Fraction(1, 4), target=2 * w).indices == (0, 41)
        assert jumps[:3] == [41, 82, 41]
        for target in (None, 2 * w):
            assert extract_eps_disjoint(fam, Fraction(1, 4), target).indices == \
                row_by_row_extract(fam, Fraction(1, 4), target)


class TestQuasiTile:
    def test_z_model_certificate(self):
        tiling = z_model_tiling()
        report = verify_tiling(tiling)
        assert report.passed

    def test_b_set_full_for_exact_model(self):
        tiling = z_model_tiling()
        assert tiling.b_size == 1000

    def test_corrupted_block_rejected(self):
        n = 1000
        # the model's table is read-only: edit a copy, whose plain
        # permutation sends it down the table route
        phi = SoficApprox(n, dict(interval_model(n, 3, 40).table))
        # corrupt half the ground set in one generator image
        key = BsElement(3, 0, 1, 0)
        img = phi.table[key].image.copy()
        img[:n // 2] = np.roll(img[:n // 2], 7)
        phi.table[key] = Permutation(img)
        shapes = [a2_interval(w, 3) for w in WIDTHS]
        with pytest.raises(CoarseApproximationError):
            tile(phi, shapes, Fraction(1, 4), Fraction(1, 4))

    def test_wrong_shape_count(self):
        phi = interval_model(1000, 3, 40)
        with pytest.raises(ValueError):
            tile(phi, [a2_interval(2, 3)], Fraction(1, 4), Fraction(1, 4))

    @pytest.mark.parametrize("other", [a2_interval(24, 3), a2_interval(32, 3) - {bs_a2(3)},
                                       bs_rectangle(2, 16, 3)],
                             ids=["narrower", "one-key-short", "rectangle"])
    def test_grid_of_another_shape_refused(self, other):
        """The B-mask reads F_k off the grid, so a grid of any shape but the
        top one is refused before B is read."""
        shapes = [a2_interval(w, 3) for w in WIDTHS]
        with pytest.raises(ValueError, match="not built from the top Folner shape"):
            quasi_tile(interval_model(1000, 3, 40), shapes, inverse_products(other),
                       Fraction(1, 4), Fraction(1, 4), b=np.ones(1000, dtype=bool))


class TestVerifySoundness:
    def test_overlapping_levels_fail(self):
        tiling = z_model_tiling()
        # duplicate a center of the top level into the bottom level
        lvl_hi = tiling.levels[-1]
        lvl_lo = tiling.levels[0]
        tampered_lo = TileLevel(lvl_lo.j, lvl_lo.shape, lvl_lo.lam,
                                lvl_lo.centers + (lvl_hi.centers[0],))
        tampered = Tiling(tiling.n, tiling.eps, tiling.kappa,
                          (tampered_lo,) + tiling.levels[1:], tiling.table,
                          tiling.b_size)
        assert not verify_tiling(tampered).passed

    def test_measure_out_of_band_fails(self):
        tiling = z_model_tiling()
        lvl = tiling.levels[0]
        # strip the bottom level to a single center: measure falls below
        tampered = Tiling(tiling.n, tiling.eps, tiling.kappa,
                          (TileLevel(lvl.j, lvl.shape, lvl.lam, lvl.centers[:1]),)
                          + tiling.levels[1:], tiling.table, tiling.b_size)
        report = verify_tiling(tampered)
        assert not report.measures[0].ok and not report.passed

    def test_lambda_recursion_enforced(self):
        tiling = z_model_tiling()
        bad = list(tiling.levels)
        lvl = bad[0]
        bad[0] = TileLevel(lvl.j, lvl.shape, lvl.lam * 2, lvl.centers)
        with pytest.raises(ValueError):
            Tiling(tiling.n, tiling.eps, tiling.kappa,
                   tuple(bad), tiling.table, tiling.b_size)

    def test_degree_mismatch_rejected(self):
        tiling = z_model_tiling()
        with pytest.raises(ValueError, match="degree"):
            Tiling(900, tiling.eps, tiling.kappa, tiling.levels, tiling.table, tiling.b_size)

    def test_json_roundtrip_verifies(self):
        tiling = z_model_tiling()
        back = Tiling.from_json(tiling.to_json())
        assert verify_tiling(back).passed
        assert back.levels == tiling.levels


class TestAmplifiedModel:
    def test_amplified_bs2_certificate(self):
        base = interval_model(101, 2, 33)
        phi = amplify(base, 10_000)
        shapes = [a2_interval(w, 2) for w in WIDTHS]
        tiling = tile(phi, shapes, Fraction(1, 4), Fraction(1, 4))
        assert verify_tiling(tiling).passed


# ---------------------------------------------------------------------------
# The set-based verifier and the conjugator's core routine as they stood
# before tile geometry moved into tile_cores and level_points, kept as the
# references the array code must reproduce exactly.

def oracle_verify(t: Tiling) -> TilingReport:
    """Recheck all four conclusions from the centers and the permutation
    table alone; nothing from the construction run is trusted."""
    n = t.n
    level_unions = []
    injective_ok = True
    eps_disjoint_ok = True
    union_all: set = set()
    for lvl in t.levels:
        imgs = np.stack([t.table[g].image for g in lvl.shape])
        size = imgs.shape[0]
        lvl_union: set = set()
        for c in lvl.centers:
            tile = imgs[:, c]
            tile_set = set(tile.tolist())
            if len(tile_set) != size:
                injective_ok = False
            core = tile_set - union_all
            if len(core) < (1 - t.eps) * size:
                eps_disjoint_ok = False
            union_all |= tile_set
            lvl_union |= tile_set
        level_unions.append(lvl_union)

    disjoint_ok = True
    for a in range(len(level_unions)):
        for b in range(a + 1, len(level_unions)):
            if level_unions[a] & level_unions[b]:
                disjoint_ok = False

    cover_ratio = Fraction(len(union_all), n)
    cover_ok = cover_ratio >= 1 - t.eps

    measures = []
    for lvl, lvl_union in zip(t.levels, level_unions):
        ratio = Fraction(len(lvl_union), n)
        low = (1 - t.kappa) * lvl.lam
        high = (1 + t.kappa) * lvl.lam
        measures.append(LevelMeasure(lvl.j, ratio, low, high, low <= ratio <= high))
    measure_ok = all(m.ok for m in measures)

    passed = disjoint_ok and injective_ok and eps_disjoint_ok and cover_ok and measure_ok
    return TilingReport(disjoint_ok, injective_ok, eps_disjoint_ok,
                        cover_ratio, cover_ok, tuple(measures), measure_ok, passed)


def oracle_core_masks(t: Tiling) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per level, ascending j: the tile points, row q holding phi(g)c for
    the q-th center c and g in shape order, and a boolean mask of the same
    shape marking the generators whose point avoids every tile placed
    earlier, replaying the construction order (level k down to 1, centers
    in selection order).  These core point sets are pairwise disjoint
    across the whole family."""
    points = [np.stack([t.table[g].image for g in lvl.shape])[:, list(lvl.centers)].T
              for lvl in t.levels]
    construction = points[::-1]
    flat = np.concatenate([p.ravel() for p in construction])
    widths = np.concatenate([np.full(len(p), p.shape[1]) for p in construction])
    tile = np.repeat(np.arange(len(widths)), widths)      # construction order
    _, first, point = np.unique(flat, return_index=True, return_inverse=True)
    core = tile[first][point] == tile           # the first tile to reach the point
    cores = np.split(core, np.cumsum([p.size for p in construction])[:-1])
    return [(p, c.reshape(p.shape)) for p, c in zip(points, cores[::-1])]


def conjugate_mode_approx(n):
    """The approximation the conjugate subcommand tiles, with m = n - 1 and
    its height-2 rectangle shapes."""
    shapes, _, domain = conjugate_domain(n - 1)
    return ArithmeticModel(n, n - 1).approx_on(domain), shapes


@functools.lru_cache(maxsize=None)
def rectangle_tiling(n=1000):
    """quasi_tile as build_conjugator runs it for the conjugate subcommand:
    inner eps 1/8, maximal packing, centers ranked by the orbit order of a2."""
    phi, shapes = conjugate_mode_approx(n)
    return tile(phi, shapes, INNER_EPS, INNER_EPS, delta_prime=DELTA_PRIME, maximal=True,
                center_order=orbit_order(phi.table[bs_a2(n - 1)]))


BASES = {"z_model": functools.lru_cache(maxsize=None)(z_model_tiling),
         "rectangle": rectangle_tiling}


@st.composite
def mutated_tilings(draw):
    """A valid tiling with one to four edits: a center moved, added, dropped
    or copied to another level."""
    t = BASES[draw(st.sampled_from(sorted(BASES)))]()
    centers = [list(lvl.centers) for lvl in t.levels]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["move", "add", "drop", "copy"]))
        a = draw(st.integers(0, len(centers) - 1))
        if kind == "add":
            centers[a].insert(draw(st.integers(0, len(centers[a]))), draw(st.integers(0, t.n - 1)))
        elif centers[a]:
            i = draw(st.integers(0, len(centers[a]) - 1))
            if kind == "move":
                centers[a][i] = (centers[a][i] + draw(st.integers(-20, 20))) % t.n
            elif kind == "drop":
                del centers[a][i]
            else:
                b = draw(st.integers(0, len(centers) - 1))
                centers[b].insert(draw(st.integers(0, len(centers[b]))), centers[a][i])
    levels = tuple(TileLevel(lvl.j, lvl.shape, lvl.lam, tuple(cs))
                   for lvl, cs in zip(t.levels, centers))
    return Tiling(t.n, t.eps, t.kappa, levels, t.table, t.b_size)


class TestVerifyMatchesOracle:
    @pytest.mark.parametrize("base", sorted(BASES))
    def test_valid_tilings(self, base):
        t = BASES[base]()
        assert verify_tiling(t) == oracle_verify(t)

    @given(mutated_tilings())
    @settings(max_examples=120, deadline=None)
    def test_mutated_tilings(self, t):
        assert verify_tiling(t) == oracle_verify(t)

    def test_empty_shape_raises_alike(self):
        # rejected when the certificate is built, before either verifier runs
        t = z_model_tiling()
        lvl = t.levels[2]
        levels = t.levels[:2] + (TileLevel(lvl.j, (), lvl.lam, lvl.centers),) + t.levels[3:]
        with pytest.raises(ValueError, match="Folner shape F_3 is empty"):
            Tiling(t.n, t.eps, t.kappa, levels, t.table, t.b_size)


class TestTileCoresMatchOracle:
    """On quasi_tile(..., maximal=True, center_order=...) tilings every
    center lies in B, so every tile is injective.  There the first-occurrence
    masks equal the old cores, which marked every entry of the first tile to
    reach a point; the two differ only on a tile that repeats a point."""

    @staticmethod
    def assert_cores_match(t):
        points = level_points(t)
        cores = tile_cores(points)
        # levels never share a point, so replaying them in construction
        # order, level k down to 1, marks the same first occurrences
        replay = tile_cores(points[::-1])[::-1]
        assert all(np.array_equal(a, b) for a, b in zip(cores, replay))
        expected = oracle_core_masks(t)
        assert len(cores) == len(expected) == len(t.levels)
        for pts, core, (want_pts, want_core) in zip(points, cores, expected):
            assert np.array_equal(pts, want_pts)
            assert np.array_equal(core, want_core)

    def test_conjugate_mode_tiling(self):
        self.assert_cores_match(rectangle_tiling())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_z_model_random_center_order(self, seed):
        self.assert_cores_match(random_order_tiling(seed))


def random_order_tiling(seed, n=1000, m=3):
    """A maximal z-model tiling whose centers are tried in a random order,
    widths capped at n.  Below n = 32 the top level covers Z/n and the
    levels under it stay empty."""
    phi = interval_model(n, m, 40)
    shapes = [a2_interval(min(w, n), m) for w in WIDTHS]
    return tile(phi, shapes, Fraction(1, 4), Fraction(1, 4),
                maximal=True, center_order=np.random.default_rng(seed).permutation(n))


@pytest.mark.parametrize("edit", [
    lambda order: np.append(order[:-1], order[0]),
    lambda order: np.append(order[:-1], len(order)),
    lambda order: order[:-1],
], ids=["repeated-point", "point-equal-to-n", "one-entry-short"])
def test_center_order_must_be_a_permutation(edit):
    n, m = 1000, 3
    shapes = [a2_interval(w, m) for w in WIDTHS]
    with pytest.raises(ValueError, match=r"center_order must be a permutation of 0\.\.n-1"):
        tile(interval_model(n, m, 40), shapes, Fraction(1, 4), Fraction(1, 4),
             maximal=True, center_order=edit(np.arange(n)))


class TestOrderedCertificateDigests:
    """Certificates whose centers depend on the order the greedy tries them
    in, pinned by the sha256 of their JSON; the CLI golden digests cover
    neither a center_order tiling nor the conjugator's inner tilings."""

    @pytest.mark.parametrize("build, digest", [
        (rectangle_tiling, "ead4698d9746ca3aa7ff73740a0ccefbc716d9b2f8a2ac4d1641f462bbe21414"),
        (functools.partial(random_order_tiling, 0),
         "e76db4346fd7807275c65b552074d0c017dbfb05068cdca6054e8ae1e7a4a9d3"),
    ])
    def test_digest(self, build, digest):
        assert hashlib.sha256(build().to_json().encode()).hexdigest() == digest


class TestShapeConditions:
    """quasi_tile and Tiling check the plan's conditions on the shapes in
    one place."""

    @pytest.mark.parametrize("edit, reason", [
        (lambda shapes: [()] + shapes[1:], "F_1 is empty"),
        (lambda shapes: shapes[:1] + [shapes[1] + shapes[1][:1]] + shapes[2:],
         "F_2 repeats a key"),
        (lambda shapes: shapes[1:2] + shapes[:1] + shapes[2:], "not nested"),
        (lambda shapes: [tuple(g for g in shapes[0] if not g.is_identity())] + shapes[1:],
         "identity not in the first"),
    ])
    def test_bad_shapes_rejected_alike(self, edit, reason):
        t = z_model_tiling()
        shapes = edit([lvl.shape for lvl in t.levels])
        with pytest.raises(ValueError, match=reason):
            tile(interval_model(1000, 3, 40), shapes, t.eps, t.kappa)
        levels = tuple(TileLevel(lvl.j, shape, lvl.lam, lvl.centers)
                       for lvl, shape in zip(t.levels, shapes))
        with pytest.raises(ValueError, match=reason):
            Tiling(t.n, t.eps, t.kappa, levels, t.table, t.b_size)


# The per-pair B loop of quasi_tile as it stood before freeness was read off
# the stacked F_k images, kept as the reference b_mask must reproduce.

def oracle_b_mask(phi: SoficApprox, F_k) -> np.ndarray:
    inverses = {g: g.inverse() for g in F_k}
    products: Dict[Tuple[BsElement, BsElement], BsElement] = {}
    for g in F_k:
        for h in F_k:
            products[(g, h)] = inverses[g] * h
    missing = {p for p in products.values() if p not in phi.table}
    missing |= {g for g in F_k if g not in phi.table}
    if missing:
        raise MissingDomainError(f"approximation undefined on {len(missing)} keys of F_k^-1 F_k")

    n = phi.n
    points = np.arange(n)
    b_mask = np.ones(n, dtype=bool)
    for g in F_k:
        img_g = phi.table[g].image
        for h in F_k:
            p = products[(g, h)]
            img_p = phi.table[p].image
            b_mask &= img_g[img_p] == phi.table[h].image
            if g != h:
                b_mask &= img_p != points
    return b_mask


def sorted_keys(shape):
    return sorted(shape, key=BsElement.sort_key)


def z_mode_approx(n, width=32):
    return interval_model(n, 3, width), sorted_keys(a2_interval(width, 3))


def conjugate_mode_top(n):
    phi, shapes = conjugate_mode_approx(n)
    return phi, sorted_keys(shapes[-1])


@pytest.mark.parametrize("F", [sorted_keys(a2_interval(8, 3)), sorted_keys(bs_rectangle(2, 4, 5))])
def test_inverse_products_grid(F):
    grid = inverse_products(F)
    assert grid.shape == tuple(F)
    assert grid.rows == [[g.inverse() * h for h in F] for g in F]
    assert grid.keys == grid_keys(F)


@pytest.mark.parametrize("F", [a2_interval(8, 3), bs_rectangle(2, 4, 5)],
                         ids=["interval", "rectangle"])
@pytest.mark.parametrize("seed", range(3))
def test_inverse_products_grid_ignores_order(F, seed):
    """The grid of F in any order is the grid of F sorted."""
    keys = sorted_keys(F)
    want = inverse_products(keys)
    assert inverse_products(keys[::-1]) == want
    assert inverse_products(random.Random(seed).sample(keys, len(keys))) == want


class TestBMaskMatchesOracle:
    @staticmethod
    def assert_masks_match(phi, F_k):
        got = b_mask(phi, inverse_products(F_k))
        assert got.dtype == bool and np.array_equal(got, oracle_b_mask(phi, F_k))
        return got

    def test_z_model(self):
        assert self.assert_masks_match(*z_mode_approx(1000)).all()

    def test_conjugate_mode(self):
        self.assert_masks_match(*conjugate_mode_top(1000))

    def test_amplified_model_identity_tail_not_free(self):
        phi = amplify(interval_model(101, 2, 33), 10_000)
        mask = self.assert_masks_match(phi, sorted_keys(a2_interval(32, 2)))
        assert 0 < np.count_nonzero(mask) < len(mask)

    def test_missing_key(self):
        phi, F_k = z_mode_approx(200, width=8)
        phi = SoficApprox(phi.n, dict(phi.table))
        del phi.table[BsElement(3, 0, -7, 0)]
        with pytest.raises(MissingDomainError, match="undefined on 1 keys"):
            b_mask(phi, inverse_products(F_k))

    def test_missing_key_with_forms(self):
        F_k = sorted_keys(a2_interval(8, 3))
        phi = ArithmeticModel(200, 3).approx_on(grid_keys(F_k) - {BsElement(3, 0, -7, 0)})
        with pytest.raises(MissingDomainError, match="undefined on 1 keys"):
            b_mask(phi, inverse_products(F_k))

    def test_identity_check_alone_excludes(self):
        """phi(e) = (x y) and phi(a2^-1) = phi(a2^-1)(x y) on F_k = {e, a2}:
        at x and y every check holds except phi(e) x = x, which only the
        pairs (g, g) test."""
        n, x, y = 50, 5, 20
        phi, F_k = z_mode_approx(n, width=2)
        swap = np.arange(n)
        swap[[x, y]] = [y, x]
        identity, a2_inv = BsElement(3, 0, 0, 0), BsElement(3, 0, -1, 0)
        table = dict(phi.table)
        table[identity] = Permutation(swap)
        table[a2_inv] = Permutation(table[a2_inv].image[swap])
        mask = self.assert_masks_match(SoficApprox(n, table), F_k)
        assert not mask[[x, y]].any()

    @given(st.sampled_from(["z_model", "conjugate"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_perturbed_tables(self, base, data):
        """Transpositions in the images of keys in F_k^-1 F_k, the identity
        and F_k itself included.  B drops points there, and quasi_tile still
        offers only rows of distinct points, at every level."""
        n = 200
        if base == "z_model":
            phi, _ = z_mode_approx(n, width=8)
            shapes, eps = [a2_interval(min(w, 8), 3) for w in WIDTHS], Fraction(1, 4)
        else:
            (phi, shapes), eps = conjugate_mode_approx(n), INNER_EPS
        F_k = sorted_keys(shapes[-1])
        keys = sorted_keys({g.inverse() * h for g in F_k for h in F_k})
        table = dict(phi.table)
        for _ in range(data.draw(st.integers(1, 6))):
            g = data.draw(st.sampled_from(keys))
            x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            img = table[g].image.copy()
            img[[x, y]] = img[[y, x]]
            table[g] = Permutation(img)
        perturbed = SoficApprox(n, table)
        mask = self.assert_masks_match(perturbed, F_k)
        # delta_prime = 1 tiles from whatever B is left; in maximal mode the
        # top level offers every point of B
        with offered_rows_checked_distinct() as offered:
            tile(perturbed, shapes, eps, eps, delta_prime=1, maximal=True)
        assert bool(offered) == mask.any()


# ---------------------------------------------------------------------------
# B read off the arithmetic model's affine forms, against the pair loop on
# the same tables and against oracle_b_mask

# degrees prime, odd composite and even
B_DEGREES = (101, 1009, 63, 105, 225, 1001, 64, 100, 210, 1024)
word = st.lists(st.tuples(st.sampled_from(["a1", "a2"]), st.integers(-3, 3)), max_size=4)


@st.composite
def model_shapes(draw):
    """(n, m, F): a base coprime to n, and an a2-interval, a rectangle or a
    few random keys with the identity, sorted."""
    n = draw(st.sampled_from(B_DEGREES))
    m = draw(st.sampled_from([m for m in (2, 3, 5, 7, 11, n - 1) if gcd(m, n) == 1]))
    kind = draw(st.sampled_from(["interval", "rectangle", "keys"]))
    if kind == "interval":
        F = a2_interval(draw(st.integers(1, 12)), m)
    elif kind == "rectangle":
        F = bs_rectangle(draw(st.integers(1, 3)), draw(st.integers(1, 6)), m)
    else:
        keys = draw(st.lists(word, max_size=5))
        F = {BsElement(m, 0, 0, 0)} | {evaluate_word(tuple(w), m) for w in keys}
    return n, m, sorted_keys(F)


def grid_keys(F_k):
    return {g.inverse() * h for g in F_k for h in F_k}


class TestAffineBMask:
    @staticmethod
    def assert_routes_agree(phi, F_k):
        grid = inverse_products(F_k)
        plain = plain_copy(phi)
        assert phi.is_affine() and not plain.is_affine()
        got = b_mask(phi, grid)
        assert np.array_equal(got, b_mask(plain, grid))
        assert np.array_equal(got, oracle_b_mask(phi, F_k))
        return got

    @given(model_shapes())
    @settings(max_examples=150, deadline=None)
    def test_model_forms(self, case):
        n, m, F_k = case
        phi = ArithmeticModel(n, m).approx_on(grid_keys(F_k))
        x = np.arange(n, dtype=np.int64)
        for p in phi.table.values():
            assert np.array_equal(p.image, (p.a * x - p.b) % n)
        self.assert_routes_agree(phi, F_k)

    @pytest.mark.parametrize("n, m, rows, cols", [(63, 2, 3, 4), (1001, 8, 2, 6),
                                                  (100, 3, 3, 5), (225, 16, 2, 6)])
    def test_shared_factor_congruences(self, n, m, rows, cols):
        """Pairs g != h with gcd(a_g - a_h, n) > 1 and solutions to drop:
        each drops gcd(a_g - a_h, n) points spaced n / gcd apart."""
        F_k = sorted_keys(bs_rectangle(rows, cols, m))
        phi = ArithmeticModel(n, m).approx_on(grid_keys(F_k))
        forms = [(phi.table[g].a, phi.table[g].b) for g in F_k]
        shared = [((a_g, b_g), (a_h, b_h)) for i, (a_g, b_g) in enumerate(forms)
                  for a_h, b_h in forms[i + 1:]
                  if 1 < gcd(a_g - a_h, n) < n and (b_g - b_h) % gcd(a_g - a_h, n) == 0]
        assert shared
        mask = self.assert_routes_agree(phi, F_k)
        for (a_g, b_g), (a_h, b_h) in shared:
            agree = np.flatnonzero((a_g - a_h) * np.arange(n) % n == (b_g - b_h) % n)
            assert len(agree) == gcd(a_g - a_h, n) and not mask[agree].any()

    @given(model_shapes(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_forms_that_do_not_compose(self, case, data):
        """The model's forms with a few keys of F_k^-1 F_k redrawn, so that
        some pairs compose to another form and B keeps only the solutions of
        their congruences, which may be none."""
        n, m, F_k = case
        phi = ArithmeticModel(n, m).approx_on(grid_keys(F_k))
        forms = {g: (p.a, p.b) for g, p in phi.table.items()}
        keys = sorted_keys(forms)
        units = [a for a in range(1, n) if gcd(a, n) == 1]
        for _ in range(data.draw(st.integers(1, 3))):
            g = data.draw(st.sampled_from(keys))
            a, b = forms[g]
            forms[g] = (data.draw(st.sampled_from([a] + units[:4] + units[-2:])),
                        data.draw(st.sampled_from([b, (b + 1) % n, 0]) | st.integers(0, n - 1)))
        self.assert_routes_agree(affine_approx(n, forms), F_k)

    @pytest.mark.parametrize("n, m", [(101, 3), (100, 3), (1001, 2)])
    def test_mixed_table_takes_the_table_route(self, n, m):
        """A model approximation with one key swapped for a plain
        Permutation is not affine: with the same map, check_sofic and the
        B-mask equal the all-plain table route's; with another map, the
        defect and the B-mask change with it."""
        F_k = sorted_keys(bs_rectangle(2, 3, m))
        grid = inverse_products(F_k)
        phi = ArithmeticModel(n, m).approx_on(grid_keys(F_k))
        key = F_k[-1]
        table = dict(phi.table)
        table[key] = Permutation(phi.table[key].image)
        mixed = SoficApprox(n, table)
        assert not mixed.is_affine()
        delta = Fraction(1, 8)
        for route in (mixed, plain_copy(phi)):
            assert check_sofic(route, delta) == check_sofic(phi, delta)
            assert np.array_equal(b_mask(route, grid), b_mask(phi, grid))
        p = phi.table[key]
        table[key] = Permutation((p.a * np.arange(n) - p.b - 1) % n)
        edited = SoficApprox(n, table)
        assert check_sofic(edited, delta).max_defect > check_sofic(phi, delta).max_defect
        assert np.array_equal(b_mask(edited, grid), oracle_b_mask(edited, F_k))
        assert not np.array_equal(b_mask(edited, grid), b_mask(phi, grid))


# ---------------------------------------------------------------------------
# B of a relabelled table read off its base, against the pair loop on a
# plain copy and against oracle_b_mask

def relabeller(n, seed):
    return Permutation(np.random.default_rng(seed).permutation(n))


class TestRelabelledBMask:
    @staticmethod
    def assert_routes_agree(phi, F_k):
        """b_mask on phi equals the table route on its plain copy and the
        oracle; when phi is relabelled, the route built no image of phi."""
        grid = inverse_products(F_k)
        got = b_mask(phi, grid)
        if phi.relabelling() is not None:
            assert all(p._image is None for p in phi.table.values())
        plain = plain_copy(phi)
        assert plain.relabelling() is None
        assert np.array_equal(got, b_mask(plain, grid))
        assert np.array_equal(got, oracle_b_mask(phi, F_k))
        return got

    # m = n - 1, 2 and 3 at a prime and at composite degrees; every case
    # leaves some points out of B, so the test sees sigma move them
    @pytest.mark.parametrize("n, m", [(1009, 1008), (1009, 2), (1009, 3), (1000, 999),
                                      (1001, 2), (1000, 3), (63, 2), (1001, 8)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_conjugated_model(self, n, m, seed):
        F_k = sorted_keys(bs_rectangle(2, 4, m))
        base = ArithmeticModel(n, m).approx_on(grid_keys(F_k))
        phi = base.conjugated(relabeller(n, seed))
        relabelled = phi.relabelling()
        assert relabelled is not None and relabelled[0].is_affine()
        got = self.assert_routes_agree(phi, F_k)
        assert not got.all()
        sigma = relabelled[1].image
        assert np.array_equal(got[sigma], b_mask(base, inverse_products(F_k)))

    def test_solved_base_read_only_for_its_own_permutations(self):
        """A mask handed in as solved is read at sigma^-1 for a relabelling
        of that approximation's own permutations, and ignored for one of
        another approximation of the same map."""
        F_k = sorted_keys(bs_rectangle(2, 4, 3))
        grid = inverse_products(F_k)
        base = ArithmeticModel(1000, 3).approx_on(grid_keys(F_k))
        twin = ArithmeticModel(1000, 3).approx_on(grid_keys(F_k))
        sigma = relabeller(1000, 8)
        marked = np.arange(1000) % 3 == 0     # no B-mask: shows which route ran
        own = b_mask(base.conjugated(sigma), grid, solved=(base, marked))
        assert np.array_equal(own, marked[sigma.inverse().image])
        other = b_mask(twin.conjugated(sigma), grid, solved=(base, marked))
        assert np.array_equal(other, b_mask(base.conjugated(sigma), grid))

    def test_conjugate_mode(self):
        phi, F_k = conjugate_mode_top(1000)
        self.assert_routes_agree(phi.conjugated(relabeller(1000, 2)), F_k)

    def test_conjugated_amplified_model(self):
        """A base without forms: the relabel route reaches the base's table
        route, and the identity tail still leaves B, moved by sigma."""
        base = amplify(interval_model(101, 2, 33), 1000)
        phi = base.conjugated(relabeller(1000, 3))
        assert not phi.relabelling()[0].is_affine()
        mask = self.assert_routes_agree(phi, sorted_keys(a2_interval(32, 2)))
        assert 0 < np.count_nonzero(mask) < len(mask)

    def test_doubly_conjugated(self):
        F_k = sorted_keys(bs_rectangle(2, 4, 3))
        base = ArithmeticModel(1000, 3).approx_on(grid_keys(F_k))
        phi = base.conjugated(relabeller(1000, 4)).conjugated(relabeller(1000, 5))
        assert phi.relabelling()[0].relabelling()[0].is_affine()
        self.assert_routes_agree(phi, F_k)

    @pytest.mark.parametrize("n, m", [(1009, 1008), (1000, 3)])
    def test_swapped_permutation_takes_the_table_route(self, n, m):
        """One key of a relabelled table swapped for a plain Permutation of
        the same map: no relabelling, and the same B by the table route."""
        F_k = sorted_keys(bs_rectangle(2, 4, m))
        phi = ArithmeticModel(n, m).approx_on(grid_keys(F_k)).conjugated(relabeller(n, 6))
        table = dict(phi.table)
        table[F_k[-1]] = Permutation(table[F_k[-1]].image)
        swapped = SoficApprox(n, table)
        assert swapped.relabelling() is None
        grid = inverse_products(F_k)
        assert np.array_equal(self.assert_routes_agree(swapped, F_k), b_mask(phi, grid))

    @pytest.mark.parametrize("n, m", [(1009, 1008), (1000, 3)])
    def test_table_mixing_two_sigmas_takes_the_table_route(self, n, m):
        """Keys taken alternately from two relabellings: no relabelling.
        With two equal sigmas the table is the relabelled one and B is its
        B; with two different sigmas B is the oracle's."""
        F_k = sorted_keys(bs_rectangle(2, 4, m))
        grid = inverse_products(F_k)
        base = ArithmeticModel(n, m).approx_on(grid_keys(F_k))
        keys = sorted_keys(base.table)
        for other, same in ((relabeller(n, 7), True), (relabeller(n, 8), False)):
            phi, psi = base.conjugated(relabeller(n, 7)), base.conjugated(other)
            mixed = SoficApprox(n, {g: (phi, psi)[i % 2].table[g] for i, g in enumerate(keys)})
            assert mixed.relabelling() is None
            mask = self.assert_routes_agree(mixed, F_k)
            assert np.array_equal(mask, b_mask(phi, grid)) == same


@contextlib.contextmanager
def offered_rows_checked_distinct():
    """tiling.extract_eps_disjoint, wrapped to assert that every row of the
    family offered holds distinct points, which SetFamily requires but does
    not check.  Yields the rows of each family offered."""
    extract, offered = tiling.extract_eps_disjoint, []

    def checked(fam, *args, **kwargs):
        rows = np.sort(fam.sets, axis=1)
        assert (rows[:, 1:] != rows[:, :-1]).all()
        offered.append(fam.sets.copy())
        return extract(fam, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tiling, "extract_eps_disjoint", checked)
        yield offered


def test_conjugate_mode_offers_distinct_rows():
    with offered_rows_checked_distinct() as offered:
        t = rectangle_tiling.__wrapped__()
    assert len(offered) == sum(1 for lvl in t.levels if lvl.centers) > 0


# ---------------------------------------------------------------------------
# quasi_tile scans only the uncovered B-points for centers; the level loop
# that stacked every shape key's full image and tested every point is kept
# in oracles.full_scan_quasi_tile

@functools.lru_cache(maxsize=None)
def scan_base(name):
    """(phi, shapes, eps): the z-model and conjugate-mode tables at n = 200,
    and the amplified BS(1, 2) table at n = 1000, whose identity tail of 91
    points lies outside B."""
    if name == "z_model":
        return z_mode_approx(200)[0], [a2_interval(w, 3) for w in WIDTHS], Fraction(1, 4)
    if name == "conjugate":
        return (*conjugate_mode_approx(200), INNER_EPS)
    phi = amplify(interval_model(101, 2, 33), 1000)
    return phi, [a2_interval(w, 2) for w in WIDTHS], Fraction(1, 4)


def tiling_and_families(build, *args, **kwargs):
    """What build returns, or the text of the CoarseApproximationError it
    raises, and the rows of every family it offers."""
    with offered_rows_checked_distinct() as offered:
        try:
            result = build(*args, **kwargs)
        except CoarseApproximationError as exc:
            result = str(exc)
    return result, offered


def assert_scans_agree(phi, shapes, eps, **kwargs):
    grid = inverse_products(shapes[-1])
    got, got_rows = tiling_and_families(quasi_tile, phi, shapes, grid, eps, eps,
                                        b=b_mask(phi, grid), **kwargs)
    want, want_rows = tiling_and_families(full_scan_quasi_tile, phi, shapes, grid, eps, eps,
                                          **kwargs)
    assert got == want
    assert len(got_rows) == len(want_rows)
    assert all(np.array_equal(a, b) for a, b in zip(got_rows, want_rows))
    return got, got_rows


class TestCandidateScanMatchesFullScan:
    @given(st.sampled_from(["z_model", "conjugate", "amplified"]),
           st.sampled_from(["arithmetic", "conjugated", "perturbed"]), st.booleans(),
           st.one_of(st.none(), st.integers(0, 2**32 - 1)),
           st.sampled_from([Fraction(1, 8), Fraction(1)]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_same_tiling_and_families(self, base, kind, maximal, order_seed, delta_prime,
                                      data):
        """Same certificate or error, and the same families offered level by
        level, in target and maximal mode, under the default or a random
        center order; perturbed tables carry transpositions in the images
        of F_k^-1 F_k, where phi(e) may move points."""
        phi, shapes, eps = scan_base(base)
        n = phi.n
        if kind == "conjugated":
            phi = phi.conjugated(Permutation(np.random.default_rng(n).permutation(n)))
        elif kind == "perturbed":
            F_k = sorted_keys(shapes[-1])
            keys = sorted_keys({g.inverse() * h for g in F_k for h in F_k})
            table = dict(phi.table)
            for _ in range(data.draw(st.integers(1, 6))):
                g = data.draw(st.sampled_from(keys))
                x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
                img = table[g].image.copy()
                img[[x, y]] = img[[y, x]]
                table[g] = Permutation(img)
            phi = SoficApprox(n, table)
        order = None if order_seed is None else np.random.default_rng(order_seed).permutation(n)
        assert_scans_agree(phi, shapes, eps, delta_prime=delta_prime, maximal=maximal,
                           center_order=order)

    @pytest.mark.parametrize("maximal", [False, True])
    def test_identity_moving_points(self, maximal):
        """phi(e) swaps 7 and 150.  B loses the 64 points x with
        phi(a2^l) x in {7, 150}, 0 <= l < 32, 7 and 150 among them, yet at
        the top level a tile at any of them holds only uncovered points."""
        phi, shapes, eps = scan_base("z_model")
        identity = BsElement(3, 0, 0, 0)
        swap = np.arange(phi.n)
        swap[[7, 150]] = [150, 7]
        phi = SoficApprox(phi.n, {**phi.table, identity: Permutation(swap)})
        t, _ = assert_scans_agree(phi, shapes, eps, delta_prime=Fraction(1), maximal=maximal)
        assert t.b_size == phi.n - 64
        assert not {7, 150} & {c for lvl in t.levels for c in lvl.centers}

    def test_amplified_tail_offered_nowhere(self):
        """Every point of the identity tail is fixed by every key, so each
        of its tiles is one uncovered point repeated; only B keeps it out."""
        phi, shapes, eps = scan_base("amplified")
        t, offered = assert_scans_agree(phi, shapes, eps, maximal=True)
        assert t.b_size == 909
        assert all((rows < 909).all() for rows in offered)


# ---------------------------------------------------------------------------
# The certificate writer against json.dumps, and the verifier's counted
# union sizes against sorting

def amplified_tiling():
    """The amplified BS(1,2) certificate scripts/run_tiling_experiments.py
    writes, on n = 10 000 (composite, |B| = 9999)."""
    phi = amplify(interval_model(101, 2, 33), 10_000)
    return tile(phi, [a2_interval(w, 2) for w in WIDTHS], Fraction(1, 4), Fraction(1, 4))


# n crosses every decimal width boundary up to five digits; m = n + 1 is a
# unit mod n
WRITER_BUILDS = {f"maximal_n{n}": functools.partial(random_order_tiling, 0, n, n + 1)
                 for n in (2, 9, 10, 11, 99, 100, 101, 1000, 10007)}
WRITER_BUILDS.update(rectangle=rectangle_tiling, amplified=amplified_tiling,
                     random_order=functools.partial(random_order_tiling, 0))


class TestCertificateWriter:
    @pytest.mark.parametrize("name", sorted(WRITER_BUILDS))
    def test_equals_json_dumps_and_reads_back(self, name):
        t = WRITER_BUILDS[name]()
        text = t.to_json()
        assert text == tiling_json(t)
        back = Tiling.from_json(text)
        assert back == t

    def test_small_n_leaves_empty_levels(self):
        levels = random_order_tiling(0, 10, 11).levels
        assert [len(lvl.centers) for lvl in levels] == [0] * 7 + [1]

    @pytest.mark.parametrize("entry", [-1, 10])
    def test_image_outside_ground_set_raises(self, entry):
        t = random_order_tiling(0, 10, 11)
        g = max(t.table, key=BsElement.sort_key)
        image = t.table[g].image.copy()
        image[3] = entry
        table = dict(t.table)
        table[g] = Permutation(image, _trusted=True)
        with pytest.raises(ValueError, match=r"outside \[0, 10\)"):
            Tiling(t.n, t.eps, t.kappa, t.levels, table, t.b_size).to_json()


# ---------------------------------------------------------------------------
# The certificate reader: the canonical route against the json route alone

def json_route_only():
    """Tiling.from_json with its canonical route declining every text."""
    return mock.patch.object(tiling, "_canonical_parts", side_effect=ValueError("declined"))


@functools.lru_cache(maxsize=None)
def tile_certificate(n):
    """The tiling.json text that tile --n n writes."""
    with tempfile.TemporaryDirectory() as out:
        assert main(["tile", "--n", str(n), "--out", out]) == 0
        return (Path(out) / "tiling.json").read_text()


# tile --n on both sides of 10^3 and 10^4, where the width of the largest
# entry grows by a digit, and every certificate the writer tests build
READER_TEXTS = {f"tile_n{n}": functools.partial(tile_certificate, n)
                for n in (997, 1009, 9973, 10007)}
READER_TEXTS.update({name: functools.partial(lambda build: build().to_json(), build)
                     for name, build in WRITER_BUILDS.items()})


def assert_same_tiling(a: Tiling, b: Tiling) -> None:
    assert (a.n, a.eps, a.kappa, a.b_size, a.levels) == (b.n, b.eps, b.kappa, b.b_size, b.levels)
    assert list(a.table) == list(b.table)
    for g in a.table:
        assert np.array_equal(a.table[g].image, b.table[g].image)


class TestCanonicalReader:
    @pytest.mark.parametrize("newline", ["", "\n"])
    @pytest.mark.parametrize("name", sorted(READER_TEXTS))
    def test_matches_the_json_route(self, name, newline):
        text = READER_TEXTS[name]().rstrip("\n") + newline
        tiling._canonical_parts(text)       # the canonical route reads the text
        with json_route_only():
            expected = Tiling.from_json(text)
        assert_same_tiling(Tiling.from_json(text), expected)

    @pytest.mark.parametrize("row, n", [
        ("1, , 2", 3), (", 1, 2", 3), ("1, 2, ", 3), ("1,2", 2), ("1,  2", 2), ("1 , 2", 2),
        ("1, 2x", 2), ("1.0, 2", 2), ("-1, 2", 2), ("\u0661, 2", 2), ("9" * 19 + ", 1", 2),
        ("1, 2", 3), ("0,1 , 2", 3), ("1, ,2 3", 3), ("1  2", 2), ("1; 2", 2)])
    def test_numpy_parses_only_digit_runs(self, row, n):
        """Malformed text reaches no numpy version; their parses of it
        differ.  numpy 2.4 reads an empty run as 0 and raises on other stray
        text, 1.x warns and returns what it read so far."""
        with mock.patch.object(np, "fromstring", side_effect=AssertionError("parsed")):
            with pytest.raises(ValueError):
                tiling._digit_row(row.encode(), n)

    def test_runs_of_18_digits_parse(self):
        assert tiling._digit_row(b"9" * 18 + b", 0", 2).tolist() == [10 ** 18 - 1, 0]

    def test_reads_no_entry_through_python_ints(self, monkeypatch):
        text = tile_certificate(10007)
        expected = Tiling.from_json(text)

        def refuse(row, key):
            raise AssertionError(f"table row of {key} read one entry at a time")
        monkeypatch.setattr(tiling, "_json_image", refuse)
        assert_same_tiling(Tiling.from_json(text), expected)


class Landmarks(NamedTuple):
    text: str
    digits: List[int]                       # position of every digit
    spaces: List[int]                       # position of every space
    keys: List[Tuple[int, int]]             # span of each table key
    rows: List[Tuple[int, int]]             # span of each table row
    row_entries: List[List[Tuple[int, int]]]    # per row, the span of each image entry
    entries: List[Tuple[int, int]]          # every image entry
    seps: List[Tuple[int, int]]             # every separator inside an image


@functools.lru_cache(maxsize=None)
def text_landmarks(name) -> Landmarks:
    text = READER_TEXTS[name]()
    table_at = text.index(', "table": [')
    rows = [(table_at + m.start(), table_at + m.end())
            for m in re.finditer(r"\[\{[^}]*\}, \[[0-9, ]*\]\]", text[table_at:])]
    images = [(text.rindex("[", a, b - 2) + 1, b - 2) for a, b in rows]
    row_entries = [[(a + m.start(), a + m.end()) for m in re.finditer(r"\d+", text[a:b])]
                   for a, b in images]
    seps = [(a + m.start(), a + m.end()) for a, b in images for m in re.finditer(", ", text[a:b])]
    return Landmarks(text, [m.start() for m in re.finditer(r"\d", text)],
                     [m.start() for m in re.finditer(" ", text)],
                     [(a + 1, text.index("}", a) + 1) for a, _ in rows], rows, row_entries,
                     [span for row in row_entries for span in row], seps)


def splice(text, *edits):
    """text with each (span, new) edit made; the spans are disjoint."""
    for (a, b), new in sorted(edits, reverse=True):
        text = text[:a] + new + text[b:]
    return text


@st.composite
def same_length_row_edit(draw, marks):
    """In one image row, edits that keep its length and its values as numpy
    2 would parse them: an entry moved between the "," and the space of the
    separator before it; or the first or last entry emptied, after trading
    places with the entry 0, or the entry 0 emptied where it stands, or a
    separator written ",", and then a leading zero or a space added."""
    text = marks.text
    row = draw(st.sampled_from(marks.row_entries))
    zero = next(span for span in row if text[slice(*span)] == "0")
    cut = draw(st.sampled_from(["first", "last", "zero", "space", "shift"]))
    if cut == "shift":
        i = draw(st.integers(1, len(row) - 1))
        (_, sep_at), (a, b) = row[i - 1], row[i]
        return splice(text, ((sep_at, b), "," + text[a:b] + " "))
    if cut == "space":
        i = draw(st.integers(0, len(row) - 2))
        edits = [((row[i][1] + 1, row[i + 1][0]), "")]     # the space of a separator
    else:
        emptied = {"first": row[0], "last": row[-1], "zero": zero}[cut]
        edits = [(emptied, "")] + [(zero, text[slice(*emptied)])] * (emptied != zero)
    at = draw(st.sampled_from([a for a, _ in row if a not in (zero[0], edits[0][0][0])]))
    return splice(text, *edits, ((at, at), draw(st.sampled_from(["0", " "]))))


@st.composite
def mutated_texts(draw):
    """A canonical certificate with one edit to its text, or two that keep
    an image row's length."""
    marks = text_landmarks(draw(st.sampled_from(["tile_n997", "rectangle"])))
    text = marks.text
    kind = draw(st.sampled_from(["digit", "insert_space", "key_space", "remove_space", "comma",
                                 "entry", "same_length", "swap", "duplicate", "head_member",
                                 "level_table", "tail_table", "key_kind", "crlf"]))
    if kind == "digit":
        at = draw(st.sampled_from(marks.digits))
        new = draw(st.sampled_from("0123456789".replace(text[at], "")))
        return splice(text, ((at, at + 1), new))
    if kind in ("insert_space", "key_space"):
        a, b = (0, len(text)) if kind == "insert_space" else draw(st.sampled_from(marks.keys))
        at = draw(st.integers(a, b))
        return splice(text, ((at, at), " "))
    if kind == "remove_space":
        at = draw(st.sampled_from(marks.spaces))
        return splice(text, ((at, at + 1), ""))
    if kind == "comma":
        return splice(text, (draw(st.sampled_from(marks.seps)), ","))
    if kind == "entry":
        span = draw(st.sampled_from(marks.entries))
        entry = text[slice(*span)]
        new = draw(st.sampled_from(["0" + entry, "-" + entry, "-0", "1.0", "1e0", "true"]))
        same_length = [s for s in marks.entries if s[1] - s[0] == len(new)]
        if same_length and draw(st.booleans()):
            span = draw(st.sampled_from(same_length))
        return splice(text, (span, new))
    if kind == "same_length":
        return draw(same_length_row_edit(marks))
    if kind == "head_member":
        return splice(text, ((1, 1), draw(st.sampled_from(['"note": 0, ', '"table": [], ']))))
    if kind in ("level_table", "tail_table"):
        row = text[slice(*draw(st.sampled_from(marks.rows)))]
        if kind == "level_table":
            at = draw(st.sampled_from([m.start() for m in re.finditer('"centers"', text)]))
            return splice(text, ((at, at), f'"table": [{row}], '))
        at = text.rindex("}")
        return splice(text, ((at, at), f', "table": [{row}]'))
    if kind == "key_kind":
        return text.replace('"element"', '"word"', 1)
    if kind == "crlf":
        return text.rstrip("\n") + "\r\n"
    i, j = sorted(draw(st.lists(st.integers(0, len(marks.rows) - 1), min_size=2, max_size=2,
                                unique=True)))
    first, second = (text[slice(*marks.rows[q])] for q in (i, j))
    if kind == "swap":
        return splice(text, (marks.rows[i], second), (marks.rows[j], first))
    return splice(text, ((marks.rows[j][0],) * 2, first + ", "))


def read_outcome(text):
    """What Tiling.from_json makes of text: the tiling, or the error."""
    try:
        return Tiling.from_json(text)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def verify_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("verify")


def assert_same_verdict(verify_dir, text):
    """verify exits with the same code and writes the same verify.json on
    text as with the json route alone, and from_json reads it alike."""
    cert = verify_dir / "tiling.json"
    cert.write_bytes(text.encode())
    argv = ["verify", "--certificate", str(cert), "--out"]
    code = main(argv + [str(verify_dir / "both")])
    with json_route_only():
        json_code = main(argv + [str(verify_dir / "json")])
        json_outcome = read_outcome(text)
    assert code == json_code
    assert ((verify_dir / "both" / "verify.json").read_bytes()
            == (verify_dir / "json" / "verify.json").read_bytes())
    outcome = read_outcome(text)
    if isinstance(outcome, Tiling):
        assert_same_tiling(outcome, json_outcome)
    else:
        assert outcome == json_outcome


def assert_read_only_as_written(text):
    """When the canonical route reads text, text is what to_json writes."""
    try:
        t = Tiling._from_fields(*tiling._canonical_parts(text))
    except Exception:
        return
    assert text in (t.to_json(), t.to_json() + "\n")


class TestMutatedCertificateText:
    @given(text=mutated_texts())
    @settings(max_examples=150, deadline=None)
    def test_same_verdict_as_the_json_route(self, verify_dir, text):
        assert_same_verdict(verify_dir, text)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_length_row_edits(self, verify_dir, data):
        marks = text_landmarks(data.draw(st.sampled_from(["tile_n997", "rectangle"])))
        text = data.draw(same_length_row_edit(marks))
        assert_same_verdict(verify_dir, text)
        assert_read_only_as_written(text)

    @given(text=mutated_texts())
    @settings(max_examples=150, deadline=None)
    def test_canonical_route_reads_only_what_to_json_writes(self, text):
        assert_read_only_as_written(text)


class TestCountedUnionSizes:
    @given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
           copies=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                                     st.integers(0, 10**6)), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_match_sorting(self, n, seed, copies):
        """Seeded maximal tilings, with up to three centers copied to other
        levels so that the levels can overlap."""
        t = random_order_tiling(seed, n, n + 1)
        centers = [list(lvl.centers) for lvl in t.levels]
        for src, dst, pick in copies:
            if centers[src]:
                centers[dst].append(centers[src][pick % len(centers[src])])
        t = Tiling(t.n, t.eps, t.kappa,
                   tuple(TileLevel(lvl.j, lvl.shape, lvl.lam, tuple(cs))
                         for lvl, cs in zip(t.levels, centers)), t.table, t.b_size)
        report = verify_tiling(t)
        sizes, union_size = level_union_sizes(t)
        assert [m.ratio for m in report.measures] == [Fraction(s, n) for s in sizes]
        assert report.cover_ratio == Fraction(union_size, n)
        assert report.disjoint_ok == (union_size == sum(sizes))
