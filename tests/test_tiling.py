from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soficlab.bsgroup import BsElement, a2_interval
from soficlab.perm import Permutation
from soficlab.soficcheck import ArithmeticModel, SoficApprox, amplify
from soficlab.tiling import (CoarseApproximationError, DegreeTooSmallError,
                             ExtractionResult, SetFamily, TileLevel, Tiling,
                             extract_eps_disjoint, plan_parameters, quasi_tile,
                             verify_tiling)

WIDTHS = [2, 4, 6, 8, 12, 16, 24, 32]


def interval_model(n, m, max_l):
    model = ArithmeticModel(n, m)
    return model.approx_on([BsElement(m, 0, ell, 0) for ell in range(-max_l, max_l + 1)])


def z_model_tiling(n=1000, eps=Fraction(1, 4)):
    phi = interval_model(n, 3, 40)
    shapes = [a2_interval(w, 3) for w in WIDTHS]
    return quasi_tile(phi, shapes, eps, eps, n_threshold=n)


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

    def test_kappa_reset(self):
        plan = plan_parameters(Fraction(1, 4), Fraction(1, 4))
        assert plan.kappa_eff == Fraction(1, 8)

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            plan_parameters(Fraction(3, 10), Fraction(1, 8))


def family(n, sets):
    """SetFamily from (index, frozenset) pairs, each row padded to the widest
    set by repeating one of its elements."""
    width = max((len(subset) for _, subset in sets), default=0)
    rows = [sorted(subset) + [min(subset)] * (width - len(subset)) for _, subset in sets]
    return SetFamily(n, [idx for idx, _ in sets], rows)


# The restart-loop extraction as it stood before the array rewrite, kept as
# the reference the array version must reproduce exactly.

class OracleFamily(NamedTuple):
    n: int
    sets: Tuple[Tuple[int, frozenset], ...]


def _oracle_measure_rho(fam: OracleFamily) -> Tuple[int, Fraction]:
    count = np.zeros(fam.n, dtype=np.int64)
    mass = 0
    for _, subset in fam.sets:
        mass += len(subset)
        for x in subset:
            count[x] += 1
    mult = int(count.max()) if len(fam.sets) else 1
    mult = max(mult, 1)
    rho = max(Fraction(0), 1 - Fraction(mass, mult * fam.n))
    return mult, rho


def oracle_extract(fam: OracleFamily, eps, target: Optional[int] = None) -> ExtractionResult:
    if not fam.sets:
        raise ValueError("empty family")
    eps = Fraction(eps)
    mult, rho = _oracle_measure_rho(fam)

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

    witnesses = []
    seen: set = set()
    for _, subset in selected:
        witnesses.append(frozenset(subset - seen))
        seen |= subset
    coverage = len(seen)
    ok = coverage >= (target if target is not None else eps * (1 - rho) * fam.n)
    return ExtractionResult(tuple(idx for idx, _ in selected), tuple(witnesses),
                            coverage, mult, rho, target, ok)


@st.composite
def ragged_families(draw):
    """Rows of 1..8 entries drawn with repetition, padded to the widest row
    by repeating their first entry."""
    n = draw(st.integers(1, 40))
    raw = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=8),
                        min_size=1, max_size=25))
    indices = draw(st.lists(st.integers(0, 30), min_size=len(raw), max_size=len(raw)))
    width = max(len(row) for row in raw)
    rows = [row + [row[0]] * (width - len(row)) for row in raw]
    return n, indices, rows


class TestExtraction:
    def test_disjoint_family_kept_whole(self):
        fam = family(10, ((0, frozenset({0, 1, 2})), (1, frozenset({5, 6}))))
        res = extract_eps_disjoint(fam, Fraction(1, 4))
        assert res.indices == (0, 1)
        assert res.witnesses == (frozenset({0, 1, 2}), frozenset({5, 6}))

    def test_duplicates_collapse(self):
        fam = family(10, ((0, frozenset({0, 1})), (1, frozenset({0, 1}))))
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
        sets = []
        for i in range(60):
            start = int(rng.integers(0, n - 30))
            width = int(rng.integers(5, 30))
            sets.append((i, frozenset(range(start, start + width))))
        fam = family(n, tuple(sets))
        res = extract_eps_disjoint(fam, eps)
        # witnesses pairwise disjoint and large
        seen = set()
        for (idx, _), wit in zip([sets[i] for i in res.indices], res.witnesses):
            assert not (wit & seen)
            seen |= wit
        for idx, wit in zip(res.indices, res.witnesses):
            full = dict(sets)[idx]
            assert len(wit) >= (1 - eps) * len(full)
        assert res.coverage >= eps * (1 - res.rho) * n

    def test_prune_to_target_minimal(self):
        sets = tuple((i, frozenset(range(10 * i, 10 * i + 10))) for i in range(10))
        fam = family(100, sets)
        res = extract_eps_disjoint(fam, Fraction(1, 4), target=30)
        assert res.coverage >= 30
        # minimality: dropping any selected set breaks the target
        for drop in range(len(res.indices)):
            rest = set()
            for q, idx in enumerate(res.indices):
                if q != drop:
                    rest |= dict(sets)[idx]
            assert len(rest) < 30

    @given(ragged_families(),
           st.fractions(0, 1, max_denominator=12),
           st.one_of(st.none(), st.integers(0, 45)))
    @settings(max_examples=300, deadline=None)
    def test_matches_restart_loop_oracle(self, case, eps, target):
        n, indices, rows = case
        expected = oracle_extract(
            OracleFamily(n, tuple((idx, frozenset(row)) for idx, row in zip(indices, rows))),
            eps, target)
        got = extract_eps_disjoint(SetFamily(n, indices, rows), eps, target)
        assert got == expected

    def test_sets_offered(self):
        fam = SetFamily(10, (4, 7, 1), ((0, 1), (2, 2), (9, 3)))
        assert len(fam.sets) == 3

    @pytest.mark.parametrize("rows", [((0, 10),), ((-1, 2),)])
    def test_element_outside_ground_set(self, rows):
        with pytest.raises(ValueError, match="outside the ground set"):
            SetFamily(10, (0,), rows)


class TestQuasiTile:
    def test_z_model_certificate(self):
        tiling = z_model_tiling()
        report = verify_tiling(tiling)
        assert report.passed

    def test_b_set_full_for_exact_model(self):
        tiling = z_model_tiling()
        assert tiling.b_size == 1000

    def test_degree_too_small(self):
        phi = interval_model(100, 3, 40)
        shapes = [a2_interval(w, 3) for w in WIDTHS]
        with pytest.raises(DegreeTooSmallError):
            quasi_tile(phi, shapes, Fraction(1, 4), Fraction(1, 4))

    def test_corrupted_block_rejected(self):
        n = 1000
        phi = interval_model(n, 3, 40)
        # corrupt half the ground set in one generator image
        key = BsElement(3, 0, 1, 0)
        img = phi.table[key].image.copy()
        img[:n // 2] = np.roll(img[:n // 2], 7)
        phi.table[key] = Permutation(img)
        shapes = [a2_interval(w, 3) for w in WIDTHS]
        with pytest.raises(CoarseApproximationError):
            quasi_tile(phi, shapes, Fraction(1, 4), Fraction(1, 4), n_threshold=n)

    def test_wrong_shape_count(self):
        phi = interval_model(1000, 3, 40)
        with pytest.raises(ValueError):
            quasi_tile(phi, [a2_interval(2, 3)], Fraction(1, 4), Fraction(1, 4),
                       n_threshold=1000)


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
        tiling = quasi_tile(phi, shapes, Fraction(1, 4), Fraction(1, 4),
                            n_threshold=10_000)
        assert verify_tiling(tiling).passed
