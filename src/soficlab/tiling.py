"""Quasi-tiling of sofic approximations of an amenable group.

Given nested Folner shapes F_1 c ... c F_k and an approximation phi that is
exactly multiplicative and free on a large set B, the algorithm places
translated tiles phi(F_j)c level by level (j = k down to 1), extracting an
eps-disjoint subfamily at each level, and emits a certificate whose four
conclusions -- cross-level disjointness, per-tile injectivity,
eps-disjointness with a (1-eps)-cover, and per-level measure close to
lambda_j -- are independently recheckable from the raw data.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .bsgroup import BsElement, json_int
from .perm import Permutation
from .soficcheck import SoficApprox, congruence_solutions


class MissingDomainError(KeyError):
    """The approximation is not defined on all of F_k^-1 F_k."""


class CoarseApproximationError(ValueError):
    """The exactly-multiplicative-and-free set B is too small to tile from."""


# ---------------------------------------------------------------------------
# Parameter plan

@dataclass(frozen=True)
class PlanParams:
    eps: Fraction
    kappa: Fraction
    k: int
    lambdas: Tuple[Fraction, ...]   # lambdas[j-1] = eps (1-eps)^(k-j)


def plan_parameters(eps, kappa) -> PlanParams:
    """k = smallest value with (1-eps)^k <= eps/2; lambda_j = eps(1-sigma_{j+1})
    with lambda_k = eps, so lambda_j = eps(1-eps)^(k-j).

    With eps = p/q in lowest terms and r = q - p, (1-eps)^k = r^k / q^k, so
    k and the lambdas come from integer powers alone, and
    sigma_1 = lambda_1 + ... + lambda_k = 1 - r^k / q^k."""
    eps = Fraction(eps)
    kappa = Fraction(kappa)
    if not 0 < eps <= Fraction(1, 4):
        raise ValueError(f"eps={eps} outside (0, 1/4]")
    if kappa <= 0:
        raise ValueError(f"kappa={kappa} must be positive")
    p, q = eps.numerator, eps.denominator
    r = q - p
    # r_pow / q_pow = (1-eps)^k, compared with eps/2 = p / 2q
    k, r_pow, q_pow = 1, r, q
    while 2 * q * r_pow > p * q_pow:
        k, r_pow, q_pow = k + 1, r_pow * r, q_pow * q
    lambdas = tuple(Fraction(p * r ** i, q ** (i + 1)) for i in range(k - 1, -1, -1))
    # sigma_1 >= 1 - eps/2 is the loop's exit; sigma_1 <= 1 - eps/4 is
    # (1-eps)^k >= eps/4
    if 4 * q * r_pow < p * q_pow:
        raise AssertionError(f"sigma1 = {1 - Fraction(r_pow, q_pow)} outside "
                             f"[1 - eps/2, 1 - eps/4]")
    return PlanParams(eps, kappa, k, lambdas)


def _check_shapes(shapes: Sequence[Sequence[BsElement]], plan: PlanParams) -> None:
    """The plan's conditions on the Folner shapes F_1..F_k: k of them, none
    empty, none repeating a key, each inside the next, the identity in F_1."""
    if len(shapes) != plan.k:
        raise ValueError(f"need {plan.k} Folner shapes for eps={plan.eps}, got {len(shapes)}")
    for j, shape in enumerate(shapes, start=1):
        if not shape:
            raise ValueError(f"Folner shape F_{j} is empty")
        if len(set(shape)) != len(shape):
            raise ValueError(f"Folner shape F_{j} repeats a key")
    if not all(set(prev) <= set(cur) for prev, cur in zip(shapes, shapes[1:])):
        raise ValueError("Folner shapes are not nested")
    if not any(g.is_identity() for g in shapes[0]):
        raise ValueError("identity not in the first Folner shape")


# ---------------------------------------------------------------------------
# eps-disjoint extraction

@dataclass(frozen=True)
class SetFamily:
    """Subsets of the ground set {0..n-1}, all of one size: row i of sets
    holds the points of the i-th set offered, which must be distinct; only
    the range is checked.  The rows quasi_tile offers are phi(F_j)c for
    centers c in B, and _b_mask admits c to B only where the points phi(g)c,
    g in F_k, are distinct."""
    n: int
    sets: np.ndarray        # (|C|, w) int

    def __post_init__(self) -> None:
        sets = np.asarray(self.sets, dtype=np.int64)
        if sets.ndim != 2:
            raise ValueError(f"sets of shape {sets.shape} are not rows of one width")
        outside = (sets.min(axis=1) < 0) | (sets.max(axis=1) >= self.n)
        if outside.any():
            raise ValueError(f"set {np.argmax(outside)} has an element outside the ground set")
        object.__setattr__(self, "sets", sets)


@dataclass(frozen=True)
class ExtractionResult:
    indices: Tuple[int, ...]                # selected row positions, in selection order


def tile_cores(blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
    """For tile-point arrays taken in the order given, each row a tile, a
    mask per array marking every entry that is the first occurrence of its
    point.  A tile's core is the points no earlier tile covers; the row sums
    count them, and the cores of a family are pairwise disjoint."""
    flat = np.concatenate([b.ravel() for b in blocks])
    first = np.zeros(flat.size, dtype=bool)
    first[np.unique(flat, return_index=True)[1]] = True
    masks = np.split(first, np.cumsum([b.size for b in blocks])[:-1])
    return [mask.reshape(b.shape) for b, mask in zip(blocks, masks)]


def extract_eps_disjoint(fam: SetFamily, eps, target: Optional[int] = None) -> ExtractionResult:
    """Greedy eps-disjoint subfamily: row by row, a set is kept when
    ceil((1-eps) w) of its w points avoid everything already selected.

    With a coverage target, the selection is then pruned to minimality:
    latest first, drop every set whose removal keeps the union of the
    remaining sets at or above the target.  One reverse pass over per-point
    cover counts suffices because droppability is monotone: dropping a set
    only shrinks the union of the others, so a set that could not be dropped
    never becomes droppable later.  The pass therefore selects exactly what
    restarting from the latest set after every drop would.

    With a target, the greedy stops at the first kept set s_q that brings
    the union V(q+1) of s_0..s_q up to the target.  The prune of the full
    selection would drop every later set: with all sets after s_r dropped it
    sees only_here = V(r+1) - V(r), so it drops s_r iff V(r) >= target, true
    for every r > q.  It thus reaches s_q in the state a prune of s_0..s_q
    starts in, and selects the same sets.
    """
    if not len(fam.sets):
        raise ValueError("empty family")
    rows = fam.sets
    width = rows.shape[1]
    keep_at = ceil((1 - Fraction(eps)) * width)
    union = np.zeros(fam.n, dtype=bool)
    selected: List[int] = []
    covered = 0                 # |union|: the points of a set are distinct
    for i, row in enumerate(rows):
        fresh = width - np.count_nonzero(union[row])
        if fresh >= keep_at:
            selected.append(i)
            union[row] = True
            covered += fresh
            if target is not None and covered >= target:
                break

    if target is not None:
        cover = np.bincount(rows[selected].ravel(), minlength=fam.n)
        kept = []
        for i in reversed(selected):
            only_here = int(np.count_nonzero(cover[rows[i]] == 1))
            if covered - only_here >= target:
                cover[rows[i]] -= 1
                covered -= only_here
            else:
                kept.append(i)
        selected = kept[::-1]
    return ExtractionResult(tuple(selected))


# ---------------------------------------------------------------------------
# Tiling certificate

@dataclass(frozen=True)
class TileLevel:
    j: int
    shape: Tuple[BsElement, ...]  # F_j, sorted
    lam: Fraction
    centers: Tuple[int, ...]      # C_j, in selection order


@dataclass(frozen=True)
class Tiling:
    n: int
    eps: Fraction
    kappa: Fraction
    levels: Tuple[TileLevel, ...]          # ascending j
    table: Dict[BsElement, Permutation]    # permutations for every shape key
    b_size: int

    def __post_init__(self) -> None:
        for g, perm in self.table.items():
            if perm.n != self.n:
                raise ValueError(f"permutation for {g} has degree {perm.n} != {self.n}")
        for lvl in self.levels:
            outside = [c for c in lvl.centers if not 0 <= c < self.n]
            if outside:
                raise ValueError(f"level {lvl.j} has center {outside[0]} outside [0, {self.n})")
        plan = plan_parameters(self.eps, self.kappa)
        labels = [lvl.j for lvl in self.levels]
        if labels != list(range(1, plan.k + 1)):
            raise ValueError(f"levels labelled {labels}, but the plan for eps = {self.eps} "
                             f"has levels 1..{plan.k}")
        for lvl, lam in zip(self.levels, plan.lambdas):
            if lvl.lam != lam:
                raise ValueError(f"lambda_{lvl.j} = {lvl.lam} != {lam} from the plan")
        _check_shapes([lvl.shape for lvl in self.levels], plan)
        missing = {g for lvl in self.levels for g in lvl.shape} - self.table.keys()
        if missing:
            g = min(missing, key=BsElement.sort_key)
            raise ValueError(f"table has no permutation for shape key {g} "
                             f"({len(missing)} missing)")

    def to_json(self) -> str:
        """The certificate as JSON, byte for byte json.dumps of the whole
        object.  Every image is a permutation of 0..n-1, so it is written by
        indexing one table of the decimal strings of 0..n-1."""
        head = json.dumps({
            "n": self.n,
            "eps": [self.eps.numerator, self.eps.denominator],
            "kappa": [self.kappa.numerator, self.kappa.denominator],
            "key_kind": "element",
            "b_size": self.b_size,
            "levels": [{
                "j": lvl.j,
                "lam": [lvl.lam.numerator, lvl.lam.denominator],
                "shape": [g.to_obj() for g in lvl.shape],
                "centers": list(lvl.centers),
            } for lvl in self.levels],
        })
        digits = np.array([str(x) for x in range(self.n)], dtype=object)
        # one join over every piece, so the text is built once: the row texts
        # and the result are the only copies of the table held at one time
        pieces = [head[:-1], _TABLE_OPEN]
        for i, g in enumerate(sorted(self.table, key=BsElement.sort_key)):
            image = self.table[g].image
            # numpy would wrap a negative entry round to the end of digits
            if not (0 <= image.min() and image.max() < self.n):
                raise ValueError(f"permutation for {g} has an image outside [0, {self.n})")
            pieces += [_SEP + "[" if i else "[", json.dumps(g.to_obj()), _IMAGE_OPEN,
                       _SEP.join(digits[image].tolist()), _ROW_CLOSE]
        pieces.append(_TABLE_CLOSE)
        return "".join(pieces)

    @classmethod
    def from_json(cls, text: str) -> "Tiling":
        """Read a certificate.  Every integer field must be a JSON integer:
        a float or a string is rejected rather than converted, and so is a
        bool outside a table row (see _json_image).  A key listed twice is
        rejected too, whichever of its images would verify, and so is an
        object, list, level, key or table row of the wrong shape, or a zero
        denominator, by its field.  Each check runs once per level, key or
        row, never per table entry.

        Two routes read the text.  The canonical route takes text exactly
        as to_json writes it, with or without a trailing newline, and reads
        each image row with one numpy parse (_canonical_parts); the json
        route reads any text with json.loads.  The canonical route only
        returns a Tiling built by the same helpers from the values json.loads
        would give: its head is what json.loads reads and re-dumps to the
        same text, each key re-dumps to its own text, and each row is proven
        to be the decimal text of a permutation of 0..n-1 with no leading
        zero.  On any other text, or wherever a check or helper raises, it
        declines and the json route decides, so every verdict and every
        reason for a rejection is the json route's."""
        try:
            return cls._from_fields(*_canonical_parts(text))
        except Exception:
            pass    # declined, by a failed check or a helper's error: the json
                    # route below gives the verdict and its reason
        data = _json_object(json.loads(text), "certificate",
                            ("key_kind", "n", "eps", "kappa", "b_size", "levels", "table"))
        _check_key_kind(data)
        table: Dict[BsElement, Permutation] = {}
        for i, row in enumerate(_json_list(data["table"], "table")):
            if type(row) is not list or len(row) != 2:
                raise ValueError(f"table[{i}] is not a [key, image] pair")
            obj, img = row
            g = _json_key(obj, f"table[{i}] key")
            if g in table:
                raise ValueError(f"table lists key {g} twice")
            table[g] = _json_image(img, obj)
        return cls._from_fields(data, table)

    @classmethod
    def _from_fields(cls, data: dict, table: Dict[BsElement, Permutation]) -> "Tiling":
        """The certificate from its parsed head fields and its table."""
        levels = tuple(_json_level(lvl, f"levels[{i}]")
                       for i, lvl in enumerate(_json_list(data["levels"], "levels")))
        return cls(json_int(data["n"], "n"), _json_fraction(data["eps"], "eps"),
                   _json_fraction(data["kappa"], "kappa"), levels, table,
                   json_int(data["b_size"], "b_size"))


# The certificate text as to_json writes it: json.dumps of the head fields
# in _HEAD_FIELDS order with its closing brace dropped, then _TABLE_OPEN,
# the rows joined by _SEP, and _TABLE_CLOSE.  A row is "[", json.dumps of
# its key, _IMAGE_OPEN, the image's decimal entries joined by _SEP, and
# _ROW_CLOSE.
_HEAD_FIELDS = ("n", "eps", "kappa", "key_kind", "b_size", "levels")
_SEP = ", "
_TABLE_OPEN = _SEP + '"table": ['
_IMAGE_OPEN = _SEP + "["
_ROW_CLOSE = "]]"
_TABLE_CLOSE = "]}"


def _require(ok: bool) -> None:
    if not ok:
        raise ValueError("not the text Tiling.to_json writes")


def _canonical_parts(text: str) -> Tuple[dict, Dict[BsElement, Permutation]]:
    """The head fields and table of a certificate in exactly the text
    to_json writes, with or without a trailing newline; anything else
    raises.  The rows are walked by index in the text, which is never split
    or copied whole.

    Every entry of a permutation of 0..n-1 written in decimal makes a row of
    one length, the digits of 0..n-1 and n-1 separators, so each row is
    read at that length.  Its text must be n digit runs of 1 to 18 digits
    joined by _SEP: numpy parses only such text, where every run fits in
    int64.  The Permutation check that follows proves the entries are
    0..n-1, so their digits fill the row exactly and no run has a leading
    zero: the row is json.dumps of its entries."""
    end = len(text) - text.endswith("\n") - len(_TABLE_CLOSE)
    at = text.find(_TABLE_OPEN)
    _require(at >= 0 and text.startswith(_TABLE_CLOSE, end))
    head_text = text[:at] + "}"
    head = json.loads(head_text)
    _require(tuple(head) == _HEAD_FIELDS and json.dumps(head) == head_text)
    _check_key_kind(head)
    n = json_int(head["n"], "n")
    # the digits of 0..n-1, one per entry and one more per entry >= 10^w for
    # each 10^w <= n - 1, and n - 1 separators
    width = n + sum(n - 10 ** w for w in range(1, len(str(n - 1)))) + len(_SEP) * (n - 1)
    table: Dict[BsElement, Permutation] = {}
    last = None
    at += len(_TABLE_OPEN)
    while True:
        _require(text.startswith("[", at))
        key_end = text.index("}", at) + 1
        key_text = text[at + 1:key_end]
        g = _json_key(json.loads(key_text), "key")
        # to_json writes the keys in ascending sort_key, so none twice
        _require(json.dumps(g.to_obj()) == key_text and (last is None or last < g.sort_key())
                 and text.startswith(_IMAGE_OPEN, key_end))
        last = g.sort_key()
        at = key_end + len(_IMAGE_OPEN) + width
        _require(text.startswith(_ROW_CLOSE, at))
        table[g] = Permutation(_digit_row(text[at - width:at], n))
        at += len(_ROW_CLOSE)
        if not text.startswith(_SEP, at):
            break
        at += len(_SEP)
    _require(at == end)
    return head, table


def _digit_row(row: str, n: int) -> np.ndarray:
    """row as n int64 entries, when it is n runs of 1 to 18 ASCII digits
    joined by _SEP; anything else raises before numpy parses it."""
    raw = row.encode("ascii")
    _require(_is_digit_row(raw, n))
    # numpy skips the space before each entry itself, and matches a
    # separator with whitespace in it more slowly
    return np.fromstring(raw, dtype=np.int64, sep=_SEP.strip())


def _is_digit_row(raw: bytes, n: int) -> bool:
    """Whether no byte of raw lies above "9" and its bytes below "0" are
    n - 1 commas and a space right after each, so they make n - 1 whole
    separators _SEP, with 1 to 18 digits before, between and after them: a
    run of 19 may not fit in int64.  A function of its own, so that its
    arrays are freed before the parse."""
    text = np.frombuffer(raw, dtype=np.uint8)
    comma, space = map(ord, _SEP)
    commas = np.flatnonzero(text == comma)
    # comma to comma, from one before the row to one past it: the stride
    # checks come first, so that no comma is the row's last byte
    strides = np.diff(commas, prepend=-len(_SEP), append=len(raw))
    return bool(len(commas) == n - 1 and text.max(initial=0) <= ord("9")
                and np.count_nonzero(text < ord("0")) == len(_SEP) * (n - 1)
                and strides.min() >= len(_SEP) + 1 and strides.max() <= len(_SEP) + 18
                and (text[1:][commas] == space).all())     # the byte after each comma


def _check_key_kind(data: dict) -> None:
    if data["key_kind"] != "element":
        raise ValueError(f"unsupported key kind {data['key_kind']!r}")


def _json_level(lvl, field: str) -> TileLevel:
    lvl = _json_object(lvl, field, ("j", "lam", "shape", "centers"))
    j = json_int(lvl["j"], "j")
    center = f"level {j} center"
    shape = enumerate(_json_list(lvl["shape"], f"{field}.shape"))
    centers = _json_list(lvl["centers"], f"{field}.centers")
    return TileLevel(j, tuple(_json_key(obj, f"{field}.shape[{q}]") for q, obj in shape),
                     _json_fraction(lvl["lam"], "lam"),
                     tuple(json_int(c, center) for c in centers))


def _json_object(obj, field: str, keys: Sequence[str]) -> dict:
    """obj, when it is a JSON object holding every one of keys."""
    if type(obj) is not dict:
        raise ValueError(f"{field} is not a JSON object")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"{field} has no field {missing[0]!r}")
    return obj


def _json_list(obj, field: str) -> list:
    if type(obj) is not list:
        raise ValueError(f"{field} is not a JSON list")
    return obj


def _json_key(obj, field: str) -> BsElement:
    return BsElement.from_obj(_json_object(obj, field, ("m", "e", "num", "d")))


def _json_fraction(pair, field: str) -> Fraction:
    if type(pair) is not list or len(pair) != 2:
        raise ValueError(f"{field} = {pair!r} is not a [numerator, denominator] pair")
    num, den = (json_int(x, field) for x in pair)
    if den == 0:
        raise ValueError(f"{field} = {pair!r} has denominator 0")
    return Fraction(num, den)


def _json_image(row, key) -> Permutation:
    """A table row as a permutation.  array("q") takes Python ints within
    int64 and nothing else, so a float, a string or a larger integer raises
    where numpy's int64 cast would truncate or parse it; a bool, which
    Python counts as an int, still reads as 0 or 1."""
    try:
        image = array("q", row)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"table image for {key} holds an entry that is not "
                         f"a JSON integer ({exc})") from None
    return Permutation(image)


def shape_images(table: Dict[BsElement, Permutation], shape: Sequence[BsElement]) -> np.ndarray:
    """(|F|, n): row q is the image of the q-th key, so the tile at c is column c."""
    return np.stack([table[g].image for g in shape])


def level_points(t: Tiling) -> List[np.ndarray]:
    """Per level, ascending j: a (|C_j|, |F_j|) array whose row q holds the
    points phi(g)c of the q-th center c, g in shape order.  Each key's image
    is read at the level's centers alone."""
    points = []
    for lvl in t.levels:
        centers = np.asarray(lvl.centers, dtype=np.int64)
        points.append(np.stack([t.table[g].image[centers] for g in lvl.shape]).T)
    return points


# ---------------------------------------------------------------------------
# The tiling algorithm

@dataclass(frozen=True)
class ProductGrid:
    """F^-1 F for one shape F, sorted by BsElement.sort_key: rows[i][j] =
    F[i]^-1 F[j], and keys the set of every product.  It is the domain a
    tiling from top shape F reads phi on, so callers tabulate phi on keys
    and hand the grid to quasi_tile."""
    shape: Tuple[BsElement, ...]
    rows: List[List[BsElement]]
    keys: frozenset


def inverse_products(F: Iterable[BsElement]) -> ProductGrid:
    """The grid F^-1 F of the sorted F; each element of F is inverted once."""
    shape = tuple(sorted(F, key=BsElement.sort_key))
    rows = [[g_inv * h for h in shape] for g_inv in (g.inverse() for g in shape)]
    return ProductGrid(shape, rows, frozenset().union(*rows))


def _b_mask(phi: SoficApprox, grid: ProductGrid) -> np.ndarray:
    """The points x at which phi is exactly multiplicative on F_k^-1 F_k,
    phi(g) phi(g^-1 h) x = phi(h) x for all g, h in F_k = grid.shape, and
    free there, phi(g^-1 h) x != x for g != h.  F_k holds the identity, so
    the grid of products g^-1 h contains F_k itself.

    Given multiplicativity and phi(g) a bijection, phi(g^-1 h) x = x
    exactly when phi(g) x = phi(h) x: freeness is the |F_k| points phi(g) x
    being distinct.  On affine permutations, B is read off O(|F_k|^2)
    linear congruences (_affine_b_mask).  On a table relabelled by one
    sigma, psi(g) = sigma phi(g) sigma^-1, each equation and each freeness
    test at x is the base's at sigma^-1 x (see SoficApprox.conjugated), so
    B = sigma(B of phi): the base's mask read at sigma^-1.  Otherwise B is
    read by comparing images.

    The pair (e, e) reads phi(e) phi(e) x = phi(e) x, so phi(e) x = x for
    every x in B: a center in B lies in its own tile phi(F_j)x, as every F_j
    holds the identity.  quasi_tile relies on this to scan only the
    uncovered B-points for centers."""
    missing = grid.keys - phi.table.keys()
    if missing:
        raise MissingDomainError(f"approximation undefined on {len(missing)} keys of F_k^-1 F_k")
    if phi.is_affine():
        return _affine_b_mask(phi, grid)
    relabelled = phi.relabelling()
    if relabelled is not None:
        base, _, sigma_inv = relabelled
        return _b_mask(base, grid)[sigma_inv.image]
    imgs = shape_images(phi.table, grid.shape)
    mask = np.ones(phi.n, dtype=bool)
    for img_g, row in zip(imgs, grid.rows):
        for img_h, p in zip(imgs, row):
            mask &= img_g[phi.table[p].image] == img_h
    imgs.sort(axis=0)
    mask &= (imgs[1:] != imgs[:-1]).all(axis=0)
    return mask


def _affine_b_mask(phi: SoficApprox, grid: ProductGrid) -> np.ndarray:
    """_b_mask where phi(g) x = a_g x - b_g.  For p = g^-1 h, phi(g) phi(p)
    is x -> a_g a_p x - (a_g b_p + b_g): where that form differs from h's,
    B keeps only the solutions of (a_g a_p - a_h) x = a_g b_p + b_g - b_h.
    For g != h, B drops the solutions of (a_g - a_h) x = b_g - b_h.  When
    every pair composes exactly, as for a homomorphism, the only n-sized
    work is marking those solutions."""
    n, table = phi.n, phi.table
    mask = np.ones(n, dtype=bool)
    shape = [table[g] for g in grid.shape]
    for g, row in zip(shape, grid.rows):
        for h, key in zip(shape, row):
            p = table[key]
            A, B = g.a * p.a - h.a, g.a * p.b + g.b - h.b
            if A % n or B % n:
                agree = np.zeros(n, dtype=bool)
                solutions = congruence_solutions(A, B, n)
                if solutions is not None:
                    agree[solutions[0]::solutions[1]] = True
                mask &= agree
    for i, g in enumerate(shape):
        for h in shape[i + 1:]:
            solutions = congruence_solutions(g.a - h.a, g.b - h.b, n)
            if solutions is not None:
                mask[solutions[0]::solutions[1]] = False
    return mask


def quasi_tile(phi: SoficApprox, folner_seq: Sequence[Iterable[BsElement]], grid: ProductGrid,
               eps, kappa, *, delta_prime=Fraction(1, 8), maximal: bool = False,
               center_order: Optional[Sequence[int]] = None) -> Tiling:
    """Place tiles phi(F_j)c for j = k down to 1.

    B is the set of points where phi is exactly multiplicative and free on
    F_k; at each level the available centers are the B-points whose tile
    avoids everything already placed, and an eps-disjoint subfamily is
    extracted with coverage target eps * |B_j|, pruned to minimality.

    folner_seq must meet the plan's shape conditions (_check_shapes): k
    nested, non-empty shapes with the identity in the first.  grid must be
    inverse_products of the top shape F_k, and phi defined on its keys.

    maximal=True keeps the full greedy selection at every level instead of
    pruning to the eps * |B_j| coverage target.  That mode packs as much of
    the ground set as possible -- useful when the tiling feeds a conjugator
    -- but gives up the per-level measure bounds of the certificate.

    center_order is the order in which the greedy tries the points as
    centers (a permutation of 0..n-1, highest priority first) instead of
    ascending point index.  An order derived from the orbit structure of a
    generator image makes the construction equivariant under relabeling,
    which a conjugator build exploits.
    """
    plan = plan_parameters(eps, kappa)
    eps, kappa = plan.eps, plan.kappa
    shapes = [tuple(sorted(F, key=BsElement.sort_key)) for F in folner_seq]
    _check_shapes(shapes, plan)
    if grid.shape != shapes[-1]:
        raise ValueError("product grid was not built from the top Folner shape")

    b_mask = _b_mask(phi, grid)
    n = phi.n
    order = np.arange(n)
    if center_order is not None:
        order = np.asarray(center_order, dtype=np.int64)
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("center_order must be a permutation of 0..n-1")
    b_size = int(np.count_nonzero(b_mask))
    if b_size < (1 - Fraction(delta_prime)) * n:
        raise CoarseApproximationError(
            f"approximation too coarse: |B| = {b_size} < (1 - {delta_prime}) * {n}")

    covered = np.zeros(n, dtype=bool)
    levels: List[TileLevel] = []
    for j in range(plan.k, 0, -1):
        shape = shapes[j - 1]
        # a center lies in its own tile (see _b_mask), so only uncovered
        # B-points can be centers; a candidate is one when its whole tile is
        # uncovered
        cand = order[(b_mask & ~covered)[order]]
        imgs = np.empty((len(shape), len(cand)), dtype=np.int64)
        for q, g in enumerate(shape):
            imgs[q] = phi.table[g].image[cand]
        free = ~covered[imgs].any(axis=0)
        centers, imgs = cand[free], imgs[:, free]
        if not len(centers):
            if not maximal:
                raise CoarseApproximationError(f"no available centers at level {j}")
            levels.append(TileLevel(j, shape, plan.lambdas[j - 1], ()))
            continue
        target = None if maximal else ceil(eps * len(centers))
        picked = list(extract_eps_disjoint(SetFamily(n, imgs.T), eps, target=target).indices)
        covered[imgs[:, picked]] = True
        levels.append(TileLevel(j, shape, plan.lambdas[j - 1], tuple(centers[picked].tolist())))

    levels.reverse()
    table = {g: phi.table[g] for shape in shapes for g in shape}
    return Tiling(n, eps, kappa, tuple(levels), table, b_size)


# ---------------------------------------------------------------------------
# Independent verification

@dataclass(frozen=True)
class LevelMeasure:
    j: int
    ratio: Fraction         # |phi(F_j) C_j| / n
    low: Fraction           # (1 - kappa) lambda_j
    high: Fraction          # (1 + kappa) lambda_j
    ok: bool


@dataclass(frozen=True)
class TilingReport:
    disjoint_ok: bool                    # (1) cross-level disjointness
    injective_ok: bool                   # (2) s -> phi(s)c injective per tile
    eps_disjoint_ok: bool                # (3a) family is eps-disjoint
    cover_ratio: Fraction                # |union| / n
    cover_ok: bool                       # (3b) >= 1 - eps
    measures: Tuple[LevelMeasure, ...]   # (4) per-level bounds
    measure_ok: bool
    passed: bool


def verify_tiling(t: Tiling) -> TilingReport:
    """Recheck all four conclusions from the centers and the permutation
    table alone; nothing from the construction run is trusted.  Tiles are
    replayed level by level, ascending j, centers in order."""
    n = t.n
    blocks = level_points(t)
    injective_ok = all((np.diff(np.sort(b, axis=1), axis=1) != 0).all() for b in blocks)
    eps_disjoint_ok = all((core.sum(axis=1) >= ceil((1 - t.eps) * b.shape[1])).all()
                          for b, core in zip(blocks, tile_cores(blocks)))
    # a level's union as a mask over the ground set: the levels are disjoint
    # exactly when their union sizes sum to the size of the union of all
    level_masks = [np.bincount(b.ravel(), minlength=n) > 0 for b in blocks]
    level_sizes = [int(np.count_nonzero(mask)) for mask in level_masks]
    union_size = int(np.count_nonzero(np.logical_or.reduce(level_masks)))
    disjoint_ok = union_size == sum(level_sizes)

    cover_ratio = Fraction(union_size, n)
    cover_ok = cover_ratio >= 1 - t.eps

    measures = []
    for lvl, size in zip(t.levels, level_sizes):
        ratio = Fraction(size, n)
        low = (1 - t.kappa) * lvl.lam
        high = (1 + t.kappa) * lvl.lam
        measures.append(LevelMeasure(lvl.j, ratio, low, high, low <= ratio <= high))
    measure_ok = all(m.ok for m in measures)

    passed = disjoint_ok and injective_ok and eps_disjoint_ok and cover_ok and measure_ok
    return TilingReport(disjoint_ok, injective_ok, eps_disjoint_ok,
                        cover_ratio, cover_ok, tuple(measures), measure_ok, passed)
