"""Executable finitary experiments around sofic approximations, quasi-tilings,
Baumslag-Solitar arithmetic models, exponential-map cycle statistics and
locally-exponential bijections of Z/nZ."""

__version__ = "0.1.0"

from .perm import Permutation, HammingValue, hamming, periodic_points
from .bsgroup import BsElement, bs_identity, bs_a1, bs_a2, canonical_word
from .soficcheck import SoficApprox, ArithmeticModel, check_sofic, eval_word, amplify
from .tiling import plan_parameters, quasi_tile, verify_tiling, Tiling
from .conjugacy import build_conjugator, conjugacy_defect
from .expcycles import ExpMap, exp_map, count_k_periodic, cycle_census
from .localexp import ZnFunction, defect_report, search_local_exp
from .heuristics import p_sequence

__all__ = [
    "Permutation", "HammingValue", "hamming", "periodic_points",
    "BsElement", "bs_identity", "bs_a1", "bs_a2", "canonical_word",
    "SoficApprox", "ArithmeticModel", "check_sofic", "eval_word", "amplify",
    "plan_parameters", "quasi_tile", "verify_tiling", "Tiling",
    "build_conjugator", "conjugacy_defect",
    "ExpMap", "exp_map", "count_k_periodic", "cycle_census",
    "ZnFunction", "defect_report", "search_local_exp",
    "p_sequence",
]
