"""Executable finitary experiments around sofic approximations, quasi-tilings,
Baumslag-Solitar arithmetic models, exponential-map cycle statistics and
locally-exponential bijections of Z/nZ."""

__version__ = "0.1.0"

from .perm import Permutation, HammingValue, hamming
from .bsgroup import BsElement, bs_a1, bs_a2
from .soficcheck import SoficApprox, ArithmeticModel, check_sofic, amplify
from .tiling import plan_parameters, quasi_tile, verify_tiling, Tiling
from .conjugacy import build_conjugator, conjugacy_defect
from .expcycles import ExpMap, Workspace, exp_map, count_k_periodic, cycle_census
from .localexp import defect_report, search_local_exp
from .heuristics import p_sequence

__all__ = [
    "Permutation", "HammingValue", "hamming",
    "BsElement", "bs_a1", "bs_a2",
    "SoficApprox", "ArithmeticModel", "check_sofic", "amplify",
    "plan_parameters", "quasi_tile", "verify_tiling", "Tiling",
    "build_conjugator", "conjugacy_defect",
    "ExpMap", "Workspace", "exp_map", "count_k_periodic", "cycle_census",
    "defect_report", "search_local_exp",
    "p_sequence",
]
