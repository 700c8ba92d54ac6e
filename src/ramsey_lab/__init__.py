"""Loose-path and loose-cycle Ramsey combinatorics at desk scale.

Templates and colorings live in `core` and `coloring`; embedding search,
copy counting and maximality in `embedder`; the proof-procedure algorithms
in `constructive`; arrowing decisions, Ramsey computations and DIMACS
export in `prover`; certificates in `certificates`; the command line in
`cli`.  Every file is written through `core.atomic_write`.
"""

__version__ = "0.1.0"

from .coloring import TwoColoring, edge_rank, lower_bound_witness, split_coloring
from .core import LooseTemplate, cycle_template, path_template
from .embedder import (
    Embedding,
    count_copies,
    find_embedding,
    is_maximal_wrt,
    verify_embedding,
)
from .constructive import (
    AbsorptionResult,
    BichromaticPair,
    GoodConfiguration,
    JoinTrace,
    absorb_blue_path,
    adjacent_bichromatic_pair,
    blue_cycle_from_red_shorter_cycle,
    case2_blue_cycle,
    disjoint_bichromatic_pairs,
    find_good_configuration,
    join_red_cycles,
    lift_blue_c4,
    to_certificate,
    validate_good_configuration,
)
from .certificates import Certificate, make_certificate
from .errors import HypothesisViolation, ProofGap, SearchBudgetExceeded
from .prover import (
    compute_ramsey,
    decide_arrowing,
    derive_table,
    export_dimacs,
    verify_certificate,
)

__all__ = [
    "LooseTemplate", "path_template", "cycle_template",
    "TwoColoring", "split_coloring", "edge_rank", "lower_bound_witness",
    "Embedding",
    "find_embedding", "count_copies", "is_maximal_wrt", "verify_embedding",
    "GoodConfiguration", "validate_good_configuration",
    "find_good_configuration", "AbsorptionResult", "absorb_blue_path",
    "case2_blue_cycle", "blue_cycle_from_red_shorter_cycle",
    "JoinTrace", "join_red_cycles",
    "BichromaticPair", "adjacent_bichromatic_pair",
    "disjoint_bichromatic_pairs", "lift_blue_c4",
    "Certificate", "make_certificate", "to_certificate", "verify_certificate",
    "decide_arrowing", "compute_ramsey", "derive_table", "export_dimacs",
    "HypothesisViolation", "ProofGap", "SearchBudgetExceeded",
    "__version__",
]
