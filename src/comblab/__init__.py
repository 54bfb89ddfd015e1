"""comblab: checkers, witnesses, and transforms for comb-, grid-, and
cograph-indexed consistency patterns, with brute-force oracles for
machine-checking the structural lemmas at desk scale."""

from .combs import (CombClass, CombCertificate, OMEGA, SplitKind, SplitWitness,
                    classify_pair, enumerate_combs, is_binary_right_comb,
                    is_comb, split_relation)
from .cographs import (Cotree, Graph, P4Certificate, comb_graph, cotree_of,
                       embed_cograph, eval_cotree, find_p4,
                       graph_to_weave_oracle, random_cotree,
                       weave_to_graph_oracle)
from .errors import ArgumentError, ComblabError, ParseError, ResourceError
from .genericity import (ChainStep, DensePredicate, DensityError,
                         RequirementPoset, generic_chain)
from .index_core import Node, decode, encode, enumerate_level
from .patterns import (PredicateOracle, Report, SetSystem, Template, Violation,
                       check_graph_pattern, check_grid, check_weave,
                       consistent, graph_witness, grid_witness, k_inconsistent,
                       realizable, triangle_free_demo, weave_witness)
from .transforms import (EpsCoord, IndexMap, epsilon_scale, grid_embed_index,
                         grid_to_weave, pullback, strongify_index,
                         strongify_weave)

__version__ = "0.1.0"
