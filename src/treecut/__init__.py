"""Sparsest cut on bounded-treewidth supply graphs.

A 2-approximation pipeline (lifted LP over a balanced tree decomposition,
propagation rounding, exact derandomization), generators for the
reduction constructions that make the problem hard, and brute-force
oracles that check every constructive claim at desk scale.
"""

from .instance import (Cut, SparsestCutInstance, Sparsity, connected_refinement,
                       evaluate_cut, format_instance, is_admissible, parse_instance)
from .decomposition import TreeDecomposition, balance, exact_decomposition, validate
from .relaxation import (LpProgram, SaSolution, SetFamily, build_maxcut_lp,
                         build_sparsestcut_lp, ratio_search)
from .simplex import LpResult, Simplex, solve
from .rounding import (DerandPotential, Embedding, RoundingState, derandomize,
                       embed_l1, sample_cut, sample_state)
from .oracle import (CutAudit, audit_cuts, exact_maxcut, exact_sparsest_cut,
                     sparsest_cut_by_elimination)
from .generators import (BipartiteUlc, MaxCutInstance, PoweredInstance, UlcInstance,
                         UgGadget, bipartite_to_cliques, building_block,
                         clique_product_maxcut_bound, dictator_cut, lift_cut,
                         power, ug_gadget)
from .lift import (LiftContext, gap_experiment, lift_distribution, lifted_value,
                   make_lift_context)
from .errors import BudgetError, InputError, InvariantError, TreecutError

__version__ = "0.1.0"
