"""The factor-2 pipeline as one call, its guarantees checked exactly.

balance -> ratio_search -> derandomize -> evaluate_cut.  The steps are
called through this module's names, once each per solve, so a caller can
substitute or wrap any one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .decomposition import TreeDecomposition, balance, exact_decomposition
from .errors import InvariantError
from .instance import Cut, SparsestCutInstance, Sparsity, evaluate_cut
from .relaxation import RatioSearchResult, ratio_search
from .rounding import DerandPotential, derandomize


@dataclass(frozen=True)
class PipelineResult:
    dec: TreeDecomposition  # the balanced decomposition the LP was built on
    lp: RatioSearchResult
    cut: Cut
    potential: DerandPotential
    sparsity: Sparsity

    def guarantees(self) -> dict:
        """The paper's run-time guarantees, each as an exact comparison."""
        trace = self.potential.trace
        ratio = self.sparsity.ratio
        return {
            "potential_trace_monotone": self.potential.nonincreasing(),
            "final_potential_nonpositive": not trace or trace[-1] <= 0,
            "sparsity_within_2lp": ratio is not None and ratio <= 2 * self.lp.ratio,
        }


def solve(instance: SparsestCutInstance,
          dec: Optional[TreeDecomposition] = None) -> PipelineResult:
    """Derandomized cut of sparsity at most 2 * LP ratio, with its witnesses.

    dec defaults to the exact minimum-width decomposition; either way it is
    balanced first.  Raises InvariantError when a guarantee fails.
    """
    dec = balance(dec if dec is not None else exact_decomposition(instance))
    lp = ratio_search(instance, dec)
    cut, potential = derandomize(instance, lp.solution, dec, lp.alpha, lp.lp_value)
    result = PipelineResult(dec, lp, cut, potential, evaluate_cut(instance, cut))
    failed = [name for name, ok in result.guarantees().items() if not ok]
    if failed:
        final = potential.trace[-1] if potential.trace else None
        raise InvariantError(f"guarantee failed: {', '.join(failed)} (cut sparsity "
                             f"{result.sparsity.ratio}, lp ratio {lp.ratio}, "
                             f"final potential {final})")
    return result
