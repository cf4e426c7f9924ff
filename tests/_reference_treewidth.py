"""Branch-and-bound treewidth, kept beside the tests as an independent
check on `decomposition.exact_decomposition`."""

from treecut.decomposition import _adjacency_masks, _reach_bag
from treecut.errors import BudgetError
from treecut.instance import SparsestCutInstance


def treewidth_by_search(instance: SparsestCutInstance, bound: int = 10) -> int:
    """Independent treewidth check: branch-and-bound over elimination orders.

    Deliberately separate from the DP so the two can cross-validate.
    """
    n = instance.n
    if n > bound:
        raise BudgetError(f"search over {n} vertices exceeds bound {bound}",
                          limit=bound, requested=n)
    adj = _adjacency_masks(instance)
    full = (1 << n) - 1

    def greedy_upper() -> int:
        eliminated, width = 0, 0
        while eliminated != full:
            best_v, best_q = -1, n + 1
            for v in range(n):
                if (eliminated >> v) & 1:
                    continue
                q = _reach_bag(adj, eliminated, v).bit_count()
                if q < best_q:
                    best_q, best_v = q, v
            width = max(width, best_q)
            eliminated |= 1 << best_v
        return width

    best = greedy_upper()

    def dfs(eliminated: int, width_so_far: int):
        nonlocal best
        if width_so_far >= best:
            return
        if eliminated == full:
            best = width_so_far
            return
        for v in range(n):
            if (eliminated >> v) & 1:
                continue
            q = _reach_bag(adj, eliminated, v).bit_count()
            w = max(width_so_far, q)
            if w < best:
                dfs(eliminated | (1 << v), w)

    dfs(0, 0)
    return best
