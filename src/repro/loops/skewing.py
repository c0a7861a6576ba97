"""Loop skewing: unimodular relabelling that makes dependencies non-negative.

SOR and Jacobi (paper §4.1, §4.2) have dependence vectors with negative
components, so they cannot be rectangularly tiled as written; skewing by
a unimodular ``T`` maps the iteration space to ``T J^n`` and each
dependence to ``T d``.  Rectangular tiling of the skewed nest is legal
when every skewed dependence is componentwise non-negative.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence, Tuple

from repro.linalg.ratmat import RatMat
from repro.linalg.unimodular import is_unimodular, integer_inverse
from repro.loops.nest import LoopNest, Statement
from repro.loops.reference import ArrayRef


def skewed_dependences(t: RatMat,
                       deps: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Apply ``T`` to each dependence vector, requiring integral images."""
    out = []
    for d in deps:
        img = t.matvec(d)
        if any(x.denominator != 1 for x in img):
            raise ValueError(f"T d is not integral for d={tuple(d)}")
        out.append(tuple(int(x) for x in img))
    return tuple(out)


def is_legal_skew(t: RatMat, deps: Sequence[Sequence[int]]) -> bool:
    """Unimodular and every skewed dependence componentwise >= 0."""
    if not is_unimodular(t):
        return False
    try:
        sk = skewed_dependences(t, deps)
    except ValueError:
        return False
    return all(all(x >= 0 for x in d) for d in sk)


def skew_nest(nest: LoopNest, t: RatMat) -> LoopNest:
    """Return the skewed nest over ``T J^n`` with dependences ``T d``.

    Array references are rewritten so they index the *same cells* as
    before: a reference ``A[F j + f]`` evaluated at original point ``j``
    becomes ``A[(F T^{-1}) y + f]`` at skewed point ``y = T j`` — this is
    how the paper's skewed SOR/Jacobi code indexes arrays with
    expressions like ``A[i-t, j-2t]``.  Kernel exprs are unchanged (they
    see read values, not indices).
    """
    if not is_unimodular(t):
        raise ValueError("skewing matrix must be unimodular")
    t_inv = integer_inverse(t)
    new_domain = nest.domain.preimage(t_inv)

    def rewrite(ref: ArrayRef) -> ArrayRef:
        return ArrayRef(
            array=ref.array,
            offset=ref.offset,
            matrix=ref.access_matrix() @ t_inv,
        )

    new_statements = tuple(
        Statement(
            write=rewrite(s.write),
            reads=tuple(rewrite(r) for r in s.reads),
            expr=s.expr,
        )
        for s in nest.statements
    )
    return LoopNest(
        name=f"{nest.name}_skewed",
        domain=new_domain,
        statements=new_statements,
        dependences=skewed_dependences(t, nest.dependences),
    )


def find_skew_for_rectangular_tiling(
    deps: Sequence[Sequence[int]],
    max_coeff: int = 3,
) -> Optional[RatMat]:
    """Search for a lower-triangular unit-diagonal skew ``T`` with ``T d >= 0``.

    This automates the manual choice the paper makes for SOR/Jacobi.
    The search space is lower-triangular matrices with unit diagonal and
    sub-diagonal coefficients in ``[0, max_coeff]`` — such matrices are
    always unimodular, and for uniform stencils small coefficients
    suffice.  Returns the matrix minimizing the coefficient sum, or
    ``None`` if none works within the budget.
    """
    if not deps:
        raise ValueError("no dependence vectors")
    n = len(deps[0])
    slots = [(i, j) for i in range(n) for j in range(i)]
    best: Optional[RatMat] = None
    best_cost = None
    for combo in product(range(max_coeff + 1), repeat=len(slots)):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), c in zip(slots, combo):
            rows[i][j] = c
        t = RatMat(rows)
        if is_legal_skew(t, deps):
            cost = sum(combo)
            if best_cost is None or cost < best_cost:
                best, best_cost = t, cost
    return best
