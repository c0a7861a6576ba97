"""COST04: Dinh & Demmel communication lower-bound certification.

For projective nested loops ("Communication-Optimal Tilings for
Projective Nested Loops with Arbitrary Dimension", Dinh & Demmel),
any execution that partitions ``V`` iteration points per processor
step must move ``Omega(V^{(q-1)/q})`` words per tile, where ``q`` is
the number of dimensions that carry flow across the partition.  In
this pipeline the per-tile picture is explicit: a full tile of volume
``V`` communicates a slab of reach ``r_k = max_l d'_kl`` across every
non-mapping face ``k`` with ``r_k > 0``, i.e. ``face_k = r_k * V /
v_k`` elements.  The tightest shape-independent bound with the same
dependence reaches is the AM-GM floor of those faces:

    q_lb = |K| * (prod_k face_k)^(1/|K|)
         = |K| * (prod_k r_k)^(1/|K|) * V^((|K|-1)/|K|)
           / (prod_k v_k / V)^(1/|K|) ... evaluated per shape as the
           geometric mean of the faces,

with ``K = {k != m : r_k > 0}``.  Equality holds exactly when the
faces are balanced (``r_k / v_k`` equal) — the communication-optimal
aspect ratio.  A shape whose actual per-tile communication exceeds
``factor * q_lb`` earns a COST04 warning naming the dominating
dimension and the rescaling direction that shrinks it.

The bound carries a built-in self-check (AM-GM: the floor can never
exceed the face sum it floors).  A miscomputed constant — the
``bad_lower_bound_constant`` mutation doubles it — breaks that
inequality on balanced shapes and is rejected with a COST04 error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.runtime.rankstep import pack_region

if TYPE_CHECKING:
    from repro.runtime.executor import TiledProgram


@dataclass(frozen=True)
class LowerBound:
    """The closed-form bound evaluation for one tile shape."""

    applicable: bool                    # some non-mapping dim communicates
    dims: Tuple[int, ...]               # K: communicating dims (k != m)
    faces: Tuple[float, ...]            # face_k = r_k * V / v_k, k in K
    bound_elements: float               # q_lb (per tile, per array)
    face_sum: float                     # sum of faces (AM >= GM check)
    actual_elements: int                # interior-tile comm (per array)
    worst_dim: int                      # argmax face_k, -1 if n/a
    selfcheck_ok: bool                  # q_lb <= face_sum (+eps)


def communication_lower_bound(program: "TiledProgram",
                              mutation: Optional[str] = None,
                              ) -> LowerBound:
    """Evaluate the per-tile lower bound and the shape's actual comm.

    ``actual_elements`` counts one interior tile's outgoing pack
    regions over every processor direction (per array — multiply by
    the array count for bytes), the same quantity the per-edge COST01
    totals aggregate.
    """
    comm = program.comm
    ttis = program.tiling.ttis
    m = comm.m
    vol = float(ttis.tile_volume)
    dims = tuple(k for k in range(program.n)
                 if k != m and comm.max_dp[k] > 0)
    if not dims or vol <= 0:
        return LowerBound(applicable=False, dims=dims, faces=(),
                          bound_elements=0.0, face_sum=0.0,
                          actual_elements=0, worst_dim=-1,
                          selfcheck_ok=True)
    faces = tuple(comm.max_dp[k] * vol / ttis.v[k] for k in dims)
    q = len(dims)
    gm = 1.0
    for f in faces:
        gm *= f
    gm **= 1.0 / q
    bound = q * gm
    if mutation == "bad_lower_bound_constant":
        # Seeded bug: an inflated constant is no longer a floor.
        bound *= 2.0
    face_sum = float(sum(faces))
    actual = sum(int(pack_region(program, comm.send_direction(dm)).sum())
                 for dm in comm.d_m)
    worst = dims[max(range(q), key=lambda i: faces[i])]
    selfcheck_ok = bound <= face_sum * (1.0 + 1e-12)
    return LowerBound(applicable=True, dims=dims, faces=faces,
                      bound_elements=bound, face_sum=face_sum,
                      actual_elements=actual, worst_dim=worst,
                      selfcheck_ok=selfcheck_ok)
