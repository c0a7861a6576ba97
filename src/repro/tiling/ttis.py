"""The Transformed Tile Iteration Space (TTIS) — paper §2.3.

The original tile (TIS) is a parallelepiped; traversing it directly
needs expensive runtime bound evaluation.  The paper's trick (from their
SAC 2002 work, ref [7]) transforms the tile into a *rectangle*:

* ``V`` is the diagonal integer matrix with ``v_kk`` the smallest
  positive integer making ``v_kk * h_k`` integral;
* ``H' = V @ H`` is then an integer (generally non-unimodular) matrix,
  ``P' = H'^{-1}``;
* a tile point ``j`` maps to ``j' = H' (j - P j^S)`` which lies in the
  rectangle ``0 <= j'_k < v_kk`` — but only on the lattice ``H' Z^n``;
* the column Hermite Normal Form ``H̃' = H' U`` (lower triangular) gives
  the loop strides ``c_k = h̃'_kk`` and the incremental offsets
  ``a_kl = h̃'_kl`` needed to walk exactly the lattice points.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.linalg.hermite import column_hnf
from repro.linalg.ratmat import RatMat, diag
from repro.polyhedra.fourier_motzkin import IntegerBound
from repro.polyhedra.integer_points import sweep


class TTIS:
    """Rectangularized tile geometry derived from a tiling matrix ``H``."""

    def __init__(self, h: RatMat) -> None:
        if not h.is_square():
            raise ValueError("tiling matrix must be square")
        self.h = h
        self.n = h.nrows
        v_diag = h.denominator_lcm_per_row()
        self.v = tuple(int(x) for x in v_diag)
        self.vmat = diag(self.v)
        self.h_prime = self.vmat @ h
        if not self.h_prime.is_integer():
            raise AssertionError("V H must be integral by construction of V")
        self.p_prime = self.h_prime.inverse()
        hnf, u = column_hnf(self.h_prime)
        self.hnf = hnf          # the paper's H̃'
        self.u = u              # unimodular: H' @ U = H̃'
        hnf_int = hnf.to_int_rows()
        self.c = tuple(hnf_int[k][k] for k in range(self.n))      # strides
        self.offsets = tuple(
            tuple(hnf_int[k][l] for l in range(k)) for k in range(self.n)
        )                                                          # a_kl
        det_hp = abs(int(self.h_prime.det()))
        self.det_h_prime = det_hp
        # Rows of lattice points per dimension inside the TTIS rectangle.
        for k in range(self.n):
            if self.v[k] % self.c[k] != 0:
                raise ValueError(
                    f"stride c_{k}={self.c[k]} does not divide v_{k}={self.v[k]}; "
                    "the LDS condensation of the paper requires c_k | v_kk"
                )
        self.rows_per_dim = tuple(self.v[k] // self.c[k] for k in range(self.n))
        self._lattice_np: Optional[np.ndarray] = None
        self._tis_np: Optional[np.ndarray] = None

    # -- sizes ---------------------------------------------------------------

    @property
    def tile_volume(self) -> int:
        """Number of iteration points per (full) tile = |det P|."""
        box_points = 1
        for vk in self.v:
            box_points *= vk
        assert box_points % self.det_h_prime == 0
        return box_points // self.det_h_prime

    # -- exact traversal -------------------------------------------------------

    def lattice_points(self) -> Iterator[Tuple[int, ...]]:
        """Walk the TTIS lattice points with HNF strides and offsets.

        This mirrors the generated loop of the paper's Fig. 2: dimension
        ``k`` advances with stride ``c_k`` and its phase within the
        stride is determined by the outer coordinates through the HNF
        subdiagonal entries (the incremental offsets).
        """
        hnf = self.hnf.to_int_rows()
        n = self.n

        def rec(k: int, coeffs: Tuple[int, ...], point: Tuple[int, ...]
                ) -> Iterator[Tuple[int, ...]]:
            if k == n:
                yield point
                return
            # j'_k = sum_{l<k} hnf[k][l]*x_l + c_k * x_k; phase fixed by outer.
            phase = sum(hnf[k][l] * coeffs[l] for l in range(k))
            ck = self.c[k]
            start = phase % ck           # lowest admissible j'_k in [0, v_k)
            x_start = (start - phase) // ck
            for idx in range(self.rows_per_dim[k]):
                jk = start + idx * ck
                xk = x_start + idx
                yield from rec(k + 1, coeffs + (xk,), point + (jk,))

        yield from rec(0, (), ())

    def lattice_points_np(self) -> np.ndarray:
        """All TTIS lattice points as an ``(S, n)`` int64 array (cached),
        in the order of :meth:`lattice_points`.

        The walk's coefficients ``x`` are the integer points of ``0 <=
        H̃' x <= v - 1`` (``H̃'`` lower triangular, diagonal ``c``), so
        level ``k`` runs from ``ceil(-phase / c_k)`` to ``floor((v_k - 1
        - phase) / c_k)`` with ``phase = sum_{l<k} a_kl x_l``: one
        integer level sweep yields them all, and ``j' = H̃' x``.
        """
        cached = self._lattice_np
        if cached is None:
            hnf = self.hnf.to_int_rows()
            levels = []
            for k in range(self.n):
                phase = tuple(-a for a in hnf[k][:k])
                levels.append(IntegerBound(k, [(phase, 0, self.c[k])],
                                           [(phase, self.v[k] - 1,
                                             self.c[k])]))
            coeffs = np.concatenate(list(sweep(levels)))
            cached = coeffs @ np.array(hnf, dtype=np.int64).T
            self._lattice_np = cached
        return cached

    def tis_points_np(self) -> np.ndarray:
        """The tile at the origin (TIS) as an ``(S, n)`` int64 array.

        ``j = P' j'`` maps each TTIS lattice point back to the original
        coordinates; the result is integral because the lattice is the
        image of ``Z^n`` under ``H'``.
        """
        cached = self._tis_np
        if cached is None:
            lat = self.lattice_points_np()
            pp = self.p_prime
            den = 1
            for row in pp.rows():
                for x in row:
                    den = den * x.denominator // gcd(den, x.denominator)
            pp_scaled = np.array(
                [[int(x * den) for x in row] for row in pp.rows()],
                dtype=np.int64,
            )
            prod = lat @ pp_scaled.T
            if np.any(prod % den):
                raise AssertionError("P' j' must be integral on the lattice")
            cached = prod // den
            self._tis_np = cached
        return cached

    # -- point transforms ---------------------------------------------------------

    def to_ttis(self, j_rel: Sequence[int]) -> Tuple[int, ...]:
        """``j' = H' j`` for a tile-relative point ``j`` (exact)."""
        img = self.h_prime.matvec(j_rel)
        return tuple(int(x) for x in img)

    def from_ttis(self, j_prime: Sequence[int]) -> Tuple[int, ...]:
        """``j = P' j'``; raises if ``j'`` is not a lattice point."""
        img = self.p_prime.matvec(j_prime)
        if any(x.denominator != 1 for x in img):
            raise ValueError(f"{tuple(j_prime)} is not on the TTIS lattice")
        return tuple(int(x) for x in img)

    def contains_lattice_point(self, j_prime: Sequence[int]) -> bool:
        """Is ``j'`` a lattice point inside the TTIS rectangle?"""
        if any(not (0 <= j_prime[k] < self.v[k]) for k in range(self.n)):
            return False
        img = self.p_prime.matvec(j_prime)
        return all(x.denominator == 1 for x in img)

    def transformed_dependences(
        self, deps: Sequence[Sequence[int]]
    ) -> Tuple[Tuple[int, ...], ...]:
        """``D' = H' D`` — dependence vectors in TTIS coordinates."""
        out = []
        for d in deps:
            img = self.h_prime.matvec(d)
            out.append(tuple(int(x) for x in img))
        return tuple(out)

    def __repr__(self) -> str:
        return (f"TTIS(n={self.n}, v={self.v}, c={self.c}, "
                f"volume={self.tile_volume})")
