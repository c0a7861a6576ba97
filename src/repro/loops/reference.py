"""Affine array references.

A reference is ``A[F j + f]`` for an integer matrix ``F`` and offset
``f``.  The paper's model uses ``f_w(j)`` for the single write and reads
of the form ``f_w(j - d)``; keeping ``F`` general lets the dependence
extractor verify that reads really are uniform translates of the write.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

from repro.linalg.ratmat import RatMat, identity


@lru_cache(maxsize=256)
def _int_rows(matrix: RatMat) -> Tuple[Tuple[int, ...], ...]:
    """``matrix.to_int_rows()``, computed once per distinct matrix (a
    cache beside :class:`ArrayRef`, so its fields, equality, hash and
    pickle stay the three declared ones)."""
    return matrix.to_int_rows()


@dataclass(frozen=True)
class ArrayRef:
    """The access ``array[F j + f]``."""

    array: str
    offset: Tuple[int, ...]
    matrix: Optional[RatMat] = None  # None means identity (the common case)

    @staticmethod
    def of(array: str, offset: Sequence[int],
           matrix: Optional[RatMat] = None) -> "ArrayRef":
        return ArrayRef(array, tuple(int(x) for x in offset), matrix)

    @property
    def dim(self) -> int:
        return len(self.offset)

    def access_matrix(self) -> RatMat:
        return self.matrix if self.matrix is not None else identity(self.dim)

    def index(self, j: Sequence[int]) -> Tuple[int, ...]:
        """The array cell touched at iteration ``j``."""
        if self.matrix is None:
            return tuple(int(a) + int(b) for a, b in zip(j, self.offset))
        return tuple(sum(f * int(x) for f, x in zip(row, j)) + off
                     for row, off in zip(_int_rows(self.matrix),
                                         self.offset))

    def is_uniform_translate_of(self, other: "ArrayRef") -> bool:
        """True iff self and other differ only by a constant offset."""
        if self.array != other.array or self.dim != other.dim:
            return False
        return self.access_matrix() == other.access_matrix()
