"""The paper's evaluation workloads: SOR, Jacobi, ADI integration (§4).

Each module provides:

* the original perfect loop nest (statements, kernels, dependences);
* the skewing matrix the paper applies (where needed) and the skewed,
  tile-ready nest;
* the rectangular and non-rectangular tiling matrices of §4;
* a naive, independently-written Python reference implementation used
  to validate the IR construction and every execution mode.
"""

from typing import Sequence, Tuple

from repro.apps.base import TiledApp
from repro.apps import sor, jacobi, adi, heat
from repro.linalg.ratmat import RatMat

__all__ = ["TiledApp", "sor", "jacobi", "adi", "heat", "resolve_config"]

#: The CLI's and the compile server's one registry:
#: app -> (module, its ``--sizes``, tiling shape -> ``H(x, y, z)``).
_REGISTRY = {
    "sor": (sor, "M N", {"rect": sor.h_rectangular,
                         "nonrect": sor.h_nonrectangular}),
    "jacobi": (jacobi, "T I J", {"rect": jacobi.h_rectangular,
                                 "nonrect": jacobi.h_nonrectangular}),
    "adi": (adi, "T N", {"rect": adi.h_rectangular, "nr1": adi.h_nr1,
                         "nr2": adi.h_nr2, "nr3": adi.h_nr3}),
}


def resolve_config(name: str, sizes: Sequence[int], shape: str,
                   factors: Sequence[int]) -> Tuple[TiledApp, RatMat]:
    """``(app, H)`` of one ``--app/--sizes/--shape/--tile`` request;
    ``ValueError`` names what is wrong with a bad one."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown app {name!r}")
    module, needs, shapes = _REGISTRY[name]
    if len(sizes) != len(needs.split()):
        raise ValueError(f"{name} needs --sizes {needs}")
    app = module.app(*sizes)
    if shape not in shapes:
        raise ValueError(
            f"{name} supports shapes {sorted(shapes)}, not {shape!r}")
    if len(factors) != 3:
        raise ValueError("--tile needs three factors: x y z")
    return app, shapes[shape](*factors)
