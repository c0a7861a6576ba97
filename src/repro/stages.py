"""The stage table: every product a compile derives, declared once.

Each derived product of the paper's chain (tile space, ``D^S``, masks,
payload order, region counts, per-rank plans, ...) is one :class:`Stage`
entry of :data:`TABLE`: a name, the holder that derives it (``"tiling"``:
a ``TilingTransformation``, ``"program"``: a ``TiledProgram``), the build
function and, for those an artifact keeps, a codec and a version.  Each
holder owns one :class:`StageMemo`, filled by :meth:`StageHolder.stage`.
The artifact layer *walks* the table (:func:`snapshot`, :func:`park`)
and names no stage, so **adding a product is adding one entry**.

Decode-on-first-use is the one laziness rule.  Restoring only *parks*
the stored forms; the first ``stage(name)`` decodes that stage
(``restored``) or, with nothing parked, builds it (``built``).  A keyed
stage whose entries are themselves expensive to decode returns a
:class:`LazyEntries` from its decoder: the same rule one level down.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Mapping, Tuple


def as_is(_holder: Any, value: Any) -> Any:
    """The default codec: the value is its own stored form."""
    return value


@dataclass(frozen=True)
class Stage:
    """One derived product.  ``build(holder)`` computes it; a keyed
    stage (one value per tile, direction, ...) builds its bulk part and
    its accessor adds entries on demand.  A ``persisted`` stage is
    stored as ``encode(holder, value)`` and read back by ``decode``.
    Bump ``version`` when the stored shape changes: older copies are
    skipped and that stage rebuilt, nothing else is invalidated."""

    name: str
    owner: str
    build: Callable[[Any], Any]
    persisted: bool = False
    encode: Callable[[Any, Any], Any] = as_is
    decode: Callable[[Any, Any], Any] = as_is
    version: int = 1


#: name -> entry, in registration (pipeline) order.
TABLE: Dict[str, Stage] = {}


def register(*stages: Stage) -> None:
    for st in stages:
        if TABLE.setdefault(st.name, st) is not st:
            raise ValueError(f"stage {st.name!r} is already registered")


class StageMemo(Dict[str, Any]):
    """One holder's filled stages (the dict itself), the stored forms
    awaiting their first use, and how each fill went."""

    __slots__ = ("log", "parked")

    def __init__(self) -> None:
        super().__init__()
        self.parked: Dict[str, Any] = {}
        self.log: Dict[str, Tuple[str, int]] = {}   # name -> (how, ns)

    def state(self, name: str) -> str:
        """``"built"``, ``"restored"`` or ``"pending"`` (not used yet)."""
        return self.log.get(name, ("pending", 0))[0]


class StageHolder:
    """Mixin of the two holders; ``self.stages`` is the one memo."""

    stage_owner = ""
    stages: StageMemo

    def stage(self, name: str) -> Any:
        """The value of stage ``name``, decoded or built on first use."""
        try:
            return self.stages[name]
        except KeyError:
            return _fill(self, name)


def _fill(holder: StageHolder, name: str) -> Any:
    st = TABLE[name]
    memo = holder.stages
    t0 = perf_counter_ns()
    how = "built"
    if name in memo.parked:
        try:
            value = st.decode(holder, memo.parked.pop(name))
            how = "restored"
        except Exception:
            # Stored bytes come from disk: an undecodable stage is a
            # miss for that stage only, rebuilt like an absent one.
            value = st.build(holder)
    else:
        value = st.build(holder)
    memo[name] = value
    memo.log[name] = (how, perf_counter_ns() - t0)
    return value


class LazyEntries(Dict[Any, Any]):
    """A keyed stage restored entry by entry: ``d[key]`` decodes the
    stored form of ``key`` on first lookup and keeps the result; a key
    with no stored form raises ``KeyError`` like any dict."""

    __slots__ = ("_decode", "_stored")

    def __init__(self, stored: Dict[Any, Any],
                 decode: Callable[[Any], Any]) -> None:
        super().__init__()
        self._stored = stored
        self._decode = decode

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self._decode(self._stored[key])
        return value


# -- the build and the codecs more than one entry uses -------------------------


def on_demand(_holder: Any) -> Dict[Any, Any]:
    """Build of a keyed stage with no bulk part."""
    return {}


def copied(_holder: Any, value: Mapping[Any, Any]) -> Dict[Any, Any]:
    """A payload and the programs made from it share no mutable dict."""
    return dict(value)


def pickled(_holder: Any, value: Any) -> bytes:
    """Large object forests ship as an opaque blob: reading an artifact
    does not pay for decoding a stage nobody asks for."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def unpickled(_holder: Any, blob: bytes) -> Any:
    return pickle.loads(blob)


# -- walking the table -----------------------------------------------------------


def _owned(holder: StageHolder, persisted: bool = False) -> List[Stage]:
    return [st for st in TABLE.values() if st.owner == holder.stage_owner
            and (st.persisted or not persisted)]


def snapshot(*holders: StageHolder) -> Dict[str, Tuple[int, Any]]:
    """``{name: (version, stored form)}`` of every persisted stage of
    ``holders``, each forced first (nothing is left to recompile)."""
    return {st.name: (st.version, st.encode(holder, holder.stage(st.name)))
            for holder in holders for st in _owned(holder, persisted=True)}


def park(holder: StageHolder,
         stored: Mapping[str, Tuple[int, Any]]) -> None:
    """Hand ``holder`` the stored forms of its persisted stages; one
    the snapshot lacks or holds at another version is left to build."""
    for st in _owned(holder, persisted=True):
        version, form = stored.get(st.name, (None, None))
        if version == st.version:
            holder.stages.parked[st.name] = form


def report(*holders: StageHolder) -> List[Tuple[str, str, str, int]]:
    """``(name, owner, state, ns)`` per stage of ``holders`` in table
    order; ``ns`` is the inclusive time of the one fill (0: pending)."""
    rows = []
    for holder in holders:
        for st in _owned(holder):
            how, ns = holder.stages.log.get(st.name, ("pending", 0))
            rows.append((st.name, st.owner, how, ns))
    return rows
