"""One kernel definition, three evaluators, zero drift.

A statement's :class:`~repro.loops.kexpr.KExpr` is evaluated on Python
scalars (the sequential oracle), on numpy batches (dense and
parallel engines) and as compiled C (native backend).  There are no
hand-written twins left to compare, so the agreement is checked where
it now lives: in ``kexpr.evaluate`` / ``kexpr.to_c`` themselves, on
random trees.
"""

import dataclasses
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import heat
from repro.artifacts import ArtifactCache
from repro.loops import kexpr
from repro.native.compile import find_compiler
from repro.native.engine import build_native_library
from repro.runtime import (
    ClusterSpec,
    DistributedRun,
    TiledProgram,
    arrays_match,
    dense_to_cells,
    run_sequential,
)

NREADS = 3
V = kexpr.reads(NREADS)

_consts = st.sampled_from([-2.0, -0.25, 0.0, 0.1, 0.5, 1.0, 3.0])
_leaves = st.one_of(st.sampled_from(V), _consts.map(kexpr.KConst))


def _grow(sub):
    # Denominators stay away from zero (a nonzero constant or
    # ``x*x + 1``) so every engine sees finite values and bitwise
    # comparison is meaningful.
    denom = st.one_of(
        st.sampled_from([-3.0, 0.5, 4.0]).map(kexpr.KConst),
        sub.map(lambda e: e * e + 1.0))
    return st.one_of(
        st.tuples(sub, sub).map(lambda p: p[0] + p[1]),
        st.tuples(sub, sub).map(lambda p: p[0] - p[1]),
        st.tuples(sub, sub).map(lambda p: p[0] * p[1]),
        st.tuples(sub, denom).map(lambda p: p[0] / p[1]),
        sub.map(lambda e: -e),
        sub.map(lambda e: 0 + e),
    )


exprs = st.recursive(_leaves, _grow, max_leaves=8)


def _native_library(prog, cache_dir):
    if find_compiler() is None:
        return None
    lib = build_native_library(prog, cache=ArtifactCache(cache_dir))
    return lib if lib.available else None


@given(exprs, st.lists(
    st.tuples(*[st.floats(-4.0, 4.0, allow_nan=False)] * NREADS),
    min_size=1, max_size=6))
@example(0 + V[0], [(-0.0, 1.0, 2.0)])             # int 0 from sum()
@example(-(V[0] - V[1]), [(1.5, 1.5, 0.0)])        # unary minus
@example(V[0] / (V[1] * V[1] + 1.0) / kexpr.KConst(-3.0),
         [(1.0, 3.0, 0.0)])                        # chained division
@settings(max_examples=40, deadline=None)
def test_scalar_batch_and_compiled_evaluation_agree(expr, rows):
    # 1. evaluate on scalars == evaluate on arrays, element for element
    cols = [np.array(c, dtype=np.float64) for c in zip(*rows)]
    batch = np.broadcast_to(
        np.asarray(kexpr.evaluate(expr, cols), dtype=np.float64),
        (len(rows),))
    scalar = np.array([kexpr.evaluate(expr, row) for row in rows],
                      dtype=np.float64)
    assert batch.tobytes() == scalar.tobytes()

    # 2. the same tree as a loop body: the per-point sequential
    #    oracle, numpy wavefront batches, and the to_c rendering
    #    compiled and run through the native engine
    app = heat.app(2, 6)
    nest = dataclasses.replace(
        app.nest, statements=tuple(
            dataclasses.replace(s, expr=expr)
            for s in app.nest.statements))
    prog = TiledProgram(nest, heat.h_rectangular(2, 4), mapping_dim=1)
    run = DistributedRun(prog, ClusterSpec())
    oracle = run_sequential(nest, app.init_value)
    dense, _ = run.execute_dense(app.init_value)
    assert arrays_match(dense_to_cells(dense), oracle, tol=0.0)
    with tempfile.TemporaryDirectory() as tmp:
        lib = _native_library(prog, os.path.join(tmp, "cache"))
        if lib is not None:
            native, _ = run.execute_dense(app.init_value, native=lib)
            for name, field in dense.items():
                assert (native[name].values.tobytes()
                        == field.values.tobytes())


def test_constants_keep_the_reads_dtype():
    # Python-float constants do not promote a float32 batch.
    out = kexpr.evaluate(0.5 * V[0] + 1.0,
                         [np.ones(3, dtype=np.float32)])
    assert out.dtype == np.float32


def test_structure_only_statement_is_not_evaluable():
    with pytest.raises(TypeError, match="not a kernel expr"):
        kexpr.evaluate(None, [1.0])
