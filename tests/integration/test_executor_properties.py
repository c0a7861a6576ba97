"""Property-based end-to-end test: the whole compiler is correct on
random programs.

Generates random 2D stencils (random dependence sets, random domains,
random kernel coefficients) and random legal tilings (random integer
``P``), then requires the distributed message-passing execution to
equal the sequential interpreter cell-for-cell.  This is the strongest
single guarantee in the suite: a bug anywhere — HNF strides, LDS
addressing, CC sets, minsucc matching, pack/unpack order, the DES —
shows up as a numeric mismatch.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.linalg import RatMat
from repro.loops import ArrayRef, LoopNest, Statement, kexpr
from repro.runtime import ClusterSpec, DistributedRun, TiledProgram
from repro.runtime.interpreter import run_sequential
from repro.tiling import is_legal_tiling

SPEC = ClusterSpec()


@st.composite
def random_cases(draw):
    # -- random dependence set (lexicographically positive, small) ----
    n_deps = draw(st.integers(1, 3))
    deps = []
    for _ in range(n_deps):
        d = (draw(st.integers(0, 2)), draw(st.integers(-2, 2)))
        if d[0] == 0:
            d = (0, abs(d[1]))
        if d == (0, 0):
            d = (1, 0)
        deps.append(d)
    deps = sorted(set(deps))
    # -- random legal tiling: integer P, H = P^-1 ----------------------
    a = draw(st.integers(2, 4))
    dd = draw(st.integers(2, 4))
    b = draw(st.integers(-2, 2))
    c = draw(st.integers(-2, 2))
    p = RatMat([[a, b], [c, dd]])
    assume(p.det() != 0)
    h = p.inverse()
    assume(is_legal_tiling(h, deps))
    # reject tilings violating framework preconditions (c_k | v_kk for
    # the LDS condensation; dependencies within one tile for the §3.2
    # communication scheme) — those raise cleanly, tested elsewhere.
    from repro.distribution.communication import CommunicationSpec
    from repro.polyhedra import box as _box
    from repro.tiling import TilingTransformation
    try:
        tt = TilingTransformation(h, _box((0, 0), (8, 8)))
        CommunicationSpec(tt, deps, 0)
        CommunicationSpec(tt, deps, 1)
    except ValueError:
        assume(False)
    # -- random domain and kernel ---------------------------------------
    lo = (draw(st.integers(-2, 0)), draw(st.integers(-2, 0)))
    hi = (lo[0] + draw(st.integers(3, 7)), lo[1] + draw(st.integers(3, 7)))
    coeffs = [draw(st.integers(1, 9)) / 16.0 for _ in range(len(deps))]
    return deps, h, lo, hi, tuple(coeffs)


def _build_nest(deps, lo, hi, coeffs):
    reads = kexpr.reads(len(deps))
    stmt = Statement.of(
        ArrayRef.of("A", (0, 0)),
        [ArrayRef.of("A", tuple(-x for x in d)) for d in deps],
        0.5 + sum(c * v for c, v in zip(coeffs, reads)),
    )
    return LoopNest.rectangular("prop", list(lo), list(hi), [stmt],
                                list(deps))


def _init(_arr, cell):
    return 0.03 * cell[0] - 0.07 * cell[1] + 0.5


@given(random_cases())
@settings(max_examples=60, deadline=None)
def test_distributed_equals_sequential(case):
    deps, h, lo, hi, coeffs = case
    nest = _build_nest(deps, lo, hi, coeffs)
    prog = TiledProgram(nest, h)
    arrays, _ = DistributedRun(prog, SPEC).execute(_init)
    ref = run_sequential(nest, _init)
    assert set(arrays["A"]) == set(ref["A"])
    for k, v in ref["A"].items():
        assert abs(arrays["A"][k] - v) < 1e-11, (k, arrays["A"][k], v)


@given(random_cases(), st.sampled_from([0, 1]))
@settings(max_examples=40, deadline=None)
def test_correct_under_any_mapping_dim(case, mapping_dim):
    """The owner-computes machinery cannot depend on which dimension
    chains are mapped along."""
    deps, h, lo, hi, coeffs = case
    nest = _build_nest(deps, lo, hi, coeffs)
    prog = TiledProgram(nest, h, mapping_dim=mapping_dim)
    arrays, _ = DistributedRun(prog, SPEC).execute(_init)
    ref = run_sequential(nest, _init)
    for k, v in ref["A"].items():
        assert abs(arrays["A"][k] - v) < 1e-11


@given(random_cases())
@settings(max_examples=30, deadline=None)
def test_correct_under_rendezvous_protocol(case):
    deps, h, lo, hi, coeffs = case
    nest = _build_nest(deps, lo, hi, coeffs)
    prog = TiledProgram(nest, h)
    spec = ClusterSpec(rendezvous_threshold=0)
    arrays, _ = DistributedRun(prog, spec).execute(_init)
    ref = run_sequential(nest, _init)
    for k, v in ref["A"].items():
        assert abs(arrays["A"][k] - v) < 1e-11
