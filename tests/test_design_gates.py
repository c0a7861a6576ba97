"""The "one X" design gates, run where the tests run.

Each refactor that collapsed two mechanisms into one left a gate behind
so the second one cannot quietly come back: a regex no line under some
roots may match, with an allow-list.  They used to be shell steps in
``.github/workflows/ci.yml`` that no local run ever executed; CI's lint
job now calls this file.  Every gate is checked twice: it holds on the
checkout, and it rejects the mutation it exists to catch (a synthetic
tree with the offending file), so a gate that can no longer fail is
itself a failure.
"""

import ast
import os
import re
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Gate:
    """No line of a file under ``roots`` may match ``regex`` (``None``:
    no file may exist there at all).  ``allow`` exempts whole files
    (a repo path) or lines whose nearest enclosing ``def`` matches
    (``"def <regex>"``; a ``class`` line ends the enclosure).
    ``tracked`` lists files with ``git ls-files`` instead of walking.
    ``mutation`` is ``(path, text)``: a file the gate must reject."""

    name: str
    why: str
    regex: Optional[str]
    roots: Tuple[str, ...]
    allow: Tuple[str, ...] = ()
    tracked: bool = False
    mutation: Tuple[str, str] = ("", "")


GATES = [
    Gate("one kernel definition",
         "Statement is (write, reads, expr) and every evaluator reads the "
         "KExpr; a hand-written vectorized twin is a regression "
         "(docs/RUNTIME.md)",
         r"kernel_np", ("src",),
         mutation=("src/repro/apps/sor.py", "def kernel_np(a, b):\n")),
    Gate("one stage table",
         "every derived product is an entry of repro/stages.py; a private "
         "self._x_cache elsewhere is invisible to the artifact layer and "
         "recompiled on every warm hit (docs/ARTIFACTS.md)",
         r"\._[a-z_]*_cache\b|_rank_plans_blob|_region_prewarmed",
         ("src",), allow=("src/repro/stages.py",),
         mutation=("src/repro/runtime/executor.py",
                   "        self._plan_cache = {}\n")),
    Gate("one static replay",
         "analysis/hb/graph.replay is the only static execution of the "
         "frozen schedule and ClusterSpec.uses_rendezvous the one protocol "
         "decision (docs/ANALYSIS.md)",
         r"_abstract_run|class ScheduleModel|_rendezvous_fn", ("src",),
         mutation=("src/repro/analysis/hb/graph.py",
                   "def _abstract_run(graph):\n")),
    Gate("one schedule pass (no deadlock module)",
         "the eager blocking HB certificate is the one schedule check: "
         "its pairing gives DL01/DL02/DL04 and its replay HB02; a second "
         "pass over the same graph is a copy to keep in step "
         "(docs/ANALYSIS.md)",
         None, ("src/repro/analysis/deadlock.py",),
         mutation=("src/repro/analysis/deadlock.py",
                   "def check_program_deadlock(program):\n")),
    Gate("one schedule pass (one replay mode)",
         "replay runs on the rings build_edges sizes; the simulator's "
         "unlimited buffering is a depth, not a second mode, and op lists "
         "are not a second graph front end",
         r"bounded=|def graph_from_ops|check_program_deadlock", ("src",),
         mutation=("src/repro/analysis/hb/graph.py",
                   "def replay(g, bounded=False):\n")),
    Gate("one condensed map",
         "LdsTables.to_flat is evaluated once per program and LDS "
         "geometry, in dense._build_tables; a second call site re-derives "
         "addresses per tile or per run (docs/RUNTIME.md)",
         r"(?<!def )to_flat\(", ("src/repro/runtime", "src/repro/native"),
         allow=("def _build_tables",),
         mutation=("src/repro/runtime/dense.py",
                   "    def unpack(self, r, payload, t):\n"
                   "        flat = self.to_flat(cells, t)\n")),
    Gate("one rank walk",
         "rankstep.rank_walk is the only function that places receives, "
         "compute, publishes and rendezvous waits inside a tile "
         "(docs/RUNTIME.md, 'One walk, four ports')",
         r"_overlap_walk", ("src",),
         mutation=("src/repro/runtime/parallel.py",
                   "def _overlap_walk(program, plan):\n")),
    Gate("one rank walk (ports do not iterate the plan)",
         "the ring runtime, the HB graph and the pygen table are ports: "
         "per-tile plan iteration in one of them is a schedule the "
         "certifier no longer proves",
         r"(for|in|zip\(|enumerate\()[^#]*plan\.tiles"
         r"|plan\.(recvs|sends)\[",
         ("src/repro/analysis/hb/graph.py", "src/repro/codegen/pygen.py",
          "src/repro/runtime/parallel.py"),
         mutation=("src/repro/codegen/pygen.py",
                   "    for t, tile in enumerate(plan.tiles):\n")),
    Gate("one pack per message",
         "the overlapped walk gathers each message once with the blocking "
         "RankLDS.pack; the per-level scatter bookkeeping must not come "
         "back (docs/ANALYSIS.md, 'Overlap plans')",
         r"level_lat|level_pos|pack_level", ("src",),
         mutation=("src/repro/runtime/dense.py",
                   "    def pack_level(self, level):\n")),
    Gate("one compile per request",
         "only the (nest, h) entry points compile; a TiledProgram( or "
         "TilingTransformation( elsewhere under codegen/ or analysis/ is "
         "the same program compiled twice (docs/ANALYSIS.md)",
         r"(^|[^`A-Za-z_.])(TiledProgram|TilingTransformation)\(",
         ("src/repro/codegen", "src/repro/analysis"),
         allow=(r"def (generate_[a-z_]+|transval_report|analyze)$",),
         mutation=("src/repro/analysis/cost/__init__.py",
                   "def certify_cost(nest, h):\n"
                   "    prog = TiledProgram(nest, h)\n")),
    Gate("one measurement harness (no benchmarks/ tree)",
         "wall-clock is measured by bench/ alone; the pytest timing suite "
         "must not be tracked again (docs/BENCHMARKING.md)",
         None, ("benchmarks",), tracked=True,
         mutation=("benchmarks/test_speed.py", "def test_speed(): ...\n")),
    Gate("one measurement harness (no citation of the retired one)",
         "its plugin, switches, baseline and report must not come back",
         r"pytest-benchmark|pytest_benchmark|REPRO_BENCH_|BENCH_PR4"
         r"|check_regression",
         (".",), tracked=True,
         allow=("CHANGES.md", "ROADMAP.md", "ISSUE.md", "bench/README.md",
                "tests/test_design_gates.py"),
         mutation=("tests/test_speed.py", "import pytest_benchmark\n")),
    Gate("one message path",
         "a ring message has one life, reserve -> gather -> commit "
         "(peek/release on the other side): no copying push/pop, no "
         "staging buffer (docs/RUNTIME.md)",
         r"def (push|pop)\b|zero_copy|_OutMsg|staging",
         ("src/repro/runtime",),
         mutation=("src/repro/runtime/parallel.py",
                   "    def push(self, payload):\n")),
    Gate("one message path (one producer program in the ring model)",
         "HB03 models the one producer the runtime has",
         r"mode=[\"']push[\"']", ("src",),
         mutation=("src/repro/analysis/hb/ringmodel.py",
                   'cfg = RingConfig(depth=1, nmsgs=1, mode="push")\n')),
    Gate("one communication schedule",
         "runtime/rankstep.py decides the §3.2 schedule once; every other "
         "consumer reads the frozen RankPlan or calls rankstep's region "
         "functions, so a certifier cannot re-derive a schedule the "
         "runtime does not run (docs/RUNTIME.md)",
         r"receive_plan\(|send_plan\(|_build_recv_order", ("src",),
         allow=("src/repro/runtime/rankstep.py",),
         mutation=("src/repro/analysis/cost/volumes.py",
                   "        for dm, dst in program.send_plan(tile):\n")),
    Gate("one measured record",
         "a parallel run's measurement leaves its workers as spans in the "
         "one shared segment, on one clock, decoded once after join; no "
         "per-rank sums, stats segments, trace queue or clock-skew "
         "allowance beside it (docs/RUNTIME.md)",
         r"_RankClocks|statsf|statsi|edgestats|trace_q|skew_tolerance",
         ("src/repro",),
         mutation=("src/repro/runtime/parallel.py",
                   '            statsf=new_seg("statsf", nranks * 3),\n')),
    Gate("one sequential text",
         "the §2.3 loop is one C translation unit that compiles and runs "
         "against the interpreter; a runnable Python twin, its reader or "
         "its n-ary min/max spelling is a second text to keep in step "
         "(docs/ANALYSIS.md)",
         r"pyseq|read_pyseq|python_sequential|nary_minmax", ("src",),
         mutation=("src/repro/codegen/pyseq.py",
                   "def render_python_sequential(nest, tiling):\n")),
    Gate("one clock",
         "the cluster model's time is spent by the vMPI simulator and its "
         "port (the COST03 makespan is DistributedRun.simulate), and in "
         "one closed form (schedule/model.per_step_cost); a second "
         "per-event clock is a copy to keep in step (docs/ANALYSIS.md)",
         r"message_time\(|pack_time\(|net_latency|net_bandwidth"
         r"|time_per_packed_element", ("src",),
         allow=("src/repro/runtime/machine.py", "src/repro/runtime/vmpi.py",
                "src/repro/runtime/rankstep.py",
                "src/repro/schedule/model.py"),
         mutation=("src/repro/analysis/cost/makespan.py",
                   "        clock[rank] += spec.message_time(ev.nelems)\n")),
    Gate("one boundary path",
         "an out-of-domain source is read from its own halo cell, filled "
         "once per (rank, cell) before the tile that first reads it; a "
         "per-tile oob mask, a fix array or a select in the C driver is a "
         "second boundary path (docs/RUNTIME.md, 'Dense LDS layout')",
         r"\boob\b|\bfix\b|\b(ob|fx)(\d+|\{k\})\[",
         ("src/repro/runtime", "src/repro/native"),
         mutation=("src/repro/native/emit.py",
                   '                args.append(\n'
                   '                    f"((ob{k} && ob{k}[i_]) ? '
                   'fx{k}[i_] : {src})")\n')),
    Gate("one native driver",
         "the rank body is the §2.3 TTIS loops over affine addresses "
         "(repro_tile, repro_write_back); a per-point index vector — a "
         "write or read base table, a selection or its segment offsets — "
         "is a second driver to marshal and keep in step "
         "(docs/RUNTIME.md, 'Runtime contract')",
         r"\b(wbase|rbase|seg_off|sel)\b", ("src/repro/native",),
         mutation=("src/repro/native/emit.py",
                   '        "                double **bufs, '
                   'const long *wbase,\\n"\n')),
    Gate("one kernel text",
         "native/emit.kernel_definitions renders every F_<array> kernel "
         "TV05 proves; a kernel printed elsewhere is one no pass checks",
         r"static double F_", ("src",),
         allow=("src/repro/native/emit.py",),
         mutation=("src/repro/codegen/sequential.py",
                   '        out.append(f"static double F_{name}({args}) {{")'
                   "\n")),
    Gate("one in-process data engine",
         "execute_dense is the one in-process data engine and "
         "run_sequential the one Python oracle, with the compiled §2.3 "
         "text as its tiled twin; a per-cell LDS back-end, a second "
         "interpreter or a Smith form nothing uses is a copy to keep in "
         "step (docs/RUNTIME.md)",
         r"_SparseLDS|run_tiled_sequential|run_dense_sequential"
         r"|fix_out_of_domain|smith_normal_form", ("src", "bench"),
         mutation=("src/repro/runtime/executor.py",
                   "class _SparseLDS:\n")),
    Gate("one integer-point walk",
         "the tile space, the TTIS lattice and integer_points are one "
         "int64 level sweep over integer bound rows (polyhedra/"
         "integer_points.sweep); LoopBound.evaluate is the scalar "
         "definition the tests walk, and a per-prefix Fraction walk "
         "beside the sweep is a second enumerator to keep in step",
         r"(?<!kexpr)\.evaluate\(", ("src",),
         allow=("src/repro/polyhedra/fourier_motzkin.py",),
         mutation=("src/repro/tiling/transform.py",
                   "            lo, hi = bounds[k].evaluate(prefix)\n")),
]


def files_under(root, sub, tracked):
    """Repo-relative paths of the text files under ``root/sub``."""
    if tracked:
        out = subprocess.run(
            ["git", "-C", str(root), "ls-files", "--", sub],
            capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return [p for p in out.stdout.splitlines()
                    if (root / p).is_file()]
    top = root / sub
    if top.is_file():
        return [sub]
    found = []
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames
                       if d != "__pycache__" and not d.startswith(".")]
        found += [str(Path(dirpath, f).relative_to(root))
                  for f in filenames if not f.endswith(".pyc")]
    return sorted(found)


def offences(gate, root=ROOT):
    """``path:line: text`` of everything ``gate`` rejects under
    ``root``."""
    allow_files = {a for a in gate.allow if not a.startswith("def ")}
    allow_defs = [re.compile(a[4:]) for a in gate.allow
                  if a.startswith("def ")]
    pattern = None if gate.regex is None else re.compile(gate.regex)
    found = []
    for sub in gate.roots:
        for path in files_under(root, sub, gate.tracked):
            if path in allow_files:
                continue
            if pattern is None:
                found.append(path)
                continue
            try:
                text = (root / path).read_text()
            except UnicodeDecodeError:
                continue
            enclosing = ""
            for lineno, line in enumerate(text.splitlines(), 1):
                opened = re.match(r"\s*def (\w+)", line)
                if opened:
                    enclosing = opened.group(1)
                elif line.startswith("class "):
                    enclosing = ""
                if pattern.search(line) and not any(
                        a.match(enclosing) for a in allow_defs):
                    found.append(f"{path}:{lineno}: {line.strip()}")
    return found


@pytest.mark.parametrize("gate", GATES, ids=lambda g: g.name)
def test_gate_holds(gate):
    found = offences(gate)
    assert not found, f"{gate.name} — {gate.why}:\n" + "\n".join(found)


@pytest.mark.parametrize("gate", GATES, ids=lambda g: g.name)
def test_gate_rejects_its_mutation(gate, tmp_path):
    path, text = gate.mutation
    target = tmp_path / path
    target.parent.mkdir(parents=True)
    target.write_text(text)
    if gate.tracked:
        for cmd in (["init", "-q"], ["add", "-A"]):
            subprocess.run(["git", "-C", str(tmp_path), *cmd], check=True)
    found = offences(gate, tmp_path)
    assert len(found) == 1 and found[0].startswith(path), found


def test_allow_lists_exempt_what_they_name(tmp_path):
    """The same lines where they are allowed to be."""
    stages = tmp_path / "src/repro/stages.py"
    dense = tmp_path / "src/repro/runtime/dense.py"
    mpi = tmp_path / "src/repro/codegen/mpi.py"
    for p in (stages, dense, mpi):
        p.parent.mkdir(parents=True, exist_ok=True)
    stages.write_text("        holder._memo_cache = {}\n")
    dense.write_text("    def to_flat(self, cells, t):\n"
                     "        return cells\n"
                     "    def _build_tables(self):\n"
                     "        base = self.to_flat(cells, 0)\n")
    mpi.write_text("def generate_mpi_code(nest, h):\n"
                   "    return render_mpi_code(TiledProgram(nest, h))\n"
                   "class Emitter:\n"
                   "    def run(self):\n"
                   "        return TiledProgram(self.nest, self.h)\n")
    by_name = {g.name: g for g in GATES}
    assert offences(by_name["one stage table"], tmp_path) == []
    assert offences(by_name["one condensed map"], tmp_path) == []
    assert offences(by_name["one compile per request"], tmp_path) == [
        "src/repro/codegen/mpi.py:5: "
        "return TiledProgram(self.nest, self.h)"]


# -- no unused import (pyflakes F401, which CI's ruff selects) ------------------

#: The trees the gate reads; ``bench/`` is left to its own PRs.
IMPORT_ROOTS = ("src", "tests", "examples")


def _names(tree: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _annotation_names(tree: ast.AST) -> Set[str]:
    """Names inside string annotations (``x: "TiledProgram"``)."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        anns = [getattr(node, f, None) for f in ("annotation", "returns")]
        for ann in filter(None, anns):
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                                str):
                    try:
                        out |= _names(ast.parse(sub.value, mode="eval"))
                    except SyntaxError:
                        pass
    return out


def _exported(tree: ast.Module) -> Set[str]:
    """The strings of a module-level ``__all__``."""
    out: Set[str] = set()
    for node in tree.body:
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets):
            out |= {c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant)
                    and isinstance(c.value, str)}
    return out


def unused_imports(text: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of every import binding its scope (the enclosing
    function, else the module) never reads — in code, in a string
    annotation or, at module level, in ``__all__``.  ``from m import x
    as x`` is an explicit re-export and counts as used."""
    tree = ast.parse(text)
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    exported = _exported(tree)
    used = {}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "__future__"):
            continue
        scope = parent[node]
        while not isinstance(scope, (ast.Module, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
            scope = parent[scope]
        if scope not in used:
            used[scope] = _names(scope) | _annotation_names(scope) | (
                exported if scope is tree else set())
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if alias.name == "*" or name in used[scope] or (
                    isinstance(node, ast.ImportFrom)
                    and alias.asname == alias.name):
                continue
            found.append((node.lineno, name))
    return found


def import_offences(root=ROOT):
    """``path:line: name`` of every unused import under ``root``."""
    return [f"{path}:{line}: {name}"
            for sub in IMPORT_ROOTS
            for path in files_under(root, sub, tracked=False)
            if path.endswith(".py")
            for line, name in unused_imports((root / path).read_text())]


def test_no_unused_import():
    found = import_offences()
    assert not found, "unused imports (ruff F401):\n" + "\n".join(found)


def test_unused_import_gate_rejects_its_mutation(tmp_path):
    """An import only a string annotation, ``__all__`` or a re-export
    alias reads is used; one its own function never reads is not,
    whatever the rest of the module reads."""
    target = tmp_path / "src/repro/runtime/mutant.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "from __future__ import annotations\n"
        "import os\n"                                       # unused
        "import numpy as np\n"
        "from typing import TYPE_CHECKING, List, Tuple\n"   # Tuple
        "from repro.runtime import dense as dense\n"
        "from repro.stages import Stage\n"
        "if TYPE_CHECKING:\n"
        "    from repro.runtime.executor import TiledProgram\n"
        "__all__ = ['Stage']\n"
        "def f(p: 'TiledProgram') -> List[int]:\n"
        "    import sys\n"                                  # unused here
        "    return np.zeros(3)\n"
        "def g():\n"
        "    import json\n"
        "    return json, sys\n")
    path = "src/repro/runtime/mutant.py"
    assert import_offences(tmp_path) == [
        f"{path}:2: os", f"{path}:4: Tuple", f"{path}:11: sys"]


def test_every_workflow_runs_steps_under_bash():
    """``defaults.run.shell: bash`` makes GitHub run each step as
    ``bash -eo pipefail``: without it a ``repro run ... | tee log``
    whose run fails passes its step on tee's exit status."""
    workflows = sorted((ROOT / ".github" / "workflows").glob("*.yml"))
    assert workflows
    default = re.compile(r"^defaults:\n  run:\n    shell: bash$", re.M)
    missing = [p.name for p in workflows
               if not default.search(p.read_text())]
    assert not missing, missing
