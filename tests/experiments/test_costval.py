"""The simulated-vs-measured validation experiment: without
measurement each row is the simulator's makespan on a default config,
equal to the cost certificate's COST03 number."""

from repro.experiments import costval
from repro.runtime.executor import TiledProgram
from repro.runtime.machine import ClusterSpec


def test_default_configs_simulate():
    rows = costval.run(measure=False)
    assert len(rows) == 3
    assert {r.app.split("-")[0] for r in rows} == \
        {"sor", "jacobi", "adi"}
    for r, (app, h, _label) in zip(rows, costval.default_configs()):
        prog = TiledProgram(app.nest, h, mapping_dim=app.mapping_dim)
        cert = prog.cost_certificate(protocol="spec", spec=ClusterSpec())
        assert r.simulated == cert.makespan > 0
        assert r.measured is None and r.residual is None
        assert r.processors > 1


def test_format_rows_is_markdown():
    rows = costval.run(measure=False)
    table = costval.format_rows(rows)
    lines = table.splitlines()
    assert lines[0].startswith("| app |")
    assert len(lines) == 2 + len(rows)
    assert all(l.count("|") == 7 for l in lines)


def test_residual_is_measured_over_simulated():
    row = costval.CostValRow(app="a", label="l", processors=2,
                             simulated=2.0, measured=3.0)
    assert row.residual == 1.5
    assert "| 1.50 |" in costval.format_rows([row])
