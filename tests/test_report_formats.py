"""The csv and markdown bytes of ``scenarios report`` and ``obs report``.

Both commands print their machine-readable formats through one table
writer.  These tests pin the exact output on a fixed result store and a
fixed trace, so a change to the writer shows up as a byte diff.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.obs import trace as obs_trace
from repro.obs.cli import obs_main
from repro.runtime.store import ResultStore

_IDENTITY = {"version": "1", "params": {}, "seed": 1, "knobs": {}}

#: Store rows covering the report's cases: an ok row with a phase split,
#: an ok row without one (empty phase cells), a quarantined cell whose
#: message needs csv quoting, and rows of two specs out of order.
_STORE_ROWS = [
    {
        **_IDENTITY,
        "spec": "e9_slack",
        "cell_index": 1,
        "key": "k-e9-1",
        "result": {"n": 96, "delta": 10, "colors": 19, "rounds": 42, "verified": True},
        "timing": {"wall_seconds": 0.125},
    },
    {
        **_IDENTITY,
        "spec": "e1_sweep",
        "cell_index": 0,
        "key": "k-e1-0",
        "result": {
            "n": 64,
            "delta": 8,
            "colors": 15,
            "rounds": 120,
            "messages": 3072,
            "verified": True,
        },
        "timing": {
            "wall_seconds": 0.0421,
            "phases": {"setup": 0.003, "solve": 0.0421, "verify": 0.0009},
        },
    },
    {
        **_IDENTITY,
        "spec": "e1_sweep",
        "cell_index": 1,
        "key": "k-e1-1",
        "status": "error",
        "error": {
            "kind": "exception",
            "type": "RuntimeError",
            "message": 'list exhausted, "edge (1, 2)"',
            "attempts": 3,
        },
        "timing": {"cell_wall_seconds": 0.5},
    },
]


def _fixed_store(tmp_path) -> str:
    store = ResultStore(str(tmp_path / "fixed.jsonl"))
    for row in _STORE_ROWS:
        store.append(row)
    return store.path


def _fixed_trace(tmp_path) -> str:
    path = str(tmp_path / "fixed-trace.jsonl")
    trc = obs_trace.configure(path)
    try:
        trc.emit("runtime.cell.run", 0.0, 0.25, spec="e1_sweep", cell_index=0)
        trc.emit("runtime.cell.run", 0.0, 0.5, spec="e1_sweep", cell_index=1)
        trc.emit("runtime.phase.solve", 0.0, 0.125)
        trc.emit("serving.delta", 0.0, 0.001, touched=3)
        trc.emit("serving.delta", 0.0, 0.002, touched=3)
        trc.emit("serving.delta", 0.0, 0.004, touched=17)
        trc.emit("odd,name", 0.0, 0.0625)
    finally:
        obs_trace.disable()
    return path


SCENARIOS_CSV = (
    "spec,cell_index,status,n,delta,colors,rounds,messages,verified,wall_seconds,"
    "setup_s,solve_s,verify_s\r\n"
    "e1_sweep,0,ok,64,8,15,120,3072,True,0.0421,0.003,0.0421,0.0009\r\n"
    'e1_sweep,1,error,,,,,"list exhausted, ""edge (1, 2)""",,,,,\r\n'
    "e9_slack,1,ok,96,10,19,42,,True,0.125,,,\r\n"
)

SCENARIOS_MARKDOWN = (
    "| spec | cell_index | status | n | delta | colors | rounds | messages | verified "
    "| wall_seconds | setup_s | solve_s | verify_s |\n"
    "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |\n"
    "| e1_sweep | 0 | ok | 64 | 8 | 15 | 120 | 3072 | True | 0.0421 | 0.003 | 0.0421 "
    "| 0.0009 |\n"
    '| e1_sweep | 1 | error |  |  |  |  | list exhausted, "edge (1, 2)" |  |  |  |  |  |\n'
    "| e9_slack | 1 | ok | 96 | 10 | 19 | 42 |  | True | 0.125 |  |  |  |\n"
)

OBS_CSV = (
    "name,count,total_s,p50_s,p95_s,max_s\r\n"
    "runtime.cell.run,2,0.75,0.25,0.5,0.5\r\n"
    "runtime.phase.solve,1,0.125,0.125,0.125,0.125\r\n"
    '"odd,name",1,0.0625,0.0625,0.0625,0.0625\r\n'
    "serving.delta,3,0.007,0.002,0.004,0.004\r\n"
)

OBS_MARKDOWN = (
    "| name | count | total_s | p50_s | p95_s | max_s |\n"
    "| --- | --- | --- | --- | --- | --- |\n"
    "| runtime.cell.run | 2 | 0.75 | 0.25 | 0.5 | 0.5 |\n"
    "| runtime.phase.solve | 1 | 0.125 | 0.125 | 0.125 | 0.125 |\n"
    "| odd,name | 1 | 0.0625 | 0.0625 | 0.0625 | 0.0625 |\n"
    "| serving.delta | 3 | 0.007 | 0.002 | 0.004 | 0.004 |\n"
    "\n"
    "| touched | count |\n"
    "| --- | --- |\n"
    "| 3 | 2 |\n"
    "| 17 | 1 |\n"
)


@pytest.mark.parametrize(
    "fmt, expected", [("csv", SCENARIOS_CSV), ("markdown", SCENARIOS_MARKDOWN)]
)
def test_scenarios_report_bytes(tmp_path, capsys, fmt, expected):
    assert main(["scenarios", "report", _fixed_store(tmp_path), "--format", fmt]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("fmt, expected", [("csv", OBS_CSV), ("markdown", OBS_MARKDOWN)])
def test_obs_report_bytes(tmp_path, capsys, fmt, expected):
    assert obs_main(["report", _fixed_trace(tmp_path), "--format", fmt]) == 0
    assert capsys.readouterr().out == expected
