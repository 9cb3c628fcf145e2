"""Smoke test: one tiny run of every workload, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py

Takes about two minutes, most of it the two table1 sweeps at --jobs 1.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

LINE = re.compile(r"^(\S+) (\S+) = (\S+) (\S+)")


def test_every_workload_prints_every_metric_and_no_errors():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "7", "--seconds", "1"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    printed = {}
    for line in proc.stdout.splitlines():
        match = LINE.match(line)
        if match:
            workload, metric, value, unit = match.groups()
            printed[workload, metric] = (float(value), unit)
    want = {**run.END_TO_END_UNITS, **spans.metric_units()}
    for workload in run.NAMES:
        for metric, unit in want.items():
            assert printed[workload, metric][1] == unit, (workload, metric)
        assert printed[workload, "error_rate"][0] == 0, workload
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    # verify never reaches the rank code; on table1 rank2 is most of the time
    assert printed["verify", "rank2.rank_gf2.calls"][0] == 0
    assert printed["verify", "rank2.development_matrix.calls"][0] == 0
    rank_share = sum(printed["table1", f"rank2.{f}.share"][0] for f in ("rank_gf2", "development_matrix"))
    assert rank_share > 0.5


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
