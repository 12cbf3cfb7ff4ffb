"""Smoke test: every workload runs end to end on tiny inputs, untraced and
traced, with every output passing its check."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("summarize_large_kb", "summarize_llm_bound", "kb_build")


def test_smoke_runs_every_workload_without_failed_items():
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
                 "--seconds", "0", "--trace", trace, "--smoke"],
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] is True
            assert result["attempted"] > 0
            assert result["failed"] == 0
