"""The benchmark's own test: `python3 -m pytest perfbench` from the repository root."""

import subprocess
import sys
from pathlib import Path


def test_smoke():
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run([sys.executable, "-B", str(run), "--smoke"], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.rstrip().endswith("smoke: ok")
