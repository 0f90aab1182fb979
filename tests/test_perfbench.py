"""The benchmark still runs every workload and every recorded output digest matches."""

import subprocess
import sys
from pathlib import Path

SMOKE = Path(__file__).resolve().parents[1] / "perfbench" / "smoke.py"


def test_benchmark_smoke_passes():
    done = subprocess.run(
        [sys.executable, str(SMOKE)], capture_output=True, text=True, timeout=900, check=False
    )
    assert done.returncode == 0, done.stdout + done.stderr
