import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    # the benchmark harness reads library names (DiscreteMeasure(density_h=),
    # set_max_workers, midpoint_set's table, step measures' regions, volume
    # counters); a rename that breaks one fails here, not only in a bench run
    proc = subprocess.run([sys.executable, str(ROOT / "heisbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
