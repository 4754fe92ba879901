"""The benchmark harness still runs against the library's public API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selftest_passes():
    # perfbench reads names such as PicardPath.seg_times, FrozenNoise.thetas
    # and CandidateRecord, so renaming one fails here and not only in a
    # benchmark run; the self-test writes under the ignored perfbench/out/
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
