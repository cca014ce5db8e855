"""The benchmark leaves no process behind: orphans and the resource tracker too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import subprocess, sys
from concurrent.futures import ProcessPoolExecutor
import multiprocessing
sys.path.insert(0, sys.argv[1])
from perfbench import children

assert children.adopt_orphans()
# An orphan: the shell exits at once, leaving its background sleep.
subprocess.run(["sh", "-c", "sleep 60 & exit 0"], check=True)
# A spawn pool starts the resource tracker, which outlives the pool.
with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
    assert pool.submit(abs, -1).result() == 1
assert children.children(), "the orphan and the tracker should be ours"
children.reap_all(grace=1.0)
print(len(children.children()))
"""


def test_reap_all_leaves_no_child_or_orphan():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "0"
