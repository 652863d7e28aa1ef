"""The demo scripts run end to end against the package in src/, and print
what they printed when their output was pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

# sha256 of each demo's stdout, the same under any PYTHONHASHSEED.
STDOUT_SHA256 = {
    "01_parse_and_reconstruct":
        "9dd1fea4629b7d9e64f0eaba45ba3763a66da1735e77d03b9d9b63e3a6f655aa",
    "02_explain_a_literal":
        "c57f4f54e41671cc7858ad125b8e2490385abe4451363ca4ab89e3387ab76686",
    "03_triangle_coloring":
        "75f1e6e3b554449474721ba959a5124e30d0445c4ef008c43288b0a98b218a5e",
}


def test_all_demos_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[demo.stem]
