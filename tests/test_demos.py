"""Each demo's stdout, byte for byte, against its recorded text.

A change that alters a demo's output on purpose records the new text:

    PYTHONPATH=src python3 demos/<demo>.py > tests/demo_outputs/<demo>.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recorded_output():
    recorded = sorted(p.stem for p in (ROOT / "tests" / "demo_outputs").glob("*.txt"))
    assert recorded == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    expected = (ROOT / "tests" / "demo_outputs" / f"{demo.stem}.txt").read_bytes()
    assert result.stdout == expected
