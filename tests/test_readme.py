"""The README's Python session runs against the package as it stands."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for code in blocks:
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
