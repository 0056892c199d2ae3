"""Every package attribute the README names as `module.NAME` exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import irs_swipt

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(irs_swipt.__path__)}


def test_readme_names_resolve():
    # `results.csv` and the like are skipped (no such module), as are `sdp.py`-style file names
    refs = [(m, n) for m, n in re.findall(r"`(\w+)\.(\w+)", README.read_text())
            if m in MODULES and n != "py"]
    assert len(refs) >= 12
    missing = [f"{m}.{n}" for m, n in refs
               if not hasattr(importlib.import_module(f"irs_swipt.{m}"), n)]
    assert not missing
