"""README's Quick start runs as written and its API names exist."""
import importlib
import re
from pathlib import Path

import dunklsim
import dunklsim.mc

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
QUICK_START = README.split("## Quick start", 1)[1].split("\n## ", 1)[0]


def test_readme_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", QUICK_START, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    mean = [float(v) for v in capsys.readouterr().out.strip("[] \n").split()]
    assert len(mean) == 3 and mean[0] > mean[1] > mean[2]


def test_readme_api_names_resolve():
    names = {n for n in re.findall(r"`([A-Za-z_]\w*)`", QUICK_START)}
    assert {"run_batch", "direct_sum", "strong_error", "TableFn"} <= names
    missing = [n for n in sorted(names)
               if not hasattr(dunklsim, n) and not hasattr(dunklsim.mc, n)]
    assert not missing


def test_readme_dotted_names_import():
    dotted = set(re.findall(r"\bdunklsim\.(\w+)\.([A-Za-z_]\w*)", README))
    assert ("coefficients", "LinearSigma") in dotted
    missing = [f"dunklsim.{mod}.{name}" for mod, name in sorted(dotted)
               if not hasattr(importlib.import_module(f"dunklsim.{mod}"), name)]
    assert not missing
