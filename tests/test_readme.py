"""The README's Python blocks run as written, and its example config parses."""

import re
from pathlib import Path

from samkit import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert blocks
    namespace = {}
    for code in blocks:
        exec(compile(code, str(README), "exec"), namespace)
    assert capsys.readouterr().out


def test_readme_example_config_parses(tmp_path):
    blocks = re.findall(r"^```ini\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    full = [text for text in blocks if "kind = helmholtz_sweep" in text]
    assert len(full) == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text(full[0])
    spec, strategy, *_ = parse_config(cfg)
    assert spec.kind == "helmholtz_sweep" and strategy.events == ((0, "prec"), (15, "sam"))
