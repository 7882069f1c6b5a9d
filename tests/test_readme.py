"""The README's Python blocks run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert blocks
    namespace = {}
    for code in blocks:
        exec(compile(code, str(README), "exec"), namespace)
    assert capsys.readouterr().out
