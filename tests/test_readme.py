"""The README's Python blocks run as written, and its example configs parse."""

import re
from pathlib import Path

from samkit import parse_config
from samkit.cli import main as cli_main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert blocks
    namespace = {}
    for code in blocks:
        exec(compile(code, str(README), "exec"), namespace)
    assert capsys.readouterr().out


def _ini_block(marker):
    """The one ini block of the README that holds ``marker``."""
    blocks = re.findall(r"^```ini\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    [text] = [text for text in blocks if marker in text]
    return text


def test_readme_example_config_parses(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_ini_block("kind = helmholtz_sweep"))
    spec, strategy, *_ = parse_config(cfg)
    assert spec.kind == "helmholtz_sweep" and strategy.events == ((0, "prec"), (15, "sam"))


def test_readme_generated_directory_config_reproduces_the_sequence(tmp_path):
    # samkit gen on the example config, then the README's config for its output directory
    example, from_dir = tmp_path / "run.cfg", tmp_path / "dir.cfg"
    example.write_text(_ini_block("kind = helmholtz_sweep"))
    assert cli_main(["gen", "--config", str(example), "--out", str(tmp_path / "dir")]) == 0
    from_dir.write_text(_ini_block("k_file = dir/k.mtx").replace("dir/", f"{tmp_path / 'dir'}/"))
    read, configured = parse_config(from_dir)[0], parse_config(example)[0]
    assert read.kind == "shifted_pair" and configured.kind == "helmholtz_sweep" and len(read) == len(configured)
    # bit for bit, scalar field included
    for x, y in [(read.shifts, configured.shifts), (read.rhs, configured.rhs),
                 *((getattr(A, arr), getattr(B, arr)) for A, B in zip(read.matrices, configured.matrices)
                   for arr in ("data", "indices", "indptr"))]:
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
