"""The README's library example, command lines, config file and circuit dump hold as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import oqsim.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_prints_a_revival():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert "monotone=False" in out.getvalue()


def _block(start):
    """The one unlabelled fenced block that starts with ``start``."""
    bare = re.findall(r"^```\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    (block,) = [b for b in bare if b.startswith(start)]
    return block


def test_readme_command_lines_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "experiment.cfg").write_text(_block("[experiment]\n"), encoding="utf-8")
    lines = [line.split("#", 1)[0] for line in _block("simulate ").splitlines()]
    configs = [line for line in lines if "experiment.cfg" in line]
    flags_only = [line for line in lines if ".cfg" not in line]
    assert len(configs) == 2 and len(flags_only) == 5
    for line in flags_only + configs:
        assert cli.main(shlex.split(line)[1:]) == 0, line


def test_readme_dump_block_is_the_dephasing_dump(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["--channel", "dephasing", "--mode", "markovian", "--theta", "pi/5",
            "--steps", "1", "--dump-circuit", "step.json"]
    assert cli.main(argv) == 0
    assert (tmp_path / "step.json").read_text(encoding="utf-8") == _block('{"label"')
