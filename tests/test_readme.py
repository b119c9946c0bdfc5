"""The examples in README.md run as written: the Python blocks in this
process, and the CLI tour as shell commands in a temporary directory,
so a change to the public API or the CLI that leaves them stale fails
here."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import signedspread

README = Path(__file__).resolve().parents[1] / "README.md"
# the directory that holds the signedspread these tests import (src/ in
# a checkout), so that the child interpreters run the same package
PACKAGE_ROOT = str(Path(signedspread.__file__).resolve().parents[1])


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = [(text.count("\n", 0, m.start()) + 1, m.group(1))
              for m in re.finditer(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)]
    assert blocks, "README.md has no python block"
    for line, code in blocks:
        # pad with blank lines so a traceback names the README's own line
        exec(compile("\n" * line + code, str(README), "exec"), {})


def cli_tour() -> list:
    """The commands of the README's CLI tour, continued lines joined and
    comments dropped."""
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## CLI tour"):]
    block = re.search(r"^```sh\n(.*?)^```$", tour, flags=re.M | re.S).group(1)
    lines = (line.strip() for line in block.replace("\\\n", " ").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def test_readme_cli_tour_runs(tmp_path):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    commands = cli_tour()
    assert len(commands) == 10
    for command in commands:
        # the graphviz line pipes the DOT text into dot, which is not ours
        if "--format dot" in command:
            command = command[:command.index("--format dot") + len("--format dot")]
        out = ""
        for stage in command.split("|"):
            program, *argv = shlex.split(stage)
            assert program == "signedspread", command
            proc = subprocess.run([sys.executable, "-m", "signedspread", *argv], input=out,
                                  capture_output=True, text=True, cwd=tmp_path, env=env,
                                  timeout=300)
            assert proc.returncode == 0, (stage, proc.stderr)
            out = proc.stdout
            if "--format dot" in stage:
                assert out.startswith("graph signedspread {"), stage
            elif out:
                assert json.loads(out)["schema"] == 1, stage
    assert (tmp_path / "a.json").is_file() and (tmp_path / "b.json").is_file()
