"""The Python examples in README.md run as written, so a change to the
public API that leaves them stale fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = [(text.count("\n", 0, m.start()) + 1, m.group(1))
              for m in re.finditer(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)]
    assert blocks, "README.md has no python block"
    for line, code in blocks:
        # pad with blank lines so a traceback names the README's own line
        exec(compile("\n" * line + code, str(README), "exec"), {})
