"""The README's library quick start runs as written and prints what it claims."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_quick_start_runs_and_prints_the_stage_sizes(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    blocks = python_blocks(text)
    assert len(blocks) >= 4
    claimed = re.search(r"^print\(plan\.stage_ns\)\s+# (.+)$", blocks[0], flags=re.M)
    assert claimed, "the first block prints plan.stage_ns with its value as a comment"
    monkeypatch.chdir(tmp_path)  # the blocks save plan.json to the working directory
    namespace = {}
    outputs = []
    for block in blocks:  # in order: later blocks use the names earlier ones bind
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            exec(compile(block, str(README), "exec"), namespace)
        outputs.append(buf.getvalue().splitlines())
    assert outputs[0][0] == claimed.group(1).strip()
    assert (tmp_path / "plan.json").exists()
