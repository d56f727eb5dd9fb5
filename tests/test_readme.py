"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    # each block may use the names an earlier one defined, as a reader would
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 3
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
