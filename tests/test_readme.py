"""The README's Python examples run as written, and its config block
lists every key."""

import re
from pathlib import Path

from kvsim.config import _KEYMAP

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    # each block may use the names an earlier one defined, as a reader would
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 3
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_config_block_lists_every_key():
    section = README.read_text().split("## Config format", 1)[1]
    block = re.search(r"^```ini\n(.*?)^```$", section, flags=re.DOTALL | re.MULTILINE).group(1)
    keys = {line.partition("=")[0].strip().lower() for line in block.splitlines() if "=" in line.split("#")[0]}
    assert keys == set(_KEYMAP)
