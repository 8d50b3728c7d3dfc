import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_use_example_runs():
    """The README's one python block runs as written against the package,
    so a changed signature cannot leave it stale."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:python", "exec"), {})
