"""The README's Library example, run as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_prints_its_verdict(capsys):
    text = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    exec(block, {})  # its `from koopeq import *` sees only the package's exports
    assert capsys.readouterr().out.splitlines()[-1] == "Verdict.SEMI_CONJUGATE_A_INTO_B"
