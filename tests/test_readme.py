"""README's library snippet runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_usage_snippet_runs(capsys):
    # the first python block is the Library usage example: a renamed or re-signatured public name fails here
    block = re.search(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert block and "run_point_schemes" in block.group(1)
    exec(compile(block.group(1), f"{README}:python", "exec"), {})
    ber, floor, ber_sim, ci95 = map(float, capsys.readouterr().out.split())
    assert 0.0 < floor < ber < 0.5 and 0.0 < ber_sim < 0.5 and ci95 > 0.0
