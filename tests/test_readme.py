"""The Python example in the README runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs(capsys):
    examples = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(examples) == 1
    exec(compile(examples[0], str(README), "exec"), {})
    # the example prints the metric distance of u_eps from the limit
    assert float(capsys.readouterr().out) > 0
