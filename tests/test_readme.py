"""The README's library quick start runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_as_written():
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert 0.9 < namespace["accuracy"] <= 1.0
