"""Every script in ``examples/`` runs end to end.

Each is a narrative a reader copies from, so each is run here as
``python examples/<name>.py`` would run it (``__main__``, in process) and
must finish without raising and print its story.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_end_to_end(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()
