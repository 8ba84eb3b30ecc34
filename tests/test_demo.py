import runpy
from pathlib import Path

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "demo.py"


def test_demo_runs_end_to_end(capsys):
    runpy.run_path(str(DEMO), run_name="__main__")
    out = capsys.readouterr().out
    assert "answer (1,) -> 3\nanswer (2,) -> 4\n" in out
    assert "after insert Follows(2,9)+=10: {(1,): 3, (2,): 14}" in out
    assert "after delete Account(1):    {(2,): 14}" in out
    assert "H entries: {(1, 1): 30, (2, 3): 14}" in out
