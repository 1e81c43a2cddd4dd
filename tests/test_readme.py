import json
import re
from pathlib import Path

from ecpsim.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    tree_total, closed_form = float(lines[0]), float(lines[1])
    assert abs(tree_total - closed_form) < 1e-12


def test_readme_config_file_runs(tmp_path, capsys):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    cfg = json.loads(blocks[0])
    path = tmp_path / "run.json"
    path.write_text(blocks[0])

    trace_file = tmp_path / "trace.json"
    assert main(["simulate", "--config", str(path), "--out", str(trace_file)]) == 0
    trace = json.loads(trace_file.read_text())
    assert trace["config"]["rng_seed"] == cfg["seed"]
    assert trace["monte_carlo"]["shots"] == cfg["shots"]
    assert {k: trace["config"]["cavity"][k] for k in cfg["cavity"]} == cfg["cavity"]

    # Flags override the file: the exact tree at (2, 2) rounds, with its pinned total.
    assert main(["simulate", "--config", str(path), "--mode", "tree", "--rounds", "2,2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total_success_probability=0.27723021164135453"

    csv_file = tmp_path / "curve.csv"
    assert main(["sweep", "--config", str(path), "--out", str(csv_file)]) == 0
    assert len(csv_file.read_text().splitlines()) == 1 + cfg["sweep"]["points"]
    capsys.readouterr()
