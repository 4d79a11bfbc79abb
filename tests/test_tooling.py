"""The census script and the CI workflow, run or read as they are written."""
import re
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# a path under tests/data or scripts; one that a shell variable completes is not matched
NAMED_PATH = re.compile(r"(?:tests/data|scripts)/[\w.-]+(?![\w.$/-])")


def test_census_script_at_orders_1_to_4():
    # CI runs the script only with --large; this is its order 1-4 summary
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "census.py"), "--moves", "--counts"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    assert [line for line in done.stdout.splitlines() if line.startswith("n=")] == [
        "n=1: 1 tribrackets",
        "n=1: 2 algebras pass every non-IH move",
        "n=1: 14 counts agree with brute force",
        "n=2: 2 tribrackets",
        "n=2: 4 algebras pass every non-IH move",
        "n=2: 26 counts agree with brute force",
        "n=3: 12 tribrackets",
        "n=3: 19 algebras pass every non-IH move",
        "n=3: 116 counts agree with brute force",
        "n=4: 168 tribrackets",
        "n=4: 208 algebras pass every non-IH move",
        "n=4: 1268 counts agree with brute force",
    ]


class TestWorkflow:
    """The workflow was once invalid YAML for a long stretch, and no local run noticed."""

    def steps(self):
        jobs = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]
        assert sorted(jobs) == ["benchmark-smoke", "tier1"]
        assert all(job["steps"] for job in jobs.values())
        return [step for job in jobs.values() for step in job["steps"]]

    def test_each_step_either_runs_a_command_or_uses_an_action(self):
        for step in self.steps():
            assert ("run" in step) != ("uses" in step), step

    def test_every_data_file_and_script_a_step_names_exists(self):
        named = {p for step in self.steps() for p in NAMED_PATH.findall(step.get("run", ""))}
        assert {"scripts/census.py", "scripts/reproduce.py", "tests/data/demo.txt"} <= named
        assert [p for p in sorted(named) if not (ROOT / p).is_file()] == []


def test_roadmap_aim_2_gives_the_line_count_of_src():
    # aim 2 measures progress by this number, and it once went stale by 105 lines
    aim = re.search(
        r"`wc -l src/tribrackets/\*\.py`\s+\((\d+) today", (ROOT / "ROADMAP.md").read_text("utf-8")
    )
    assert aim, "ROADMAP aim 2 no longer gives the count as `wc -l src/tribrackets/*.py` (N today"
    files = sorted((ROOT / "src" / "tribrackets").glob("*.py"))
    assert int(aim.group(1)) == sum(f.read_bytes().count(b"\n") for f in files)
