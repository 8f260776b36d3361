"""Smoke tests: every example script must run cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)

#: arguments for the examples whose default size is slow to smoke-test;
#: every other example runs as a reader would first run it
ARGS = {"partitioner_comparison": ["uk", "0.05"], "distributed_pagerank": ["0.05"]}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script), *ARGS.get(script.stem, [])],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"{script.name} failed:\n{result.stdout}\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{script.name} printed nothing"


def test_examples_directory_complete():
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names
    assert len(names) >= 3  # the deliverable floor: quickstart + 2 scenarios
