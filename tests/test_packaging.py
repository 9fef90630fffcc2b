"""The test dependencies are pinned once, in pyproject.toml's test extra:
CI's install step and the README's install line repeat those pins."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _pins(path: Path) -> list[str]:
    """The name==version pins of the one pip install line of path that
    installs pytest."""
    (line,) = [
        line for line in path.read_text(encoding="utf-8").splitlines()
        if "pip install" in line and "pytest" in line
    ]
    return sorted(re.findall(r"[\w.-]+==[\w.-]+", line))


def test_ci_and_the_readme_install_the_pinned_test_extra():
    tomllib = pytest.importorskip("tomllib")  # new in Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    assert all("==" in requirement for requirement in extra), extra
    assert _pins(ROOT / ".github" / "workflows" / "tier1.yml") == sorted(extra)
    assert _pins(ROOT / "README.md") == sorted(extra)
