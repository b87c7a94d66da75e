"""The repository's pytest settings reject a misspelt marker."""
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_misspelt_marker_fails_collection(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "test_typo.py").write_text(
        "import pytest\n\n\n@pytest.mark.slwo\ndef test_marked():\n    pass\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_typo.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0, result.stdout
    assert "slwo" in result.stdout
    assert "1 passed" not in result.stdout
