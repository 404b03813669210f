"""The committed reference data regenerates from mpmath alone."""

from pathlib import Path

import make_reference


def test_reference_script_never_imports_the_package():
    text = Path(make_reference.__file__).read_text()
    assert "import zetawave" not in text and "from zetawave" not in text


def test_sampled_entries_regenerate_identically():
    # two cheap entries (a y = 0 level sum and a limit sample); the full
    # check is `python3 perfbench/make_reference.py --check`
    assert make_reference.main(["--check", "--sample", "2", "--seed", "4"]) == 0
