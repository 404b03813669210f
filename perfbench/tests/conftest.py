import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))


@pytest.fixture(scope="session")
def reference():
    return json.loads((BENCH / "reference.json").read_text())
