"""Every command and route writes the bytes pinned in golden_outputs.json.

The runs are those of tools/same_bytes.py's golden list, each in a fresh
interpreter; the hashes were made by tools/gen_fixtures.py. They depend on
numpy's generator algorithms, so a numpy upgrade or a deliberate change of
output bytes regenerates them, and CHANGES.md records it.
"""

import json
import sys
from pathlib import Path

from conftest import FIXTURES

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from same_bytes import golden_hashes  # noqa: E402


def test_outputs_match_golden_hashes(tmp_path):
    golden = json.loads((Path(FIXTURES) / "golden_outputs.json").read_text())
    runs = golden_hashes(ROOT / "src", tmp_path, golden["seed"])
    assert runs.keys() == golden["runs"].keys()
    differ = [
        f"{name}: {path}"
        for name, hashes in runs.items()
        for path in hashes.keys() | golden["runs"][name].keys()
        if hashes.get(path) != golden["runs"][name].get(path)
    ]
    assert differ == []
