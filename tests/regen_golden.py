"""Write ``tests/golden.json``, the digests that ``tests/test_golden.py`` compares.

    PYTHONPATH=src python tests/regen_golden.py

Run it only when a change to the command line's output is meant, and say
in the change which outputs moved and why.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_golden import GOLDEN, digests  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        found = digests(Path(directory))
    GOLDEN.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(found)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
