#!/usr/bin/env python
"""Smoke-run the README quickstart so the documented commands cannot drift.

Checks three things, failing loudly (non-zero exit) on any drift:

1. every fenced ``python`` code block in ``README.md`` executes without error
   (blocks run in order, sharing one namespace, with ``src`` on the path);
2. the documented tier-1 test command appears verbatim in the README;
3. the documented example / benchmark entry points actually exist on disk.

Run from anywhere::

    python scripts/check_readme_quickstart.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

TIER1_COMMAND = "PYTHONPATH=src python -m pytest -x -q"
DOCUMENTED_PATHS = [
    "examples/quickstart.py",
    "scripts/check_multichain_parity.py",
    "scripts/run_experiments.py",
    "scripts/check_storage_parity.py",
    "scripts/check_serve_parity.py",
    "perfbench/run.py",
    "docs/ARCHITECTURE.md",
]


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def main() -> None:
    readme = _REPO_ROOT / "README.md"
    if not readme.exists():
        fail("README.md does not exist")
    text = readme.read_text()

    if TIER1_COMMAND not in text:
        fail(f"README.md no longer documents the tier-1 command {TIER1_COMMAND!r}")

    for relative in DOCUMENTED_PATHS:
        if relative not in text:
            fail(f"README.md no longer mentions {relative}")
        if not (_REPO_ROOT / relative).exists():
            fail(f"README.md mentions {relative} but it does not exist")

    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    if not blocks:
        fail("README.md contains no ```python quickstart block to smoke-run")

    namespace: dict[str, object] = {"__name__": "__readme__"}
    for index, block in enumerate(blocks, start=1):
        print(f"running README python block {index}/{len(blocks)} "
              f"({len(block.splitlines())} lines)...")
        try:
            exec(compile(block, f"README.md#block{index}", "exec"), namespace)
        except Exception as error:  # pragma: no cover - the failure IS the signal
            fail(f"README python block {index} raised {type(error).__name__}: {error}")

    print("OK: README quickstart runs as written")


if __name__ == "__main__":
    main()
