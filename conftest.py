"""Test-session setup for `tests/` and `perfbench/`.

Hypothesis mixes literals from the local non-test modules that are loaded
when it draws into its examples, so a derandomized property test would
draw other examples when run alone than in a full run, where more of them
are loaded by then. Every local module is therefore imported up front:
gramdec's through its CLI, which imports them all, and perfbench's
helpers.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "perfbench"))

import gramdec.cli  # noqa: E402,F401
import pb_inputs  # noqa: E402,F401
import pb_oracles  # noqa: E402,F401
import pb_trace  # noqa: E402,F401
import pb_workloads  # noqa: E402,F401
