"""Import caplim from the checkout, parse the given configs, print ``ready``.

The line carries the CPU seconds the process used since it started, which
``bench/run.py`` reports as set-up time.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import caplim.cli  # noqa: E402,F401
from caplim.config import parse_config  # noqa: E402

for path in sys.argv[1:]:
    parse_config(path)
print(f"ready {time.process_time()!r}", flush=True)
