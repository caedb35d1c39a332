"""One cold set-up of matmean: import the package and finish one minimal
CLI call, in a fresh interpreter.  Prints {"setup_s": ..., "rc": ...}.

    python3 perfbench/setup_probe.py suite --trials 1 --out <file>
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
from matmean import cli  # noqa: E402  (the import is what is timed)

rc = cli.main(sys.argv[1:])
print(json.dumps({"setup_s": time.perf_counter() - start, "rc": rc}))
