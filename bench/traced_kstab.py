"""Run the ``kstab`` command with the benchmark's layer wrappers installed.

    python3 bench/traced_kstab.py TRACE_OUT verify --all --format json

behaves like ``kstab verify --all --format json`` and, on exit, writes the
per-layer sums of ``tracer.Tracer.summary`` plus ``cli.import_s`` (the time to
import ``kstab.cli``) to TRACE_OUT as JSON.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_out, args = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import kstab.cli  # noqa: F401

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code, out, err = tracer.run_cli(args)
    sys.stdout.write(out)
    sys.stderr.write(err)
    summary = tracer.summary()
    summary["cli.import_s"] = import_s
    Path(trace_out).write_text(json.dumps(summary))
    return 1 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
