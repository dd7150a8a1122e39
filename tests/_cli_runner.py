"""Run the kstab command line inside the test process and capture what it writes."""

import io
import os
import sys
from typing import NamedTuple, Optional

from kstab.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr mixed in the order they were written
    stdout_bytes: bytes


class _Copying(io.BytesIO):
    """A byte stream that also copies every write to another one."""

    def __init__(self, copy: io.BytesIO):
        super().__init__()
        self.copy = copy

    def write(self, data) -> int:
        self.copy.write(data)
        return super().write(data)


def invoke(args: list[str], env: Optional[dict[str, str]] = None) -> Result:
    """Run ``kstab <args>`` with ``env`` laid over ``os.environ`` (restored afterwards) and
    stdout and stderr as UTF-8 text streams.  An exception that escapes ``main`` propagates."""
    mixed = io.BytesIO()
    out, err = _Copying(mixed), _Copying(mixed)
    stdout = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    stderr = io.TextIOWrapper(err, encoding="utf-8", write_through=True)
    saved_env = {key: os.environ.get(key) for key in env or {}}
    saved_streams = sys.stdout, sys.stderr
    os.environ.update(env or {})
    sys.stdout, sys.stderr = stdout, stderr
    try:
        main(args)
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout, sys.stderr = saved_streams
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    stdout.flush()
    stderr.flush()
    return Result(code, out.getvalue().decode(), err.getvalue().decode(), mixed.getvalue().decode(), out.getvalue())
