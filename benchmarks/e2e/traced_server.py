"""``python -m repro serve`` with the serving layers' spans installed.

Takes the same arguments as ``repro serve``.  The spans are installed
before the server boots; when the server has drained (SIGINT), their
aggregates are printed on one line prefixed ``E2E-SPANS``.
"""

from __future__ import annotations

import json
import sys

from layers import SpanRecorder, install_serve
from servework import SPANS_PREFIX

from repro.serve.cli import main_serve


def main() -> int:
    recorder = SpanRecorder()
    install_serve(recorder)
    code = main_serve(sys.argv[1:])
    print(SPANS_PREFIX + json.dumps(recorder.snapshot()), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
