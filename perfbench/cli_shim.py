"""``crepcond`` command line with the benchmark's tracer installed.

    cli_shim.py SPANS_OUT <crepcond arguments...>

Times ``import crepcond.cli``, runs ``crepcond.cli.main`` on the remaining
arguments with every traced function wrapped, writes the spans plus the
import time to SPANS_OUT and exits with the CLI's exit code.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import crepcond.cli  # noqa: E402

import_s = perf_counter() - t0

from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    code = crepcond.cli.main(sys.argv[2:])
    doc = tracer.as_dict()
    doc["import_s"] = import_s
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    sys.exit(code)
