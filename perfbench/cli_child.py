"""Run one traced `rspb` invocation: `cli_child.py SPAN_FILE ARGV...`.

Times the import of rspb.cli in this fresh interpreter, installs the tracer,
runs `rspb.cli.main(ARGV)` with stdout untouched, and writes the spans and
the import time to SPAN_FILE as JSON.
"""

import json
import sys
import time

t0 = time.perf_counter()
import rspb.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402

tr = Tracer()
tr.install()
code = 0
try:
    code = rspb.cli.main(sys.argv[2:])
except SystemExit as exc:  # argparse exits on bad arguments
    code = exc.code
finally:
    sys.stdout.flush()
    with open(sys.argv[1], "w") as fh:
        json.dump({"spans": tr.spans, "import_s": import_s}, fh)
sys.exit(code)
