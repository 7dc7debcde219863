"""Traced stand-in for ``python -m routercell.cli`` used by the cli workload.

Usage: ``python bench/cli_shim.py SPANS_JSON [routercell cli arguments...]``
with ``src`` on ``PYTHONPATH``.  It times ``import routercell.cli``,
installs the benchmark's wrappers, runs ``routercell.cli.main(argv)`` and
writes the spans and the import time to ``SPANS_JSON``.  Its exit code is
that of ``main``.
"""

import json
import sys
import time

from tracing import Tracer, quiet_counting_warnings


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import routercell.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    quiet_counting_warnings(tracer)
    tracer.install()
    try:
        code = routercell.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans,
                       "warnings": dict(tracer.warnings)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
