"""Run the braidcalc CLI with span wrappers installed.

Usage: python3 perfbench/launcher.py RECORD_FILE VERB [ARGS...]

Behaves like ``python3 -m braidcalc.cli VERB [ARGS...]`` (same stdout,
stderr and exit code) and afterwards writes the spans and counters of
the call to RECORD_FILE as JSON.  ``src`` must be on PYTHONPATH.
"""

import json
import sys

import spans


def main() -> int:
    record, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    index = tracer.begin("cli.import")
    import braidcalc.cli

    tracer.end(index)
    before = spans.cache_snapshot()
    undo = spans.install(tracer)
    try:
        code = braidcalc.cli.main(argv)
    finally:
        spans.restore(undo)
    tracer.counters.update(spans.cache_delta(before, spans.cache_snapshot()))
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
