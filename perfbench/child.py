"""One benchmark invocation: ``python3 child.py RECORD TRACE SRC -- CLI ARGS...``.

Does what ``python -m smalldivlab.cli CLI ARGS...`` does, and also
writes the RECORD file: when the import of ``smalldivlab.cli`` finished
(on the system-wide monotonic clock, so the parent can subtract its spawn
time) and, with TRACE = 1, the spans and counts of the run.  SRC is the
source tree the import must come from.
"""

import json
import os
import sys
import time


def main() -> int:
    record_path, trace, src, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RECORD TRACE SRC -- CLI ARGS...")
    import_start = time.monotonic()
    import smalldivlab.cli as cli

    import_done = time.monotonic()
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != src:
        raise SystemExit(f"smalldivlab imported from {cli.__file__}, not from {src}")
    record = {"import_start": import_start, "import_done": import_done}
    if trace == "1":
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
        code = recorder.call("cli", "main", cli.main, (argv,))
        record.update(recorder.record())
    else:
        code = cli.main(argv)
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
