"""One parctrl CLI invocation with layer spans recorded.

    python -m perfbench.traced_cli <spans.json> <command> --config <cfg> --out <dir>

Writes {"spans": [...], "missing": [...]} to <spans.json> and exits with the
CLI's exit code.
"""

from __future__ import annotations

import json
import sys

from perfbench.tracing import Recorder, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    idx = recorder.open("cli.import")
    import parctrl.cli as cli
    recorder.close(idx)
    missing = install(recorder)
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "missing": missing}, fh)


if __name__ == "__main__":
    sys.exit(main())
