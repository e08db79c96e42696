"""Run one subsetkex CLI command under the layer tracer.

    python3 cli_child.py STATS_FILE <subsetkex arguments...>

Stdout and the exit code are the command's own; the tracer's totals and
spans go to STATS_FILE as JSON.  The traced cli-commands run uses this in
place of ``python3 -m subsetkex``.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import subsetkex.cli

    tracer = Tracer()
    tracer.install()
    try:
        return subsetkex.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
