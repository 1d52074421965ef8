"""Launch ``repro serve`` with timing wrappers around public entry points.

    python3 perfbench/traced_serve.py SPANS.json serve events.csv --port 0

Runs the CLI in this process exactly as ``python -m repro`` does, keeps
every span in memory and writes them to SPANS.json when the server exits
(on SIGINT), so the traced server has the untraced one's process layout.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402


def main() -> int:
    spans_path, cli_args = sys.argv[1], sys.argv[2:]
    common.require_source_tree()
    import tracing
    from repro.cli import main as cli_main

    log = tracing.SpanLog()
    tracing.install_server_wrappers(log)
    try:
        return cli_main(cli_args)
    finally:
        log.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
