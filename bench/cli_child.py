"""One skewrh CLI command with the layer timer installed (traced runs).

    python3 bench/cli_child.py SNAPSHOT_JSON <skewrh arguments...>

Runs ``skewrh.cli.main`` on the arguments, exits with its code, and writes
the layer timer's snapshot (see layers.py) to SNAPSHOT_JSON on the way out.
The untraced cli-readme runs call ``python3 -m skewrh.cli`` instead.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import LayerTimer  # noqa: E402


def main():
    snapshot_path, argv = sys.argv[1], sys.argv[2:]
    timer = LayerTimer()
    timer.install()
    from skewrh import cli
    try:
        return cli.main(argv)
    finally:
        Path(snapshot_path).write_text(json.dumps(timer.snapshot()))


if __name__ == "__main__":
    sys.exit(main())
