"""``python -m repro <args>`` with the layer wrappers installed.

The traced leg of the ``cli_cold`` workload::

    python perfbench/cli_child.py --layers-out layers.json -- simulate ...

times ``import repro``, wraps each layer's public functions, runs the
CLI's ``main`` on the remaining arguments, and writes the per-layer
metrics and the wrapper table to ``--layers-out``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402  (imports no part of repro by itself)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--layers-out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    imported = layers.timed_import()
    tracer = layers.Tracer().install()
    from repro.cli import main as cli_main

    code = cli_main(argv[3:])
    tracer.close()
    metrics = dict(imported, **layers.layer_metrics(tracer))
    Path(argv[1]).write_text(
        json.dumps({"layers": metrics, "wrappers": tracer.table()})
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
