"""One cold ``liepar`` command for the cli_cold workload.

    python3 perfbench/cli_child.py [--spans FILE] -- <liepar arguments>

Imports liepar from the checkout's ``src/``, installs the benchmark's
tracer when ``--spans`` is given, runs ``liepar.cli.main`` and exits
with its code; the spans are written to FILE as JSON lines.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv):
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        sys.stderr.write(__doc__)
        return 2
    import liepar.cli

    if spans is None:
        return liepar.cli.main(argv[1:])
    from tracing import Tracer, write_jsonl

    tracer = Tracer()
    tracer.request = 0
    tracer.install()
    try:
        return liepar.cli.main(argv[1:])
    finally:
        write_jsonl(spans, tracer.records())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
