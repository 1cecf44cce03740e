"""Start the ``repro serve`` daemon for the benchmark.

    python3 perfbench/serve_boot.py [--spans DIR] serve --socket S ...

With ``--spans``, the layer wrappers are installed before the entry
point runs (so the pool the daemon forks inherits them) and the
daemon's spans are written to DIR when it exits. Everything after the
optional flag goes to ``repro.cli.main`` unchanged.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv) -> int:
    span_dir = None
    if argv[:1] == ["--spans"]:
        span_dir, argv = argv[1], argv[2:]
    from repro import cli

    rec = None
    if span_dir is not None:
        import spans

        rec = spans.Recorder(span_dir)
        spans.install(rec)
    try:
        return cli.main(argv)
    finally:
        if rec is not None:
            rec.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
