#!/usr/bin/env python3
"""Record the seed-0 outputs of every workload op as reference files.

Run from the root of a checkout whose outputs are known to be right:

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes ``perfbench/reference/<workload>/<op index>.txt`` (the op's output
without its ``# git`` line; ``verify`` contributes its printed report).
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import checks  # noqa: E402
from perfbench.worker import Client  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main() -> int:
    from cqa_fermi import cli

    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            client = Client(cli, name, 0, tmp)
            os.makedirs(os.path.join(checks.REFERENCE_DIR, name),
                        exist_ok=True)
            for i, argv in enumerate(client.ops):
                _, rc, text, log = client.run_op(argv)
                if rc != 0:
                    print(f"{' '.join(argv)} exited {rc}:\n{log}",
                          file=sys.stderr)
                    return 1
                with open(checks.reference_path(name, i), "w",
                          encoding="utf-8") as fh:
                    fh.write("\n".join(checks.normalize(text)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
