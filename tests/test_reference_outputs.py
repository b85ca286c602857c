"""Every seed-0 benchmark op reproduces its recorded reference output.

Each op of ``perfbench.workloads.WORKLOADS`` runs through ``cli.main`` and
its output, normalized as the benchmark does, must equal the file that
``perfbench/record_reference.py`` recorded, line for line.  The one
exception is ``htrs``: its correlators match only to the benchmark's rule
|a - b| <= 1e-14 + 1e-12 |b|, which it is held to.  When an output moves
on purpose, re-record the references and list every moved file as a
change to benchmark data.  The test only reads ``perfbench/``.
"""

import pytest

from cqa_fermi import cli
from perfbench import checks
from perfbench.workloads import WORKLOADS, command_lines

OPS = [(name, i, argv) for name in WORKLOADS
       for i, argv in enumerate(command_lines(name, 0))]
TOLERANT = {"htrs"}


@pytest.mark.parametrize("name,index,argv", OPS,
                         ids=[f"{name}-{i}" for name, i, _ in OPS])
def test_seed0_output_matches_reference(tmp_path, name, index, argv):
    out = tmp_path / "op.out"
    assert cli.main([*argv, "--output", str(out)]) == cli.EXIT_OK
    lines = checks.normalize(out.read_text())
    ref = checks.load_reference(name, index)
    if argv[0] in TOLERANT:
        assert checks.compare_lines(lines, ref) == []
    else:
        assert lines == ref
