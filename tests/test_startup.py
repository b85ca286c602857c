"""Start-up cost: each command imports only the modules it uses."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import cqa_fermi

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cqa_fermi.__file__)))

PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import cqa_fermi.cli
import cqa_fermi.pseudospin
after_import = scipy_modules()
rc = cqa_fermi.cli.main(["tfim", "--L", "4", "--t-final", "0.08",
                         "--samples", "3", "--output", sys.argv[1]])
tfim = scipy_modules()
rc_maxwell = cqa_fermi.cli.main(["mean-field", "--mu", "0.2:0.3:3",
                                 "--delta", "0.05", "--maxwell",
                                 "--output", sys.argv[2]])
print(json.dumps({"import": after_import, "rc": rc, "tfim": tfim,
                  "rc_maxwell": rc_maxwell, "maxwell": scipy_modules()}))
"""


def test_cli_tfim_and_maxwell_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path / "tf.csv"),
         str(tmp_path / "mf.csv")],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    probe = json.loads(out.stdout)
    assert probe["import"] == []
    assert probe["rc"] == 0
    assert probe["tfim"] == []
    assert probe["rc_maxwell"] == 0
    assert probe["maxwell"] == []


def test_no_source_file_imports_scipy_integrate():
    pattern = re.compile(
        r"scipy\.integrate|from\s+scipy\s+import\s.*integrate")
    offenders = [str(path) for path in pathlib.Path(SRC).rglob("*.py")
                 if pattern.search(path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        cqa_fermi.no_such_name  # noqa: B018
