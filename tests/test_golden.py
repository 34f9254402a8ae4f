"""Every shipped command writes the bytes recorded under ``tests/golden/``
(see its ``__init__``): the CSVs, the echoed configs and the stdout."""

import json

import numpy as np
import pytest

from golden import CASES, GOLDEN, MANIFEST, first_difference, outputs, run

RECORDED = json.loads(MANIFEST.read_text())


def test_manifest_lists_every_case():
    commands = {case: entry["commands"] for case, entry in RECORDED["cases"].items()}
    assert commands == {case: [" ".join(c) for c in runs] for case, runs in CASES.items()}


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_match_golden(case, tmp_path):
    expected = outputs(GOLDEN / case)
    where = (f"recorded with numpy {RECORDED['numpy']} on {RECORDED['platform']}, "
             f"running numpy {np.__version__}")
    for i, command in enumerate(CASES[case]):
        out_dir = tmp_path / str(i)
        out_dir.mkdir()
        run(command, out_dir)
        got = outputs(out_dir)
        assert sorted(got) == sorted(expected), f"{' '.join(command)}: files differ"
        for name, data in expected.items():
            assert got[name] == data, (f"{' '.join(command)}: "
                                       f"{first_difference(name, data, got[name])} ({where})")
