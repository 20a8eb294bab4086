"""Golden corpus for the kgraph CLI: the exit code, stdout and stderr of
every command on every fixture, compared byte for byte with tests/golden/.
The cases and their runner live in golden_corpus.py, which also rewrites
the corpus after an intended output change.
"""

import pytest

from golden_corpus import CASES, GOLDEN, run_case, write_inputs


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case,fixture,argv", CASES,
                         ids=[c[0] for c in CASES])
def test_golden(case, fixture, argv, input_files):
    golden = GOLDEN / f"{case}.txt"
    assert golden.exists(), f"no golden file for {case}"
    assert run_case(fixture, argv, input_files) == \
        golden.read_text(encoding="utf-8")
