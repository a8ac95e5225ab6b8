import os
import re
import sys
from pathlib import Path

import pytest

from ctxtree import Context, CStree, Stage, Staging, StateSpace


def _staging(level, contexts):
    return Staging(level, [Stage(Context(c), level) for c in contexts])


@pytest.fixture
def child_env() -> dict:
    """The environment of a child Python process: the package's source tree
    first on PYTHONPATH, so the package need not be installed, and warnings
    as errors, as the suite's ``filterwarnings`` makes them in process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error"}


@pytest.fixture
def four_var_tree_a() -> CStree:
    """Four binary variables, order 0123.  Level 1 is unsplit; level 2 has a
    one-variable stage {1=1} and two singletons; level 3 has stages {2=0},
    {1=0,2=1}, and two singletons."""
    space = StateSpace([2, 2, 2, 2])
    stagings = [
        _staging(1, [{}]),
        _staging(2, [{1: 1}, {0: 0, 1: 0}, {0: 1, 1: 0}]),
        _staging(3, [{2: 0}, {1: 0, 2: 1}, {0: 0, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 1}]),
    ]
    return CStree((0, 1, 2, 3), space, stagings)


@pytest.fixture
def four_var_tree_b() -> CStree:
    """Four binary variables, order 0123.  Level 3 pairs variable 0 with
    variable 2 in three stages and leaves the (0, *, 0) outcomes as
    singletons."""
    space = StateSpace([2, 2, 2, 2])
    stagings = [
        _staging(1, [{}]),
        _staging(2, [{1: 1}, {0: 0, 1: 0}, {0: 1, 1: 0}]),
        _staging(
            3,
            [
                {0: 1, 2: 1},
                {0: 1, 2: 0},
                {0: 0, 2: 1},
                {0: 0, 1: 0, 2: 0},
                {0: 0, 1: 1, 2: 0},
            ],
        ),
    ]
    return CStree((0, 1, 2, 3), space, stagings)


@pytest.fixture(params=["missing", "overlapping"])
def non_partition_doc(request) -> dict:
    """A two-variable model document whose level 1 is not a partition: it
    holds only the stage {X0=0}, so X0=1 is in no stage ("missing"), or the
    stages {} and {X0=0}, so X0=0 is in both ("overlapping")."""
    level_1 = [{"context": {"0": 0}, "probs": [0.3, 0.7]}]
    if request.param == "overlapping":
        level_1.insert(0, {"context": {}, "probs": [0.6, 0.4]})
    return {
        "order": [0, 1],
        "cards": [2, 2],
        "stagings": [[{"context": {}, "probs": [0.5, 0.5]}], level_1],
    }


@pytest.fixture
def nan_probs_doc() -> dict:
    """A two-variable model document whose root stage has NaN probabilities;
    ``json.dumps`` writes them as the ``NaN`` token, which ``json.load``
    accepts."""
    return {
        "order": [0, 1],
        "cards": [2, 2],
        "stagings": [
            [{"context": {}, "probs": [float("nan"), float("nan")]}],
            [{"context": {}, "probs": [0.5, 0.5]}],
        ],
    }


MALFORMED_MODEL_DOCS = {
    "no-context": {"order": [0], "cards": [2], "stagings": [[{"probs": [0.5, 0.5]}]]},
    "non-integer-key": {
        "order": [0, 1],
        "cards": [2, 2],
        "stagings": [[{"context": {}}], [{"context": {"a": 0}}]],
    },
    "list-document": [{"order": [0], "cards": [2], "stagings": [[{"context": {}}]]}],
    "non-numeric-probs": {
        "order": [0],
        "cards": [2],
        "stagings": [[{"context": {}, "probs": ["a", "b"]}]],
    },
    "cards-not-a-list": {"order": [0], "cards": 2, "stagings": [[{"context": {}}]]},
    # "00", " 0" and "+0" would each name variable 0 a second time
    **{
        f"non-canonical-key-{name}": {
            "order": [0, 1],
            "cards": [2, 2],
            "stagings": [[{"context": {}}], [{"context": {"0": 0}}, {"context": {key: 1}}]],
        }
        for name, key in [("leading-zero", "00"), ("space", " 0"), ("sign", "+0")]
    },
    "string-probs": {
        "order": [0],
        "cards": [2],
        "stagings": [[{"context": {}, "probs": ["0.5", "0.5"]}]],
    },
    "bool-probs": {
        "order": [0],
        "cards": [2],
        "stagings": [[{"context": {}, "probs": [True, False]}]],
    },
    "label-key-outside-model": {
        "order": [0],
        "cards": [2],
        "labels": {"5": ["a", "b"]},
        "stagings": [[{"context": {}}]],
    },
}


@pytest.fixture(params=list(MALFORMED_MODEL_DOCS))
def malformed_model_doc(request):
    """A model document the loader must refuse with ParseError."""
    return MALFORMED_MODEL_DOCS[request.param]


def pytest_runtest_logreport(report):
    """Print one pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if not m:
        return
    status = "PASS" if report.passed else "FAIL"
    sys.stderr.write(f"\n[acceptance] criterion {int(m.group(1))}: {status}\n")
