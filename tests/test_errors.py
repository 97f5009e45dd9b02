"""Every exception class of trimtest.errors survives pickling with its stage prefix.

Size-study replications that run in worker processes send their
exceptions back pickled, so a failure there must arrive as the same
exception it would be in the calling process.  A stage also turns a
failed allocation into a NumericalError that names it.
"""

from __future__ import annotations

import inspect
import pickle

import pytest

from trimtest import errors

CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, BaseException) and cls.__module__ == errors.__name__
]


def _example(cls):
    return cls(2, 3, "adjusted design") if cls is errors.RankDeficiencyError else cls("bad cell")


def test_every_class_is_covered():
    assert {cls.__name__ for cls in CLASSES} == {
        "TrimtestError", "DataError", "NumericalError", "RankDeficiencyError"
    }


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_round_trips_through_pickle(cls):
    with pytest.raises(cls) as info:
        with errors.stage("mc"):
            raise _example(cls)
    exc = info.value
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert copy.args == exc.args
    assert copy.args[0].startswith("[mc] ")
    assert vars(copy) == vars(exc)


def test_rank_deficiency_keeps_its_fields():
    exc = pickle.loads(pickle.dumps(errors.RankDeficiencyError(2, 3, "adjusted design")))
    assert (exc.rank, exc.ncols, exc.stage) == (2, 3, "adjusted design")
    assert str(exc) == "adjusted design matrix is rank deficient: rank 2 < 3 columns"


def test_a_failed_allocation_is_a_numerical_error_naming_its_stage():
    # numpy words the message from the array's shape, not from args, so the
    # stage raises a NumericalError of its own rather than rewriting args.
    import numpy as np

    with pytest.raises(errors.NumericalError) as info:
        with errors.stage("test:main"):
            np.empty(10**15)
    assert str(info.value).startswith("[test:main] Unable to allocate ")
    assert isinstance(info.value.__cause__, MemoryError)
