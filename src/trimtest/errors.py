"""Exception types shared across the package, and the stage that names where one arose.

The CLI maps these onto exit codes: DataError -> 2, NumericalError -> 3.
Plain ValueError is used for ordinary precondition violations.
"""

from __future__ import annotations

from contextlib import contextmanager


class TrimtestError(Exception):
    """Base class for package-specific failures."""


class DataError(TrimtestError):
    """Malformed input data or configuration (CSV cells, config schema)."""


class NumericalError(TrimtestError):
    """Numerical failure: singular systems, non-finite values, degenerate KDE."""


class RankDeficiencyError(NumericalError):
    """Weighted design matrix is rank deficient."""

    def __init__(self, rank: int, ncols: int, stage: str = "design"):
        self.rank = rank
        self.ncols = ncols
        self.stage = stage
        super().__init__(
            f"{stage} matrix is rank deficient: rank {rank} < {ncols} columns"
        )

    def __reduce__(self):
        # Unpickle without __init__, keeping args (and any [stage] prefix) and the fields.
        return (type(self).__new__, (type(self), *self.args), self.__dict__)


def setting_error(field: str, message: str) -> ValueError:
    """A ValueError about one setting, naming its field in a `field` attribute.

    Raised by a settings dataclass, it lets the config reader name the key
    that filled the field.  The attribute survives pickling.
    """
    exc = ValueError(message)
    exc.field = field
    return exc


@contextmanager
def stage(name: str):
    """Re-raise a failure of the enclosed pipeline stage with `[name] ` before its message.

    An allocation that fails (a setting too large for memory) is a
    NumericalError: numpy words its message from the array's shape, not
    from args, so it is raised anew with the prefix.
    """
    try:
        yield
    except (TrimtestError, ValueError, KeyError) as exc:
        first = str(exc.args[0]) if exc.args else type(exc).__name__
        exc.args = (f"[{name}] {first}",) + tuple(exc.args[1:])
        raise
    except MemoryError as exc:
        raise NumericalError(f"[{name}] {exc}") from exc
