"""Exception types shared across the simulator, and the input readers that raise them."""

import json
import math
import sys
from collections.abc import Collection
from contextlib import contextmanager


class AgreesimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(AgreesimError):
    """Invalid scenario, grid, or CLI configuration."""


class ProtocolError(AgreesimError):
    """A protocol-level contract was violated (bad inbox, bad reduce call)."""


class TraceError(AgreesimError):
    """A trace is malformed or a query falls outside its round range."""


class AnalysisError(AgreesimError):
    """An analysis precondition failed or internal cross-checks disagreed."""


_FLOAT_MAX = sys.float_info.max

# What reading a missing key, wrong type, short list, too-large integer or
# too deeply nested JSON raises.
MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError,
             RecursionError, ProtocolError)


def describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


@contextmanager
def malformed(error: type[AgreesimError], what: str):
    """Turn a missing key, wrong type, short list or too-large integer in an input into ``error``."""
    try:
        yield
    except MALFORMED as exc:
        raise error(f"{what} ({describe(exc)})") from None


def require_types(types: set, field: str, values: Collection) -> None:
    """Raise TypeError unless every value's type is in ``types``, so never for a bool.

    A number field (``float`` in ``types``) must also lie within float range:
    a larger integer breaks float arithmetic, JSON's ``1e400`` reads as inf,
    and a NaN is no number. Traces, step vectors, scenarios, sweep grid
    cells and scripted tables are all read by this one rule.
    """
    if not set(map(type, values)) <= types:
        raise TypeError(f"{field} must hold {'numbers' if float in types else 'integers'}")
    # min and max pass over a NaN unless it comes first, but it makes the sum
    # NaN. Within the bounds no other sum is: one that overflows stays inf.
    if float in types and values and (
        not -_FLOAT_MAX <= min(values) <= max(values) <= _FLOAT_MAX
        or math.isnan(sum(values, 0.0))
    ):
        raise ValueError(f"{field} must lie within float range")


def decimal_key(key, what: str) -> int:
    """The integer a JSON object key names, which must be written as its canonical decimal.

    ``int`` alone reads "00", "+0", " 0" and "0_0" as 0, and one of them
    beside "0" would shadow the entry of 0. An int key, as a scenario built
    in Python may hold, names itself.
    """
    number = int(key)
    if str(number) != str(key):
        raise ValueError(f"{what} {key!r} is not a canonical decimal")
    return number


def read_json(path, what: str):
    """The JSON document at ``path``, read as UTF-8 whatever the locale, or a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
