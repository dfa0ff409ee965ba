"""Exception types shared across the simulator, the type tests that
decide when an input raises ``InvalidParameters``, and the one reader of
the fields of a JSON object."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# field checks for read_fields: a test of the value, and what passes it
ANY = (lambda value: True, "any value")
INTEGER = (_is_int, "an integer")
COUNT = (lambda value: _is_int(value) and value >= 0, "an integer >= 0")
NUMBER = (_is_real, "a number")
LIST = (lambda value: isinstance(value, list), "a JSON list")


def below(bound: int) -> tuple:
    """The field check of an index into ``bound`` items."""
    return (lambda value: _is_int(value) and 0 <= value < bound), f"an integer in [0, {bound})"


def read_fields(data, what: str, checks: dict, defaults: dict = {}) -> dict:
    """The fields of ``data``, a JSON object read as a ``what``: ``checks``
    maps each key to its field check, and ``defaults`` holds the values of
    the keys that may be left out. A value that is no object, a missing or
    unknown key, or a field that fails its check raises InvalidParameters
    that names the key."""
    if not isinstance(data, dict):
        raise InvalidParameters(f"{what} must be a JSON object")
    values = {**defaults, **data}
    if values.keys() != checks.keys():
        for problem, keys in (("missing", checks.keys() - values),
                              ("unknown", values - checks.keys())):
            if keys:
                raise InvalidParameters(f"{problem} {what} keys: {', '.join(sorted(keys))}")
    for key, value in data.items():
        test, kind = checks[key]
        if not test(value):
            raise InvalidParameters(f"{what} field {key} must be {kind}, got {value!r}")
    return values


class CountingError(Exception):
    """Base class for all adncount errors."""


class InvalidParameters(CountingError, ValueError):
    """An input the package refuses: a parameter outside its range or its
    family's rules, a malformed JSON file, a snapshot over the degree
    bound, or a round budget beyond 128 bits."""


class RoundLimitExceeded(CountingError):
    """The safety cap on total rounds was hit.

    When raised by ``count`` the ``record`` attribute carries the partial
    run record (status ``round_limit``) accumulated up to the cap.
    """

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record
