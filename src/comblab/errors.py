"""Exception taxonomy shared by all comblab modules, and the shape checks
of the JSON readers.

The CLI maps these onto exit codes: contract/parse problems exit 2,
resource-bound refusals exit 3.
"""


class ComblabError(Exception):
    """Base class for all comblab errors."""


class ArgumentError(ComblabError):
    """A call violated an operation's contract (bad shapes, unknown indices, ...)."""


class ParseError(ComblabError):
    """Malformed textual input; carries the offending position when known."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class ResourceError(ComblabError):
    """A requested computation exceeds the resource budget."""


#: The one resource budget.  Every guard counts what its computation would
#: build (level nodes, combs, atoms, subsets, chains, classified pairs,
#: vertices) and refuses, before building it, a count above this.
BUDGET = 2_000_000


def require_within(count: int, doing: str, items: str) -> int:
    """`count` when it is within BUDGET, read at call time; otherwise a
    ResourceError saying "{doing} {count} {items}, over the limit"."""
    if count > BUDGET:
        raise ResourceError(f"{doing} {count} {items}, over the limit {BUDGET}")
    return count


_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list", object: "a value"}


def is_json_type(value, kind) -> bool:
    """Whether a decoded JSON value has the type; booleans are not integers."""
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def is_int_pair(value) -> bool:
    """Whether a decoded JSON value is a list of exactly two integers."""
    return isinstance(value, list) and len(value) == 2 and \
        all(is_json_type(v, int) for v in value)


def json_fields(payload, what: str, **kinds) -> list:
    """The values of the named fields of a JSON object, in keyword order.

    Each field must be present with the given type (`object` admits any
    value); otherwise ParseError names `what` and the field.
    """
    if not isinstance(payload, dict):
        raise ParseError(f"{what} must be a JSON object, got {type(payload).__name__}")
    values = []
    for key, kind in kinds.items():
        if key not in payload or not is_json_type(payload[key], kind):
            raise ParseError(f"{what} needs {key!r} as {_TYPE_NAMES[kind]}")
        values.append(payload[key])
    return values
