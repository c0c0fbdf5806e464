"""Shared exception types for the engine, and its one rule for counts."""


class ModskeinError(Exception):
    """Base class for engine errors."""


class StructureError(ModskeinError):
    """Malformed input data (bad tensor shapes, unknown names, bad JSON)."""


class CapabilityError(ModskeinError):
    """Operation needs structure the bundle does not carry (R, ribbon)."""


class InadmissibleError(ModskeinError):
    """Admissibility violated: empty boundary, or a lift through a
    non-projective object."""


class TypingError(ModskeinError):
    """Diagram slices do not compose; carries the offending slice index."""

    def __init__(self, slice_index, message):
        super().__init__("slice %s: %s" % (slice_index, message))
        self.slice_index = slice_index


def require_int(name: str, value) -> None:
    """Refuse a count that is not an int, naming it; a bool is refused too,
    since it would run as 0 or 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise StructureError("%s must be an int, not %r" % (name, value))
