"""Base of the package's immutable records."""


class Record:
    """Slotted record whose fields ``__init__`` sets once, with ``object.__setattr__``.

    Assigning or deleting a field afterwards raises AttributeError.  The
    records are plain classes, not ``dataclass(frozen=True)``, because of
    the import cost: on Python 3.11 the decorator exec()s about six
    generated methods per class, about 1.2 ms a class, in every process
    that imports psdfact.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")
