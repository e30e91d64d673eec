"""Base of the package's immutable records."""


def _constructor(cls):
    """Compile the constructor of ``cls``: fields by position or keyword, in ``__slots__`` order.

    Python binds the arguments, so a missing, unknown or repeated field
    raises TypeError.  A field named in ``cls._defaults`` may be omitted
    and takes that default, one value shared by every record.  Compiled
    once per class, the constructor costs what a hand-written one does: a
    generic ``*args, **kwargs`` one added 1.5-3% to a pipeline call.
    """
    fields, defaults = cls.__slots__, cls._defaults
    params = ", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in fields)
    lines = [f"def __init__(self, {params}):"] + [f"    _set(self, {f!r}, {f})" for f in fields]
    namespace = {"__name__": __name__, "_defaults": defaults, "_set": object.__setattr__}
    exec("\n".join(lines), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__name__}.__init__"
    return init


class Record:
    """Slotted record whose fields the constructor sets once, with ``object.__setattr__``.

    Every subclass gets, as ``_set_fields``, the constructor that
    ``_constructor`` compiles from its ``__slots__`` and its ``_defaults``
    table of immutable default values, and uses it as ``__init__`` unless
    it defines one.  Records that validate or derive fields define their
    own and end it with ``self._set_fields(...)``.

    Assigning or deleting a field afterwards raises AttributeError.  The
    records are plain classes, not ``dataclass(frozen=True)``, because of
    the import cost: on Python 3.11 the decorator exec()s about six
    generated methods per class, about 1.2 ms a class, in every process
    that imports psdfact.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._set_fields = _constructor(cls)
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._set_fields

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")
