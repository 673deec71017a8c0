"""Exception types and the record base class shared across the library."""


class Record:
    """Base of the package's value records.

    A subclass lists its fields as annotations, in order, and gives a
    default as a class attribute.  A record is built by position or by
    keyword, equals only a record of its own class with equal fields,
    hashes as the tuple of its fields, prints as ``Cls(field=value, ...)``
    and refuses assignment.  Nothing is generated when a subclass is
    made: the fields live in the instance ``__dict__``, set in one call,
    and a subclass built on a hot path writes its own ``__init__`` that
    fills ``__dict__`` in field order.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the class's own annotations, which stay unevaluated strings
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        object.__setattr__(self, "__dict__", dict(zip(self._fields, args)))

    def _bind(self, args, kwargs):
        """The field values, in order, of a call with keywords or defaults."""
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        values = list(args)
        for f in fields[len(args):]:
            if f in kwargs:
                values.append(kwargs.pop(f))
            elif f in self._defaults:
                values.append(self._defaults[f])
            else:
                raise TypeError(f"{name}() missing field {f!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected or repeated field {next(iter(kwargs))!r}")
        return values

    def _values(self):
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def _asdict(self):
        """The fields by name, in field order (shallow)."""
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a record")


class HopfGaloisError(Exception):
    """Base class for all library errors."""


class DegreeMismatchError(HopfGaloisError):
    """Permutations of different degrees were combined."""


class CapExceededError(HopfGaloisError):
    """A closure grew past its element cap (mis-sized search, not a bug)."""


class BoundExceededError(HopfGaloisError):
    """An enumeration was attempted outside its configured bounds."""


class PreconditionError(HopfGaloisError):
    """An operation was called on input outside its stated domain."""


class UnsupportedOrderError(HopfGaloisError):
    """No complete catalog is available for the requested group order."""


class BudgetExceededError(HopfGaloisError):
    """An exhaustive count ran out of its time budget; no count produced."""


class CountingBugError(HopfGaloisError):
    """An internal counting identity failed; signals an implementation bug."""


class SpecSyntaxError(HopfGaloisError):
    """Group-spec text failed to parse."""

    def __init__(self, message, position, expected=None):
        self.position = position
        self.expected = expected
        detail = f"at position {position}: {message}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class SpecSemanticError(HopfGaloisError):
    """Group-spec text parsed but carries invalid parameters."""
