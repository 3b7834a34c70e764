"""The one base class of the package's immutable value types.

It keeps the contract of ``@dataclass(frozen=True)`` without importing
``dataclasses`` (which imports ``inspect``) or generating code per class: both
would cost start-up time in every cold command-line process.
"""


class Frozen:
    """An immutable record whose fields are its annotated class attributes.

    A subclass declares its fields in its body, in order, as ``name: type``;
    ``name: type = value`` gives the field a default (shared by every
    instance, so it must be immutable). Fields of a ``Frozen`` base class
    come first. No code is generated: the field names are read from
    ``__annotations__`` once, when the subclass is created. The contract:

    - ``Name(*args, **kwargs)`` binds positional and keyword arguments to the
      fields in order and fills the rest from their defaults; a missing,
      repeated or unknown field raises ``TypeError``.
    - ``__post_init__`` runs last. It is looked up on the instance at each
      construction, so a wrapper set on the class later takes effect. Inside
      it, ``object.__setattr__(self, name, value)`` may normalise a field.
    - Instances are equal when they have the same type and equal field
      tuples; against any other type ``__eq__`` returns ``NotImplemented``.
      The hash is the hash of the field tuple, computed once per instance:
      a solver cache looks up a whole nested domain on every call.
    - Assigning or deleting an attribute raises ``AttributeError``.
    - ``repr`` is ``Name(field=value, ...)`` with each value's ``repr``.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        own = tuple(cls.__dict__.get("__annotations__", {}))
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values in order, from arguments and defaults."""
        name = cls.__name__
        if len(args) > len(cls._fields):
            raise TypeError(f"{name}() takes {len(cls._fields)} arguments but {len(args)} were given")
        values = {**cls._defaults, **dict(zip(cls._fields, args))}
        for key, value in kwargs.items():
            if key not in cls._fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in cls._fields[:len(args)]:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [key for key in cls._fields if key not in values]
        if missing:
            raise TypeError(f"{name}() missing required argument(s): {', '.join(missing)}")
        return tuple(values[key] for key in cls._fields)

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def as_dict(self) -> dict:
        """The fields by name, in declaration order."""
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self._values())
            object.__setattr__(self, "_hash", h)
        return h

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={value!r}" for key, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"
