"""Immutable value records, a light stand-in for frozen dataclasses.

A subclass of Record declares its fields as class annotations, optionally
with defaults.  Instances take the fields positionally or by keyword, run
``__post_init__`` when the class defines one, compare and hash by the
fields named in ``_compare`` (all fields unless the class says otherwise),
and refuse attribute assignment.

Importing the dataclasses module pulls in inspect, ast, dis and tokenize,
and every dataclass execs generated source; in a process without bytecode
caches that costs about a megabyte of resident memory, which this avoids.
"""


class Record:
    _fields = ()
    _defaults = {}
    _compare = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", {}))
        cls._fields = names
        cls._defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        if "_compare" not in cls.__dict__:
            cls._compare = names

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        self.__dict__.update(zip(cls._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """Field values in order from arguments, keywords and defaults."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments")
        values = list(args)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected argument {next(iter(kwargs))!r}")
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self):
        return tuple(self.__dict__[n] for n in self._compare)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{n}={self.__dict__[n]!r}" for n in self._fields)
        return f"{type(self).__name__}({body})"
