"""Frozen value records: what this package used of ``@dataclass(frozen=True)``,
without importing `dataclasses` (which loads `inspect`, `ast` and `tokenize`).

The names annotated in the class body are the fields, in order; a class
attribute of the same name is a default, ``field(default_factory=f)`` a
fresh one per instance.  One ``exec`` builds ``__init__`` (then
``__post_init__``, if any), ``__hash__`` and ``__eq__``, both over
``(self.a, self.b,)``, ``__eq__`` only between instances of one class, as
`dataclasses` does.  ``__repr__`` reads
``Name(a=1, b=2)``; assignment raises `FrozenRecordError`.  Methods the
class body defines are kept; instances keep ``__dict__`` for `cached_property`.
"""

_NONE = object()


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


class field:
    """A default built afresh for each instance, as `dataclasses.field`."""

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


def _repr(self):
    pairs = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__record_fields__)
    return f"{type(self).__qualname__}({pairs})"


def _frozen(self, name, *value):
    raise FrozenRecordError(f"cannot assign to or delete field {name!r}")


def record(cls):
    """Make `cls` a frozen record; see the module docstring."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    ns = {"_set": object.__setattr__, "_NONE": _NONE}
    args, body = ["self"], []
    for n in names:
        arg = value = n
        if n in cls.__dict__:
            default = ns[f"_d_{n}"] = cls.__dict__[n]
            arg = f"{n}=_d_{n}"
            if isinstance(default, field):
                delattr(cls, n)
                ns[f"_d_{n}"] = default.default_factory
                arg, value = f"{n}=_NONE", f"_d_{n}() if {n} is _NONE else {n}"
        args.append(arg)
        body.append(f"    _set(self, {n!r}, {value})\n")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()\n")
    mine = "".join(f"self.{n}," for n in names)
    theirs = "".join(f"other.{n}," for n in names)
    exec(f"def __init__({', '.join(args)}):\n{''.join(body)}"
         f"def __hash__(self):\n    return hash(({mine}))\n"
         f"def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
         f"        return ({mine}) == ({theirs})\n    return NotImplemented\n", ns)
    made = {m: ns[m] for m in ("__init__", "__hash__", "__eq__")}
    made |= {"__repr__": _repr, "__setattr__": _frozen, "__delattr__": _frozen}
    cls.__record_fields__ = names
    for name, method in made.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls
