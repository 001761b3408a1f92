"""Value types: what `@dataclass` gives a class, without `dataclasses`.

Importing `dataclasses` loads `inspect`, and decorating a class compiles its
methods from source; both cost set-up time in every process. `value_type`
instead gives a class equality, hashing, a repr and, if frozen, immutability
from shared functions, and `replace` stands in for `dataclasses.replace`.
A value type's `__match_args__` names its fields, in order.

The class writes its own `__init__`: the parameters after `self` are the
fields, in order, with their defaults, and the body sets each one (a frozen
class through `set_field`). A field that gets a new container per instance
defaults to `FRESH`. A class may define `__eq__`, `__hash__` or `__repr__`
itself, as `GroundAtom` does to cache its hash; `value_type` keeps those.
"""

from operator import attrgetter
from reprlib import recursive_repr

set_field = object.__setattr__  # sets a field of a frozen instance in its __init__


class _Fresh:
    def __repr__(self) -> str:
        return "<factory>"


FRESH = _Fresh()  # the default of a field that gets a new container per instance


def value_type(cls=None, /, *, frozen: bool = False, skip_compare=(), skip_repr=(),
               cache_hash: bool = False):
    """Like `@dataclass(frozen=...)`, with `skip_compare` and `skip_repr`
    naming the fields declared `compare=False` and `repr=False`. Instances
    are equal when their types are the same and their compared fields are
    equal; a frozen instance hashes as the tuple of its compared fields, and
    a mutable one is unhashable. With `cache_hash`, a frozen instance keeps
    its hash once computed, and is pickled without it."""
    if cls is None:
        return lambda cls: value_type(cls, frozen=frozen, skip_compare=skip_compare,
                                      skip_repr=skip_repr, cache_hash=cache_hash)
    code = cls.__init__.__code__
    names = cls.__match_args__ = code.co_varnames[1:code.co_argcount]
    compared = [name for name in names if name not in skip_compare]
    shown = [name for name in names if name not in skip_repr]
    if len(compared) > 1:
        key = attrgetter(*compared)
    elif compared:  # an attrgetter of one name gives the bare value
        get = attrgetter(*compared)

        def key(self):
            return (get(self),)
    else:
        def key(self):
            return ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    if cache_hash:
        def __hash__(self):
            try:
                return self._hash
            except AttributeError:
                set_field(self, "_hash", hash(key(self)))
                return self._hash

        def __reduce__(self):  # a str hash differs between processes: leave it out
            return self.__class__, tuple(getattr(self, name) for name in names)

        cls.__reduce__ = __reduce__
    else:
        def __hash__(self):
            return hash(key(self))

    @recursive_repr()
    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({fields})"

    own = vars(cls)
    if "__eq__" not in own:
        cls.__eq__ = __eq__
    if own.get("__hash__") is None:
        cls.__hash__ = __hash__ if frozen else None
    if "__repr__" not in own:
        cls.__repr__ = __repr__
    if frozen:
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    return cls


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def replace(obj, /, **changes):
    """A new instance of `obj`'s type with `changes` to its fields."""
    for name in obj.__match_args__:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)
