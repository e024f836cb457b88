"""Frozen record classes: the package's small value types.

The package does not use the standard library's data-class module. Most
commands are short processes dominated by start-up, and every one imports the
package's eleven record classes. The data-class decorator builds each class's
methods by ``exec`` of generated source, and importing its module pulls in
``inspect``, ``ast`` and ``dis``. On a 2-core x86_64 host with Python 3.11.7,
decorating the eleven classes took 9–15 ms per process and that import 7–11 ms;
``record`` takes 0.3–0.5 ms for all eleven, and ``import rfpcompare.cli`` fell
from 42–64 ms to 24–33 ms. ``record`` builds the methods as closures, with no
``exec`` and no ``inspect``, and keeps the fields in slots, whose own setters
let ``__init__`` write them about as fast as the generated code did.
"""

from __future__ import annotations

from operator import attrgetter


def record(cls=None, /, *, eq: bool = True):
    """Make ``cls`` a frozen record of its annotated fields.

    The constructor takes the fields, in order, positionally or by keyword; a
    class attribute of a field's name is its default, and ``_field_defaults``
    maps those fields to their defaults, as on a named tuple. A missing, unknown
    or repeated argument raises ``TypeError``. ``__post_init__``, if defined,
    runs after the fields are set. Assigning or deleting an attribute raises
    ``AttributeError``. Passing every field positionally is the quickest call:
    keywords cost a dict. The repr is ``Name(field=value!r, ...)``. With
    ``eq=True`` instances compare and hash by their field tuple (only against
    the same class); with ``eq=False`` by identity. ``copy`` and ``pickle``
    restore the fields without calling ``__post_init__``, as they did for a data
    class, and instances take weak references. The fields are slots, so the
    class returned is a new class built from ``cls``'s namespace.
    """
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    body = dict(cls.__dict__)
    names = tuple(body.get("__annotations__", ()))
    n = len(names)
    fields = frozenset(names)
    defaults = {name: body.pop(name) for name in names if name in body}
    post_init = body.get("__post_init__")
    qualname = cls.__qualname__
    values = attrgetter(*names)

    def bind(args: tuple, kwargs: dict) -> dict:
        """The fields of a call that is not one positional value per field:
        defaults filled in, ``TypeError`` for a bad call."""
        if len(args) > n:
            raise TypeError(f"{qualname}() takes {n} positional arguments "
                            f"but {len(args)} were given")
        if not fields.issuperset(kwargs):
            raise TypeError(f"{qualname}() got unexpected keyword arguments "
                            f"{sorted(kwargs.keys() - fields)}")
        bound = {**defaults, **kwargs}
        if args:
            repeated = kwargs.keys() & names[:len(args)]
            if repeated:
                raise TypeError(f"{qualname}() got multiple values for {sorted(repeated)}")
            bound.update(zip(names, args))
        if len(bound) < n:
            missing = [name for name in names if name not in bound]
            raise TypeError(f"{qualname}() missing required arguments {missing}")
        return bound

    def __init__(self, *args, **kwargs) -> None:
        # Each field is written by its slot's own setter, which skips the
        # frozen __setattr__ at about a quarter of the cost of object.__setattr__.
        if kwargs or len(args) != n:
            for name, value in bind(args, kwargs).items():
                setter[name](self, value)
        else:
            for set_field, value in zip(setters, args):
                set_field(self, value)
        if post_init is not None:
            post_init(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {qualname}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {qualname}")

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __setstate__(self, state: tuple) -> None:
        # copy and pickle restore the fields as they were: no __post_init__.
        for set_field, value in zip(setters, state):
            set_field(self, value)

    def __repr__(self) -> str:
        fields_text = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields_text})"

    methods = [__init__, __setattr__, __delattr__, __getstate__, __setstate__, __repr__]
    if eq:
        def __eq__(self, other: object) -> bool:
            if other.__class__ is not self.__class__:
                return NotImplemented
            return values(self) == values(other)

        def __hash__(self) -> int:
            return hash(values(self))

        methods += [__eq__, __hash__]
    for method in methods:
        method.__qualname__ = f"{qualname}.{method.__name__}"
        body[method.__name__] = method
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    cls = type(cls)(cls.__name__, cls.__bases__,
                    {**body, "__slots__": (*names, "__weakref__"), "__qualname__": qualname,
                     "_field_defaults": defaults})
    setter = {name: cls.__dict__[name].__set__ for name in names}
    setters = tuple(setter.values())
    return cls
