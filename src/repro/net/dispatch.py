"""Per-class message dispatch tables.

Message kind ``"flower.query"`` is handled by the method
``handle_flower_query``.  Building that name and looking it up on every
delivery is too slow for the hottest path of the simulator, so every class
deriving from :class:`Dispatcher` keeps one table mapping a kind to a plain
function, called as ``handler(obj, message)``:

- each class gets its own, initially empty, table when it is created, so a
  subclass never inherits the entries its parent resolved: a subclass that
  overrides ``handle_x`` is never shadowed by the parent's cached function;
- a kind is resolved on the class, once, the first time it arrives
  (:meth:`Dispatcher._handler_for` is the resolution rule, which classes
  routing whole kind families to components override);
- rebinding or deleting an attribute of a class (a test's monkeypatch, a
  profiler wrapping methods) empties the tables of that class and of every
  subclass, so a cached function never outlives the attribute it came from.

The tables live on the classes: an instance holds no dispatch state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.net.message import Message

#: A resolved handler: a plain function called as ``handler(obj, message)``;
#: its return value (if any) is the RPC reply payload.
Handler = Callable[[Any, Message], Optional[Dict[str, Any]]]


def _forget_handlers(cls: type) -> None:
    cls._handlers.clear()
    for sub in cls.__subclasses__():
        _forget_handlers(sub)


class _DispatchMeta(type):
    """Gives each class its own table and keeps it in step with the class."""

    def __init__(cls, name, bases, namespace, **kwargs) -> None:
        super().__init__(name, bases, namespace, **kwargs)
        type.__setattr__(cls, "_handlers", {})

    def __setattr__(cls, name: str, value: Any) -> None:
        super().__setattr__(name, value)
        _forget_handlers(cls)

    def __delattr__(cls, name: str) -> None:
        super().__delattr__(name)
        _forget_handlers(cls)


class Dispatcher(metaclass=_DispatchMeta):
    """Base of every class that dispatches messages by kind (see module)."""

    __slots__ = ()

    #: kind -> handler, this class's own table (set by the metaclass).
    _handlers: Dict[str, Handler]

    @classmethod
    def _handler_for(cls, kind: str) -> Optional[Handler]:
        """The function that handles *kind* on this class, or None."""
        return getattr(cls, "handle_" + kind.replace(".", "_"), None)

    @classmethod
    def _resolve_handler(cls, kind: str) -> Optional[Handler]:
        """Resolve *kind* on this class and cache it in the class's table."""
        handler = cls._handler_for(kind)
        if handler is not None:
            cls._handlers[kind] = handler
        return handler
