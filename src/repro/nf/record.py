"""Declared NF records: one field table derives the codec and the merge.

A record an NF keeps travels as a state chunk (§4.2): a JSON-friendly
dict, which a merging import rule combines into the record it holds. A
:class:`Record` subclass declares both as data. ``FIELDS`` lists the
fields in wire order: a name is an attribute keyed on the wire by the
name without leading underscores; a :class:`Field` adds a
:class:`Convert` or another key; a :class:`Tag` is a class constant
naming the record's kind. ``MERGE`` gives a merged record one rule per
field, ``(held, incoming) -> merged``: §4.2's "adding ... counters,
selecting the greatest or least value ... the union or intersection of
sets" are the helpers below, ``max`` and ``operator.or_`` / ``and_``.
``from_dict`` skips ``__init__``: the record's ``_rebuild`` restores
what is not on the wire (callbacks, sinks).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional


def _copy(value: Any) -> Any:
    """A value travels as itself; a list or dict as a copy, so a chunk
    never aliases the record it was exported from or imported into."""
    kind = value.__class__
    return kind(value) if kind is list or kind is dict else value


class Convert(NamedTuple):
    """How a field's value goes on the wire (``encode``) and comes back."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


PLAIN = Convert(_copy, _copy)


def nested(cls: type) -> Convert:
    """A field holding a record of ``cls``, or None."""
    return Convert(lambda record: None if record is None else record.to_dict(),
                   lambda data: None if data is None else cls.from_dict(data))


def nested_list(cls: type) -> Convert:
    """A field holding a list of records of ``cls``."""
    return Convert(lambda records: [record.to_dict() for record in records],
                   lambda items: [cls.from_dict(data) for data in items])


class Field(NamedTuple):
    """A declared field whose value is converted or whose key is not its name."""

    attr: str
    convert: Convert = PLAIN
    key: Optional[str] = None


class Tag(NamedTuple):
    """A class constant naming the record's kind on the wire: not loaded."""

    key: str
    value: str


def keep(held: Any, incoming: Any) -> Any:
    """A field a merge never changes (an identity, a size)."""
    return held


#: Counters add; timestamps take the most recent or the oldest.
add_counters, latest, earliest = operator.add, max, min


def union(held: Iterable[Any], incoming: Iterable[Any]) -> List[Any]:
    """Set merge: union, returned as a sorted list (JSON-friendly)."""
    return sorted(set(held) | set(incoming))


def ordered_union(held: List[Any], incoming: Iterable[Any]) -> List[Any]:
    """List merge: the held items, then each incoming one not yet held."""
    merged = list(held)
    for item in incoming:
        if item not in merged:
            merged.append(item)
    return merged


def overlay(held: Dict[str, Any], incoming: Dict[str, Any]) -> Dict[str, Any]:
    """Table merge: every entry of both, the incoming value on a clash."""
    return {**held, **incoming}


def first_non_empty(held: Any, incoming: Any) -> Any:
    """A guess merge: the held value unless it is still empty."""
    return held or incoming


class Record:
    """Base of a declared record: subclasses set ``FIELDS`` (and ``MERGE``)."""

    __slots__ = ()
    FIELDS: tuple = ()
    MERGE: Optional[Dict[str, Callable[[Any, Any], Any]]] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        encoders, decoders = [], []
        for field in cls.FIELDS:
            if isinstance(field, Tag):
                setattr(cls, field.key, field.value)
                encoders.append((field.key, field.key, _copy))
                continue
            if isinstance(field, str):
                field = Field(field)
            key = field.key or field.attr.lstrip("_")
            encoders.append((key, field.attr, field.convert.encode))
            decoders.append((field.attr, key, field.convert.decode))
        cls._encoders, cls._decoders = tuple(encoders), tuple(decoders)
        if cls.MERGE is None:
            return
        # A field the table leaves out would silently never merge.
        odd = set(cls.MERGE) ^ {attr for attr, _key, _decode in decoders}
        if odd:
            raise TypeError("%s.MERGE must give each field one rule; it "
                            "differs on %s" % (cls.__name__, sorted(odd)))
        cls._merges = tuple((attr, key, decode, cls.MERGE[attr])
                            for attr, key, decode in decoders
                            if cls.MERGE[attr] is not keep)

    def to_dict(self) -> Dict[str, Any]:
        return {key: encode(getattr(self, attr))
                for key, attr, encode in self._encoders}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Record":
        record = cls.__new__(cls)
        for attr, key, decode in cls._decoders:
            setattr(record, attr, decode(data[key]))
        record._rebuild()
        return record

    def _rebuild(self) -> None:
        """Restore the state that is not on the wire (none by default)."""

    def merge_from(self, data: Dict[str, Any]) -> None:
        for attr, key, decode, rule in self._merges:
            setattr(self, attr, rule(getattr(self, attr), decode(data[key])))
