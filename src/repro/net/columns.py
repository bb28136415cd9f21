"""Row logs held column by column.

The ground-truth logs (``Switch.forward_log``, an NF's ``processing_log``
and ``proc_durations``) gain a row per packet for as long as a
deployment records them. A row of Python objects costs a tuple plus a
float (~64 B); :class:`Columns` keeps each field in an ``array`` (8 B a
value), or in a list when the values are shared objects anyway (a flow
entry's ``actions`` tuple), and makes a row tuple only when one is read.
"""

from __future__ import annotations

from typing import Iterator, Sequence


class Columns:
    """A log stored as columns that reads like the list of its rows.

    It iterates and takes ``len`` as that list would. The writer keeps
    the columns it passed in and appends to them directly, one value to
    each. Two logs may share a column: an NF's ``proc_durations`` reads
    its ``processing_log``'s times.
    """

    __slots__ = ("_columns",)

    def __init__(self, *columns: Sequence):
        self._columns = columns

    def __iter__(self) -> Iterator[tuple]:
        return zip(*self._columns)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __repr__(self) -> str:
        return "Columns(%r)" % list(self)
