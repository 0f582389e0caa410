"""The undo journal each store holds; a ChainState shares one among its stores."""

from __future__ import annotations

from copy import copy

_MISSING = object()


class Journal:
    """Undo log that lets a ChainState branch and then commit or discard.

    `begin` opens a branch and returns the mark that discards all of it.
    Before its first write to `table[key]` in a segment (since the last
    `begin` or `rollback`), a writer calls `save(table, key)`, which records
    a shallow copy of the entry, or that it was missing. A table is a
    long-lived container: a dict of entries or an object's `vars()`.
    `save_len` records a list's length before an append.
    `rollback(mark)` restores every entry saved since `mark`, newest first,
    so the oldest pre-image wins. `commit` closes the innermost branch and
    keeps its writes; branches nest, so a tx commits into the version branch
    around it, and the outermost commit empties the log. Outside a branch
    (`depth` 0) `save` records nothing, and a hot writer skips the call.
    """

    def __init__(self):
        self._undo: list = []     # (table, key, pre-image) in write order
        self._saved: set = set()  # (id(table), key) saved in this segment
        self.depth = 0

    def begin(self) -> int:
        self.depth += 1
        self._saved.clear()
        return len(self._undo)

    def save(self, table, key) -> None:
        if not self.depth:
            return
        tag = (id(table), key)
        if tag in self._saved:
            return
        self._saved.add(tag)
        old = table.get(key, _MISSING)
        if type(old) is not int and old is not _MISSING:   # an int is kept as it is
            old = old.copy() if type(old) is dict else copy(old)
        self._undo.append((table, key, old))

    def save_len(self, items: list) -> None:
        if not self.depth:
            return
        tag = (id(items), None)
        if tag in self._saved:
            return
        self._saved.add(tag)
        # restoring assigns [] to items[n:], truncating the appends
        self._undo.append((items, slice(len(items), None), []))

    def rollback(self, mark: int) -> None:
        undo = self._undo
        while len(undo) > mark:
            table, key, old = undo.pop()
            if old is _MISSING:
                table.pop(key, None)
            else:
                table[key] = old
        self._saved.clear()

    def commit(self) -> None:
        self.depth -= 1
        if not self.depth:
            self._undo.clear()
            self._saved.clear()
