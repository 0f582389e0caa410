"""The undo journal each store holds; a ChainState shares one among its stores."""

from __future__ import annotations

from copy import copy

_MISSING = object()


class Journal:
    """Undo log that lets a ChainState branch and then commit or discard.

    `begin` opens a branch and returns the mark that discards all of it.
    Before each write to `table[key]` inside a branch, a writer calls
    `save(table, key)`, which appends a shallow copy of the entry, or that
    it was missing. A table is a long-lived container: a dict of entries or
    an object's `vars()`. `rollback(mark)` restores every entry saved since
    `mark`, newest first, so the oldest pre-image of a key wins. `commit`
    closes the innermost branch and keeps its writes; branches nest, so a tx
    commits into the version branch around it, and the outermost commit
    empties the log. Outside a branch (`depth` 0) `save` records nothing,
    and every writer on a tx's path (the bank's debit, credit, mint and
    burn, and the treasury's burn counter) tests `depth` before it calls.
    """

    def __init__(self):
        self._undo: list = []     # (table, key, pre-image) in write order
        self.depth = 0

    def begin(self) -> int:
        self.depth += 1
        return len(self._undo)

    def save(self, table, key) -> None:
        if not self.depth:
            return
        old = table.get(key, _MISSING)
        if type(old) is not int and old is not _MISSING:   # an int is kept as it is
            old = old.copy() if type(old) is dict else copy(old)
        self._undo.append((table, key, old))

    def rollback(self, mark: int) -> None:
        undo = self._undo
        while len(undo) > mark:
            table, key, old = undo.pop()
            if old is _MISSING:
                table.pop(key, None)
            else:
                table[key] = old

    def commit(self) -> None:
        self.depth -= 1
        if not self.depth:
            self._undo.clear()
