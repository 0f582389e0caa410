"""The package's public names: every export in `__all__` resolves."""

import luncsim


def test_every_exported_name_resolves():
    missing = [name for name in luncsim.__all__ if not hasattr(luncsim, name)]
    assert missing == []
    assert len(set(luncsim.__all__)) == len(luncsim.__all__)
