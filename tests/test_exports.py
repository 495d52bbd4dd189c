"""Every name the package exports resolves.

A stale ``__all__`` entry, left behind when a name is removed, makes
``from arfrf import *`` raise AttributeError.
"""

import arfrf


def test_every_export_resolves():
    assert [name for name in arfrf.__all__ if not hasattr(arfrf, name)] == []
