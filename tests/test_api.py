"""The package's public names."""

import pbergman


def test_every_exported_name_resolves_once():
    names = pbergman.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(pbergman, name)]
    assert missing == []
