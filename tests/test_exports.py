"""The package's export list."""

import saddleslide


def test_every_export_resolves_and_none_repeats():
    names = saddleslide.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(saddleslide, name), name
