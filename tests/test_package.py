import specdec


def test_every_export_resolves():
    assert len(specdec.__all__) == len(set(specdec.__all__))
    missing = [name for name in specdec.__all__ if not hasattr(specdec, name)]
    assert missing == []
