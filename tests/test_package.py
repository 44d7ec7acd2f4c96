import specdec


def test_every_export_resolves():
    assert len(specdec.__all__) == len(set(specdec.__all__))
    missing = [name for name in specdec.__all__ if not hasattr(specdec, name)]
    assert missing == []


def test_retired_decode_wrappers_are_not_exported():
    # Every caller decodes through speculative_decode; the wrappers left in
    # specdec.engine serve only the benchmark harness. Greedy top-1 is the
    # only acceptance rule, so no policy type or constant is exported.
    retired = (
        "selfspec_decode", "hierarchical_decode", "HierarchicalConfig", "AcceptancePolicy", "GREEDY"
    )
    for name in retired:
        assert name not in specdec.__all__
        assert not hasattr(specdec, name)
