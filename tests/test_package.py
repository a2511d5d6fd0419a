import qverify


def test_every_exported_name_resolves():
    assert [name for name in qverify.__all__ if not hasattr(qverify, name)] == []
    assert len(set(qverify.__all__)) == len(qverify.__all__)
