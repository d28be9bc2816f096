import circle_energy


def test_every_public_name_resolves():
    missing = [name for name in circle_energy.__all__
               if not hasattr(circle_energy, name)]
    assert missing == []
    assert len(set(circle_energy.__all__)) == len(circle_energy.__all__)
