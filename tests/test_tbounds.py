from kax.tbounds import m_prime_bound, t_ev, t_od


def test_t_ev_examples():
    assert t_ev(3, 1, 2) == 1
    assert t_ev(3, 1, 4) == 0
    assert t_ev(3, 4, 2) == 2


def test_t_od_examples():
    assert t_od(3, 0, 1) == 1
    assert t_od(3, 1, 1) == 2
    assert t_od(3, 1, 5) == 0
    assert t_od(3, 2, 5) == 1


def test_nonpositive_r():
    for p in (2, 3, 5):
        for m in (1, 2, 3):
            assert t_ev(p, 0, m) == 0
            assert t_ev(p, -3, m) == 0
            assert t_od(p, -1, m) == 0


def test_window_uniqueness():
    # scan all t and confirm at most one satisfies the inequality pair
    for p in (2, 3, 5):
        for r in range(0, 30):
            for m in range(1, 2 * r + 3):
                for target, fn in ((2 * r, t_ev), (2 * r + 1, t_od)):
                    sols = [
                        t
                        for t in range(1, 12)
                        if m * p ** (t - 1) <= target < m * p**t
                    ]
                    assert len(sols) <= 1
                    assert fn(p, r, m) == (sols[0] if sols else 0)


def test_monotonicity():
    for p in (2, 3, 5):
        for r in range(0, 20):
            vals = [t_ev(p, r, m) for m in range(1, 45)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
        for m in (1, 2, 3, 5, 8):
            vals = [t_ev(p, r, m) for r in range(0, 30)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_m_prime_bound():
    assert m_prime_bound(3, 4) == 4
    assert m_prime_bound(5, 0) == 0
    assert m_prime_bound(2, 3) == 3
    assert m_prime_bound(3, -2) == 0
    # everything above the bound has an empty window
    for p in (2, 3, 5):
        for degree in range(0, 25):
            bound = m_prime_bound(p, degree)
            r_ev, r_od = degree // 2, (degree - 1) // 2
            for m in range(bound + 1, bound + 12):
                assert t_ev(p, r_ev, m) == 0
                assert t_od(p, r_od, m) == 0
