"""The work-counter recorder: sums, and ``.max`` counters that keep maxima."""

from repro.metrics import count, merge, recording


def test_counts_sum_and_max_counters_keep_the_largest_value():
    with recording() as counts:
        count("a.b.calls")
        count("a.b.calls", 2)
        count("a.b.rows.max", 5)
        count("a.b.rows.max", 3)
    assert counts == {"a.b.calls": 3, "a.b.rows.max": 5}


def test_nested_recordings_merge_by_the_same_rule():
    with recording() as outer:
        count("a.b.rows.max", 4)
        with recording() as inner:
            count("a.b.calls")
            count("a.b.rows.max", 2)
        with recording():
            count("a.b.calls")
            count("a.b.rows.max", 7)
    assert inner == {"a.b.calls": 1, "a.b.rows.max": 2}
    assert outer == {"a.b.calls": 2, "a.b.rows.max": 7}


def test_merge_sums_counts_and_keeps_maxima():
    into = {"a.b.calls": 1, "a.b.rows.max": 6}
    assert merge(into, {"a.b.calls": 2, "a.b.rows.max": 3, "c.d.max": 1}) == {
        "a.b.calls": 3,
        "a.b.rows.max": 6,
        "c.d.max": 1,
    }


def test_nothing_is_kept_without_a_recording():
    count("a.b.calls")
    with recording() as counts:
        pass
    assert counts == {}
