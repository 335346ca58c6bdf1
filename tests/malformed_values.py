"""Element values for the finite carrier checks in ``test_fnspace`` and
``test_structures``: exact ints, int subclasses that are accepted, and
bools, floats, fractions, ``None`` and strings that are not."""

from enum import IntEnum


class Point(IntEnum):
    ZERO = 0
    ONE = 1


def element_values():
    """A hypothesis strategy over the values above, ints from -2 to 5."""
    from hypothesis import strategies as st
    return st.one_of(
        st.integers(min_value=-2, max_value=5), st.booleans(),
        st.sampled_from(list(Point)), st.sampled_from([0.0, 1.0, 2.5]),
        st.fractions(min_value=-1, max_value=3, max_denominator=2),
        st.none(), st.text(max_size=2))
