"""Hypothesis strategies and helpers shared by the test modules."""

import numpy as np
from hypothesis import example
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp


@st.composite
def masks(draw, max_side=40):
    """Masks of odd and even sizes down to 1-px strips: random bits, or a rectangle that may touch the border."""
    height, width = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    if draw(st.booleans()):
        return draw(hnp.arrays(np.bool_, (height, width)))
    top, left = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
    mask = np.zeros((height, width), dtype=bool)
    mask[top : draw(st.integers(top + 1, height)), left : draw(st.integers(left + 1, width))] = True
    return mask


def two_class_masks(max_side=40):
    """Masks with both foreground and background, the domain of the SNDM codec."""
    return masks(max_side).filter(lambda m: m.any() and not m.all())


def with_examples(cases):
    """Run each fixed case as a Hypothesis ``@example``."""

    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test

    return decorate
