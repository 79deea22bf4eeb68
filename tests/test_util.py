import numpy as np

from fairrank.util import Scratch


def test_scratch_views_its_array_and_grows_with_an_eighth_to_spare():
    s = Scratch()
    a = s("x", (4, 10))
    assert a.shape == (4, 10) and a.dtype == np.float64
    assert s.arrays["x"].size == 45
    # a smaller request views the start of the same memory
    b = s("x", (3, 5))
    assert b.shape == (3, 5) and np.shares_memory(a, b)
    assert b.ctypes.data == a.ctypes.data
    # a larger one makes a new array, an eighth larger than asked
    c = s("x", (50,))
    assert not np.shares_memory(a, c)
    assert s.arrays["x"].size == 56
    # each name keeps its own array, in the dtype it asks for
    m = s("m", (7,), bool)
    i = s("i", (2, 3), np.int64)
    assert m.dtype == bool and i.dtype == np.int64
    assert np.shares_memory(s("m", (2,), bool), m)
    # asked in another dtype, a name's array is made anew in that dtype
    f = s("m", (2,))
    assert f.dtype == np.float64 and not np.shares_memory(f, m)
    assert sorted(s.arrays) == ["i", "m", "x"]
