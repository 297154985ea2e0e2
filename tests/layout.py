"""Memory layouts of (n, c, h, w) test tensors: a channels-last copy, whose
memory holds NHWC rows, and the checks that a kernel's output kept one."""

import numpy as np


def channels_last(x):
    """A copy of x whose memory holds NHWC rows; its shape stays (n, c, h, w)."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def is_channels_last(x):
    return x.ndim == 4 and x.transpose(0, 2, 3, 1).flags.c_contiguous


def is_c_order(x):
    return x.flags.c_contiguous
