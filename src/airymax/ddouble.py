"""Double-double arithmetic on numpy arrays.

A value is represented as an unevaluated sum hi + lo with |lo| <= ulp(hi)/2,
giving roughly 31 significant decimal digits.  All routines are elementwise
and broadcast like ordinary numpy ufuncs; scalars work too.  Used where a
summation cancels beyond what 53-bit floats can resolve (the alternating
finite-N sums in the evanescent regime).
"""

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a, b):
    # requires |a| >= |b| elementwise
    s = a + b
    return s, b - (s - a)


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd(a):
    """Promote a float/array to a dd pair."""
    a = np.asarray(a, dtype=float)
    return a, np.zeros_like(a)


def add(xh, xl, yh, yl):
    s1, s2 = two_sum(xh, yh)
    t1, t2 = two_sum(xl, yl)
    s2 = s2 + t1
    s1, s2 = quick_two_sum(s1, s2)
    s2 = s2 + t2
    return quick_two_sum(s1, s2)


def add_d(xh, xl, y):
    s1, s2 = two_sum(xh, y)
    s2 = s2 + xl
    return quick_two_sum(s1, s2)


def neg(xh, xl):
    return -xh, -xl


def mul(xh, xl, yh, yl):
    p1, p2 = two_prod(xh, yh)
    p2 = p2 + (xh * yl + xl * yh)
    return quick_two_sum(p1, p2)


def mul_d(xh, xl, y):
    p1, p2 = two_prod(xh, y)
    p2 = p2 + xl * y
    return quick_two_sum(p1, p2)


def div_d(xh, xl, y):
    q1 = xh / y
    p1, p2 = two_prod(q1, y)
    r1, r2 = two_sum(xh, -p1)
    q2 = (r1 + (r2 + xl - p2)) / y
    return quick_two_sum(q1, q2)


def div(xh, xl, yh, yl):
    q1 = xh / yh
    rh, rl = add(xh, xl, *mul_d(yh, yl, -q1))
    q2 = rh / yh
    rh, rl = add(rh, rl, *mul_d(yh, yl, -q2))
    q3 = rh / yh
    h, l = quick_two_sum(q1, q2)
    return add_d(h, l, q3)


def sqrt(xh, xl):
    # one Newton step in dd: y + (x - y^2) / (2 y); exact zeros stay zero
    y = np.sqrt(xh)
    safe = np.where(y == 0.0, 1.0, y)
    y2h, y2l = two_prod(y, y)
    rh, rl = add(xh, xl, -y2h, -y2l)
    corr = np.where(y == 0.0, 0.0, (rh + rl) / (2.0 * safe))
    return quick_two_sum(y, corr)


_LN2_HI = 0.6931471805599453
_LN2_LO = 2.3190468138462996e-17


def exp(xh, xl):
    """exp of a dd value via argument reduction and a dd Taylor tail."""
    xh = np.asarray(xh, dtype=float)
    xl = np.asarray(xl, dtype=float)
    m = np.round(xh / _LN2_HI)
    rh, rl = add(xh, xl, *mul_d(_LN2_HI, _LN2_LO, -m))
    # Taylor sum of exp(r), |r| <= ln2/2; term updates stay in dd so the
    # result keeps ~31 correct digits
    sh, sl = dd(np.ones_like(rh))
    th, tl = dd(np.ones_like(rh))
    for k in range(1, 26):
        th, tl = div_d(*mul(th, tl, rh, rl), float(k))
        sh, sl = add(sh, sl, th, tl)
    scale = np.ldexp(1.0, m.astype(int))
    return sh * scale, sl * scale


def tree_sum(h, l, axis=-1):
    """Sum a dd array along an axis with pairwise dd additions."""
    h = np.asarray(h, dtype=float)
    l = np.asarray(l, dtype=float)
    h = np.moveaxis(h, axis, -1)
    l = np.moveaxis(l, axis, -1)
    while h.shape[-1] > 1:
        n = h.shape[-1]
        if n % 2:
            h = np.concatenate([h, np.zeros(h.shape[:-1] + (1,))], axis=-1)
            l = np.concatenate([l, np.zeros(l.shape[:-1] + (1,))], axis=-1)
            n += 1
        h, l = add(h[..., 0::2], l[..., 0::2], h[..., 1::2], l[..., 1::2])
    return h[..., 0], l[..., 0]


def to_float(xh, xl):
    return xh + xl
