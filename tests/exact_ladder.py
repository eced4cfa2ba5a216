"""The compound-Poisson ladder in exact rational arithmetic: a reference
that holds no library code.

For an atomic law nu whose coordinates and masses are floats, p a float
corner and lam a float rate, every rung, the limit and their gap on the
knot lattice (per axis the atoms' coordinates and p) are rational, and
``fractions.Fraction`` gives them exactly from the definitions:

* rung n is the law ``(1 - s)*delta_p + s*nu`` with s = lam/n; its n-th
  bi-free power has the marginals ``H_j = (n*f_j + 1 - n)_+`` and the
  ratio ``Q_n = 1 + n*(f1*f2/f - 1)``, so it is ``H1*H2/Q_n``, and 0 where
  H1*H2 = 0 or f = 0;
* the limit is the DF of the exponent measure ``lam*nu`` above the corner
  ``L_j = max(p_j, inf{F_nu_j > 1 - 1/lam})`` for lam > 1, and ``L = p``
  otherwise: ``F1*F2/(1 - lam*nu(X > x))`` with ``F_j = 1 - lam*nu(X_j >
  x_j)``, clipped to [0, 1], from L_j on and 0 below it;
* both are step DFs on the knot lattice, 0 below it, so the sup distance
  is the greatest gap on its knots.

Keep lattices to about 12 knots per axis: each value is a sum over the
atoms in Fractions.
"""

from fractions import Fraction


def lattice(atoms, p):
    """The knots per axis: the atoms' coordinates and p's, as Fractions."""
    return [sorted({Fraction(a[axis]) for a in atoms} | {Fraction(p[axis])})
            for axis in (0, 1)]


def _masses(atoms):
    return [(Fraction(x), Fraction(y), Fraction(m)) for x, y, m in atoms]


def _below(law, x1, x2):
    return sum((m for a, b, m in law if a <= x1 and b <= x2), Fraction(0))


def _above(law, x1, x2):
    return sum((m for a, b, m in law if a > x1 and b > x2), Fraction(0))


def rung(atoms, lam, p, n):
    """The n-th power of rung n on the knot lattice, a list of rows."""
    s = Fraction(lam) / n
    law = [(Fraction(p[0]), Fraction(p[1]), 1 - s)] + \
        [(x, y, s * m) for x, y, m in _masses(atoms)]
    xs, ys = lattice(atoms, p)
    top1, top2 = xs[-1], ys[-1]
    rows = []
    for x1 in xs:
        row = []
        for x2 in ys:
            f = _below(law, x1, x2)
            f1, f2 = _below(law, x1, top2), _below(law, top1, x2)
            h = max(n * f1 + 1 - n, 0) * max(n * f2 + 1 - n, 0)
            row.append(h / (1 + n * (f1 * f2 / f - 1)) if h and f else
                       Fraction(0))
        rows.append(row)
    return rows


def corner(atoms, lam, p):
    """The limit's lower corner L, exact."""
    lam = Fraction(lam)
    if not lam > 1:
        return tuple(Fraction(v) for v in p)
    law = _masses(atoms)
    level = 1 - 1 / lam
    out = []
    for axis in (0, 1):
        coords = sorted({a[axis] for a in law})
        first = next(x for x in coords
                     if sum(a[2] for a in law if a[axis] <= x) > level)
        out.append(max(Fraction(p[axis]), first))
    return tuple(out)


def limit(atoms, lam, p):
    """The exponent-measure limit on the knot lattice, a list of rows."""
    low = corner(atoms, lam, p)
    lam = Fraction(lam)
    law = _masses(atoms)
    xs, ys = lattice(atoms, p)

    def marginal(axis, x):
        if x < low[axis]:
            return Fraction(0)
        tail = sum((a[2] for a in law if a[axis] > x), Fraction(0))
        return min(max(1 - lam * tail, Fraction(0)), Fraction(1))

    rows = []
    for x1 in xs:
        row = []
        for x2 in ys:
            h = marginal(0, x1) * marginal(1, x2)
            row.append(h / (1 - lam * _above(law, x1, x2)) if h else
                       Fraction(0))
        rows.append(row)
    return rows


def rate(atoms, lam, p):
    """The limit of n times the gap of rung n, exact: the greatest
    ``lam**2*H1*H2*c1*c2/D**2`` over the knots x >= p, with ``H_j = (1 -
    lam*a_j)_+``, ``D = 1 - lam*b``, a_j = nu(X_j > x_j), b = nu(X > x),
    c1 = nu(X1 <= x1, X2 > x2) and c2 = nu(X1 > x1, X2 <= x2)."""
    lam = Fraction(lam)
    law = _masses(atoms)
    xs, ys = lattice(atoms, p)
    best = Fraction(0)
    for x1 in (x for x in xs if x >= p[0]):
        for x2 in (y for y in ys if y >= p[1]):
            a1 = sum((m for a, _, m in law if a > x1), Fraction(0))
            a2 = sum((m for _, c, m in law if c > x2), Fraction(0))
            b = _above(law, x1, x2)
            h = max(1 - lam * a1, 0) * max(1 - lam * a2, 0)
            best = max(best, lam ** 2 * h * (a2 - b) * (a1 - b)
                       / (1 - lam * b) ** 2)
    return best


def gap(atoms, lam, p, n, target=None):
    """The sup distance of rung n to the limit, exact; ``target`` is the
    limit's lattice when it is at hand."""
    target = limit(atoms, lam, p) if target is None else target
    return max(abs(u - v) for r, t in zip(rung(atoms, lam, p, n), target)
               for u, v in zip(r, t))
