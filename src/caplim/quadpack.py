"""Adaptive Gauss-Kronrod quadrature: QUADPACK's QAGSE and QAGIE routines.

A port of the QUADPACK routines DQAGSE (21-point Gauss-Kronrod rule on a
finite interval) and DQAGIE (15-point rule on an infinite interval mapped
onto (0, 1]), with their epsilon-algorithm extrapolation DQELG and the
error-list maintenance DQPSRT (Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, *QUADPACK*, Springer 1983). ``quad`` returns the bits that
``scipy.integrate.quad`` returns for the same integrand, interval and
tolerances: every rule sum, bisection and extrapolation step takes the same
IEEE operations in the same order.

The integrand is vectorized: each rule application evaluates the nodes of
every interval it is given in one call, so a bisection costs one call for
both halves. The weighted sums stay sequential Python floats in QUADPACK's
order, zero Gauss weights included.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["IntegrationWarning", "Quadrature", "quad"]

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max
# resabs above this makes abserr at least 50 * epmach * resabs.
_RESABS_FLOOR = _UFLOW / (50.0 * _EPMACH)


# A Gauss-Kronrod rule as QUADPACK applies it: the abscissae off the centre,
# their Kronrod weights with the centre's last, the Gauss weight of the
# centre (None: the Gauss sum starts at 0.0) and the (node, Gauss weight,
# Kronrod weight) sums in QUADPACK's order of addition. As there, a None
# Gauss weight adds nothing to the Gauss sum and a zero one adds 0.0 * fsum.

# DQK21: 21-point Kronrod rule with the 10-point Gauss rule on the nodes
# xgk[1], xgk[3], ..., xgk[9]; the Gauss nodes are summed first, then the
# Kronrod-only ones.
_XGK21 = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK21 = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG10 = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_QK21 = (np.array(_XGK21), _WGK21, None,
         [(j, wg, _WGK21[j]) for j, wg in zip((1, 3, 5, 7, 9), _WG10)]
         + [(j, None, _WGK21[j]) for j in (0, 2, 4, 6, 8)])

# DQK15I: 15-point Kronrod rule with the 7-point Gauss rule, whose weights
# are zero at the Kronrod-only nodes; the nodes are summed in order.
_XGK15 = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK15 = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG7 = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
        0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)
_QK15 = (np.array(_XGK15), _WGK15, _WG7[7], [(j, _WG7[j], _WGK15[j]) for j in range(7)])

_MESSAGES = {
    1: "the maximum number of subintervals (limit) was reached",
    2: "roundoff error prevents the requested tolerance",
    3: "the integrand behaves extremely badly at some points of the interval",
    4: "roundoff error in the extrapolation table prevents convergence",
    5: "the integral is probably divergent or slowly convergent",
}


class IntegrationWarning(UserWarning):
    """QUADPACK stopped before it met the requested tolerance (``ier > 0``)."""


class Quadrature(NamedTuple):
    """An integral with QUADPACK's error estimate and diagnostics.

    ``neval`` counts integrand evaluations (two per node on a doubly
    infinite interval), ``last`` the subintervals used and ``ier`` is
    QUADPACK's error code, 0 on success.
    """

    value: float
    abserr: float
    neval: int
    last: int
    ier: int


def _error(resk: float, resg: float, hlgth: float, resabs: float, resasc: float) -> float:
    """The rule's error estimate from the Kronrod-Gauss difference."""
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # resasc * min(1, (200 * abserr / resasc) ** 1.5), without pow's overflow
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (ratio**1.5 if ratio < 1.0 else 1.0)
    if resabs > _RESABS_FLOOR:
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return abserr


def _nodes(ends: list, xgk: np.ndarray) -> tuple[np.ndarray, list]:
    """Each interval's row ``[centr, centr - absc, centr + absc]`` with
    ``absc = hlgth * xgk``, and the half-lengths ``hlgth``."""
    hlgth = [0.5 * (b - a) for a, b in ends]
    c = np.array([0.5 * (a + b) for a, b in ends])[:, None]
    absc = np.array(hlgth)[:, None] * xgk
    return np.concatenate((c, c - absc, c + absc), axis=1), hlgth


def _kronrod(f: Callable, rule: tuple, ends: list) -> list:
    """DQK21 or DQK15I on each (a, b) of ``ends``: (result, abserr, resabs, resasc) each."""
    xgk, wgk, gauss_centre, sums = rule
    x, hlgth = _nodes(ends, xgk)
    rows = np.asarray(f(x.reshape(-1)), dtype=float).reshape(x.shape).tolist()
    n = len(xgk)
    out = []
    for row, h in zip(rows, hlgth):
        fc, fv1, fv2 = row[0], row[1:n + 1], row[n + 1:]
        resg = 0.0 if gauss_centre is None else gauss_centre * fc
        resk = wgk[n] * fc
        resabs = abs(resk)
        for j, wg, wk in sums:
            fval1, fval2 = fv1[j], fv2[j]
            fsum = fval1 + fval2
            if wg is not None:
                resg += wg * fsum
            resk += wk * fsum
            resabs += wk * (abs(fval1) + abs(fval2))
        reskh = resk * 0.5
        resasc = wgk[n] * abs(fc - reskh)
        for wk, fval1, fval2 in zip(wgk, fv1, fv2):
            resasc += wk * (abs(fval1 - reskh) + abs(fval2 - reskh))
        dhlgth = abs(h)
        resabs *= dhlgth
        resasc *= dhlgth
        out.append((resk * h, _error(resk, resg, h, resabs, resasc), resabs, resasc))
    return out


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
           nrmax: int) -> tuple[int, float, int]:
    """DQPSRT: keep ``iord`` (1-based) descending in error; next maxerr, errmax, nrmax."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # Subdivision raised the error: insert from nrmax upwards.
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # Insert errmax at i - 1, then errmin bottom-up.
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple[int, float, float, int]:
    """DQELG: one epsilon-algorithm step on ``epstab[1..n]`` (1-based, in place).

    Returns the new table length, the extrapolated limit, its error estimate
    and the call count ``nres``.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        converged = False
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy.
                result = res
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                # Irregular table: drop its tail.
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res
        if not converged:
            if n == limexp:
                n = 2 * (limexp // 2) - 1
            ib = 2 if num % 2 == 0 else 1
            for _ in range(newelm + 1):
                epstab[ib] = epstab[ib + 2]
                ib += 2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx += 1
            if nres < 4:
                res3la[nres] = result
                abserr = _OFLOW
            else:
                abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                          + abs(result - res3la[1]))
                res3la[1] = res3la[2]
                res3la[2] = res3la[3]
                res3la[3] = result
    abserr = max(abserr, 5.0 * _EPMACH * abs(result))
    return n, result, abserr, nres


def _ratio(x: float, y: float) -> float:
    """``x / y`` with IEEE semantics at ``y == 0``."""
    if y != 0.0:
        return x / y
    if x != x or x == 0.0:
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _adaptive(rule: Callable[[list], list], a: float, b: float, epsabs: float, epsrel: float,
              limit: int) -> tuple[float, float, int, int]:
    """The DQAGSE / DQAGIE adaptive loop on (a, b): (result, abserr, ier, last).

    The two routines differ only in their rule and interval, which the caller
    passes; DQAGIE's initial ``small`` of 0.375 is |1 - 0| * 0.375. Every
    test keeps QUADPACK's own comparison, negated with ``not`` where the
    Fortran jumps past a block, so a NaN takes the branch it takes there.
    """
    (result, abserr, defabs, resabs), = rule([(a, b)])
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 0
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier, 1

    # 1-based lists, as in QUADPACK.
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1], blist[1], rlist[1], elist[1], iord[1] = a, b, result, abserr, 1
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    total = False  # leave through the global sum of rlist (label 115)

    last = 1
    for last in range(2, limit + 1):
        # Bisect the subinterval with the nrmax-th largest error estimate.
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        (area1, error1, _, defab1), (area2, error2, _, defab2) = rule([(a1, b1), (a2, b2)])

        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)

        if errsum <= errbnd:
            total = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # Go on unless the interval to bisect next is the smallest one.
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # The smallest interval has the largest error: bisect the larger
            # intervals first while their errors exceed it.
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        numrl2 += 1
        if numrl2 > 50:
            # DQELG's table holds 52 entries and only shrinks on comparisons
            # that a NaN fails, so here QUADPACK writes past its end (scipy's
            # translation segfaults).
            raise FloatingPointError("QUADPACK's extrapolation table overflowed: "
                                     "the integrand is NaN somewhere")
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # Prepare the bisection of the smallest interval.
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if not total:
        # Label 100: choose between the extrapolated result and the sum.
        total = abserr == _OFLOW
        divergence_test = True
        if not total and ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                total = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                total = True
            elif area == 0.0:
                divergence_test = False
        if not total and divergence_test:
            if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
                q = _ratio(result, area)
                if 0.01 > q or q > 100.0 or errsum > abs(area):
                    ier = 6
    if total:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, ier, last


def quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, *,
         epsabs: float = 1.49e-8, epsrel: float = 1.49e-8, limit: int = 50) -> Quadrature:
    """Integrate ``f`` over (a, b) with the bits of ``scipy.integrate.quad``.

    ``f`` maps a 1-D float array of nodes to an array of as many values.
    Finite intervals take DQAGSE. An infinite one takes DQAGIE, with the
    bound and direction ``scipy.integrate.quad`` passes: (a, inf) maps to
    (a, 1), (-inf, b) to (b, -1) and (-inf, inf) to (0, 2). ``b < a``
    integrates over (b, a) and negates the value. When QUADPACK stops with
    ``ier > 0`` an ``IntegrationWarning`` names the code and the interval.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29):
        raise ValueError("with epsabs <= 0, epsrel must exceed 5e-29 and 50 * epsilon")
    flip, a, b = b < a, float(min(a, b)), float(max(a, b))
    if a != -math.inf and b != math.inf:
        result, abserr, ier, last = _adaptive(
            lambda ends: _kronrod(f, _QK21, ends), a, b, epsabs, epsrel, limit)
        neval = 42 * last - 21
    else:
        if a == -math.inf:
            inf, bound = (2, 0.0) if b == math.inf else (-1, b)
        else:
            inf, bound = 1, a
        dinf = float(min(1, inf))

        def mapped(t: np.ndarray) -> np.ndarray:
            # DQK15I's x = bound + dinf (1 - t) / t, and f(x) dx = f(x) / t**2 dt.
            x = bound + dinf * (1.0 - t) / t
            if inf == 2:
                both = np.asarray(f(np.concatenate((x, -x))), dtype=float)
                fval = both[:x.size] + both[x.size:]
            else:
                fval = np.asarray(f(x), dtype=float)
            return fval / t / t

        result, abserr, ier, last = _adaptive(
            lambda ends: _kronrod(mapped, _QK15, ends), 0.0, 1.0, epsabs, epsrel, limit)
        neval = (30 * last - 15) * (2 if inf == 2 else 1)
    if ier > 0:
        warnings.warn(IntegrationWarning(
            f"QUADPACK stopped with ier={ier} on ({a!r}, {b!r}): {_MESSAGES[ier]}"),
            stacklevel=2)
    return Quadrature(-result if flip else result, abserr, neval, last, ier)
