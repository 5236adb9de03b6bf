"""QUADPACK's adaptive Gauss-Kronrod integrators, with vector rule evaluations.

A port of dqagse (a finite interval, bisected with the 21-point rule dqk21)
and dqagie (one infinite end, the 15-point rule dqk15i on the map
x = bound +/- (1 - t)/t, t in (0, 1]), with dqpsrt's ordering of the error
list and dqelg's epsilon-algorithm extrapolation (R. Piessens, E. de
Doncker-Kapenga, C. W. Ueberhuber, D. K. Kahaner, QUADPACK, Springer 1983;
P. Wynn, MTAC 10, 1956).  Every step follows QUADPACK's order of floating
point operations, so on the same integrand values the value, the error
estimate and the number of subintervals are those scipy.integrate.quad
returns.

The difference is how the integrand is reached: a rule step takes whole
rows of intervals, so the caller evaluates all nodes of both halves of a
bisection, or the first step of many panels, in one vector call.  Lists are
indexed from 1 as in the Fortran source.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

# rules on at most this many rows run in Python floats (see gauss_kronrod):
# two rows take ~10 us there and ~40 us in numpy, 128 rows ~600 us and ~75 us
_FLOAT_ROWS = 8
EPMACH = float(np.finfo(float).eps)
UFLOW = float(np.finfo(float).tiny)
OFLOW = float(np.finfo(float).max)


class Rule(NamedTuple):
    """A Gauss-Kronrod pair as QUADPACK tabulates it, built once by _rule.

    xgk holds the Kronrod abscissae in [0, 1), the centre last; wg the Gauss
    weight of each abscissa (0 where it is not a Gauss node); order the
    sequence in which the rule adds its node pairs.  nodes are the offsets
    from the centre in half-lengths: the points below it, the points above
    it, then the centre.  wgk_floats and wg_floats are the weights as Python
    floats, for _gauss_kronrod_floats.
    """

    xgk: np.ndarray
    wgk: np.ndarray
    wg: np.ndarray
    order: tuple
    nodes: np.ndarray
    wgk_floats: list
    wg_floats: list


def _rule(xgk: np.ndarray, wgk: np.ndarray, wg: np.ndarray, order: tuple) -> Rule:
    nodes = np.concatenate([-xgk[:-1], xgk[:-1], xgk[-1:]])
    return Rule(xgk, wgk, wg, order, nodes, wgk.tolist(), wg.tolist())


DQK21 = _rule(
    xgk=np.array([
        0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0,
    ]),
    wgk=np.array([
        0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077971561680588, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821,
    ]),
    wg=np.array([
        0.0, 0.066671344308688137593568809893332,
        0.0, 0.149451349150580593145776339657697,
        0.0, 0.219086362515982043995534934228163,
        0.0, 0.269266719309996355091226921569469,
        0.0, 0.295524224714752870173892994651338,
        0.0,
    ]),
    order=(1, 3, 5, 7, 9, 0, 2, 4, 6, 8),  # the Gauss nodes first
)

DQK15I = _rule(
    xgk=np.array([
        0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0,
    ]),
    wgk=np.array([
        0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    ]),
    wg=np.array([
        0.0, 0.129484966168869693270611432679082,
        0.0, 0.279705391489276667901467771423780,
        0.0, 0.381830050505118944950369775488975,
        0.0, 0.417959183673469387755102040816327,
    ]),
    order=(0, 1, 2, 3, 4, 5, 6),
)


def gauss_kronrod(values: np.ndarray, hlgth: np.ndarray, rule: Rule):
    """The rule's sums on each row of integrand values at centre + hlgth * nodes.

    Returns (result, abserr, resabs, resasc) in dqk21's and dqk15i's order
    of operations: every product as QUADPACK forms it, every sum added
    term by term in its loop order (np.add.accumulate folds left to right).
    A zero Gauss weight adds nothing, so it is skipped.  Up to
    _FLOAT_ROWS rows, as in a bisection, go through _gauss_kronrod_floats,
    which does the same arithmetic in Python floats without numpy's
    per-call overhead.
    """
    if len(values) <= _FLOAT_ROWS:
        return _gauss_kronrod_floats(values, hlgth, rule)
    n = rule.xgk.size - 1
    fv1, fv2, fc = values[:, :n], values[:, n : 2 * n], values[:, 2 * n]
    order = list(rule.order)
    gauss = [j for j in order if rule.wg[j]]
    fsum = fv1 + fv2
    resk0 = rule.wgk[n] * fc
    resg = _fold(rule.wg[n] * fc if rule.wg[n] else None, fsum[:, gauss] * rule.wg[gauss])
    resk = _fold(resk0, fsum[:, order] * rule.wgk[order])
    resabs = _fold(np.abs(resk0), (np.abs(fv1) + np.abs(fv2))[:, order] * rule.wgk[order])
    reskh = resk * 0.5
    deviation = np.abs(fv1 - reskh[:, None]) + np.abs(fv2 - reskh[:, None])
    resasc = _fold(rule.wgk[n] * np.abs(fc - reskh), deviation * rule.wgk[:n])
    dhlgth = np.abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    # the power in Python floats is libm's pow, as in QUADPACK; numpy's
    # vector power differs from it in the last bit on some arguments
    ratio = (200.0 * abserr[scaled] / resasc[scaled]).tolist()
    abserr[scaled] = resasc[scaled] * np.minimum(1.0, [r**1.5 for r in ratio])
    floor = resabs > UFLOW / (50.0 * EPMACH)
    abserr[floor] = np.maximum((EPMACH * 50.0) * resabs[floor], abserr[floor])
    return result, abserr, resabs, resasc


def _gauss_kronrod_floats(values: np.ndarray, hlgth: np.ndarray, rule: Rule):
    """gauss_kronrod row by row in Python floats, in dqk21's and dqk15i's loops."""
    n = rule.xgk.size - 1
    wg, wgk = rule.wg_floats, rule.wgk_floats
    out = []
    for row, h in zip(values.tolist(), hlgth.tolist()):
        fv1, fv2, fc = row[:n], row[n : 2 * n], row[2 * n]
        resg = wg[n] * fc if wg[n] else 0.0
        resk = wgk[n] * fc
        resabs = abs(resk)
        for j in rule.order:
            fsum = fv1[j] + fv2[j]
            if wg[j]:
                resg = resg + wg[j] * fsum
            resk = resk + wgk[j] * fsum
            resabs = resabs + wgk[j] * (abs(fv1[j]) + abs(fv2[j]))
        reskh = resk * 0.5
        resasc = wgk[n] * abs(fc - reskh)
        for j in range(n):
            resasc = resasc + wgk[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
        dhlgth = abs(h)
        result = resk * h
        resabs = resabs * dhlgth
        resasc = resasc * dhlgth
        abserr = abs((resk - resg) * h)
        if resasc != 0.0 and abserr != 0.0:
            abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
        if resabs > UFLOW / (50.0 * EPMACH):
            abserr = max((EPMACH * 50.0) * resabs, abserr)
        out.append((result, abserr, resabs, resasc))
    return tuple(np.array(column) for column in zip(*out))


def _fold(first, terms: np.ndarray) -> np.ndarray:
    """first + terms[:, 0] + terms[:, 1] + ... added left to right; first
    None starts from terms[:, 0]."""
    if first is not None:
        terms = np.column_stack([first, terms])
    return np.add.accumulate(terms, axis=1)[:, -1]


def finite_step(f: Callable[[np.ndarray], np.ndarray], lo, hi):
    """dqk21 over each [lo[k], hi[k]]; f maps an array of nodes to its values."""
    centr = 0.5 * (lo + hi)
    hlgth = 0.5 * (hi - lo)
    return gauss_kronrod(f(centr[:, None] + hlgth[:, None] * DQK21.nodes), hlgth, DQK21)


def tail_step(f: Callable[[np.ndarray], np.ndarray], bound, sign, lo, hi):
    """dqk15i over each [lo[k], hi[k]] in (0, 1]: the integral of f over
    x = bound + sign (1 - t)/t, with sign +1 for (bound, inf) and -1 for
    (-inf, bound); bound and sign broadcast against the rows."""
    centr = 0.5 * (lo + hi)
    hlgth = 0.5 * (hi - lo)
    t = centr[:, None] + hlgth[:, None] * DQK15I.nodes
    return gauss_kronrod(f(bound + sign * (1.0 - t) / t) / t / t, hlgth, DQK15I)


def first_step_done(result, abserr, resabs, resasc, epsabs, epsrel):
    """Whether dqagse and dqagie stop after their first rule step, on floats
    or arrays: (roundoff, done).  They stop at roundoff level (ier = 2), on
    an error within the tolerance that is not the crude resasc, or on a zero
    error."""
    errbnd = np.maximum(epsabs, epsrel * np.abs(result))
    roundoff = (abserr <= 100.0 * EPMACH * resabs) & (abserr > errbnd)
    return roundoff, roundoff | ((abserr <= errbnd) & (abserr != resasc)) | (abserr == 0.0)


def qag(step, a: float, b: float, epsabs: float, epsrel: float, limit: int, first=None):
    """dqagse on [a, b], or dqagie with a = 0, b = 1, through a rule step.

    step(lo, hi) returns (result, abserr, resabs, resasc) arrays for the
    intervals [lo[k], hi[k]]; qag calls it once with both halves of
    each bisection.  first, if given, is the step's output on [a, b] as
    floats, which the caller may have computed in a batch.  Returns
    (result, abserr, last, ier): scipy's neval is (2 last - 1) times the
    rule's points, and ier is the code scipy reports.
    """
    if first is None:
        first = [float(v[0]) for v in step(np.array([a]), np.array([b]))]
    result, abserr, defabs, resasc = first
    roundoff, done = first_step_done(result, abserr, defabs, resasc, epsabs, epsrel)
    if done or limit == 1:
        return result, abserr, 1, 1 if limit == 1 else 2 if roundoff else 0

    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1], blist[1] = a, b
    rlist[1], elist[1], iord[1] = result, abserr, 1
    ier = 0
    dres = abs(result)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = noext = False
    ierro = iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * EPMACH) * defabs else -1
    sum_list = False  # leave through dqagse's label 115

    for last in range(2, limit + 1):
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        areas, errors, _, resascs = step(np.array([a1, a2]), np.array([b1, b2]))
        area1, area2 = areas.tolist()
        error1, error2 = errors.tolist()
        defab1, defab2 = resascs.tolist()

        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
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
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
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
            sum_list = True
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
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect the larger
            # intervals first, while their errors add up past ertest
            jupbnd = last if last <= 2 + limit // 2 else limit + 3 - last
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
        rlist2[numrl2] = area
        numrl2, nres, reseps, abseps = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
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

    if not sum_list:
        # dqagse's labels 100 to 110: keep the extrapolated result, or fall
        # back to the sum of the list, and test for divergence
        if abserr == OFLOW:
            sum_list = True
        else:
            divergence_test = True
            if ier + ierro != 0:
                if ierro == 3:
                    abserr = abserr + correc
                if ier == 0:
                    ier = 3
                if result != 0.0 and area != 0.0:
                    sum_list = abserr / abs(result) > errsum / abs(area)
                elif abserr > errsum:
                    sum_list = True
                elif area == 0.0:
                    divergence_test = False
            if divergence_test and not sum_list and not (
                ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01
            ):
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = float(np.divide(result, area))
                if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                    ier = 6
    if sum_list:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, last, ier


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord descending in elist and return the interval to
    bisect next as (maxerr, errmax, nrmax).

    Once last > limit/2 + 2 only the first limit + 3 - last entries are kept
    in order, since no more bisections than that remain.
    """
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # subdivision increased the error estimate: move it up from nrmax
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax top-down, then errmin bottom-up
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


def _qelg(n, epstab, res3la, nres):
    """dqelg: Wynn's epsilon algorithm on epstab[1..n], the sequence of area
    estimates, updated in place.  Returns (n, nres, result, abserr)."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n < 3:
        return n, nres, result, max(abserr, 5.0 * EPMACH * abs(result))
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = OFLOW
    num = n
    k1 = n
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
        tol2 = max(abs(e2), e1abs) * EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: converged
            return n, nres, res, max(err2 + err3, 5.0 * EPMACH * abs(res))
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            # irregular behaviour: omit part of the table
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error <= abserr:
            abserr = error
            result = res
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
        abserr = OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, nres, result, max(abserr, 5.0 * EPMACH * abs(result))
