"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the production code paths: the slot
products are expanded symbolically with a formal unit, the identity checks
are evaluated on random full vectors instead of basis triples, and counting
is done by brute enumeration.  The last section keeps the hand-written
scalar loops that the package's identity tables replaced, unchanged, so the
tables can be compared with them verdict by verdict and witness by witness.
Agreement between these and the package is what the tests assert.
"""

import random

import numpy as np

from admpoisson.scalars import Scalar, zero, one, third
from admpoisson.tensors import (MulTensor, Tensor3, AxiomReport, SLOT_PATTERNS,
                                ShapeError, apply_mul, vec_zero, basis_vec, column,
                                mat_vec, mat_add, mat_sub, mat_scale, mat_mul,
                                mat_zero, mat_eq, mat_inverse, mult_of_vec,
                                sum_scalars, transpose, left_mult_basis,
                                right_mult_basis, mat_is_zero)
from admpoisson.algebras import check_poisson
from admpoisson.representations import Representation
from admpoisson.bialgebras import Comultiplication, dual_structure
from admpoisson.search import decode_mul


# ---------------------------------------------------------------------------
# random exact data


def rand_scalar(rng, p=0):
    if p:
        return Scalar(rng.randrange(p), 1, p)
    return Scalar(rng.randint(-3, 3), rng.choice([1, 1, 2]), 0)


def rand_vec(rng, n, p=0):
    return [rand_scalar(rng, p) for _ in range(n)]


def rand_mat(rng, rows, cols, p=0):
    return [[rand_scalar(rng, p) for _ in range(cols)] for _ in range(rows)]


def rand_mul(rng, n, p=0):
    return MulTensor(n, p, [[rand_vec(rng, n, p) for _ in range(n)]
                            for _ in range(n)])


# ---------------------------------------------------------------------------
# formal-unit expansion of the triple-tensor slot products

_UNIT = None  # formal adjoined unit marker


def _slot_positions(tag):
    # "12" -> operand occupies tensor slots 0 and 1, unit sits in slot 2
    return {"12": (0, 1), "13": (0, 2), "23": (1, 2)}[tag]


def _place(i, j, tag):
    """Triple of basis indices (with the formal unit filling the gap)."""
    slots = [_UNIT, _UNIT, _UNIT]
    a, b = _slot_positions(tag)
    slots[a], slots[b] = i, j
    return tuple(slots)


def slot_product_oracle(ra, rb, mul, slots):
    """Expand (left placed per slots) * (right placed per slots) term by term.

    Each operand is a sum of decomposable terms c * e_i (x) e_j padded with a
    formal unit; products are taken slotwise, the unit acting as identity.
    Every result slot ends up with a genuine basis index because each slot is
    occupied by at least one operand.  Returns a Tensor3.
    """
    left_tag, right_tag = slots.split(".")
    n, p = mul.n, mul.p
    out = [[vec_zero(n, p) for _ in range(n)] for _ in range(n)]
    for ia in range(n):
        for ja in range(n):
            ca = ra[ia][ja]
            if ca.is_zero():
                continue
            lt = _place(ia, ja, left_tag)
            for ib in range(n):
                for jb in range(n):
                    cb = rb[ib][jb]
                    if cb.is_zero():
                        continue
                    rt = _place(ib, jb, right_tag)
                    f = ca * cb
                    # multiply slotwise; exactly one slot carries a product
                    fixed = []
                    prod_slot = None
                    for s in range(3):
                        x, y = lt[s], rt[s]
                        if x is _UNIT and y is _UNIT:
                            raise AssertionError("slot left empty")
                        if x is _UNIT:
                            fixed.append(y)
                        elif y is _UNIT:
                            fixed.append(x)
                        else:
                            assert prod_slot is None, "two product slots"
                            prod_slot = s
                            fixed.append(None)
                    vec = mul.prod(lt[prod_slot], rt[prod_slot])
                    for k in range(n):
                        if vec[k].is_zero():
                            continue
                        idx = list(fixed)
                        idx[prod_slot] = k
                        out[idx[0]][idx[1]][idx[2]] = \
                            out[idx[0]][idx[1]][idx[2]] + f * vec[k]
    return Tensor3(n, p, out)


# ---------------------------------------------------------------------------
# identity checks on random full vectors (not basis triples)


def adm_identity_on_vectors(m, x, y, z):
    """Residual of the defining identity at arbitrary vectors; [] iff zero."""
    t = third(m.p)
    mul = lambda a, b: apply_mul(m, a, b)
    lhs = mul(mul(x, y), z)
    rhs = mul(x, mul(y, z))
    corr = vec_sub(vec_add(mul(z, mul(x, y)), mul(y, mul(x, z))),
                   vec_add(mul(x, mul(z, y)), mul(y, mul(z, x))))
    rhs = vec_sub(rhs, vec_scale(t, corr))
    return vec_sub(lhs, rhs)


def poisson_identities_on_vectors(bracket, circ, x, y, z):
    """All five Poisson-structure residuals at arbitrary vectors."""
    br = lambda a, b: apply_mul(bracket, a, b)
    ci = lambda a, b: apply_mul(circ, a, b)
    res = []
    res.append(vec_add(br(x, y), br(y, x)))                     # antisymmetry
    res.append(vec_add(br(br(x, y), z),
                       vec_add(br(br(y, z), x), br(br(z, x), y))))  # jacobi
    res.append(vec_sub(ci(x, y), ci(y, x)))                     # symmetry
    res.append(vec_sub(ci(ci(x, y), z), ci(x, ci(y, z))))       # associativity
    res.append(vec_sub(br(x, ci(y, z)),
                       vec_add(ci(br(x, y), z), ci(y, br(x, z)))))  # leibniz
    return res


def rand_triple(rng, n, p=0):
    return rand_vec(rng, n, p), rand_vec(rng, n, p), rand_vec(rng, n, p)


# ---------------------------------------------------------------------------
# brute-force counting over tiny spaces


def brute_count_adm(n, p, check):
    """Count multiplications at (n, p) passing `check`, by raw enumeration."""
    from itertools import product
    count = 0
    cells = n ** 3
    for digits in product(range(p), repeat=cells):
        c = [[[Scalar(digits[(i * n + j) * n + k], 1, p)
               for k in range(n)] for j in range(n)] for i in range(n)]
        if check(MulTensor(n, p, c)):
            count += 1
    return count


# ---------------------------------------------------------------------------
# the hand-written residual loops, as they were before the identity tables


# helpers the loops use


def vec_add(x, y):
    assert len(x) == len(y)
    return [a + b for a, b in zip(x, y)]


def vec_sub(x, y):
    assert len(x) == len(y)
    return [a - b for a, b in zip(x, y)]


def vec_scale(c, x):
    return [c * a for a in x]


def vec_is_zero(x):
    return all(a.is_zero() for a in x)


def bv_mul(m, i, y):
    """e_i <> y for a coordinate vector y."""
    out = vec_zero(m.n, m.p)
    for j, yj in enumerate(y):
        if yj.is_zero():
            continue
        row = m.c[i][j]
        for k in range(m.n):
            if not row[k].is_zero():
                out[k] = out[k] + yj * row[k]
    return out


def vb_mul(m, x, j):
    """x <> e_j for a coordinate vector x."""
    out = vec_zero(m.n, m.p)
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        row = m.c[i][j]
        for k in range(m.n):
            if not row[k].is_zero():
                out[k] = out[k] + xi * row[k]
    return out


# algebras


def _c1_residual(m, i, j, k):
    """lhs - rhs of the defining identity at (e_i, e_j, e_k); also both sides."""
    t = third(m.p)
    xy = m.prod(i, j)
    lhs = vb_mul(m, xy, k)                      # (x*y)*z
    rhs = bv_mul(m, i, m.prod(j, k))            # x*(y*z)
    corr = vec_sub(vec_add(bv_mul(m, k, xy),                 # z*(x*y)
                           bv_mul(m, j, m.prod(i, k))),      # y*(x*z)
                   vec_add(bv_mul(m, i, m.prod(k, j)),       # x*(z*y)
                           bv_mul(m, j, m.prod(k, i))))      # y*(z*x)
    rhs = vec_sub(rhs, vec_scale(t, corr))
    return lhs, rhs


def check_adm_poisson(m):
    """Does a MulTensor satisfy the single admissible-Poisson identity?"""
    for i in range(m.n):
        for j in range(m.n):
            for k in range(m.n):
                lhs, rhs = _c1_residual(m, i, j, k)
                if lhs != rhs:
                    return AxiomReport.fail("adm-poisson", (i, j, k), lhs, rhs)
    return AxiomReport.ok()


def weak_associativity_holds(m):
    """(x*y)*z - x*(y*z) = z*(y*x) - (z*y)*x on basis triples (a consequence)."""
    for i in range(m.n):
        for j in range(m.n):
            for k in range(m.n):
                lhs = vec_sub(vb_mul(m, m.prod(i, j), k),
                              bv_mul(m, i, m.prod(j, k)))
                rhs = vec_sub(bv_mul(m, k, m.prod(j, i)),
                              vb_mul(m, m.prod(k, j), i))
                if lhs != rhs:
                    return False
    return True


def check_poisson(bracket, circ):
    """Antisymmetry + Jacobi + symmetry + associativity + Leibniz."""
    assert bracket.n == circ.n and bracket.p == circ.p
    n = bracket.n
    for i in range(n):
        for j in range(n):
            lhs = bracket.prod(i, j)
            rhs = vec_neg_list(bracket.prod(j, i))
            if lhs != rhs:
                return AxiomReport.fail("antisymmetry", (i, j), lhs, rhs)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = vec_add(vb_mul(bracket, bracket.prod(i, j), k),
                              vec_add(vb_mul(bracket, bracket.prod(j, k), i),
                                      vb_mul(bracket, bracket.prod(k, i), j)))
                rhs = [s - s for s in lhs]
                if not vec_is_zero(lhs):
                    return AxiomReport.fail("jacobi", (i, j, k), lhs, rhs)
    for i in range(n):
        for j in range(n):
            lhs = circ.prod(i, j)
            rhs = circ.prod(j, i)
            if lhs != rhs:
                return AxiomReport.fail("symmetry", (i, j), lhs, rhs)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = vb_mul(circ, circ.prod(i, j), k)
                rhs = bv_mul(circ, i, circ.prod(j, k))
                if lhs != rhs:
                    return AxiomReport.fail("associativity", (i, j, k), lhs, rhs)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # [x, y o z] = [x,y] o z + y o [x,z]
                lhs = bv_mul(bracket, i, circ.prod(j, k))
                rhs = vec_add(vb_mul(circ, bracket.prod(i, j), k),
                              bv_mul(circ, j, bracket.prod(i, k)))
                if lhs != rhs:
                    return AxiomReport.fail("leibniz", (i, j, k), lhs, rhs)
    return AxiomReport.ok()


def vec_neg_list(v):
    return [-x for x in v]


# representations


def check_representation(rep):
    """Verify the three operator identities on every basis pair."""
    star = rep.alg.star
    n, p = star.n, star.p
    t = third(p)
    l, r = rep.l, rep.r
    for i in range(n):
        for j in range(n):
            xy = star.prod(i, j)
            yx = star.prod(j, i)
            l_xy = mult_of_vec(l, xy) if any(xy) else mat_zero(rep.vdim, rep.vdim, p)
            r_xy = mult_of_vec(r, xy) if any(xy) else mat_zero(rep.vdim, rep.vdim, p)
            r_yx = mult_of_vec(r, yx) if any(yx) else mat_zero(rep.vdim, rep.vdim, p)
            ll = mat_mul(l[i], l[j])
            ll_rev = mat_mul(l[j], l[i])
            lr = mat_mul(l[i], r[j])
            lr_rev = mat_mul(l[j], r[i])
            # c2
            lhs = l_xy
            rhs = mat_sub(ll, mat_scale(t, mat_sub(mat_add(r_xy, ll_rev),
                                                   mat_add(lr, lr_rev))))
            if not mat_eq(lhs, rhs):
                return AxiomReport.fail("c2", (i, j), lhs, rhs)
            # c3
            lhs = mat_mul(r[j], l[i])
            rhs = mat_sub(lr, mat_scale(t, mat_sub(mat_add(ll_rev, r_xy),
                                                   mat_add(ll, r_yx))))
            if not mat_eq(lhs, rhs):
                return AxiomReport.fail("c3", (i, j), lhs, rhs)
            # c4
            lhs = mat_mul(r[j], r[i])
            rhs = mat_sub(r_xy, mat_scale(t, mat_sub(mat_add(lr_rev, lr),
                                                     mat_add(r_yx, ll))))
            if not mat_eq(lhs, rhs):
                return AxiomReport.fail("c4", (i, j), lhs, rhs)
    return AxiomReport.ok()


def rep_consequence_holds(rep):
    """l(x*y) + r(x)r(y) = l(x)l(y) + r(y*x), a consequence of c2-c4."""
    star = rep.alg.star
    n = star.n
    l, r = rep.l, rep.r
    for i in range(n):
        for j in range(n):
            lhs = mat_add(mult_of_vec_or_zero(l, star.prod(i, j), rep.vdim, star.p),
                          mat_mul(r[i], r[j]))
            rhs = mat_add(mat_mul(l[i], l[j]),
                          mult_of_vec_or_zero(r, star.prod(j, i), rep.vdim, star.p))
            if not mat_eq(lhs, rhs):
                return False
    return True


def mult_of_vec_or_zero(fam, x, m, p):
    if all(c.is_zero() for c in x):
        return mat_zero(m, m, p)
    return mult_of_vec(fam, x)


# matched


def _fam_apply(fam, coefs, v):
    """(sum_t coefs_t fam[t]) applied to vector v."""
    size = len(fam[0])
    p = v[0].p
    out = vec_zero(size, p)
    for t, ct in enumerate(coefs):
        if ct.is_zero():
            continue
        out = vec_add(out, vec_scale(ct, mat_vec(fam[t], v)))
    return out


def _eq1_residual(star1, l1, r1, l2, r2, i, j, a, p):
    """r2(a)(x*y) vs its matched-pair expansion; x=e_i, y=e_j, a=f_a."""
    t = third(p)
    n1 = star1.n
    ei = basis_vec(n1, i, p)
    ej = basis_vec(n1, j, p)
    xy = star1.prod(i, j)
    lhs = mat_vec(r2[a], xy)
    l1y_a = column(l1[j], a)          # l1(y)a, a P2-vector
    l1x_a = column(l1[i], a)
    r1y_a = column(r1[j], a)
    r1x_a = column(r1[i], a)
    r2a_x = column(r2[a], i)          # r2(a)x, a P1-vector
    r2a_y = column(r2[a], j)
    l2a_x = column(l2[a], i)
    l2a_y = column(l2[a], j)
    rhs = vec_add(_fam_apply(r2, l1y_a, ei), bv_mul(star1, i, r2a_y))
    corr = _fam_apply(r2, r1y_a, ei)
    corr = vec_add(corr, bv_mul(star1, i, l2a_y))
    corr = vec_sub(corr, mat_vec(l2[a], xy))
    corr = vec_sub(corr, bv_mul(star1, j, r2a_x))
    corr = vec_sub(corr, _fam_apply(r2, l1x_a, ej))
    corr = vec_add(corr, bv_mul(star1, j, l2a_x))
    corr = vec_add(corr, _fam_apply(r2, r1x_a, ej))
    rhs = vec_add(rhs, vec_scale(t, corr))
    return lhs, rhs


def _eq2_residual(star1, l1, r1, l2, r2, i, j, a, p):
    """l2(a)(x*y) vs its matched-pair expansion."""
    t = third(p)
    n1 = star1.n
    ei = basis_vec(n1, i, p)
    ej = basis_vec(n1, j, p)
    xy = star1.prod(i, j)
    yx = star1.prod(j, i)
    lhs = mat_vec(l2[a], xy)
    r1x_a = column(r1[i], a)
    r1y_a = column(r1[j], a)
    l1y_a = column(l1[j], a)
    l2a_x = column(l2[a], i)
    l2a_y = column(l2[a], j)
    r2a_y = column(r2[a], j)
    rhs = vec_add(vb_mul(star1, l2a_x, j), _fam_apply(l2, r1x_a, ej))
    corr = vec_sub(bv_mul(star1, j, l2a_x), mat_vec(l2[a], yx))
    corr = vec_add(corr, _fam_apply(r2, r1x_a, ej))
    corr = vec_add(corr, bv_mul(star1, i, l2a_y))
    corr = vec_add(corr, _fam_apply(r2, r1y_a, ei))
    corr = vec_sub(corr, bv_mul(star1, i, r2a_y))
    corr = vec_sub(corr, _fam_apply(r2, l1y_a, ei))
    rhs = vec_add(rhs, vec_scale(t, corr))
    return lhs, rhs


def _eq3_residual(star1, l1, r1, l2, r2, i, j, a, p):
    """(r2(a)x)*y vs its matched-pair expansion."""
    t = third(p)
    n1 = star1.n
    ei = basis_vec(n1, i, p)
    ej = basis_vec(n1, j, p)
    xy = star1.prod(i, j)
    yx = star1.prod(j, i)
    l1x_a = column(l1[i], a)
    l1y_a = column(l1[j], a)
    r1y_a = column(r1[j], a)
    r2a_x = column(r2[a], i)
    r2a_y = column(r2[a], j)
    l2a_y = column(l2[a], j)
    lhs = vb_mul(star1, r2a_x, j)
    rhs = vec_sub(bv_mul(star1, i, l2a_y), _fam_apply(l2, l1x_a, ej))
    rhs = vec_add(rhs, _fam_apply(r2, r1y_a, ei))
    corr = vec_add(bv_mul(star1, i, r2a_y), _fam_apply(r2, l1y_a, ei))
    corr = vec_sub(corr, bv_mul(star1, j, r2a_x))
    corr = vec_sub(corr, _fam_apply(r2, l1x_a, ej))
    corr = vec_sub(corr, mat_vec(l2[a], xy))
    corr = vec_add(corr, mat_vec(l2[a], yx))
    rhs = vec_add(rhs, vec_scale(t, corr))
    return lhs, rhs


_RESIDUALS = (_eq1_residual, _eq2_residual, _eq3_residual)


def check_matched_pair(mp):
    """All six compatibility identities; sub-representation failures are
    reported distinctly (witness names rep1/rep2)."""
    p = mp.p1.p
    rep1 = Representation.raw(mp.p1, mp.l1, mp.r1)
    rep2 = Representation.raw(mp.p2, mp.l2, mp.r2)
    rp1 = check_representation(rep1)
    if not rp1.holds:
        name, idx, lhs, rhs = rp1.witness
        return AxiomReport.fail(f"rep1:{name}", idx, lhs, rhs)
    rp2 = check_representation(rep2)
    if not rp2.holds:
        name, idx, lhs, rhs = rp2.witness
        return AxiomReport.fail(f"rep2:{name}", idx, lhs, rhs)
    star1, star2 = mp.p1.star, mp.p2.star
    for which, res in enumerate(_RESIDUALS, start=1):
        for i in range(mp.p1.n):
            for j in range(mp.p1.n):
                for a in range(mp.p2.n):
                    lhs, rhs = res(star1, mp.l1, mp.r1, mp.l2, mp.r2, i, j, a, p)
                    if lhs != rhs:
                        return AxiomReport.fail(f"match{which}", (i, j, a),
                                                lhs, rhs)
    for which, res in enumerate(_RESIDUALS, start=4):
        for a in range(mp.p2.n):
            for b in range(mp.p2.n):
                for i in range(mp.p1.n):
                    lhs, rhs = res(star2, mp.l2, mp.r2, mp.l1, mp.r1, a, b, i, p)
                    if lhs != rhs:
                        return AxiomReport.fail(f"match{which}", (a, b, i),
                                                lhs, rhs)
    return AxiomReport.ok()


def check_invariant_form(a, form, require_symmetric=False,
                         require_nondegenerate=False):
    """B(x*y, z) = B(x, y*z) on basis triples, plus requested flags."""
    star = a.star
    n = star.n
    assert form.n == n, "dimension mismatch"
    g = form.gram
    if require_symmetric and not form.is_symmetric():
        return AxiomReport.fail("form-symmetric", (0, 0),
                                g[0], transpose(g)[0])
    if require_nondegenerate and not form.is_nondegenerate():
        return AxiomReport.fail("form-nondegenerate", (0,), g[0], g[0][:])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = sum_scalars(star.c[i][j][m] * g[m][k] for m in range(n))
                rhs = sum_scalars(star.c[j][k][m] * g[i][m] for m in range(n))
                if lhs != rhs:
                    return AxiomReport.fail("invariance", (i, j, k),
                                            [lhs], [rhs])
    return AxiomReport.ok()


# ooperators


def pre_adm_residuals(succ, prec, i, j, k):
    """The three defining residuals A, B, C at the basis triple (x,y,z).

    A = -(x>y)>z - (x<y)>z + x>(y>z)
        + 1/3( x>(z<y) - z<(x>y) - z<(x<y) - y>(x>z) + y>(z<x) )
    B = -x>(z<y) + (x>z)<y
        + 1/3( -x>(y>z) + y>(x>z) + z<(x<y) + z<(x>y) - z<(y>x) - z<(y<x) )
    C = -z<(x>y) - z<(x<y) + (z<x)<y
        + 1/3( -z<(y>x) - z<(y<x) + y>(z<x) + x>(z<y) - x>(y>z) )
    """
    t = third(succ.p)
    sp = lambda a, b: succ.prod(a, b)      # e_a > e_b
    pp = lambda a, b: prec.prod(a, b)      # e_a < e_b
    s_bv = lambda a, v: bv_mul(succ, a, v)   # e_a > v
    s_vb = lambda v, b: vb_mul(succ, v, b)   # v > e_b  (as vector > basis)
    p_bv = lambda a, v: bv_mul(prec, a, v)
    p_vb = lambda v, b: vb_mul(prec, v, b)

    x_y_z = s_bv(i, sp(j, k))          # x>(y>z)
    x_zy = s_bv(i, pp(k, j))           # x>(z<y)
    y_xz = s_bv(j, sp(i, k))           # y>(x>z)
    y_zx = s_bv(j, pp(k, i))           # y>(z<x)
    z_xy_s = p_bv(k, sp(i, j))         # z<(x>y)
    z_xy_p = p_bv(k, pp(i, j))         # z<(x<y)
    z_yx_s = p_bv(k, sp(j, i))         # z<(y>x)
    z_yx_p = p_bv(k, pp(j, i))         # z<(y<x)

    A = vec_sub(x_y_z, vec_add(s_vb(sp(i, j), k), s_vb(pp(i, j), k)))
    corr = vec_sub(vec_add(x_zy, y_zx),
                   vec_add(vec_add(z_xy_s, z_xy_p), y_xz))
    A = vec_add(A, vec_scale(t, corr))

    B = vec_sub(p_vb(sp(i, k), j), x_zy)
    corr = vec_sub(vec_add(vec_add(y_xz, z_xy_p), z_xy_s),
                   vec_add(vec_add(x_y_z, z_yx_s), z_yx_p))
    B = vec_add(B, vec_scale(t, corr))

    C = vec_sub(p_vb(pp(k, i), j), vec_add(z_xy_s, z_xy_p))
    corr = vec_sub(vec_add(y_zx, x_zy),
                   vec_add(vec_add(z_yx_s, z_yx_p), x_y_z))
    C = vec_add(C, vec_scale(t, corr))
    return A, B, C


def check_pre_adm_poisson(pre):
    succ, prec = pre.succ, pre.prec
    n = succ.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                A, B, C = pre_adm_residuals(succ, prec, i, j, k)
                for name, res in (("pre1", A), ("pre2", B), ("pre3", C)):
                    if any(res):
                        return AxiomReport.fail(name, (i, j, k), res,
                                                [x - x for x in res])
    return AxiomReport.ok()


def check_pre_poisson(q):
    """Zinbiel + pre-Lie + the two mixed compatibility identities."""
    dot, ast = q.dot, q.ast
    n = dot.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # Zinbiel: x.(y.z) = (y.x).z + (x.y).z
                lhs = bv_mul(dot, i, dot.prod(j, k))
                rhs = vec_add(vb_mul(dot, dot.prod(j, i), k),
                              vb_mul(dot, dot.prod(i, j), k))
                if lhs != rhs:
                    return AxiomReport.fail("zinbiel", (i, j, k), lhs, rhs)
                # pre-Lie: x*(y*z) - (x*y)*z = y*(x*z) - (y*x)*z
                lhs = vec_sub(bv_mul(ast, i, ast.prod(j, k)),
                              vb_mul(ast, ast.prod(i, j), k))
                rhs = vec_sub(bv_mul(ast, j, ast.prod(i, k)),
                              vb_mul(ast, ast.prod(j, i), k))
                if lhs != rhs:
                    return AxiomReport.fail("pre-lie", (i, j, k), lhs, rhs)
                # (x*y - y*x).z = x*(y.z) - y.(x*z)
                d = vec_sub(ast.prod(i, j), ast.prod(j, i))
                lhs = vb_mul(dot, d, k)
                rhs = vec_sub(bv_mul(ast, i, dot.prod(j, k)),
                              bv_mul(dot, j, ast.prod(i, k)))
                if lhs != rhs:
                    return AxiomReport.fail("compat1", (i, j, k), lhs, rhs)
                # (x.y + y.x)*z = x.(y*z) + y.(x*z)
                s = vec_add(dot.prod(i, j), dot.prod(j, i))
                lhs = vb_mul(ast, s, k)
                rhs = vec_add(bv_mul(dot, i, ast.prod(j, k)),
                              bv_mul(dot, j, ast.prod(i, k)))
                if lhs != rhs:
                    return AxiomReport.fail("compat2", (i, j, k), lhs, rhs)
    return AxiomReport.ok()


def check_o_operator(c):
    """theta(u) * theta(v) = theta( l(theta u) v + r(theta v) u ) on basis pairs."""
    star = c.alg.star
    m = c.rep.vdim
    for i in range(m):
        for j in range(m):
            tu = column(c.theta, i)
            tv = column(c.theta, j)
            lhs = apply_mul(star, tu, tv)
            inner = vec_add(column(mult_of_vec(c.rep.l, tu), j),
                            column(mult_of_vec(c.rep.r, tv), i))
            rhs = mat_vec(c.theta, inner)
            if lhs != rhs:
                return AxiomReport.fail("o-operator", (i, j), lhs, rhs)
    return AxiomReport.ok()


def check_rota_baxter(a, R):
    """R(x) * R(y) = R( R(x)*y + x*R(y) ), i.e. weight-zero Rota-Baxter."""
    star = a.star
    n = star.n
    assert len(R) == n and all(len(row) == n for row in R), "R must be n x n"
    for i in range(n):
        for j in range(n):
            u = column(R, i)
            v = column(R, j)
            lhs = apply_mul(star, u, v)
            inner = vec_add(vb_mul(star, u, j), bv_mul(star, i, v))
            rhs = mat_vec(R, inner)
            if lhs != rhs:
                return AxiomReport.fail("rota-baxter", (i, j), lhs, rhs)
    return AxiomReport.ok()


def cyclic_on_products(a, g):
    """The cyclic test of pre_from_symplectic on the gram matrix g."""
    star = a.star
    n = star.n
    # the defining relations only produce a pre-structure when the form is
    # cyclic on products: omega(x*y,z) + omega(y*z,x) + omega(z*x,y) = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = sum_scalars(
                    star.c[x][y][m] * g[m][z]
                    for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j))
                    for m in range(n))
                if not total.is_zero():
                    return False
    return True


# bialgebras


def comul_of_vec(c, coefs):
    """Coefficient matrix of alpha(x) for x = sum coefs_i e_i."""
    out = mat_zero(c.n, c.n, c.p)
    for i, ci in enumerate(coefs):
        if ci.is_zero():
            continue
        out = mat_add(out, mat_scale(ci, c.a[i]))
    return out


def _coalgebra_residual(c, i):
    """Direct coassociativity-type residual of alpha at e_i.

    With U[p][q][s] = sum_m a[i][p][m] a[m][q][s] ("apply alpha to the second
    leg") and V[p][q][s] = sum_m a[i][m][s] a[m][p][q] ("to the first leg"),
    the condition reads, for every (p,q,s),

        U - V + 1/3( U[p][s][q] - U[q][p][s] - U[s][p][q] + U[q][s][p] ) = 0.
    """
    n, p = c.n, c.p
    t = third(p)
    a = c.a
    U = [[[sum_scalars(a[i][pp][m] * a[m][q][s] for m in range(n))
           for s in range(n)] for q in range(n)] for pp in range(n)]
    V = [[[sum_scalars(a[i][m][s] * a[m][pp][q] for m in range(n))
           for s in range(n)] for q in range(n)] for pp in range(n)]
    for pp in range(n):
        for q in range(n):
            for s in range(n):
                res = U[pp][q][s] - V[pp][q][s] + t * (
                    U[pp][s][q] - U[q][pp][s] - U[s][pp][q] + U[q][s][pp])
                if not res.is_zero():
                    return (pp, q, s), res
    return None


def check_coalgebra(c):
    """Direct residual check of the coassociativity-type condition."""
    for i in range(c.n):
        hit = _coalgebra_residual(c, i)
        if hit is not None:
            (pp, q, s), res = hit
            return AxiomReport.fail("coalgebra", (i, pp, q), [res], [res - res])
    return AxiomReport.ok()


def _bialgebra_residuals(star, c, i, j):
    """The three pair-condition residual matrices E, F, G at (e_i, e_j)."""
    n, p = star.n, star.p
    t = third(p)
    L = [left_mult_basis(star, k) for k in range(n)]
    R = [right_mult_basis(star, k) for k in range(n)]
    Ai, Aj = c.a[i], c.a[j]
    a_xy = comul_of_vec(c, star.prod(i, j))
    a_yx = comul_of_vec(c, star.prod(j, i))
    RjAi = mat_mul(R[j], Ai)
    AjLiT = mat_mul(Aj, transpose(L[i]))
    LiAj = mat_mul(L[i], Aj)
    LjAi = mat_mul(L[j], Ai)
    RiAj = mat_mul(R[i], Aj)
    AiLjT = mat_mul(Ai, transpose(L[j]))
    base = mat_add(mat_sub(RjAi, a_xy), AjLiT)
    # E: first compatibility
    corr = mat_sub(mat_add(LjAi, LiAj), mat_add(AiLjT, RiAj))
    corr = mat_add(corr, transpose(mat_sub(mat_add(LiAj, LjAi), a_xy)))
    E = mat_add(base, mat_scale(t, corr))
    # F: second compatibility
    corr = mat_sub(mat_add(LiAj, LjAi), a_yx)
    corr = mat_add(corr, transpose(mat_sub(mat_add(LiAj, LjAi),
                                           mat_add(RjAi, AjLiT))))
    F = mat_add(base, mat_scale(t, corr))
    # G: third compatibility
    G = mat_add(mat_sub(LjAi, mat_mul(Ai, transpose(R[j]))),
                transpose(mat_sub(LiAj, mat_mul(Aj, transpose(R[i])))))
    corr = mat_sub(mat_add(RjAi, AjLiT), mat_add(AiLjT, RiAj))
    corr = mat_add(corr, transpose(mat_sub(a_yx, a_xy)))
    G = mat_add(G, mat_scale(t, corr))
    return E, F, G


def check_adm_bialgebra(a, c):
    """Coalgebra condition plus the three mixed compatibility identities."""
    star = a.star
    co = check_coalgebra(c)
    if not co.holds:
        return co
    for i in range(star.n):
        for j in range(star.n):
            E, F, G = _bialgebra_residuals(star, c, i, j)
            for name, res in (("defbi1", E), ("defbi2", F), ("defbi3", G)):
                if not mat_is_zero(res):
                    return AxiomReport.fail(name, (i, j), res[0],
                                            [x - x for x in res[0]])
    return AxiomReport.ok()


def check_poisson_bialgebra(palg, pair):
    """The displayed Poisson-bialgebra conditions, checked coordinatewise.

    (i) the duals of delta/Delta are a Lie / commutative associative algebra,
    (ii) delta is a 1-cocycle of the bracket, (iii) Delta satisfies the
    infinitesimal-bialgebra identity over circ, (iv) the two mixed
    compatibilities, (v) the co-Leibniz identity.
    """
    bracket, circ = palg.bracket, palg.circ
    n, p = bracket.n, bracket.p
    delta, Delta = pair.delta, pair.Delta
    # (i) dual structures: bundle delta/Delta duals into one Poisson check
    dual = check_poisson(dual_structure(delta), dual_structure(Delta))
    if not dual.holds:
        name, idx, lhs, rhs = dual.witness
        return AxiomReport.fail(f"dual-{name}", idx, lhs, rhs)
    ad = [left_mult_basis(bracket, i) for i in range(n)]
    Lc = [left_mult_basis(circ, i) for i in range(n)]
    D = [delta.a[i] for i in range(n)]
    D2 = [Delta.a[i] for i in range(n)]
    for i in range(n):
        for j in range(n):
            # (ii) delta([x,y]) = (ad(x) (x) id + id (x) ad(x)) delta(y)
            #                   - (ad(y) (x) id + id (x) ad(y)) delta(x)
            lhs = comul_of_vec(delta, bracket.prod(i, j))
            rhs = mat_sub(mat_add(mat_mul(ad[i], D[j]),
                                  mat_mul(D[j], transpose(ad[i]))),
                          mat_add(mat_mul(ad[j], D[i]),
                                  mat_mul(D[i], transpose(ad[j]))))
            if not mat_eq(lhs, rhs):
                return AxiomReport.fail("lie-cocycle", (i, j), lhs[0], rhs[0])
            # (iii) Delta(x o y) = (id (x) Lc(x)) Delta(y) + (Rc(y) (x) id) Delta(x)
            lhs = comul_of_vec(Delta, circ.prod(i, j))
            rhs = mat_add(mat_mul(D2[j], transpose(Lc[i])),
                          mat_mul(Lc[j], D2[i]))
            if not mat_eq(lhs, rhs):
                return AxiomReport.fail("infinitesimal", (i, j), lhs[0], rhs[0])
            # (iv) first mixed compatibility
            lhs = comul_of_vec(delta, circ.prod(i, j))
            rhs = mat_add(mat_add(mat_mul(Lc[i], D[j]), mat_mul(Lc[j], D[i])),
                          mat_add(mat_mul(D2[j], transpose(ad[i])),
                                  mat_mul(D2[i], transpose(ad[j]))))
            if not mat_eq(lhs, rhs):
                return AxiomReport.fail("mixed1", (i, j), lhs[0], rhs[0])
            # (iv) second mixed compatibility
            lhs = comul_of_vec(Delta, bracket.prod(i, j))
            rhs = mat_add(mat_add(mat_mul(ad[i], D2[j]),
                                  mat_mul(D2[j], transpose(ad[i]))),
                          mat_sub(mat_mul(Lc[j], D[i]),
                                  mat_mul(D[i], transpose(Lc[j]))))
            if not mat_eq(lhs, rhs):
                return AxiomReport.fail("mixed2", (i, j), lhs[0], rhs[0])
    # (v) co-Leibniz: (id (x) Delta) delta(x) = (delta (x) id) Delta(x)
    #                 + (tau (x) id)(id (x) delta) Delta(x)
    for i in range(n):
        for pp in range(n):
            for q in range(n):
                for s in range(n):
                    lhs = sum_scalars(delta.a[i][pp][m] * Delta.a[m][q][s]
                                      for m in range(n))
                    rhs = sum_scalars(Delta.a[i][m][s] * delta.a[m][pp][q]
                                      for m in range(n))
                    rhs = rhs + sum_scalars(Delta.a[i][q][m] * delta.a[m][pp][s]
                                            for m in range(n))
                    if lhs != rhs:
                        return AxiomReport.fail("co-leibniz", (i, pp, q),
                                                [lhs], [rhs])
    return AxiomReport.ok()


# tensors


def tensor3_product(ra, rb, m, slots):
    """Componentwise product of two rank-2 tensors placed in triple-tensor slots.

    `ra` and `rb` are n x n coefficient matrices (first factor = first index);
    `slots` names where the left and right operands sit, e.g. "12.13" is the
    product of the left operand in slots (1,2) with the right one in (1,3).
    The shared slot carries the product under `m`; the formal placeholder in
    the unused slot never materializes.
    """
    assert slots in SLOT_PATTERNS, f"unknown slot pattern {slots!r}"
    n, p = m.n, m.p
    assert len(ra) == n and len(rb) == n, "dimension mismatch"
    out = [[vec_zero(n, p) for _ in range(n)] for _ in range(n)]
    nz_a = [(i, j, ra[i][j]) for i in range(n) for j in range(n)
            if not ra[i][j].is_zero()]
    nz_b = [(i, j, rb[i][j]) for i in range(n) for j in range(n)
            if not rb[i][j].is_zero()]
    for ia, ja, ca in nz_a:
        for ib, jb, cb in nz_b:
            f = ca * cb
            if slots == "12.13":
                # (e_ia * e_ib) (x) e_ja (x) e_jb
                prod, fixed = m.c[ia][ib], lambda k: (k, ja, jb)
            elif slots == "13.23":
                # e_ia (x) e_ib (x) (e_ja * e_jb)
                prod, fixed = m.c[ja][jb], lambda k: (ia, ib, k)
            elif slots == "23.12":
                # left in (2,3), right in (1,2): e_ib (x) (e_ia * e_jb) (x) e_ja
                prod, fixed = m.c[ia][jb], lambda k: (ib, k, ja)
            elif slots == "12.23":
                # left in (1,2), right in (2,3): e_ia (x) (e_ja * e_ib) (x) e_jb
                prod, fixed = m.c[ja][ib], lambda k: (ia, k, jb)
            elif slots == "23.13":
                # left in (2,3), right in (1,3): e_ib (x) e_ia (x) (e_ja * e_jb)
                prod, fixed = m.c[ja][jb], lambda k: (ib, ia, k)
            else:  # "13.12"
                # left in (1,3), right in (1,2): (e_ia * e_ib) (x) e_jb (x) e_ja
                prod, fixed = m.c[ia][ib], lambda k: (k, jb, ja)
            for k in range(n):
                if prod[k].is_zero():
                    continue
                x, y, z = fixed(k)
                out[x][y][z] = out[x][y][z] + f * prod[k]
    return Tensor3(n, p, out)


# yangbaxter


def coboundary_alpha(a, r):
    """alpha(x) = (id (x) L(x) - R(x) (x) id) r, as a comultiplication."""
    star = a.star
    n, p = star.n, star.p
    assert r.n == n, "dimension mismatch"
    rm = r.coeff
    mats = []
    for i in range(n):
        L = left_mult_basis(star, i)
        R = right_mult_basis(star, i)
        mats.append(mat_sub(mat_mul(rm, transpose(L)), mat_mul(R, rm)))
    return Comultiplication(n, p, mats)


def _sym_defect(star, r):
    """x -> M(x) = L(x) S - S R(x)^T on basis elements, plus S itself."""
    n, p = star.n, star.p
    S = mat_add(r.coeff, transpose(r.coeff))
    L = [left_mult_basis(star, i) for i in range(n)]
    R = [right_mult_basis(star, i) for i in range(n)]

    def M_of(coefs):
        Lx = mult_of_vec(L, coefs)
        Rx = mult_of_vec(R, coefs)
        return mat_sub(mat_mul(Lx, S), mat_mul(S, transpose(Rx)))

    M = [mat_sub(mat_mul(L[i], S), mat_mul(S, transpose(R[i])))
         for i in range(n)]
    return S, L, R, M, M_of


def check_coboundary_conditions(a, r, which):
    """The con1 and eqv1-eqv3 branches of check_coboundary_conditions, on
    the loop-built M."""
    star = a.star
    n, p = star.n, star.p
    t = third(p)
    S, L, R, M, M_of = _sym_defect(star, r)
    if which == "con1":
        for i in range(n):
            if not mat_is_zero(M[i]):
                return AxiomReport.fail("con1", (i,), M[i][0],
                                        [x - x for x in M[i][0]])
        return AxiomReport.ok()
    for i in range(n):
        for j in range(n):
            if which == "eqv1":
                res = mat_sub(mat_add(mat_mul(M[j], transpose(L[i])),
                                      mat_mul(M[i], transpose(L[j]))),
                              M_of(star.prod(i, j)))
            elif which == "eqv2":
                res = mat_sub(mat_add(mat_mul(M[j], transpose(L[i])),
                                      mat_mul(M[i], transpose(L[j]))),
                              mat_add(mat_mul(L[i], M[j]),
                                      mat_mul(M[i], transpose(R[j]))))
            else:
                d = [x - y for x, y in
                     zip(star.prod(i, j), star.prod(j, i))]
                res = mat_add(mat_sub(mat_mul(R[i], M[j]),
                                      mat_mul(M[j], transpose(L[i]))),
                              mat_scale(t, M_of(d)))
            if not mat_is_zero(res):
                return AxiomReport.fail(which, (i, j), res[0],
                                        [x - x for x in res[0]])
    return AxiomReport.ok()


def _vanishes(t3, name):
    idx = t3.first_nonzero()
    if idx is None:
        return AxiomReport.ok()
    i, j, k = idx
    val = t3.t[i][j][k]
    return AxiomReport.fail(name, idx, [val], [val - val])


def check_ybe(alg, r, kind):
    """adm_pybe on an AdmPoissonAlgebra; cybe/aybe/pybe on a PoissonAlgebra."""
    if kind == "adm_pybe":
        return _vanishes(ybe_operator(alg.star, r, "P"), "adm-pybe")
    if kind == "cybe":
        return _vanishes(ybe_operator(alg.bracket, r, "C"), "cybe")
    if kind == "aybe":
        return _vanishes(ybe_operator(alg.circ, r, "A"), "aybe")
    if kind == "pybe":
        rep = check_ybe(alg, r, "cybe")
        if not rep.holds:
            return rep
        return check_ybe(alg, r, "aybe")
    raise ValueError(f"unknown Yang-Baxter kind {kind!r}")


def _same_size(star, r):
    if r.n != star.n:
        raise ShapeError(f"operand sizes disagree: r has {r.n} where the "
                         f"operation has {star.n}")


def operator_form_check(a, r):
    """For skew r:  r#(a*) * r#(b*) = r#( R(r#(a*))^T b* + L(r#(b*))^T a* )."""
    if not r.is_skew():
        raise ValueError("operator form requires a skew-symmetric r")
    star = a.star
    _same_size(star, r)
    n, p = star.n, star.p
    sharp = r.sharp()
    L = [left_mult_basis(star, k) for k in range(n)]
    R = [right_mult_basis(star, k) for k in range(n)]
    for i in range(n):
        u = column(sharp, i)       # r#(f_i)
        for j in range(n):
            v = column(sharp, j)
            lhs = apply_mul(star, u, v)
            Ru = mult_of_vec(R, u)
            Lv = mult_of_vec(L, v)
            # R(u)^T f_j is row j of R(u); L(v)^T f_i is row i of L(v)
            w = vec_add(list(Ru[j]), list(Lv[i]))
            rhs = mat_vec(sharp, w)
            if lhs != rhs:
                return AxiomReport.fail("operator-form", (i, j), lhs, rhs)
    return AxiomReport.ok()


def cyclic_form_check(a, r):
    """For skew nondegenerate r: the inverse form omega = r^{-1} satisfies
    omega(x*y, z) + omega(y*z, x) + omega(z*x, y) = 0."""
    if not r.is_skew():
        raise ValueError("cyclic form requires a skew-symmetric r")
    omega = mat_inverse(r.coeff, r.p)
    if omega is None:
        raise ValueError("cyclic form requires a nondegenerate r")
    star = a.star
    _same_size(star, r)
    n = star.n

    def w(prod_vec, k):
        return sum_scalars(prod_vec[m] * omega[m][k] for m in range(n))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = w(star.prod(i, j), k)
                total = total + w(star.prod(j, k), i)
                total = total + w(star.prod(k, i), j)
                if not total.is_zero():
                    return AxiomReport.fail("cyclic-form", (i, j, k),
                                            [total], [total - total])
    return AxiomReport.ok()


def ybe_operator(mul, r, which):
    """P, Q, A or C as a Tensor3; `mul` is the relevant operation's tensor
    (the single operation for P/Q, circ for A, bracket for C)."""
    rm = r.coeff
    t3 = lambda pat: tensor3_product(rm, rm, mul, pat)
    if which == "P":
        return t3("23.12").sub(t3("13.23")).sub(t3("12.13"))
    if which == "Q":
        return t3("12.23").sub(t3("23.13")).sub(t3("13.12"))
    if which == "A":
        return t3("23.12").sub(t3("13.23")).sub(t3("12.13"))
    if which == "C":
        return t3("23.12").add(t3("23.13")).add(t3("13.12"))
    raise ValueError(f"unknown operator {which!r}")


def t3_swap(t, axis_a, axis_b):
    """Transpose two tensor slots (0-based)."""
    n, p = t.n, t.p
    out = [[vec_zero(n, p) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                idx = [i, j, k]
                idx[axis_a], idx[axis_b] = idx[axis_b], idx[axis_a]
                out[idx[0]][idx[1]][idx[2]] = t.t[i][j][k]
    return Tensor3(n, p, out)


def t3_slot_apply(t, slot, m):
    """Apply a matrix m to one tensor slot (id (x) ... (x) m (x) ... (x) id)."""
    n, p = t.n, t.p
    out = [[vec_zero(n, p) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                coef = t.t[i][j][k]
                if coef.is_zero():
                    continue
                idx = (i, j, k)
                for a in range(n):
                    f = m[a][idx[slot]]
                    if f.is_zero():
                        continue
                    new = list(idx)
                    new[slot] = a
                    out[new[0]][new[1]][new[2]] = \
                        out[new[0]][new[1]][new[2]] + f * coef
    return Tensor3(n, p, out)


def _t3_vm(pidx, M, n, p):
    """e_p (x) M as a Tensor3 (M a matrix viewed in the last two slots)."""
    t = [[vec_zero(n, p) for _ in range(n)] for _ in range(n)]
    for u in range(n):
        for v in range(n):
            t[pidx][u][v] = M[u][v]
    return Tensor3(n, p, t)


def _t3_mv(M, qidx, n, p):
    """M (x) e_q as a Tensor3 (M in the first two slots)."""
    t = [[vec_zero(n, p) for _ in range(n)] for _ in range(n)]
    for u in range(n):
        for v in range(n):
            t[u][v][qidx] = M[u][v]
    return Tensor3(n, p, t)


def _cosp_residual(star, r, i, L=None, R=None, Pt=None, Qt=None):
    """The long coalgebra-condition residual at x = e_i.

    Term structure (all built from S = r + tau(r), M(z) = L(z)S - S R(z)^T):
      T1 = (R(x) (x) id (x) id - id (x) id (x) L(x)) P(r)
      T2 = (id (x) R(x) (x) id - id (x) id (x) R(x)) P(r)
      T3 = (R(x) (x) id (x) id - id (x) R(x) (x) id) Q(r)
      A  = sum r[p][q] (R(x) on slot 1)(e_p (x) M(e_q))
      B  = sum r[p][q] (R(x) on slot 2)(swap12(e_p (x) M(e_q)))
      C  = sum r[p][q] (id + swap23)(L(e_p) M(x) (x) e_q)
      D  = sum r[p][q] (id + swap12)(e_p (x) M(x * e_q))
      E  = sum r[p][q] e_p (x) (R(e_q) M(x))
      F  = sum r[p][q] (R(e_p) M(x)) (x) e_q
    and the residual is T1 + 1/3 (T2 + T3 - A - B + C + D - E - F).
    """
    n, p = star.n, star.p
    t = third(p)
    S, Lfam, Rfam, Mfam, M_of = _sym_defect(star, r)
    if L is None:
        L, R = Lfam, Rfam
    if Pt is None:
        Pt = ybe_operator(star, r, "P")
        Qt = ybe_operator(star, r, "Q")
    Rx, Lx = R[i], L[i]
    Mx = Mfam[i]
    T1 = t3_slot_apply(Pt, 0, Rx).sub(t3_slot_apply(Pt, 2, Lx))
    T2 = t3_slot_apply(Pt, 1, Rx).sub(t3_slot_apply(Pt, 2, Rx))
    T3 = t3_slot_apply(Qt, 0, Rx).sub(t3_slot_apply(Qt, 1, Rx))
    corr = T2.add(T3)
    rm = r.coeff
    for pp in range(n):
        for q in range(n):
            cpq = rm[pp][q]
            if cpq.is_zero():
                continue
            Mq = Mfam[q]
            termA = t3_slot_apply(_t3_vm(pp, Mq, n, p), 0, Rx)
            termB = t3_slot_apply(t3_swap(_t3_vm(pp, Mq, n, p), 0, 1), 1, Rx)
            Kp = mat_mul(L[pp], Mx)
            base_c = _t3_mv(Kp, q, n, p)
            termC = base_c.add(t3_swap(base_c, 1, 2))
            Wq = M_of(star.prod(i, q))
            base_d = _t3_vm(pp, Wq, n, p)
            termD = base_d.add(t3_swap(base_d, 0, 1))
            termE = _t3_vm(pp, mat_mul(R[q], Mx), n, p)
            termF = _t3_mv(mat_mul(R[pp], Mx), q, n, p)
            delta = termC.add(termD).sub(termA).sub(termB).sub(termE).sub(termF)
            corr = corr.add(delta.scale(cpq))
    return T1.add(corr.scale(t))


def check_cosp(a, r, which):
    """The cosp and cosp2 branches of check_coboundary_conditions."""
    star = a.star
    n, p = star.n, star.p
    t = third(p)
    S, L, R, M, M_of = _sym_defect(star, r)
    Pt = ybe_operator(star, r, "P")
    Qt = ybe_operator(star, r, "Q")
    for i in range(n):
        if which == "cosp":
            res = _cosp_residual(star, r, i, L, R, Pt, Qt)
        else:
            T1 = t3_slot_apply(Pt, 0, R[i]).sub(t3_slot_apply(Pt, 2, L[i]))
            T2 = t3_slot_apply(Pt, 1, R[i]).sub(t3_slot_apply(Pt, 2, R[i]))
            T3 = t3_slot_apply(Qt, 0, R[i]).sub(t3_slot_apply(Qt, 1, R[i]))
            res = T1.add(T2.add(T3).scale(t))
        idx = res.first_nonzero()
        if idx is not None:
            val = res.t[idx[0]][idx[1]][idx[2]]
            return AxiomReport.fail(which, (i,) + idx[:2], [val],
                                    [val - val])
    return AxiomReport.ok()


# search


def dim2_gf5_tensor_array():
    """All 5^8 structure tensors at dim 2 over GF(5) in exhaustive order,
    batch-first: shape (5^8, 2, 2, 2)."""
    idx = np.arange(5 ** 8, dtype=np.int64)
    digits = np.empty((len(idx), 8), dtype=np.int8)
    for t in range(8):
        digits[:, t] = (idx // 5 ** t) % 5
    return digits.reshape(-1, 2, 2, 2)


def sample_adm_poisson(spec):
    """The sampled adm-Poisson search one candidate at a time, each checked
    by the scalar loop, without the count limit."""
    n, p = spec.dim, spec.p
    space = p ** (n ** 3)
    rng = random.Random(spec.seed)
    for _ in range(spec.count * 10000):
        idx = rng.randrange(space)
        m = decode_mul(idx, n, p)
        if spec.nonzero_only and m.is_zero():
            continue
        if check_adm_poisson(m).holds:
            yield m


def adm_mask_dim2_gf5(C=None):
    """Boolean mask of the defining identity, cleared of 1/3 by scaling by 3:

    3[(x*y)*z - x*(y*z)] + [-x*(z*y) + z*(x*y) + y*(x*z) - y*(z*x)] = 0.
    """
    if C is None:
        C = dim2_gf5_tensor_array()
    Cw = C.astype(np.int16)
    res = 3 * (np.einsum('mijs,mskl->mijkl', Cw, Cw)       # (x*y)*z
               - np.einsum('mjks,misl->mijkl', Cw, Cw))    # x*(y*z)
    res -= np.einsum('mkjs,misl->mijkl', Cw, Cw)           # x*(z*y)
    res += np.einsum('mijs,mksl->mijkl', Cw, Cw)           # z*(x*y)
    res += np.einsum('miks,mjsl->mijkl', Cw, Cw)           # y*(x*z)
    res -= np.einsum('mkis,mjsl->mijkl', Cw, Cw)           # y*(z*x)
    res %= 5
    return (res == 0).all(axis=(1, 2, 3, 4))


def poisson_mask_dim2_gf5(C=None):
    """Independent route: polarize (1/2 = 3 mod 5) and test the Poisson
    axioms (Jacobi, associativity, Leibniz; the symmetry axioms hold by
    construction of the polarized pair)."""
    if C is None:
        C = dim2_gf5_tensor_array()
    Cw = C.astype(np.int16)
    circ = (3 * (Cw + Cw.transpose(0, 2, 1, 3))) % 5
    br = (3 * (Cw - Cw.transpose(0, 2, 1, 3))) % 5
    T = np.einsum('mijs,mskl->mijkl', br, br)
    jac = (T + T.transpose(0, 2, 3, 1, 4) + T.transpose(0, 3, 1, 2, 4)) % 5
    ok = (jac == 0).all(axis=(1, 2, 3, 4))
    assoc = (np.einsum('mijs,mskl->mijkl', circ, circ)
             - np.einsum('mjks,misl->mijkl', circ, circ)) % 5
    ok &= (assoc == 0).all(axis=(1, 2, 3, 4))
    leib = (np.einsum('mjks,misl->mijkl', circ, br)       # [x, y o z]
            - np.einsum('mijs,mskl->mijkl', br, circ)     # [x, y] o z
            - np.einsum('miks,mjsl->mijkl', br, circ)) % 5  # y o [x, z]
    ok &= (leib == 0).all(axis=(1, 2, 3, 4))
    return ok
