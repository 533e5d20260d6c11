"""The Yang-Baxter operators and the coboundary machinery of r-tensors
(RTensor, which lives in tensors beside the other structures).

Conventions used throughout (for r with coefficient matrix r[i][j], meaning
r = sum r[i][j] e_i (x) e_j):

  * tau(r) has matrix r^T; skew/symmetric parts are (r -+ r^T)/2.
  * r-sharp : P* -> P is the coefficient matrix transposed:
    <r#(u*), v*> = <r, u* (x) v*>, so r#(f_i) = sum_j r[i][j] e_j.
  * For a matrix Y regarded as an element of P (x) P,
    (M (x) id) Y = M Y,  (id (x) M) Y = Y M^T.
  * M(x) = L(x) S - S R(x)^T with S = r + tau(r) is the recurring
    "symmetric-part defect" (L(x) (x) id - id (x) R(x)) applied to S.
"""

import numpy as np

from .tensors import (Comultiplication, Exact, RTensor, Tensor3, Terms, Identity,
                      check_identities, common, contract, evaluate, exact_operands,
                      identity, solve)


# Left operand a[i][.] and right operand b[.][.] placed in triple-tensor
# slots; "12.13" is a in slots (1,2) times b in (1,3).  The shared slot
# carries the product m, whose output index takes that slot's place.
SLOT_PATTERNS = {
    "12.13": "a:iy b:jz m:ijx",     # (e_ia * e_ib) (x) e_ja (x) e_jb
    "13.23": "a:xi b:yj m:ijz",     # e_ia (x) e_ib (x) (e_ja * e_jb)
    "23.12": "a:iz b:xj m:ijy",     # e_ib (x) (e_ia * e_jb) (x) e_ja
    "12.23": "a:xi b:jz m:ijy",     # e_ia (x) (e_ja * e_ib) (x) e_jb
    "23.13": "a:yi b:xj m:ijz",     # e_ib (x) e_ia (x) (e_ja * e_jb)
    "13.12": "a:iz b:jy m:ijx",     # (e_ia * e_ib) (x) e_jb (x) e_ja
}

# The Yang-Baxter operators as signed sums of slot products of r with itself
# (see SLOT_PATTERNS); A is P's formula applied to circ.
_YBE_SLOTS = {
    "P": "23.12 - 13.23 - 12.13",
    "Q": "12.23 - 23.13 - 13.12",
    "C": "23.12 + 23.13 + 13.12",
}
_YBE_TERMS = {which: " ".join(SLOT_PATTERNS.get(tok, tok) for tok in slots.split())
              for which, slots in _YBE_SLOTS.items()}
YBE_OPERATORS = {which: Terms(text, "xyz") for which, text in _YBE_TERMS.items()}
YBE_OPERATORS["A"] = YBE_OPERATORS["P"]
# Each equation: its operator vanishes on the named operation.
YBE = {
    "adm_pybe": ("star", Identity("adm-pybe", "xyz", "", _YBE_TERMS["P"])),
    "cybe": ("bracket", Identity("cybe", "xyz", "", _YBE_TERMS["C"])),
    "aybe": ("circ", Identity("aybe", "xyz", "", _YBE_TERMS["P"])),
}


def ybe_operator(mul, r, which):
    """P, Q, A or C as a Tensor3; `mul` is the relevant operation's tensor
    (the single operation for P/Q, circ for A, bracket for C)."""
    if which not in YBE_OPERATORS:
        raise ValueError(f"unknown operator {which!r}")
    t = evaluate(YBE_OPERATORS[which], {"a": r.exact, "b": r.exact, "m": mul.exact}, mul.p)
    return Tensor3(mul.n, mul.p, t)


def check_ybe(alg, r, kind):
    """adm_pybe on an AdmPoissonAlgebra; cybe/aybe/pybe on a PoissonAlgebra."""
    if kind == "pybe":
        rep = check_ybe(alg, r, "cybe")
        return check_ybe(alg, r, "aybe") if rep.holds else rep
    if kind not in YBE:
        raise ValueError(f"unknown Yang-Baxter kind {kind!r}")
    op, ident = YBE[kind]
    mul = getattr(alg, op)
    return check_identities(((ident,),), {"a": r.exact, "b": r.exact, "m": mul.exact},
                            mul.p)


# alpha(e_i) = r L(e_i)^T - R(e_i) r, and the symmetric-part defect
# M(e_i) = L(e_i) S - S R(e_i)^T with S = r + tau(r), as matrices [a][b].
COBOUNDARY_ALPHA = Terms("r:ak m:ikb - m:kia r:kb", "iab")
_SYM_DEFECT = "m:ika r:kb + m:ika r:bk - r:ak m:kib - r:ka m:kib"
SYM_DEFECT = Terms(_SYM_DEFECT, "iab")


def coboundary_alpha(a, r):
    """alpha(x) = (id (x) L(x) - R(x) (x) id) r, as a comultiplication."""
    star = a.star
    return Comultiplication(star.n, star.p, evaluate(
        COBOUNDARY_ALPHA, {"m": star.exact, "r": r.exact}, star.p))


def sym_defect(star, r):
    """M(e_i) = L(e_i) S - S R(e_i)^T for each basis element e_i."""
    return evaluate(SYM_DEFECT, {"m": star.exact, "r": r.exact}, star.p)


# The coalgebra conditions at x = e_i, with index letters i (of x) and
# a, b, c (of the triple tensor), over the operation m, P = P(r), Q = Q(r),
# M[q] = M(e_q) and the contractions of r with m in _R_TIMES_M.  cosp2 is
#   T1 + 1/3 (T2 + T3),  T1 = (R(x) (x) id (x) id - id (x) id (x) L(x)) P,
#   T2 = (id (x) R(x) (x) id - id (x) id (x) R(x)) P,
#   T3 = (R(x) (x) id (x) id - id (x) R(x) (x) id) Q;
# cosp adds 1/3 (C + D - A - B - E - F), sums over r[p][q] of
#   A = (R(x) on slot 1)(e_p (x) M(e_q)),  B = (R(x) on slot 2)(swap12 of the same),
#   C = (id + swap23)(L(e_p) M(x) (x) e_q),  D = (id + swap12)(e_p (x) M(x * e_q)),
#   E = e_p (x) R(e_q) M(x),  F = R(e_p) M(x) (x) e_q.
_R_TIMES_M = {
    "N": Terms("r:pq m:psa", "qsa"),
    "Z": Terms("r:aq m:sqb", "asb"),
    "W": Terms("r:pc m:spa", "csa"),
}
_COSP2 = ("m:sia P:sbc - m:isc P:abs + 1/3 m:sib P:asc - 1/3 m:sic P:abs"
          " + 1/3 m:sia Q:sbc - 1/3 m:sib Q:asc")
COSP = {
    "cosp2": Identity("cosp2", "iab", "c", _COSP2),
    "cosp": Identity("cosp", "iab", "c", _COSP2 +
                     " - 1/3 N:qia M:qbc - 1/3 N:qib M:qac"     # A, B
                     " + 1/3 N:csa M:isb + 1/3 N:bsa M:isc"     # C
                     " + 1/3 Z:ais M:sbc + 1/3 Z:bis M:sac"     # D
                     " - 1/3 Z:asb M:isc - 1/3 W:csa M:isb"),   # E, F
}


CON1 = Identity("con1", "i", "ab", _SYM_DEFECT)
# eqv1-eqv3 at (x, y) = (e_i, e_j) over m and M[q] = M(e_q), as [a][b]:
#   eqv1  M(y) L(x)^T + M(x) L(y)^T - M(x*y),
#   eqv2  M(y) L(x)^T + M(x) L(y)^T - L(x) M(y) - M(x) R(y)^T,
#   eqv3  R(x) M(y) - M(y) L(x)^T + 1/3 M(x*y - y*x).
EQV = {
    "eqv1": Identity("eqv1", "ij", "ab", "M:jat m:itb + M:iat m:jtb - m:ijs M:sab"),
    "eqv2": Identity("eqv2", "ij", "ab",
                     "M:jat m:itb + M:iat m:jtb - m:ita M:jtb - M:iat m:tjb"),
    "eqv3": Identity("eqv3", "ij", "ab",
                     "m:tia M:jtb - M:jat m:itb + 1/3 m:ijs M:sab - 1/3 m:jis M:sab"),
}


def check_coboundary_conditions(a, r, which):
    """The displayed conditions on r that make the coboundary comultiplication
    a bialgebra (or their symmetric-part / polarized variants)."""
    star = a.star
    p = star.p
    if which == "con1":
        return check_identities(((CON1,),), {"m": star.exact, "r": r.exact}, p)
    if which not in EQV and which not in COSP:
        raise ValueError(f"unknown condition {which!r}")
    if which in EQV:
        return check_identities(((EQV[which],),), {"m": star.exact, "M": sym_defect(star, r)}, p)
    ident = COSP[which]
    # M, P, Q and the contractions it names, from one operand set of (m, r);
    # P and Q take r as both a and b
    sides = {name: terms for name, terms in (("M", SYM_DEFECT), ("P", YBE_OPERATORS["P"]),
                                             ("Q", YBE_OPERATORS["Q"]), *_R_TIMES_M.items())
             if name in ident.residual.ranks}
    arrays, den = exact_operands({"m": star.exact, "r": r.exact, "a": r.exact, "b": r.exact},
                                 p, sides.values())
    ops = {name: Exact(contract(terms, arrays, p), den ** max(terms.degrees), p)
           for name, terms in sides.items()}
    # the witness is the first nonzero entry of the residual at (i, a, b)
    return check_identities([[ident]], {"m": star.exact, **ops}, p).first_entry()


# At (i, j) = (f_i, f_j) with r#(f_i) = r[i][.]:
#   r#(f_i) * r#(f_j) = r#( R(r#(f_i))^T f_j + L(r#(f_j))^T f_i ).
OPERATOR_FORM = Identity("operator-form", "ij", "z", "r:ix r:jy m:xyz",
                         "r:ik m:bkj r:bz + r:jk m:kbi r:bz")
# w(x*y, z) + w(y*z, x) + w(z*x, y) = 0 at (x, y, z) = (e_i, e_j, e_k).
CYCLIC_FORM = Identity("cyclic-form", "ijk", "", "m:ijs w:sk + m:jks w:si + m:kis w:sj")


def operator_form_check(a, r):
    """For skew r:  r#(a*) * r#(b*) = r#( R(r#(a*))^T b* + L(r#(b*))^T a* )."""
    if not r.is_skew():
        raise ValueError("operator form requires a skew-symmetric r")
    star = a.star
    return check_identities(((OPERATOR_FORM,),), {"m": star.exact, "r": r.exact}, star.p)


def cyclic_form_check(a, r):
    """For skew nondegenerate r: the inverse form omega = r^{-1} satisfies
    omega(x*y, z) + omega(y*z, x) + omega(z*x, y) = 0."""
    if not r.is_skew():
        raise ValueError("cyclic form requires a skew-symmetric r")
    omega = solve(r.exact, identity(r.n, r.p), r.p)
    if omega is None:
        raise ValueError("cyclic form requires a nondegenerate r")
    star = a.star
    return check_identities(((CYCLIC_FORM,),), {"m": star.exact, "w": omega}, star.p)


# coboundary_correspondence's two systems for the unknown Y = r1 at x = e_x,
# entry [u][v], with L_x[v][t] = m:xtv, R_x[u][t] = m:txu and S = r + r^T:
#   Y L_x^T - R_x Y = S L_x^T - R_x S,   L_x Y - Y R_x^T = S R_x^T - L_x S,
# each as the coefficient of Y[a][b] (e the identity) and its right-hand side.
CORRESPONDENCE = (
    (Terms("e:ua m:xbv - e:bv m:axu", "xuvab"),
     Terms("r:ut m:xtv + r:tu m:xtv - m:txu r:tv - m:txu r:vt", "xuv")),
    (Terms("e:bv m:xau - e:ua m:bxv", "xuvab"),
     Terms("r:ut m:txv + r:tu m:txv - m:xtu r:tv - m:xtu r:vt", "xuv")),
)


def coboundary_correspondence(a, r):
    """Decide whether some r1 satisfies the two auxiliary linear systems

        (id (x) L(x) - R(x) (x) id)(S - r1) = 0,
        (L(x) (x) id - id (x) R(x))(S + r1) = 0      for all basis x,

    with S = r + tau(r); returns (solvable, r1-or-None) with free variables
    of the exact elimination set to zero.
    """
    star = a.star
    n, p = star.n, star.p
    ops = {"m": star.exact, "r": r.exact, "e": identity(n, p)}
    # both systems on one denominator, which cancels from a Y = b
    (a1, b1, a2, b2), _ = common(*(evaluate(t, ops, p) for system in CORRESPONDENCE
                                   for t in system))
    # the rows of x, u, v in order, each the first system's and the second's
    sol = solve(Exact(np.stack([a1, a2], axis=3).reshape(-1, n * n), 1, p),
                Exact(np.stack([b1, b2], axis=3).reshape(-1, 1), 1, p), p)
    if sol is None:
        return False, None
    return True, RTensor(Exact(sol.num.reshape(n, n), sol.den, p), p)
