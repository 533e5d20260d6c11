"""r-tensors, the Yang-Baxter operators and the coboundary machinery.

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

from .scalars import half
from .tensors import (Tensor3, SLOT_PATTERNS, Terms, Identity, evaluate_scalars,
                      check_identities, mat_add, mat_sub, mat_scale, mat_mul,
                      mat_neg, mat_zero, mat_is_zero, mat_eq, mat_inverse,
                      transpose, left_mult_basis, right_mult_basis, vec_zero,
                      solve_linear)
from .bialgebras import Comultiplication


class RTensor:
    """r = sum coeff[i][j] e_i (x) e_j."""

    __slots__ = ("n", "p", "coeff")

    def __init__(self, coeff, p=0):
        object.__setattr__(self, "n", len(coeff))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeff", coeff)

    def __setattr__(self, name, value):
        raise AttributeError("RTensor is immutable")

    @classmethod
    def from_entries(cls, n, entries, p=0):
        from .scalars import Scalar
        coeff = mat_zero(n, n, p)
        for (i, j), val in entries.items():
            if not isinstance(val, Scalar):
                val = Scalar(val, 1, p)
            coeff[i][j] = val
        return cls(coeff, p)

    def tau(self):
        return RTensor(transpose(self.coeff), self.p)

    def add(self, other):
        return RTensor(mat_add(self.coeff, other.coeff), self.p)

    def sub(self, other):
        return RTensor(mat_sub(self.coeff, other.coeff), self.p)

    def scale(self, s):
        return RTensor(mat_scale(s, self.coeff), self.p)

    def sym_part(self):
        h = half(self.p)
        return RTensor(mat_scale(h, mat_add(self.coeff, transpose(self.coeff))),
                       self.p)

    def skew_part(self):
        h = half(self.p)
        return RTensor(mat_scale(h, mat_sub(self.coeff, transpose(self.coeff))),
                       self.p)

    def is_skew(self):
        return mat_is_zero(mat_add(self.coeff, transpose(self.coeff)))

    def is_symmetric(self):
        return mat_eq(self.coeff, transpose(self.coeff))

    def sharp(self):
        """Matrix of r# : P* -> P on dual/primal coordinates."""
        return transpose(self.coeff)

    def is_zero(self):
        return mat_is_zero(self.coeff)

    def __eq__(self, other):
        if not isinstance(other, RTensor):
            return NotImplemented
        return self.p == other.p and mat_eq(self.coeff, other.coeff)


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
    t = evaluate_scalars(YBE_OPERATORS[which],
                         {"a": r.coeff, "b": r.coeff, "m": mul.c}, mul.p)
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
    return check_identities(((ident,),), {"a": r.coeff, "b": r.coeff, "m": mul.c},
                            mul.p)


# alpha(e_i) = r L(e_i)^T - R(e_i) r, and the symmetric-part defect
# M(e_i) = L(e_i) S - S R(e_i)^T with S = r + tau(r), as matrices [a][b].
COBOUNDARY_ALPHA = Terms("r:ak m:ikb - m:kia r:kb", "iab")
_SYM_DEFECT = "m:ika r:kb + m:ika r:bk - r:ak m:kib - r:ka m:kib"
SYM_DEFECT = Terms(_SYM_DEFECT, "iab")


def coboundary_alpha(a, r):
    """alpha(x) = (id (x) L(x) - R(x) (x) id) r, as a comultiplication."""
    star = a.star
    return Comultiplication(star.n, star.p, evaluate_scalars(
        COBOUNDARY_ALPHA, {"m": star.c, "r": r.coeff}, star.p))


def sym_defect(star, r):
    """M(e_i) = L(e_i) S - S R(e_i)^T for each basis element e_i."""
    return evaluate_scalars(SYM_DEFECT, {"m": star.c, "r": r.coeff}, star.p)


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
        return check_identities(((CON1,),), {"m": star.c, "r": r.coeff}, p)
    if which not in EQV and which not in COSP:
        raise ValueError(f"unknown condition {which!r}")
    M = sym_defect(star, r)
    if which in EQV:
        return check_identities(((EQV[which],),), {"m": star.c, "M": M}, p)
    ident = COSP[which]
    ops = {"m": star.c, "M": M,
           "P": ybe_operator(star, r, "P").t, "Q": ybe_operator(star, r, "Q").t}
    ops.update((name, evaluate_scalars(terms, {"r": r.coeff, "m": star.c}, p))
               for name, terms in _R_TIMES_M.items() if name in ident.lhs.ranks)
    # the witness is the first nonzero entry of the residual at (i, a, b)
    return check_identities([[ident]], {k: ops[k] for k in ident.lhs.ranks},
                            p).first_entry()


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
    return check_identities(((OPERATOR_FORM,),), {"m": star.c, "r": r.coeff}, star.p)


def cyclic_form_check(a, r):
    """For skew nondegenerate r: the inverse form omega = r^{-1} satisfies
    omega(x*y, z) + omega(y*z, x) + omega(z*x, y) = 0."""
    if not r.is_skew():
        raise ValueError("cyclic form requires a skew-symmetric r")
    omega = mat_inverse(r.coeff, r.p)
    if omega is None:
        raise ValueError("cyclic form requires a nondegenerate r")
    star = a.star
    return check_identities(((CYCLIC_FORM,),), {"m": star.c, "w": omega}, star.p)


def coboundary_correspondence(a, r):
    """Decide whether some r1 satisfies the two auxiliary linear systems

        (id (x) L(x) - R(x) (x) id)(S - r1) = 0,
        (L(x) (x) id - id (x) R(x))(S + r1) = 0      for all basis x,

    with S = r + tau(r); returns (solvable, r1-or-None) with free variables
    of the exact elimination set to zero.
    """
    star = a.star
    n, p = star.n, star.p
    S = mat_add(r.coeff, transpose(r.coeff))
    L = [left_mult_basis(star, i) for i in range(n)]
    R = [right_mult_basis(star, i) for i in range(n)]
    nvars = n * n
    rows = []
    rhs = []
    # unknown Y = r1 with variables y[u][v] flattened as u*n + v
    for x in range(n):
        Lx, Rx = L[x], R[x]
        # equation 1:  Y L_x^T - R_x Y = S L_x^T - R_x S   (entrywise)
        target1 = mat_sub(mat_mul(S, transpose(Lx)), mat_mul(Rx, S))
        # equation 2:  L_x Y - Y R_x^T = -(L_x S - S R_x^T)
        target2 = mat_neg(mat_sub(mat_mul(Lx, S), mat_mul(S, transpose(Rx))))
        for u in range(n):
            for v in range(n):
                row = vec_zero(nvars, p)
                # (Y L_x^T)[u][v] = sum_m Y[u][m] L_x[v][m]
                for m in range(n):
                    row[u * n + m] = row[u * n + m] + Lx[v][m]
                # -(R_x Y)[u][v] = -sum_m R_x[u][m] Y[m][v]
                for m in range(n):
                    row[m * n + v] = row[m * n + v] - Rx[u][m]
                rows.append(row)
                rhs.append(target1[u][v])
                row = vec_zero(nvars, p)
                # (L_x Y)[u][v] = sum_m L_x[u][m] Y[m][v]
                for m in range(n):
                    row[m * n + v] = row[m * n + v] + Lx[u][m]
                # -(Y R_x^T)[u][v] = -sum_m Y[u][m] R_x[v][m]
                for m in range(n):
                    row[u * n + m] = row[u * n + m] - Rx[v][m]
                rows.append(row)
                rhs.append(target2[u][v])
    sol = solve_linear(rows, rhs, p)
    if sol is None:
        return False, None
    coeff = [[sol[u * n + v] for v in range(n)] for u in range(n)]
    return True, RTensor(coeff, p)
