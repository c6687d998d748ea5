"""The splitting Cl(p,q,z) = M (x) C into a central simple part and a core.

Let 2m be p+q rounded down to an even number and omega' = e_0...e_{2m-1}.
M is the subalgebra of the first 2m generators; it is central simple of
dimension 4**m.  The twisted generators g_j = omega'*e_{2m+j} (j = 0..c-1,
c = n - 2m) commute with M and anticommute with each other, and
g_j**2 = omega'**2 * e_{2m+j}**2: each null e_k gives an f_k with f_k**2 = 0,
and when p+q is odd, h = omega'*e_{p+q-1} squares to +1 or -1.  So the
twisted generators generate a copy of the core algebra C = Cl(r,s,z) with
r+s <= 1, and the product map M (x) C -> Cl(p,q,z) is an isomorphism.

Core generator j stands for g_j, so a core blade b with t bits stands for
g_b = g_{j1}...g_{jt} = (omega'**2)**(t//2) * omega'**(t mod 2) * e_(b<<2m),
since omega' commutes with every e_k with k >= 2m.  `twisted` is this map,
and every other map here derives from it with blade signs: `blade` gives
e_A * g_b, a bijection of the (M blade, core blade) pairs onto the blades,
and `_block` reads A back off a blade.

Every two-sided ideal is M (x) J for a two-sided ideal J of C (M is
central simple), and writing x = sum_A e_A * lambda_A, the ideal generated
by x is M (x) (the ideal of C generated by the lambda_A).  In blade
coordinates the core bits are the high bits, so lifting the RREF rows of
J block by block, one block per M blade A, gives the RREF of M (x) J
directly: a lifted row keeps the core pivot, and distinct A give
distinct pivots.  `components` is the one inverse map: it reads J back
off the rows of M (x) J whose pivot lies in block 0, and `ideal_closure`
checks that `compose` rebuilds each generator from its parts.  When
p+q <= 1, m = 0 and every map here is the identity.
"""

from __future__ import annotations

from .blades import Signature, blade_mul, sign_mask
from .linalg import Echelon
from .structure import check_failed


class CoreSplit:
    """The splitting of one signature: the core signature and the blade maps."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.shift = 2 * ((sig.p + sig.q) // 2)  # 2m: M's generators, bits below
        self.omega = (1 << self.shift) - 1  # the mask of omega'
        self.omega_square = blade_mul(sig, self.omega, self.omega)[0]
        h = self.twisted(1)[1]  # g_0 = omega' * e_2m, which is h when p+q is odd
        h_square = blade_mul(sig, h, h)[0] if sig.p + sig.q > self.shift else 0
        self.core = Signature(int(h_square > 0), int(h_square < 0), sig.z)
        _check_twisted_relations(self)

    def twisted(self, b: int) -> tuple[int, int]:
        """(sign, mask) with g_b = sign * e_mask, for a core blade b.

        omega' * e_(b<<2m) = +e_(omega' | b<<2m): omega's indices are lower.
        """
        t = b.bit_count()
        sign = self.omega_square if t & 2 else 1
        return sign, (b << self.shift) | (self.omega if t & 1 else 0)

    def blade(self, a: int, b: int) -> tuple[int, int]:
        """(sign, mask) with e_a * g_b = sign * e_mask.

        a is a blade of M (a mask below bit 2m), b a blade of the core.
        """
        sign, mask = self.twisted(b)
        s, mask = blade_mul(self.sig, a, mask)
        return sign * s, mask

    def components(self, terms: dict) -> dict[int, dict]:
        """The nonzero core terms lambda_A with x = sum_A e_A * lambda_A, keyed by A."""
        parts: dict = {}
        for x, c in terms.items():
            a, b = self._block(x), x >> self.shift
            sign, _ = self.blade(a, b)
            parts.setdefault(a, {})[b] = c if sign > 0 else -c
        return parts

    def compose(self, parts: dict) -> dict:
        """sum_A e_A * g(lambda_A), from the core parts lambda_A keyed by A."""
        out: dict = {}
        for a, part in parts.items():
            for b, c in part.items():
                sign, x = self.blade(a, b)
                out[x] = out.get(x, 0) + (c if sign > 0 else -c)
        return {x: c for x, c in out.items() if c}

    def lift(self, core_rows: list[dict]) -> Echelon:
        """The echelon of M (x) J from the RREF rows of J.

        Row y lifted through e_A is e_A * g(y), divided by the sign of its
        pivot.  For a term c*b of y with g_b = s*e_X, e_A * e_X has the sign
        of the parity of A & sign_mask(X), so relative to the pivot's lift
        the term is +-c by the parity of A & rel, the same rel for every A.
        """
        sig, rows = self.sig, []
        for row in core_rows:
            s0, x0 = self.twisted(min(row))
            pivot_mask = sign_mask(sig, x0)
            terms = []
            for b, c in row.items():
                s, x = self.twisted(b)
                c = c if s == s0 else -c
                terms.append((x, sign_mask(sig, x) ^ pivot_mask, c, -c))
            for a in range(1 << self.shift):
                rows.append({
                    a ^ x: neg if (a & rel).bit_count() & 1 else c
                    for x, rel, c, neg in terms
                })
        return Echelon.from_rref(rows)

    def _block(self, x: int) -> int:
        """The M blade A of the pair (A, b) that blade x stands for."""
        return (x ^ self.twisted(x >> self.shift)[1]) & self.omega


def _check_twisted_relations(split: CoreSplit) -> None:
    """The relations that make the core blade map an isomorphism.

    Each twisted generator (read off the map at A = 0) commutes with the
    generators of M; products of two of them are what the map says for
    the core blade they form, and reversing the pair flips the sign; each
    squares to its core generator's square.
    """
    sig, core = split.sig, split.core

    def fail(message):
        return check_failed(sig, "core split", message)

    twisted = [split.blade(0, 1 << j) for j in range(core.n)]
    for j, (sj, gj) in enumerate(twisted):
        for i in range(split.shift):
            if blade_mul(sig, 1 << i, gj) != blade_mul(sig, gj, 1 << i):
                raise fail(f"twisted generator g{j} does not commute with e{i}")
        for k in range(j, core.n):
            sk, gk = twisted[k]
            sign, mask = blade_mul(sig, gj, gk)
            reverse, _ = blade_mul(sig, gk, gj)
            if k == j:
                if (sign, mask) != (core.square(j), 0):
                    raise fail(f"g{j}**2 = {sign}, expected {core.square(j)}")
                continue
            expected = split.blade(0, (1 << j) | (1 << k))
            if (sj * sk * sign, mask) != expected or reverse != -sign:
                raise fail(f"g{j}*g{k} disagrees with the core blade map")
