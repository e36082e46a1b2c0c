"""The Frobenius-root automaton: escape-set sizes of a principal sequence.

S = F_p[x_1, ..., x_n] is free over S^p on the x^b, b in [0, p)^n, so the
p-th root of an ideal K (the least L with K inside L^[p]) is generated by
the x^b-components of K's generators; (u^p K)^[1/p] = u K^[1/p], and K
lies in J^[q] exactly when K^[1/q] lies in J (Blickle-Mustata-Smith,
Michigan Math. J. 57, 2008). Write a = q h + r with r in [0, q)^t and the
digit vectors of r as d_0, d_1, ... from the lowest; with K_0 = (1) and
K_(j+1) = (K_j f^(d_j))^[1/p], f^a escapes J^[q] exactly when f^h K_e does
not lie in J. So |V_e| = sum over the states K of c_e(K) w(K), where
c_e(K) digit strings lead to K and w(K) = #{h : f^h K not in J}, a
level-0 escape set, swept from K (`regions._principal_escape_set`). A
state is a reduced Groebner basis, so equal ideals are one state, and
there are finitely many: their generators have degree at most the sum of
the deg f_i (ibid.), the p-fractal of Monsky-Teixeira (J. Algebra 280,
2004).
"""

from __future__ import annotations

from math import prod

from .groebner import GroebnerBasis, PowerTable, buchberger
from .regions import IdealSequence, _principal_escape_set
from .ring import Polynomial


class RootAutomaton:
    """The automaton of the principal `entries` against the Frobenius
    family `fam`. Counts are pushed level by level from the states reached,
    so only those states are explored, and only the last level's counts
    are kept. All the work is charged to `counter`: each new edge (one root
    and one `buchberger`), each probe of a weight's sweep, and each count
    pushed from a state to a target, once per bit of the count, since the
    rows of a level are as long as its counts. The sub-sequence of the
    entries in a bitmask T walks the same edges with digits zero off T,
    and the positive size is the inclusion-exclusion of the sub-sequences'
    sizes."""

    def __init__(self, entries, fam, counter):
        self.entries, self.fam, self.counter = entries, fam, counter
        self.ring, self.basis = fam.ring, fam.level_basis(0)
        # the entries' powers modulo the zero ideal, owned here (not shared
        # through `power_table`), so they are freed with the automaton
        zero = GroebnerBasis(self.ring, ())
        self.tables = [PowerTable(I, zero) for I in entries]
        unit = GroebnerBasis(self.ring, [self.ring.one()])
        self.states = {unit: 0}
        self.bases = [unit]
        self.edges = [{}]
        self.factors = {}
        self.moves = {}
        self.weights = {}
        self.split = {}
        self.level = 0
        self.counts = {T: {0: 1} for T in range(1, 1 << len(entries))}

    def sizes(self, e: int) -> tuple:
        """(|V_e|, its positive points, the size of each entry's own escape
        set). A level below the last one counted starts again from 0."""
        if e < self.level:
            self.level, self.counts = 0, {T: {0: 1} for T in self.counts}
        while self.level < e:
            self.counts = {T: self._push(counts, T) for T, counts in self.counts.items()}
            self.level += 1
        sizes = {T: sum(c * self.weight(k, T) for k, c in counts.items())
                 for T, counts in self.counts.items()}
        sizes[0] = 1  # no entries: 1 escapes the proper ideal J^[q]
        full = len(sizes) - 1
        positive = sum((-1) ** bin(full ^ T).count("1") * n for T, n in sizes.items())
        return sizes[full], positive, tuple(sizes[1 << i] for i in range(len(self.entries)))

    def _push(self, counts: dict, T: int) -> dict:
        """The counts one level up of the sub-sequence T."""
        reached = {}
        for k, c in counts.items():
            for target, n in self.moves_of(k, T).items():
                self.counter.charge(c.bit_length())
                reached[target] = reached.get(target, 0) + n * c
        return reached

    def moves_of(self, k: int, T: int) -> dict:
        """{target: the number of digit vectors d, zero off T, whose edge
        leads from the state K = k to it}. A larger d gives a smaller K f^d
        and so a smaller root: where the two corners of a box of digit
        vectors reach the same state, so does every d in the box. The box
        of T is halved along its longest side until they do, so a large p
        costs about log2(p) edges per state reached."""
        if (k, T) not in self.moves:
            found = self.moves[k, T] = {}

            def count(lo: tuple, hi: tuple):
                target = self.edge(k, lo)
                if target == self.edge(k, hi):
                    found[target] = found.get(target, 0) + prod(b - a + 1 for a, b in zip(lo, hi))
                    return
                j = max(range(len(lo)), key=lambda i: hi[i] - lo[i])
                mid = (lo[j] + hi[j]) // 2
                count(lo, hi[:j] + (mid,) + hi[j + 1:])
                count(lo[:j] + (mid + 1,) + lo[j + 1:], hi)

            t, top = len(self.entries), self.ring.p - 1
            count((0,) * t, tuple(top if T >> j & 1 else 0 for j in range(t)))
        return self.moves[k, T]

    def edge(self, k: int, d: tuple) -> int:
        """The state (K f^d)^[1/p] for the state K = k and the digit vector d.
        The digit factor f^d is the product over the entries of the powers
        f_i^(d_i), each read from the entry's own power table
        (`groebner.PowerTable`), so the powers of one entry are built once
        for all its digits and all the states."""
        target = self.edges[k].get(d)
        if target is None:
            self.counter.charge()
            factor = self.factors.get(d)
            if factor is None:
                factor = self.factors[d] = prod(
                    (table.power(a)[0] for table, a in zip(self.tables, d) if a),
                    start=self.ring.one())
            basis = buchberger(self._root([g * factor for g in self.bases[k].polys]), self.ring)
            target = self.states.setdefault(basis, len(self.bases))
            if target == len(self.bases):
                self.bases.append(basis)
                self.edges.append({})
            self.edges[k][d] = target
        return target

    def _root(self, polys) -> list:
        """Generators of the p-th root of the ideal of `polys`: the
        x^b-components of each, c x^(pa + b) contributing c x^a (c^p = c in
        F_p), row-reduced over F_p (`_echelon`)."""
        ring, p, split = self.ring, self.ring.p, self.split
        rows = []
        for f in polys:
            parts = {}
            for m, c in f.coeffs.items():
                if m not in split:
                    exps = ring.unpack(m)
                    split[m] = ring.pack([a % p for a in exps]), ring.pack([a // p for a in exps])
                low, high = split[m]
                parts.setdefault(low, {})[high] = c
            rows.extend(parts.values())
        return _echelon(rows, ring)

    def weight(self, k: int, T: int) -> int:
        """#{h in N^T : f^h K not in J} for the state K = k: the level-0
        escape set of the sub-sequence T swept from K's normal forms modulo
        J (`regions._principal_escape_set`), summed over its rows. The sweep
        assumes that its empty prefix escapes, so a K inside J, whose weight
        is 0, is told by one probe charged before it."""
        if (k, T) not in self.weights:
            self.counter.charge()
            start = self.basis.reduce_products(self.bases[k].polys, (self.ring.one(),))
            sub = IdealSequence(I for j, I in enumerate(self.entries) if T >> j & 1)
            self.weights[k, T] = sum(top + 1 for top in _principal_escape_set(
                sub, self.fam, 0, None, self.counter, start=start).values()) if start else 0
        return self.weights[k, T]


def _echelon(rows, ring) -> list:
    """The reduced row echelon form of the coefficient maps `rows` over
    F_p, with the monomials as columns, the largest first: polynomials with
    distinct leading monomials, none of which occurs in another, that span
    the same F_p-space."""
    p = ring.p
    columns = sorted({m for row in rows for m in row}, key=ring.key, reverse=True)
    index = {m: j for j, m in enumerate(columns)}
    pivots = {}

    def subtract(row, c, pivot):
        for j, v in pivot.items():
            v = (row.get(j, 0) - c * v) % p
            if v:
                row[j] = v
            else:
                del row[j]

    for row in rows:
        if len(pivots) == len(columns):
            break  # the rows span every column
        row = {index[m]: c for m, c in row.items()}
        for j in pivots.keys() & row.keys():
            subtract(row, row[j], pivots[j])
        if row:
            lead = min(row)
            inv = pow(row[lead], p - 2, p)
            row = {j: c * inv % p for j, c in row.items()}
            for pivot in pivots.values():
                if lead in pivot:
                    subtract(pivot, pivot[lead], row)
            pivots[lead] = row
    return [Polynomial(ring, {columns[j]: c for j, c in row.items()}) for row in pivots.values()]
