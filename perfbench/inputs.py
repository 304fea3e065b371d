"""Seeded single-pair query inputs, made without the program under test.

Elements of a simply laced Weyl group are held as integer matrices whose
columns are the images of the simple roots, with the simple reflections
numbered as the program numbers them.  s is a right descent of w exactly
when column s has a negative entry, and right multiplication by s rewrites
only column s.  That is all the arithmetic needed to draw a random reduced
word x and a reduced subword y <= x with a known l(x) - l(y).
"""

from __future__ import annotations

import random

# Dynkin diagram edges in the program's numbering (0-based simple reflections).
EDGES = {
    "D4": (4, ((0, 1), (1, 2), (1, 3))),
    "E7": (7, ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6))),
}
POSITIVE_ROOTS = {"D4": 12, "E7": 63}


class Group:
    def __init__(self, type_text: str):
        n, edges = EDGES[type_text]
        self.rank = n
        self.longest = POSITIVE_ROOTS[type_text]
        self.cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in edges:
            self.cartan[i][j] = self.cartan[j][i] = -1

    def identity(self) -> list[list[int]]:
        return [[int(r == c) for r in range(self.rank)] for c in range(self.rank)]

    def times_s(self, cols: list[list[int]], s: int) -> list[list[int]]:
        a_s, col_s = self.cartan[s], cols[s]
        return [
            [v - a_s[c] * w for v, w in zip(cols[c], col_s)] if a_s[c] else cols[c]
            for c in range(self.rank)
        ]


def fmt(word: list[int]) -> str:
    return ",".join(map(str, word)) if word else "e"


def query(group: Group, rng: random.Random, gap: int) -> tuple[str, str]:
    """(x, y) words with y a subword of reduced x and l(x) - l(y) == gap.

    l(x) is drawn uniformly from gap..l(w0) and gap letter positions are
    dropped; the draw is repeated until the subword is reduced too.  Long
    x rarely survive, so accepted pairs lean towards short x.
    """
    while True:
        ell = rng.randint(gap, group.longest)
        dropped = set(rng.sample(range(ell), gap))
        x_cols = y_cols = group.identity()
        x, y = [], []
        for k in range(ell):
            s = rng.choice([i for i in range(group.rank) if min(x_cols[i]) >= 0])
            x.append(s)
            x_cols = group.times_s(x_cols, s)
            if k in dropped:
                continue
            if min(y_cols[s]) < 0:  # s is a descent of y: the subword is not reduced
                break
            y.append(s)
            y_cols = group.times_s(y_cols, s)
        else:
            return fmt(x), fmt(y)


def query_block(group: Group, rng: random.Random, max_gap: int) -> list[tuple[str, str, str, int]]:
    """One query per gap 1..max_gap and kind, shuffled, alternating rpoly and vspace.

    Returns (kind, x, y, gap) tuples.  Every block holds the same mix of
    gaps, so the latency spread between seeds comes from the words alone.
    """
    rpoly_gaps = list(range(1, max_gap + 1))
    vspace_gaps = list(rpoly_gaps)
    rng.shuffle(rpoly_gaps)
    rng.shuffle(vspace_gaps)
    block = []
    for gr, gv in zip(rpoly_gaps, vspace_gaps):
        block.append(("rpoly", *query(group, rng, gr), gr))
        block.append(("vspace", *query(group, rng, gv), gv))
    return block
