"""Fixed pure-Python work that paces the benchmark's time metrics.

The benchmark runs this program in a fresh interpreter next to every job and
divides the job's time by its time. On a shared host the speed of the same
code drifts by half over tens of seconds; both programs drift together, so
the ratio holds still while the raw seconds do not. The loop has the shape
of frobvol's hot path (sparse polynomial products: exponent tuples summed
into a dict of coefficients mod p) but shares no code with it, so a change
to frobvol cannot move it. Do not change it: every recorded ratio is in
units of this program.
"""


def main(rounds: int = 18) -> int:
    p = 7
    f = {(i, j, i ^ j): (3 * i + j) % p + 1 for i in range(10) for j in range(10)}
    for _ in range(rounds):
        out = {}
        for m1, c1 in f.items():
            for m2, c2 in f.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        product = {m: c % p for m, c in out.items() if c % p}
    return len(product)


if __name__ == "__main__":
    main()
