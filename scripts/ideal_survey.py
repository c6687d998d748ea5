#!/usr/bin/env python3
"""Survey the ideal landscape of all small signatures.

For every signature with p+q+z <= max-total this prints the simple/split
class, the radical dimension, the prime ideal dimensions, and how the
principal ideals generated by single basis blades distribute over the
classification verdicts.
"""

import argparse
from collections import Counter

from cliffideals import (
    Multivector,
    Signature,
    classify_pq,
    ideal_classify,
    ideal_closure,
    nil_radical,
    prime_ideals,
)


def survey(sig: Signature) -> str:
    algebra_class = classify_pq(sig).value
    radical = nil_radical(sig)
    primes = [ideal.dim for ideal in prime_ideals(sig)]
    verdicts = Counter(
        ideal_classify(ideal_closure(sig, [Multivector.blade(sig, m)])).verdict.value
        for m in range(sig.dim)
    )
    verdict_text = ", ".join(f"{v}:{c}" for v, c in sorted(verdicts.items()))
    return (
        f"({sig})  dim {sig.dim:>3}  {algebra_class:<6}  "
        f"rad {radical.dim:>3}  primes {primes!s:<10}  blades -> {verdict_text}"
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-total", type=int, default=4, help="largest p+q+z")
    args = ap.parse_args()

    for n in range(args.max_total + 1):
        for p in range(n + 1):
            for q in range(n - p + 1):
                print(survey(Signature(p, q, n - p - q)))


if __name__ == "__main__":
    main()
