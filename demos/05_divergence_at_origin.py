"""
Why the current fails to exist at the origin for d > 1
======================================================

At x = 0 the first-chaos mass is int_0^T t^(-d/2) dt: finite for d = 1,
logarithmically divergent for d = 2, and power divergent beyond.  The
divergence scan computes the cutoff masses in closed form and classifies
the blow-up, reproducing the negative result quantitatively.
"""

from hidacur import default_cutoffs, divergence_scan

T = 1.0
print(f"{'d':>2} {'verdict':>10} {'model':>8} {'rate':>9}  note")
for d in range(1, 7):
    rep = divergence_scan(d, T, default_cutoffs(T))
    if d == 1:
        note = "limit 2*sqrt(T) = 2"
    elif d == 2:
        note = "log slope 1"
    else:
        note = f"exponent 1 - d/2 = {1 - d / 2:g}"
    print(f"{d:>2} {rep.verdict:>10} {rep.model:>8} {rep.rate:>9.4f}  {note}")

# the (cutoff, mass) pairs behind the d = 2 verdict
print("\n(delta, mass) for d=2:")
rep = divergence_scan(2, T, default_cutoffs(T, k=4))
for delta, mass in zip(rep.cutoffs, rep.masses):
    print(f"{delta:8.0e} {mass:10.6f}")
