"""Residual curves for the three bundled scenarios.

For each scenario the script runs ``entmono example --id k``, which profiles
the state, sweeps a tightened bound against its baseline over a power grid,
and writes alpha,y1,y2 CSV next to this file; the scenarios themselves are
defined once, in entmono.harness. y = lhs - rhs, so for the lower bounds
both curves stay above zero and the tightened curve sits below the
baseline; for the negative powers the mean-form curve sits above the
summed form and below zero.
"""

import pathlib

from entmono.harness import main

HERE = pathlib.Path(__file__).resolve().parent

for k, name in enumerate(("tripartite", "negative_powers", "eof_w_state"), start=1):
    out = HERE / f"residuals_{name}.csv"
    if main(["example", "--id", str(k), "--out", str(out)]) != 0:
        raise SystemExit(f"entmono example --id {k} failed")
    rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
    y1 = [row[1] for row in rows]
    gap = [row[2] - row[1] for row in rows]
    print(f"  y1 range [{min(y1):.6f}, {max(y1):.6f}], "
          f"largest curve gap {max(gap, key=abs):.6f}")
    print(f"  wrote {out.name}")
    print(flush=True)  # before the next example's summary on stderr

print("The curves meet where the coefficient families coincide: at the")
print("power 2 for concurrence bounds and sqrt(2) for the EoF bounds.")
