#!/usr/bin/env python3
"""Small end-to-end walkthrough: build a weight table, convert its ket
side to equivalent Schur parameters, and query a correlation."""

from fractions import Fraction

from youngfock.conversion import schur_params_from_vir, z_linearity_witness
from youngfock.measures import (
    MeasureSpec,
    MiwaParams,
    correlation,
    weight_table,
)
from youngfock.operators import KerovParams
from youngfock.partitions import HalfInt
from youngfock.rings import rational_str


def main() -> None:
    z, w = Fraction(1, 2), Fraction(1, 3)
    x = {1: Fraction(1), 2: Fraction(1, 2)}
    y = {1: Fraction(1)}
    spec = MeasureSpec(kind="virasoro", params=MiwaParams(x=x, y=y),
                       kerov=KerovParams(z=z, w=w), truncation=4)
    table = weight_table(spec)

    print(f"weight table (z={z}, w={w}), degree <= {table.degree}")
    for lam in table.partitions():
        print(f"  {str(list(lam.parts)):16s} weight {rational_str(table.weights[lam]):>12s}"
              f"   normalized {rational_str(table.normalized(lam))}")
    print(f"  truncated normalizer: {rational_str(table.z_trunc)}")

    xs = schur_params_from_vir(x, z, 4)
    wits = z_linearity_witness(x, 4)
    print("\nequivalent Schur parameters of the ket side (X_N = A_N z + B_N):")
    for n, (val, wit) in enumerate(zip(xs, wits), start=1):
        print(f"  X_{n} = {rational_str(val):>8s}   A_{n} = {rational_str(wit.a)},"
              f" B_{n} = {rational_str(wit.b)}")

    pt = HalfInt(1)
    print(f"\ncorrelation of a particle at {pt}: "
          f"{rational_str(correlation([pt], table))}")


if __name__ == "__main__":
    main()
