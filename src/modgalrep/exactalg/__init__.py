"""Exact base arithmetic, one module per ring: `arith` holds the integers
and the unit groups of Z/nZ, `gf` the finite fields and their polynomials,
and `intmat` the integer lattices and the one exact matrix product over Z
and F_l.  Import from those modules; this package re-exports nothing."""
