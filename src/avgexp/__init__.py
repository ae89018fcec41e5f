"""Average exponent of elliptic-curve point groups over prime fields.

Per-prime invariant factors (d, e) with E(F_p) = Z/d x Z/e, division-degree
models for the limit constant, and a prime-sweep harness that checks the
empirical average exponent against half the constant times x.
"""

__version__ = "0.1.0"
