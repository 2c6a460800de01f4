"""Exact-arithmetic Lie theory: root systems, weight multiplicities, tensor
decompositions, node-deletion gradings and the forward induction search.

Each layer is imported from its own module (lieinduct.root_system,
lieinduct.rep_theory, lieinduct.tensor_ops, lieinduct.deletion,
lieinduct.induction, lieinduct.errors); the package root loads none of them.
"""

__version__ = "0.1.0"
