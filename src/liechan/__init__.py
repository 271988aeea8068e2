"""Quantum channels from Lie algebra representations.

Generator-set factories (su(n), spin-s, g2, Clifford), the Kraus channels
they induce, closed-form channel actions and product identities, and
generalized Bloch manifold tooling.  The API lives in the submodules
(``from liechan import channel``): ``matcore``, ``repgen``, ``channel``,
``bloch``, ``verify`` and ``cli``.
"""

__version__ = "0.3.0"
