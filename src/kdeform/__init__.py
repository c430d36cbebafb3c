"""kdeform: exact symbolic engine for kappa-deformed orthogonal Hopf algebras.

The package constructs deformed inhomogeneous orthogonal Hopf algebras
U_{kappa,tau}(iso(g)) for an arbitrary rational metric g and deformation
vector tau, in five presentations (``model``), and machine-checks them
exactly: the Hopf axioms and reality conditions (``hopf``), the printed
displays and basis covariance (``model``), the classical r-matrix and its
Schouten bracket (``rmatrix``), and a catalog of Drinfeld twists with their
cocycle conditions and twisted structures (``twist``).  Coefficients are
exact over Q(i)[h^(+-1), xi] (``scalar``); algebra elements are normal-ordered
by PBW rewriting (``ncalg``).
"""

__version__ = "0.1.0"
