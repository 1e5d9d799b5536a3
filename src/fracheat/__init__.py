"""Solver for the 1D time-fractional diffusion equation with two-parameter
nonlocal boundary conditions.

The equation couples a Caputo time derivative of order gamma in (0, 1)
with a variable-diffusivity second-order operator on the unit interval;
the boundary conditions tie the endpoint values together through alpha
and the endpoint fluxes through beta.  The package provides the implicit
weighted difference scheme with its O(N) bordered-tridiagonal solver
(:mod:`fracheat.stepper`), the discrete energy norm and stability
threshold (:mod:`fracheat.norms`), manufactured problems with known
exact solutions (:mod:`fracheat.manufactured`), and a CLI for
convergence and stability studies (:mod:`fracheat.cli`, run as
``python -m fracheat`` or the ``fracheat`` script).
"""

__version__ = "0.1.0"
