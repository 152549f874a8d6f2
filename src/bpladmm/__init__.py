"""Multi-block Bregman proximal linearized ADMM, with robust PCA and DC
optimal power flow applications and a benchmark command line."""

__version__ = "0.1.0"
