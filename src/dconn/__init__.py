"""Discrete connections on trivialized principal bundles.

The package provides:

* matrix Lie groups (SO(2), SO(3), SE(3), R^n) with closed-form
  exponential and principal logarithm (``dconn.lie_group``);
* trivialized principal bundles and their pair calculus (``dconn.bundle``);
* discrete connections: group-valued forms on configuration pairs, their
  vertical/horizontal decompositions, quotient splittings and higher-order
  variants (``dconn.connection``);
* continuous limits, exponentiated, Cayley and forward-difference
  discretizations, and order-of-accuracy estimation (``dconn.limits``);
* discrete Lagrangian mechanics: momentum maps, Euler-Lagrange stepping and
  mechanical connections (``dconn.mechanical``);
* SO(2)-valued parallel transport, curvature and holonomy on triangulated
  surfaces with per-triangle constant metrics (``dconn.levi_civita``);
* a deterministic JSON-reporting command line tool (``dconn.cli``), whose
  reports and complex files one canonical JSON writer writes
  (``dconn.canonical``).
"""

from __future__ import annotations

__version__ = "0.1.0"
